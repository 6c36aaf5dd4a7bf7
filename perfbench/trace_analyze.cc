// Workload trace-analyze: the offline variance pipeline with no traffic
// served. Set-up records one fully instrumented trace of the TPC-C mix on a
// memory-resident minidb (4 clients, a fixed number of transactions, lock
// waits chaining across threads) and saves it; the timed part repeats
// LoadTraceChecked -> VarianceAnalysis -> AggregateFactors -> the five
// per-transaction-type re-analyses on that file, single-threaded, as every
// Profiler iteration and any cluster-side aggregator does.
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/engine_counters.h"
#include "perfbench/profiling.h"
#include "src/minidb/engine.h"
#include "src/vprof/analysis/critical_path.h"
#include "src/vprof/analysis/variance_tree.h"
#include "src/vprof/registry.h"
#include "src/vprof/runtime.h"
#include "src/vprof/service/controller.h"
#include "src/vprof/service/online_tree.h"
#include "src/vprof/trace.h"
#include "src/workload/tpcc.h"

namespace perfbench {

namespace {

constexpr int kClients = 4;
constexpr int kTransactionsPerClient = 15000;

// Root-to-node path of a variance-tree node, e.g.
// "run_transaction/row_sel/lock_rec_lock"; both the batch and the online
// tree label nodes the same way.
template <typename Tree>
std::string PathOf(const Tree& tree, const std::vector<vprof::TreeNode>& nodes,
                   vprof::NodeId id) {
  std::string path;
  for (vprof::NodeId n = id; n > vprof::kRootNode; n = nodes[n].parent) {
    path = tree.NodeLabel(n) + (path.empty() ? "" : "/") + path;
  }
  return path;
}

// The recorded mix leaves out the two transaction types that insert rows
// (NewOrder, Payment): minidb searches a table's B-tree without its index
// latch while another thread inserts under it, which crashes a run now and
// then. Delivery still commits writes through the group-commit log, and a
// skewed customer choice makes Delivery's exclusive and OrderStatus's shared
// customer locks queue behind each other across threads.
workload::TpccOptions RecordingMix() {
  workload::TpccOptions options;
  options.pct_new_order = 0;
  options.pct_payment = 0;
  options.pct_order_status = 35;
  options.pct_delivery = 35;  // the remaining 30% are StockLevel
  options.customer_zipf_theta = 0.99;
  return options;
}

vprof::OnlineTreeOptions OnlineOptions(const AnalysisSetup& setup) {
  vprof::OnlineTreeOptions options;
  options.path_options = setup.path_options;
  return options;
}

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b)) + 1e-3;
}

// Eq. 2 at the root, breakdown bounds, per-type counts, and online/batch
// agreement on the recorded trace. Index and critical-path stages are timed
// here, once per run.
void CheckTrace(const vprof::Trace& trace, uint64_t executes,
                const AnalysisSetup& setup, RunResult* result) {
  if (trace.interval_count() != executes) {
    result->Fail("trace holds " + std::to_string(trace.interval_count()) +
                 " intervals for " + std::to_string(executes) +
                 " Execute calls");
  }
  std::optional<vprof::TraceIndex> index;
  {
    Span span("analysis.index");
    index.emplace(trace);
  }
  std::vector<vprof::IntervalBreakdown> breakdowns;
  {
    Span span("analysis.critical_path");
    breakdowns = vprof::BuildBreakdowns(*index, setup.path_options);
  }
  if (breakdowns.size() != executes) {
    result->Fail(std::to_string(breakdowns.size()) + " breakdowns for " +
                 std::to_string(executes) + " intervals");
  }
  uint64_t over_latency = 0;
  for (const vprof::IntervalBreakdown& b : breakdowns) {
    double covered = b.queue_wait_ns + b.blocked_wait_ns + b.descheduled_ns;
    for (const vprof::PathWindow& w : b.windows) {
      covered += static_cast<double>(w.hi - w.lo);
    }
    if (covered > b.latency_ns() + 1e-6 * b.latency_ns()) ++over_latency;
  }
  if (over_latency > 0) {
    result->Fail(std::to_string(over_latency) +
                 " intervals whose critical-path windows plus waits exceed "
                 "their latency");
  }

  const vprof::VarianceAnalysis analysis(trace, setup.path_options);
  double sum = 0.0;
  for (const vprof::NodeId child : analysis.node(vprof::kRootNode).children) {
    sum += analysis.NodeVariance(child);
  }
  for (const vprof::SiblingCovariance& cov : analysis.covariances()) {
    if (cov.parent == vprof::kRootNode) sum += 2.0 * cov.covariance;
  }
  const double overall = analysis.overall_variance();
  if (!(overall > 0.0) || std::fabs(sum - overall) > 1e-6 * overall + 1.0) {
    result->Fail("Eq. 2 at the root: children sum to " + std::to_string(sum) +
                 ", overall variance " + std::to_string(overall));
  }

  uint64_t per_type = 0;
  for (int label = 1; label <= kTxnLabels; ++label) {
    vprof::CriticalPathOptions options = setup.path_options;
    options.filter_by_label = true;
    options.label_filter = static_cast<vprof::IntervalLabel>(label);
    per_type += vprof::VarianceAnalysis(trace, options).interval_count();
  }
  if (per_type != analysis.interval_count()) {
    result->Fail("per-type interval counts sum to " +
                 std::to_string(per_type) + ", total " +
                 std::to_string(analysis.interval_count()));
  }

  vprof::OnlineVarianceTree tree(OnlineOptions(setup));
  tree.Fold(trace);
  std::optional<vprof::OnlineTreeSnapshot> snapshot;
  {
    Span span("service.snapshot");
    snapshot.emplace(tree.Snapshot());
  }
  std::map<std::string, vprof::NodeId> online_nodes;
  for (size_t i = 0; i < snapshot->nodes.size(); ++i) {
    const auto id = static_cast<vprof::NodeId>(i);
    online_nodes[PathOf(*snapshot, snapshot->nodes, id)] = id;
  }
  std::vector<vprof::TreeNode> batch_nodes;
  for (size_t i = 0; i < analysis.node_count(); ++i) {
    batch_nodes.push_back(analysis.node(static_cast<vprof::NodeId>(i)));
  }
  size_t mismatched = 0;
  std::string first_mismatch;
  for (size_t i = 0; i < batch_nodes.size(); ++i) {
    const auto id = static_cast<vprof::NodeId>(i);
    const std::string path = PathOf(analysis, batch_nodes, id);
    auto it = online_nodes.find(path);
    const bool agree =
        it != online_nodes.end() &&
        Near(snapshot->node_mean[it->second], analysis.NodeMean(id), 1e-9) &&
        Near(snapshot->node_variance[it->second], analysis.NodeVariance(id),
             1e-6);
    if (!agree) {
      if (mismatched++ == 0) first_mismatch = path.empty() ? "(root)" : path;
    }
  }
  if (mismatched > 0 || snapshot->nodes.size() != batch_nodes.size()) {
    result->Fail("online fold disagrees with VarianceAnalysis on " +
                 std::to_string(mismatched) + " of " +
                 std::to_string(batch_nodes.size()) + " nodes (first: " +
                 first_mismatch + "); online tree has " +
                 std::to_string(snapshot->nodes.size()) + " nodes");
  }
  if (SpansEnabled()) {
    vprof::RefinementController controller(setup.root, setup.graph);
    Span span("service.controller_step");
    controller.Step(*snapshot);
  }
}

}  // namespace

RunResult RunTraceAnalyze(const RunOptions& options) {
  RunResult result;
  EnableSpans(options.trace);
  // One warehouse: all four clients share its ten districts' customers.
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = 1;
  minidb::Engine engine(config);
  auto graph = std::make_shared<vprof::CallGraph>();
  minidb::Engine::RegisterCallGraph(graph.get());
  AnalysisSetup setup;
  setup.graph = graph.get();
  setup.root = vprof::LookupFunction("run_transaction");

  // --- set-up: record and save one fully instrumented trace ---------------
  const size_t registered = vprof::RegisteredFunctionCount();
  for (vprof::FuncId id = 0; id < registered; ++id) {
    vprof::SetFunctionEnabled(id, true);
  }
  workload::TpccOptions client_options = RecordingMix();
  client_options.threads = kClients;
  client_options.transactions_per_thread = kTransactionsPerClient;
  client_options.seed = options.seed;
  workload::TpccDriver driver(&engine, client_options);
  std::atomic<uint64_t> executes{0};
  const EngineCounters before = EngineCounters::Read(engine);
  {
    Span span("runtime.start_tracing");
    vprof::StartTracing();
  }
  const workload::TpccResult recorded = driver.RunTyped(
      [&](const minidb::TxnRequest& request) {
        executes.fetch_add(1, std::memory_order_relaxed);
        Span span(ExecuteSpanName(request.type));
        return engine.Execute(request);
      },
      engine.config().warehouses);
  vprof::Trace trace;
  {
    Span span("runtime.stop_tracing");
    trace = vprof::StopTracing();
  }
  vprof::DisableAllFunctions();
  const EngineCounters after = EngineCounters::Read(engine);
  const std::string path = options.scratch_dir + "/recorded.vprf";
  if (!vprof::SaveTrace(trace, path)) {
    result.Fail("SaveTrace failed for " + path);
    return result;
  }
  const uint64_t trace_bytes = std::filesystem::file_size(path);
  result.end_to_end["setup_s"] = SinceStartS();
  if (recorded.aborted > 0) {
    result.Fail(std::to_string(recorded.aborted) +
                " transactions failed while recording");
  }
  if (trace.dropped_record_count() > 0 || !trace.stuck_threads.empty()) {
    result.Fail("recorded trace is truncated");
  }
  const uint64_t intervals = trace.interval_count();
  result.Layer("runtime.trace_bytes_per_interval",
               intervals == 0 ? 0.0
                              : static_cast<double>(trace_bytes) /
                                    static_cast<double>(intervals));
  result.Note("recorded: " + std::to_string(intervals) + " intervals, " +
              std::to_string(executes.load()) + " Execute calls, " +
              std::to_string(trace.invocation_count()) + " invocations, " +
              std::to_string(trace.segment_count()) + " segments, " +
              std::to_string(trace_bytes) + " B saved; " +
              std::to_string(after.locks.waits - before.locks.waits) +
              " lock waits");

  // --- timed: whole passes of the offline pipeline, each followed by the
  // online fold of the same trace into a fresh tree, timed on its own ------
  std::vector<double> pass_ns;
  uint64_t analyzed = 0;
  double fold_s = 0.0;
  uint64_t folded = 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  do {
    const int64_t pass_start = NowNs();
    const PassOutput pass = OfflinePass(path, setup, /*index_stages=*/false);
    pass_ns.push_back(static_cast<double>(NowNs() - pass_start));
    ++result.attempted;
    if (!pass.ok || pass.intervals != intervals ||
        pass.per_label_intervals != intervals) {
      ++result.failed;
      result.Fail("pass " + std::to_string(pass_ns.size()) + ": " +
                  (pass.ok ? "interval counts differ" : pass.error));
      continue;
    }
    analyzed += pass.intervals;
    vprof::OnlineVarianceTree tree(OnlineOptions(setup));
    const int64_t fold_start = NowNs();
    {
      Span span("service.fold");
      tree.Fold(trace);
    }
    fold_s += static_cast<double>(NowNs() - fold_start) / 1e9;
    folded += intervals;
  } while (NowNs() < deadline);
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  double pass_s = 0.0;
  for (const double ns : pass_ns) pass_s += ns / 1e9;
  result.end_to_end["throughput_per_s"] =
      static_cast<double>(analyzed) / pass_s;
  result.end_to_end["profiled_per_s"] = static_cast<double>(folded) / fold_s;
  result.end_to_end["p50_ms"] = Quantile(pass_ns, 0.50) / 1e6;
  result.end_to_end["tail_ms"] = TailQuantile(pass_ns) / 1e6;
  result.Note("timed: " + std::to_string(pass_ns.size()) + " passes in " +
              std::to_string(elapsed_s) + " s");

  // --- checks ----------------------------------------------------------------
  CheckTrace(trace, executes.load(), setup, &result);

  if (options.trace) {
    uint64_t records = trace.invocation_count() + trace.segment_count();
    for (const vprof::ThreadTrace& thread : trace.threads) {
      records += thread.interval_events.size();
    }
    result.Layer("runtime.records_per_interval",
                 intervals == 0 ? 0.0
                                : static_cast<double>(records) /
                                      static_cast<double>(intervals));
    result.Layer("runtime.dropped_records",
                 static_cast<double>(trace.dropped_record_count()));
    SetEngineLayerMetrics(before, after, &result);
  }
  return result;
}

}  // namespace perfbench
