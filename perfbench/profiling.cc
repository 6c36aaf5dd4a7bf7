#include "perfbench/profiling.h"

#include <chrono>
#include <filesystem>
#include <optional>
#include <vector>

#include "src/vprof/analysis/factor_selection.h"
#include "src/vprof/analysis/variance_tree.h"
#include "src/vprof/runtime.h"
#include "src/vprof/service/controller.h"
#include "src/vprof/service/history.h"
#include "src/vprof/service/online_tree.h"
#include "src/vprof/trace.h"

namespace perfbench {

namespace {

constexpr int kScrapePeriodMs = 200;
constexpr int kCaptureEpochs = 5;
constexpr int64_t kCaptureEpochNs = 100'000'000;

}  // namespace

Scraper::Scraper(const vprof::Vprofd* daemon) : daemon_(daemon) {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kScrapePeriodMs));
      if (stop_.load()) break;
      Span span("service.snapshot");
      (void)daemon_->Snapshot();
    }
  });
}

Scraper::~Scraper() { Stop(); }

void Scraper::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

PassOutput OfflinePass(const std::string& path, const AnalysisSetup& setup,
                       bool index_stages) {
  PassOutput out;
  vprof::Trace trace;
  vprof::TraceLoadStatus status;
  {
    Span span("analysis.load");
    status = vprof::LoadTraceChecked(path, &trace);
  }
  if (status != vprof::TraceLoadStatus::kOk) {
    out.error = std::string("LoadTraceChecked: ") +
                vprof::TraceLoadStatusName(status);
    return out;
  }
  if (index_stages) {
    std::optional<vprof::TraceIndex> index;
    {
      Span span("analysis.index");
      index.emplace(trace);
    }
    Span span("analysis.critical_path");
    const std::vector<vprof::IntervalBreakdown> breakdowns =
        vprof::BuildBreakdowns(*index, setup.path_options);
    if (breakdowns.size() > index->Intervals().size()) {
      out.error = "more breakdowns than intervals";
      return out;
    }
  }
  std::optional<vprof::VarianceAnalysis> analysis;
  {
    Span span("analysis.variance_tree");
    analysis.emplace(trace, setup.path_options);
  }
  out.intervals = analysis->interval_count();
  {
    Span span("analysis.factors");
    (void)vprof::AggregateFactors(*analysis, *setup.graph, setup.root,
                                  vprof::SpecificityKind::kQuadratic);
  }
  {
    Span span("analysis.per_label");
    for (int label = 1; label <= kTxnLabels; ++label) {
      vprof::CriticalPathOptions options = setup.path_options;
      options.filter_by_label = true;
      options.label_filter = static_cast<vprof::IntervalLabel>(label);
      const vprof::VarianceAnalysis per_label(trace, options);
      out.per_label_intervals += per_label.interval_count();
    }
  }
  out.ok = true;
  return out;
}

void CaptureEpochs(const AnalysisSetup& setup, const std::string& dir,
                   RunResult* result) {
  vprof::OnlineTreeOptions tree_options;
  tree_options.path_options = setup.path_options;
  vprof::OnlineVarianceTree tree(tree_options);
  vprof::RefinementController controller(setup.root, setup.graph);
  statstore::StoreOptions store_options;
  store_options.dir = dir + "/capture_history";
  statstore::StatStore store(store_options);
  if (!store.Open()) {
    result->Fail("capture statstore open failed in " + store_options.dir);
    return;
  }

  uint64_t records = 0;
  uint64_t intervals = 0;
  uint64_t dropped = 0;
  vprof::Trace last;
  for (int epoch = 1; epoch <= kCaptureEpochs; ++epoch) {
    {
      Span span("runtime.start_tracing");
      vprof::StartTracing();
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(kCaptureEpochNs));
    vprof::Trace trace;
    {
      Span span("runtime.stop_tracing");
      trace = vprof::StopTracing();
    }
    records += trace.invocation_count() + trace.segment_count();
    for (const vprof::ThreadTrace& thread : trace.threads) {
      records += thread.interval_events.size();
    }
    intervals += trace.interval_count();
    dropped += trace.dropped_record_count();
    {
      Span span("service.fold");
      tree.Fold(trace);
    }
    std::optional<vprof::OnlineTreeSnapshot> snapshot;
    {
      Span span("service.epoch_snapshot");
      snapshot.emplace(tree.Snapshot());
    }
    {
      Span span("service.controller_step");
      controller.Step(*snapshot);
    }
    statstore::AppendStatus status;
    {
      Span span("statstore.append");
      status = store.Append(vprof::SampleFromSnapshot(
          *snapshot, static_cast<uint64_t>(epoch), vprof::HarvestHealth{}));
    }
    if (status != statstore::AppendStatus::kOk) {
      result->Fail("capture statstore append failed at epoch " +
                   std::to_string(epoch));
    }
    last = std::move(trace);
  }
  store.Seal();
  if (intervals == 0) {
    result->Fail("captured epochs hold no interval");
    return;
  }
  result->Layer("runtime.records_per_interval",
                static_cast<double>(records) / static_cast<double>(intervals));
  result->Layer("runtime.dropped_records", static_cast<double>(dropped));

  const std::string path = dir + "/captured_epoch.vprf";
  if (!vprof::SaveTrace(last, path)) {
    result->Fail("SaveTrace of the captured epoch failed");
    return;
  }
  if (last.interval_count() > 0) {
    result->Layer("runtime.trace_bytes_per_interval",
                  static_cast<double>(std::filesystem::file_size(path)) /
                      static_cast<double>(last.interval_count()));
  }
  // Intervals cut by the epoch boundaries lack a begin or an end event and
  // are not analyzable; every complete one must be analyzed.
  uint64_t complete = 0;
  for (const auto& info : vprof::TraceIndex(last).Intervals()) {
    if (info.has_begin && info.has_end) ++complete;
  }
  const PassOutput pass = OfflinePass(path, setup, /*index_stages=*/true);
  if (!pass.ok) {
    result->Fail("offline pass over the captured epoch: " + pass.error);
  } else if (pass.intervals != complete) {
    result->Fail("captured epoch: analysis saw " +
                 std::to_string(pass.intervals) + " intervals, trace holds " +
                 std::to_string(complete) + " complete ones");
  }
}

uint64_t QueryAllSeries(const statstore::StatStore& store) {
  Span span("statstore.query");
  uint64_t points = 0;
  for (const std::string& series : store.ListSeries()) {
    points += store.Query(series, 0, UINT64_MAX).size();
  }
  return points;
}

void FillSpanMetrics(const std::vector<SpanRecord>& spans, RunResult* result) {
  struct FromSpan {
    const char* metric;
    const char* span;
    double ns_per_unit;
  };
  static const FromSpan kTable[] = {
      {"runtime.start_tracing_us", "runtime.start_tracing", 1e3},
      {"runtime.stop_tracing_us", "runtime.stop_tracing", 1e3},
      {"service.fold_ms", "service.fold", 1e6},
      {"service.controller_step_us", "service.controller_step", 1e3},
      {"service.snapshot_us", "service.snapshot", 1e3},
      {"statstore.append_us", "statstore.append", 1e3},
      {"statstore.query_ms", "statstore.query", 1e6},
      {"analysis.load_ms", "analysis.load", 1e6},
      {"analysis.index_ms", "analysis.index", 1e6},
      {"analysis.critical_path_ms", "analysis.critical_path", 1e6},
      {"analysis.variance_tree_ms", "analysis.variance_tree", 1e6},
      {"analysis.factors_us", "analysis.factors", 1e3},
      {"analysis.per_label_ms", "analysis.per_label", 1e6},
      {"minidb.execute_us.new_order", "minidb.execute.new_order", 1e3},
      {"minidb.execute_us.payment", "minidb.execute.payment", 1e3},
      {"minidb.execute_us.order_status", "minidb.execute.order_status", 1e3},
      {"minidb.execute_us.delivery", "minidb.execute.delivery", 1e3},
      {"minidb.execute_us.stock_level", "minidb.execute.stock_level", 1e3},
      {"dist.call_us", "dist.call", 1e3},
  };
  for (const FromSpan& entry : kTable) {
    if (SpanCount(spans, entry.span) > 0) {
      result->Layer(entry.metric,
                    SpanQuantileNs(spans, entry.span, 0.5) / entry.ns_per_unit);
    }
  }
}

}  // namespace perfbench
