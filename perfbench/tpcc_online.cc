// Workload tpcc-online: four closed-loop TPC-C clients against minidb in
// the memory-constrained regime (8 warehouses, 96-page buffer pool),
// profiled the whole measured phase by vprofd with its controller,
// regression detector and a fresh history store. This is the paper's
// deployment: an fsync-bound, write-heavy database that is always profiled.
//
// The mix keeps the standard mix's 92% of writing transactions but gives
// that share to Delivery, the one that inserts no rows: minidb searches a
// B-tree without its index latch while another thread's insert splits it,
// and NewOrder and Payment insert, so with them a run now and then dies in
// BTree::FindLeaf (see CHANGES.md). Delivery 92%, OrderStatus 4%,
// StockLevel 4%.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/engine_counters.h"
#include "perfbench/profiling.h"
#include "src/minidb/engine.h"
#include "src/vprof/registry.h"
#include "src/vprof/service/vprofd.h"
#include "src/workload/invariants.h"
#include "src/workload/tpcc.h"

namespace perfbench {

namespace {

constexpr int kClients = 4;
// Set-up ends after this many transactions have run on the cold engine.
constexpr int kWarmupPerClient = 250;

workload::TpccOptions ClientOptions(uint64_t seed) {
  workload::TpccOptions options;  // uniform access
  options.pct_new_order = 0;
  options.pct_payment = 0;
  options.pct_order_status = 4;
  options.pct_delivery = 92;  // the remaining 4% are StockLevel
  options.threads = kClients;
  options.seed = seed;
  return options;
}

// Runs the clients on a background thread until Stop().
class Clients {
 public:
  Clients(minidb::Engine* engine, uint64_t seed,
          const workload::TpccDriver::TypedExecutor& execute)
      : driver_(engine, ClientOptions(seed)) {
    thread_ = std::thread([this, engine, execute] {
      result_ = driver_.RunTypedUntil(execute, engine->config().warehouses,
                                      stop_);
    });
  }
  ~Clients() { Stop(); }

  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;

  const workload::TpccResult& Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return result_;
  }

 private:
  workload::TpccDriver driver_;
  std::atomic<bool> stop_{false};
  workload::TpccResult result_;
  std::thread thread_;
};

void SleepS(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

RunResult RunTpccOnline(const RunOptions& options) {
  RunResult result;
  minidb::Engine engine(minidb::EngineConfig::MemoryConstrained());
  auto graph = std::make_shared<vprof::CallGraph>();
  minidb::Engine::RegisterCallGraph(graph.get());

  std::atomic<uint64_t> executes{0};
  const workload::TpccDriver::TypedExecutor execute =
      [&](const minidb::TxnRequest& request) {
        executes.fetch_add(1, std::memory_order_relaxed);
        Span span(ExecuteSpanName(request.type));
        return engine.Execute(request);
      };
  {
    workload::TpccOptions warmup_options = ClientOptions(options.seed ^ 0x5741);
    warmup_options.transactions_per_thread = kWarmupPerClient;
    const workload::TpccResult warm =
        workload::TpccDriver(&engine, warmup_options)
            .RunTyped(execute, engine.config().warehouses);
    if (warm.aborted > 0) {
      result.Fail(std::to_string(warm.aborted) +
                  " transactions failed during warm-up");
    }
  }
  result.end_to_end["setup_s"] = SinceStartS();
  EnableSpans(options.trace);

  vprof::VprofdOptions daemon_options;
  daemon_options.graph = graph;
  daemon_options.history.dir = options.scratch_dir + "/history";
  std::unique_ptr<vprof::Vprofd> daemon =
      minidb::Engine::StartOnlineProfiler(daemon_options);
  if (daemon->history() == nullptr) {
    result.Fail("vprofd history store did not open");
    return result;
  }

  const EngineCounters before = EngineCounters::Read(engine);
  const uint64_t executes_at_start = executes.load();
  workload::TpccResult measured;
  {
    Scraper scraper(daemon.get());
    Clients clients(&engine, options.seed, execute);
    SleepS(options.seconds);
    measured = clients.Stop();
    scraper.Stop();
  }
  const EngineCounters after = EngineCounters::Read(engine);
  const uint64_t executes_profiled = executes.load() - executes_at_start;
  daemon->Stop();
  const vprof::OnlineTreeSnapshot snapshot = daemon->Snapshot();

  result.attempted = measured.committed + measured.aborted;
  result.failed = measured.aborted;
  result.end_to_end["throughput_per_s"] = measured.throughput_tps;
  result.end_to_end["p50_ms"] = Quantile(measured.latencies_ns, 0.50) / 1e6;
  result.end_to_end["tail_ms"] =
      TailQuantile(measured.latencies_ns) / 1e6;
  result.end_to_end["profiled_per_s"] =
      static_cast<double>(snapshot.intervals) / measured.duration_s;
  const uint64_t history_bytes = daemon->history()->disk_bytes();
  result.Note("measured: " + std::to_string(measured.committed) +
              " committed, " + std::to_string(measured.aborted) +
              " aborted, " + std::to_string(measured.retries) +
              " retries in " + std::to_string(measured.duration_s) + " s; " +
              std::to_string(measured.latencies_ns.size()) +
              " latency samples");
  result.Note("vprofd: " + std::to_string(daemon->epochs()) + " epochs, " +
              std::to_string(snapshot.intervals) + " intervals folded of " +
              std::to_string(executes_profiled) + " Execute calls; history " +
              std::to_string(history_bytes) + " B");

  // --- checks --------------------------------------------------------------
  if (measured.committed != after.committed - before.committed) {
    result.Fail("driver committed " + std::to_string(measured.committed) +
                " != engine committed_count delta " +
                std::to_string(after.committed - before.committed));
  }
  if (snapshot.intervals == 0 || snapshot.intervals > executes_profiled) {
    result.Fail("folded intervals " + std::to_string(snapshot.intervals) +
                " not in (0, " + std::to_string(executes_profiled) + "]");
  }
  const uint64_t records = daemon->history()->record_count();
  const workload::InvariantResult replay =
      workload::CheckStatStoreBitExactReplay(daemon->history());
  if (!replay.ok) result.Fail(replay.detail);
  if (records != snapshot.epochs) {
    result.Fail("history holds " + std::to_string(records) +
                " records for " + std::to_string(snapshot.epochs) +
                " harvested epochs");
  }

  if (options.trace) {
    result.Layer("service.gap_ms",
                 daemon->epochs() == 0
                     ? 0.0
                     : static_cast<double>(daemon->total_gap_ns()) /
                           static_cast<double>(daemon->epochs()) / 1e6);
    if (records > 0) {
      result.Layer("statstore.bytes_per_epoch",
                   static_cast<double>(history_bytes) /
                       static_cast<double>(records));
    }
    SetEngineLayerMetrics(before, after, &result);
    statstore::StatStore reopened(daemon->history()->options());
    if (!reopened.Open() || QueryAllSeries(reopened) == 0) {
      result.Fail("history query returned nothing");
    }
    AnalysisSetup setup;
    setup.graph = graph.get();
    setup.root = vprof::LookupFunction("run_transaction");
    Clients clients(&engine, options.seed ^ 0x4341, execute);
    CaptureEpochs(setup, options.scratch_dir, &result);
    clients.Stop();
  }

  const workload::InvariantResult balance =
      workload::CheckBalanceConservation(engine);
  if (!balance.ok) result.Fail(balance.detail);
  return result;
}

}  // namespace perfbench
