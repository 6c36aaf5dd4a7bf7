// Benchmark-side drivers of the profiler's own layers, shared by the
// workloads: a periodic vprofd scraper, one pass of the offline analysis
// pipeline over a saved trace, and the span run's live epoch capture.
#ifndef PERFBENCH_PROFILING_H_
#define PERFBENCH_PROFILING_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "perfbench/bench.h"
#include "src/statstore/store.h"
#include "src/vprof/analysis/call_graph.h"
#include "src/vprof/analysis/critical_path.h"
#include "src/vprof/service/vprofd.h"

namespace perfbench {

// Calls Vprofd::Snapshot() every 200 ms on its own thread, as a metrics
// scraper would, under a "service.snapshot" span in span runs.
class Scraper {
 public:
  explicit Scraper(const vprof::Vprofd* daemon);
  ~Scraper();

  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Stop();

 private:
  const vprof::Vprofd* daemon_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// What the analysis needs to know about the profiled program.
struct AnalysisSetup {
  const vprof::CallGraph* graph = nullptr;
  vprof::FuncId root = vprof::kInvalidFunc;
  vprof::CriticalPathOptions path_options;
};

// The transaction-type labels minidb puts on its intervals (TxnType + 1).
inline constexpr int kTxnLabels = 5;

struct PassOutput {
  bool ok = false;
  std::string error;
  uint64_t intervals = 0;             // analyzed by the full VarianceAnalysis
  uint64_t per_label_intervals = 0;   // summed over the per-type analyses
};

// LoadTraceChecked -> VarianceAnalysis -> AggregateFactors -> one
// VarianceAnalysis per transaction-type label, each stage under its own
// analysis.* span. With index_stages the pass also builds a TraceIndex and
// the critical-path breakdowns as separate stages first.
PassOutput OfflinePass(const std::string& path, const AnalysisSetup& setup,
                       bool index_stages);

// Span run only, after vprofd has stopped and while traffic still runs:
// the benchmark drives five 100 ms epochs itself (StartTracing, wait,
// StopTracing, Fold, Snapshot, controller Step, history Append) so each of
// those calls gets its own span, then runs OfflinePass over the last
// captured epoch. Fills the runtime.* records metrics.
void CaptureEpochs(const AnalysisSetup& setup, const std::string& dir,
                   RunResult* result);

// Reads every series of a history store back (span "statstore.query").
uint64_t QueryAllSeries(const statstore::StatStore& store);

// Sets every per-layer metric that is a span median from the recorded
// spans (names without a recorded span stay unset).
void FillSpanMetrics(const std::vector<SpanRecord>& spans, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_PROFILING_H_
