// Shared plumbing of the perfbench driver: run options, the result record
// printed as the benchmark's last line, the per-layer span log of span runs,
// and small statistics helpers.
//
// A plain run measures the end-to-end metrics only. A span run (--trace 1)
// additionally records a span around every call the benchmark makes into a
// layer of the system, keeps the spans in memory, and writes them out with a
// per-layer summary when the run ends.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "perfbench/out";  // spans, summary, scratch state
  std::string scratch_dir;                // per-process, removed at exit
};

// Wall clock of the benchmark's own measurements (not the program's
// fastclock, which the program under test calibrates and owns).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Seconds since the process started (first call happens in main).
double SinceStartS();

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> end_to_end;  // name -> value
  std::map<std::string, double> per_layer;   // name -> value (span runs)
  std::vector<std::string> notes;            // human-readable report lines

  // Records a failed output check; the run reports correct=false.
  void Fail(const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
  void Layer(const std::string& name, double value);
};

// Catalogue of every metric, shared by all workloads so each run prints the
// full set BENCHMARK.json declares.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// ---------------------------------------------------------------------------
// Span log. Span names are "<layer>.<call>"; the layer is the prefix before
// the first dot. Nesting on one thread is tracked automatically; a span
// caused by work on another thread names its parent span (by id) or at least
// its parent's name, so per-layer self time can subtract it.

// Names point at string literals, so a span costs no allocation.
struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = none known
  // Set when only the causing span's name is known.
  const char* parent_name = "";
  uint64_t request = 0;  // request id shared by one request's spans
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Span {
 public:
  // Opens a span when span recording is on; a no-op otherwise.
  explicit Span(const char* name, uint64_t request = 0, uint64_t parent = 0,
                const char* parent_name = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  const char* parent_name_ = nullptr;
  uint64_t request_ = 0;
  int64_t start_ns_ = 0;
};

// Records a span whose start and end the caller measured itself (requests
// in flight on the load generator overlap, so they cannot nest).
void RecordSpan(const char* name, uint64_t id, int64_t start_ns,
                int64_t end_ns, uint64_t request);

void EnableSpans(bool enabled);
bool SpansEnabled();
// Fresh, process-unique span id.
uint64_t NextSpanId();

// All spans recorded so far, from every thread. Call once the threads that
// recorded them are quiet.
std::vector<SpanRecord> CollectSpans();

// Median (and other quantiles) of one span name's durations, in ns; 0 when
// no span of that name was recorded.
double SpanQuantileNs(const std::vector<SpanRecord>& spans,
                      const std::string& name, double q);
size_t SpanCount(const std::vector<SpanRecord>& spans,
                 const std::string& name);

// Writes the spans (one TSV line each) and the summary to files in
// options.out_dir and prints the summary's lines into result.notes.
void WriteSpanReport(const RunOptions& options,
                     const std::vector<SpanRecord>& spans, RunResult* result);

// ---------------------------------------------------------------------------
// Statistics helpers.

// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Quantile(const std::vector<int64_t>& values, double q);

// The tail reported as tail_ms: the 99th percentile, or, with fewer than
// 1000 samples, the highest percentile that still has ten samples above it.
template <typename T>
double TailQuantile(const std::vector<T>& values) {
  const double n = static_cast<double>(values.size());
  const double q = n >= 1000.0 ? 0.99 : std::max(0.5, 1.0 - 10.0 / n);
  return Quantile(std::vector<double>(values.begin(), values.end()), q);
}

// Peak resident set of this process, MiB.
double PeakRssMiB();

void RemoveTree(const std::string& path);

// The three workloads.
RunResult RunTpccOnline(const RunOptions& options);
RunResult RunRpcRead(const RunOptions& options);
RunResult RunTraceAnalyze(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
