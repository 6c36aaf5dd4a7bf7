#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

const int64_t g_start_ns = NowNs();

std::atomic<bool> g_spans_enabled{false};
std::atomic<uint64_t> g_next_span_id{uint64_t{1} << 40};
std::atomic<uint32_t> g_next_thread{1};

// Per-thread span buffers, owned by the registry so spans survive threads
// that exit before the report is written.
struct ThreadSpans {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<uint64_t> stack;  // open span ids, innermost last
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadSpans>>& Registry() {
  static std::vector<std::unique_ptr<ThreadSpans>> registry;
  return registry;
}

ThreadSpans& Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    auto owned = std::make_unique<ThreadSpans>();
    owned->thread = g_next_thread.fetch_add(1);
    owned->spans.reserve(1 << 14);
    local = owned.get();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    Registry().push_back(std::move(owned));
  }
  return *local;
}

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

double SinceStartS() { return static_cast<double>(NowNs() - g_start_ns) / 1e9; }

void RunResult::Fail(const std::string& what) {
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

void RunResult::Layer(const std::string& name, double value) {
  per_layer[name] = value;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"throughput_per_s", "1/s"},
      {"p50_ms", "ms"},
      {"tail_ms", "ms"},
      {"profiled_per_s", "1/s"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"runtime.start_tracing_us", "us"},
      {"runtime.stop_tracing_us", "us"},
      {"runtime.records_per_interval", "count"},
      {"runtime.trace_bytes_per_interval", "B"},
      {"runtime.dropped_records", "count"},
      {"service.gap_ms", "ms"},
      {"service.fold_ms", "ms"},
      {"service.controller_step_us", "us"},
      {"service.snapshot_us", "us"},
      {"statstore.append_us", "us"},
      {"statstore.bytes_per_epoch", "B"},
      {"statstore.query_ms", "ms"},
      {"analysis.load_ms", "ms"},
      {"analysis.index_ms", "ms"},
      {"analysis.critical_path_ms", "ms"},
      {"analysis.variance_tree_ms", "ms"},
      {"analysis.factors_us", "us"},
      {"analysis.per_label_ms", "ms"},
      {"minidb.execute_us.new_order", "us"},
      {"minidb.execute_us.payment", "us"},
      {"minidb.execute_us.order_status", "us"},
      {"minidb.execute_us.delivery", "us"},
      {"minidb.execute_us.stock_level", "us"},
      {"minidb.redo.commit_waits", "count"},
      {"minidb.redo.records_per_flush", "count"},
      {"minidb.buf_pool.mutex_wait_ms", "ms"},
      {"minidb.lock.wait_ms", "ms"},
      {"simio.fsyncs_per_txn", "count"},
      {"simio.reads_per_txn", "count"},
      {"net.queue_wait_us", "us"},
      {"net.peak_dispatch_depth", "count"},
      {"net.bytes_per_request", "B"},
      {"dist.call_us", "us"},
      {"loadgen.lateness_us.p50", "us"},
      {"loadgen.lateness_us.max", "us"},
  };
  return metrics;
}

// ---------------------------------------------------------------------------

void EnableSpans(bool enabled) { g_spans_enabled.store(enabled); }
bool SpansEnabled() { return g_spans_enabled.load(std::memory_order_relaxed); }
uint64_t NextSpanId() { return g_next_span_id.fetch_add(1); }

Span::Span(const char* name, uint64_t request, uint64_t parent,
           const char* parent_name)
    : name_(name), parent_(parent), parent_name_(parent_name),
      request_(request) {
  if (!SpansEnabled()) return;
  id_ = NextSpanId();
  ThreadSpans& local = Local();
  if (parent_ == 0 && parent_name_ == nullptr && !local.stack.empty()) {
    parent_ = local.stack.back();
  }
  local.stack.push_back(id_);
  start_ns_ = NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const int64_t end = NowNs();
  ThreadSpans& local = Local();
  local.stack.pop_back();
  SpanRecord record;
  record.name = name_;
  record.id = id_;
  record.parent = parent_;
  if (parent_name_ != nullptr) record.parent_name = parent_name_;
  record.request = request_;
  record.thread = local.thread;
  record.start_ns = start_ns_;
  record.end_ns = end;
  local.spans.push_back(std::move(record));
}

void RecordSpan(const char* name, uint64_t id, int64_t start_ns,
                int64_t end_ns, uint64_t request) {
  if (!SpansEnabled()) return;
  ThreadSpans& local = Local();
  SpanRecord record;
  record.name = name;
  record.id = id;
  record.request = request;
  record.thread = local.thread;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  local.spans.push_back(std::move(record));
}

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<SpanRecord> all;
  for (const auto& thread : Registry()) {
    all.insert(all.end(), thread->spans.begin(), thread->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

double SpanQuantileNs(const std::vector<SpanRecord>& spans,
                      const std::string& name, double q) {
  std::vector<double> durations;
  for (const SpanRecord& span : spans) {
    if (name == span.name) {
      durations.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return Quantile(std::move(durations), q);
}

size_t SpanCount(const std::vector<SpanRecord>& spans,
                 const std::string& name) {
  return static_cast<size_t>(
      std::count_if(spans.begin(), spans.end(),
                    [&](const SpanRecord& s) { return name == s.name; }));
}

void WriteSpanReport(const RunOptions& options,
                     const std::vector<SpanRecord>& spans, RunResult* result) {
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed);
  const std::string span_path = stem + ".spans.tsv";
  if (FILE* f = std::fopen(span_path.c_str(), "w")) {
    std::fprintf(f, "name\tid\tparent\tparent_name\trequest\tthread\t"
                    "start_ns\tend_ns\n");
    for (const SpanRecord& s : spans) {
      std::fprintf(f, "%s\t%llu\t%llu\t%s\t%llu\t%u\t%lld\t%lld\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.parent_name,
                   static_cast<unsigned long long>(s.request), s.thread,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    std::fclose(f);
  } else {
    result->Fail("cannot write " + span_path);
  }

  // Per-name durations, then per-layer self time: a span's duration minus
  // the spans it caused (its children by id on any thread, or spans that
  // name it as their parent by name).
  std::map<uint64_t, std::string> name_of;
  for (const SpanRecord& s : spans) name_of[s.id] = s.name;
  std::map<std::string, double> total_ns;
  std::map<std::string, double> child_ns;  // by parent layer
  std::map<std::string, size_t> count;
  for (const SpanRecord& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    total_ns[s.name] += dur;
    ++count[s.name];
    std::string parent;
    if (s.parent != 0) {
      auto it = name_of.find(s.parent);
      if (it != name_of.end()) parent = it->second;
    } else if (s.parent_name[0] != '\0') {
      parent = s.parent_name;
    }
    if (!parent.empty()) child_ns[LayerOf(parent)] += dur;
  }
  std::map<std::string, double> layer_total;
  for (const auto& [name, ns] : total_ns) layer_total[LayerOf(name)] += ns;

  std::vector<std::string> lines;
  char buf[256];
  lines.push_back("span summary: " + std::to_string(spans.size()) +
                  " spans in " + span_path);
  std::snprintf(buf, sizeof(buf), "  %-36s %9s %12s %12s", "span", "count",
                "median_us", "total_ms");
  lines.push_back(buf);
  for (const auto& [name, n] : count) {
    std::snprintf(buf, sizeof(buf), "  %-36s %9zu %12.3f %12.3f",
                  name.c_str(), n, SpanQuantileNs(spans, name, 0.5) / 1e3,
                  total_ns[name] / 1e6);
    lines.push_back(buf);
  }
  std::snprintf(buf, sizeof(buf), "  %-12s %12s %12s", "layer", "total_ms",
                "self_ms");
  lines.push_back(buf);
  for (const auto& [layer, ns] : layer_total) {
    const double self = std::max(0.0, ns - child_ns[layer]);
    std::snprintf(buf, sizeof(buf), "  %-12s %12.3f %12.3f", layer.c_str(),
                  ns / 1e6, self / 1e6);
    lines.push_back(buf);
  }
  lines.push_back("per-layer metrics:");
  for (const MetricSpec& m : PerLayerMetrics()) {
    auto it = result->per_layer.find(m.name);
    std::snprintf(buf, sizeof(buf), "  %-34s %14.4f %s", m.name,
                  it == result->per_layer.end() ? 0.0 : it->second, m.unit);
    lines.push_back(buf);
  }

  const std::string summary_path = stem + ".summary.txt";
  if (FILE* f = std::fopen(summary_path.c_str(), "w")) {
    for (const std::string& line : lines) std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
  } else {
    result->Fail("cannot write " + summary_path);
  }
  for (const std::string& line : lines) result->Note(line);
}

// ---------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

double Quantile(const std::vector<int64_t>& values, double q) {
  std::vector<double> as_double(values.begin(), values.end());
  return Quantile(std::move(as_double), q);
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
