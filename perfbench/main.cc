// perfbench: the repository's benchmark driver.
//
//   perfbench --workload <tpcc-online|rpc-read|trace-analyze> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// Runs one workload, checks the program's outputs, and prints as its last
// line one JSON object {correct, attempted, failed, metrics}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 (a span run) they are
// the per-layer ones, and the spans plus a per-layer summary are written to
// --out. Every run also prints its end-to-end metrics on an "e2e" line so a
// span run can be compared against a plain one.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/profiling.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <tpcc-online|rpc-read|"
               "trace-analyze> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>]\n");
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::map<std::string, double>& values,
                        const std::vector<perfbench::MetricSpec>& specs) {
  std::string json = "{";
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = values.find(specs[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    json += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name +
            "\": {\"value\": " + Number(value) + ", \"unit\": \"" +
            specs[i].unit + "\"}";
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::SinceStartS();
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || options.seconds <= 0.0 || argc % 2 == 0) {
    Usage();
    return 2;
  }

  options.scratch_dir = options.out_dir + "/run-" + options.workload + "-" +
                        std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(options.scratch_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 options.scratch_dir.c_str());
    return 1;
  }

  perfbench::RunResult result;
  if (options.workload == "tpcc-online") {
    result = perfbench::RunTpccOnline(options);
  } else if (options.workload == "rpc-read") {
    result = perfbench::RunRpcRead(options);
  } else if (options.workload == "trace-analyze") {
    result = perfbench::RunTraceAnalyze(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 options.workload.c_str());
    perfbench::RemoveTree(options.scratch_dir);
    return 2;
  }
  result.end_to_end["peak_rss_mb"] = perfbench::PeakRssMiB();
  if (options.trace) {
    perfbench::EnableSpans(false);
    const std::vector<perfbench::SpanRecord> spans = perfbench::CollectSpans();
    perfbench::FillSpanMetrics(spans, &result);
    perfbench::WriteSpanReport(options, spans, &result);
  }
  perfbench::RemoveTree(options.scratch_dir);

  for (const std::string& line : result.notes) {
    std::printf("%s\n", line.c_str());
  }
  for (const perfbench::MetricSpec& m : perfbench::EndToEndMetrics()) {
    auto it = result.end_to_end.find(m.name);
    if (it == result.end_to_end.end() || !(it->second > 0.0)) {
      result.Fail(std::string("end-to-end metric ") + m.name +
                  " was not measured");
      std::printf("CHECK FAILED: end-to-end metric %s was not measured\n",
                  m.name);
    }
  }
  std::printf("e2e %s\n",
              MetricsJson(result.end_to_end, perfbench::EndToEndMetrics())
                  .c_str());
  const std::string metrics =
      options.trace
          ? MetricsJson(result.per_layer, perfbench::PerLayerMetrics())
          : MetricsJson(result.end_to_end, perfbench::EndToEndMetrics());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
