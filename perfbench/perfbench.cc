// End-to-end benchmark for StarShare.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--out-dir <dir>]
//
// Runs one workload (workloads.h) and prints, before its last line, the
// run's stamps and input digests, and as its last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from benchmark-side spans and engine counters. Exits 1 on
// a usage or set-up error (printing no result) and 2 when a correctness
// check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"request_ms.p50", "ms"},
    {"request_ms.p90", "ms"},
    {"throughput_rps", "1/s"},
    {"modeled_io_ms", "ms"},
    {"cpu_ms_per_request", "ms"},
    {"peak_rss_mb", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"schema.load_ms", "ms"},
    {"cube.materialize_ms", "ms"},
    {"index.build_ms", "ms"},
    {"mdx.parse_ms", "ms"},
    {"opt.optimize_ms", "ms"},
    {"opt.classes", "count"},
    {"opt.est_ms", "ms"},
    {"plan.lower_ms", "ms"},
    {"exec.execute_ms", "ms"},
    {"exec.scan_passes", "count"},
    {"exec.probe_passes", "count"},
    {"exec.derived_passes", "count"},
    {"exec.classes", "count"},
    {"exec.rows_out", "count"},
    {"exec.mem.peak_bytes", "bytes"},
    {"exec.spill.runs", "count"},
    {"cube.base_levels", "count"},
    {"cube.rollup_levels", "count"},
    {"cube.view_rows", "count"},
    {"view.refreshes", "count"},
    {"append_ms.p50", "ms"},
    {"storage.seq_pages", "count"},
    {"storage.rand_pages", "count"},
    {"storage.index_pages", "count"},
    {"storage.pages_written", "count"},
    {"storage.decode_mrows_s", "Mrows/s"},
    {"parallel.tasks", "count"},
    {"parallel.cpu_util", "fraction"},
    {"server.batch_ms", "ms"},
    {"server.admitted", "count"},
    {"server.classes_opened", "count"},
    {"server.shared_hit_rate", "fraction"},
    {"server.segments", "count"},
    {"server.queue_depth.max", "count"},
    {"trace_overhead_frac", "fraction"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--out-dir <dir>]\nworkloads:",
               why.c_str());
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(1);
}

uint64_t ParseUnsigned(const std::string& flag, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    Usage(flag + " needs a whole number, got '" + text + "'");
  }
  return std::stoull(text);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const uint64_t s = ParseUnsigned(flag, value);
      if (s < 1 || s > 60) Usage("--seconds must be 1..60");
      options.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) Usage("--workload and --seed are required");
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    known = known || w == options.workload;
  }
  if (!known) Usage("unknown workload '" + options.workload + "'");

  perfbench::RunResult result;
  std::string line;
  try {
    result = perfbench::RunWorkload(options);
    result.stamps["workload"] = options.workload;
    result.stamps["git_sha"] = git_sha;
    result.stamps["build_type"] = PERFBENCH_BUILD_TYPE;
    result.stamps["nproc"] = std::to_string(std::thread::hardware_concurrency());
    result.stamps["seconds"] = std::to_string(options.seconds);
    result.stamps["trace"] = options.trace ? "1" : "0";

    const auto& values = options.trace ? result.per_layer : result.end_to_end;
    std::string metrics;
    auto emit = [&](const MetricDef& m) {
      const auto it = values.find(m.name);
      if (it == values.end()) {
        throw std::runtime_error(std::string("metric not measured: ") +
                                 m.name);
      }
      if (!metrics.empty()) metrics += ", ";
      metrics += JsonString(m.name) + ": {\"value\": " + Number(it->second) +
                 ", \"unit\": " + JsonString(m.unit) + "}";
    };
    if (options.trace) {
      for (const MetricDef& m : kPerLayer) emit(m);
    } else {
      for (const MetricDef& m : kEndToEnd) emit(m);
    }
    line = std::string("{\"correct\": ") +
           (result.correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(result.attempted) +
           ", \"failed\": " + std::to_string(result.failed) +
           ", \"metrics\": {" + metrics + "}}";
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::string stamps;
  for (const auto& [key, value] : result.stamps) {
    if (!stamps.empty()) stamps += ", ";
    stamps += JsonString(key) + ": " + JsonString(value);
  }
  std::printf("stamps: {%s}\n", stamps.c_str());
  if (!result.correct) {
    std::printf("correctness check failed: %s\n", result.error.c_str());
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 2;
}
