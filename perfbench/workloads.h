// The four benchmark workloads and what one run of them reports. Each
// workload builds its own engine from the seed, runs an untimed warm-up
// with correctness checks against an independent evaluation path, then a
// timed region over a request stream generated from the seed before timing
// starts.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  // Traced run: per-layer metrics from benchmark-side spans instead of the
  // end-to-end metrics.
  bool trace = false;
  // Where the traced run writes its spans.
  std::string out_dir = ".";
};

struct RunResult {
  // Every correctness check passed; `error` names the first that did not.
  bool correct = true;
  std::string error;
  // Operations issued (requests and appends, warm-up included) and those
  // that came back non-OK, degraded or denied.
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // End-to-end metrics (name -> value) and per-layer metrics.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  // Stamps and input identity, printed beside the metrics.
  std::map<std::string, std::string> stamps;
};

// The workloads by name, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

// Runs one workload. Throws std::runtime_error on a set-up failure.
RunResult RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
