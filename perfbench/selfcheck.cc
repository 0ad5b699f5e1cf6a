// Checks of the benchmark's own arithmetic on fixed inputs: percentiles,
// the input digest and span self time. Exits non-zero on the
// first failed check; perfbench/run.py runs it before every benchmark run.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selfcheck FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

template <typename Fn>
bool Throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void CheckPercentiles() {
  using perfbench::Median;
  using perfbench::Percentile;
  Check(Near(Median({5, 1, 3}), 3), "median of an odd sample");
  Check(Near(Median({4, 1, 3, 2}), 2.5), "median of an even sample");
  Check(Near(Median({7}), 7), "median of one sample");
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  Check(Near(Percentile(ten, 0.9), 9.1), "p90 of 1..10 interpolates");
  Check(Near(Percentile(ten, 0.0), 1), "p0 is the minimum");
  Check(Near(Percentile(ten, 1.0), 10), "p100 is the maximum");
  Check(Near(Percentile(ten, 0.25), 3.25), "p25 of 1..10");
  Check(Near(Percentile({2, 2, 2, 2}, 0.9), 2), "constant sample");
  Check(Throws([] { Percentile({}, 0.5); }), "empty sample is rejected");
  Check(Throws([] { Percentile({1}, 1.5); }), "q > 1 is rejected");
}

void CheckDigest() {
  perfbench::Digest empty;
  Check(empty.Hex() == "cbf29ce484222325", "FNV-1a offset basis");
  perfbench::Digest x, y;
  x.Add(uint64_t{1});
  x.Add(uint64_t{2});
  y.Add(uint64_t{2});
  y.Add(uint64_t{1});
  Check(x.value() != y.value(), "digest is order sensitive");
  perfbench::Digest s1, s2;
  s1.Add(std::string("ab"));
  s1.Add(std::string("c"));
  s2.Add(std::string("a"));
  s2.Add(std::string("bc"));
  Check(s1.value() != s2.value(), "string boundaries are digested");
}

void CheckSpans() {
  perfbench::SpanLog log(true);
  // root [0, 100] with children [10, 30] and [40, 90]; grandchild [50, 60].
  const int root = log.Record("request", 0, 100, 7);
  log.Record("parse", 10, 30, 7, root);
  const int exec = log.Record("exec", 40, 90, 7, root);
  log.Record("scan", 50, 60, 7, exec);
  const auto self = log.SelfTimesNs();
  Check(self.at("request") == std::vector<int64_t>{30}, "root self time");
  Check(self.at("parse") == std::vector<int64_t>{20}, "leaf self time");
  Check(self.at("exec") == std::vector<int64_t>{40}, "inner self time");
  Check(self.at("scan") == std::vector<int64_t>{10}, "grandchild self time");

  perfbench::SpanLog off(false);
  {
    perfbench::ScopedSpan span(off, "request", 1);
  }
  Check(off.spans().empty(), "a disabled log records nothing");
  perfbench::SpanLog on(true);
  {
    perfbench::ScopedSpan outer(on, "outer", 3);
    perfbench::ScopedSpan inner(on, "inner", 3);
  }
  Check(on.spans().size() == 2 && on.spans()[1].parent == 0 &&
            on.spans()[0].parent == -1 && on.spans()[1].request == 3,
        "scoped spans nest under the innermost open span");
}

}  // namespace

int main() {
  CheckPercentiles();
  CheckDigest();
  CheckSpans();
  if (failures > 0) return 1;
  std::printf("selfcheck: all checks passed\n");
  return 0;
}
