// The benchmark's own arithmetic: percentiles and input digests. Kept free
// of engine headers so selfcheck.cc can pin every function on fixed inputs.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

// The q-quantile (0 <= q <= 1) of `values` by linear interpolation between
// closest ranks: position q * (n - 1) in the sorted sample, the rule of
// Python's statistics.quantiles(method="inclusive") and numpy's default.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q outside [0,1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// FNV-1a over a sequence of 64-bit words: a stable digest of a request
// stream or of per-request page counts, printed so two runs can be shown
// to have executed the same inputs.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(const std::string& text) {
    for (unsigned char c : text) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
    Add(static_cast<uint64_t>(text.size()));
  }
  uint64_t value() const { return hash_; }
  std::string Hex() const {
    static const char* kDigits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) out[15 - i] = kDigits[(hash_ >> (4 * i)) & 15];
    return out;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
