// Benchmark-side spans around each call into an engine layer. A span has a
// name, a start and end on the steady clock, its parent and the request it
// belongs to; spans are kept in memory and written out when the run ends.
// A disabled log records nothing, so the untimed and untraced passes run
// the same code.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       // index into the log, -1 for a root
  int64_t request = -1;  // request id, -1 outside requests
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span under the innermost open span. Returns its index, or -1
  // when disabled.
  int Begin(const char* name, int64_t request) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void End(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  // Records a finished span with explicit times and parent, which lets
  // the self-check build span trees with known durations. Returns its
  // index, or -1 when disabled.
  int Record(const char* name, int64_t start_ns, int64_t end_ns,
             int64_t request, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span (its duration minus the time covered by its
  // direct children), grouped by span name in recording order. Children of
  // one span never overlap (spans nest on the thread that opens them), so
  // the covered time is the sum of the children's durations.
  std::map<std::string, std::vector<int64_t>> SelfTimesNs() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, std::vector<int64_t>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(spans_[i].end_ns - spans_[i].start_ns -
                                    child_ns[i]);
    }
    return out;
  }

  // Writes every span as one JSON array. Returns false on an I/O error.
  bool WriteJson(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %d, \"request\": %lld}%s\n",
                   i, s.name, (s.start_ns - origin) / 1e3,
                   (s.end_ns - origin) / 1e3, s.parent,
                   static_cast<long long>(s.request),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int64_t request = -1)
      : log_(log), index_(log.Begin(name, request)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
