// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around calls into each
// layer's public API (no instrumentation inside the library).  The buffer is
// preallocated so recording never allocates on the hot path: Begin/End are
// one atomic increment and two clock reads.  When the buffer is full, new
// spans are counted as dropped instead of recorded.  Spans are written out
// once, at exit, as Chrome trace-event JSON (chrome://tracing, Perfetto).
#ifndef PROCHLO_ESABENCH_ESA_TRACE_H_
#define PROCHLO_ESABENCH_ESA_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace prochlo::esa {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  // string literal; never owned
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;      // 1-based; 0 = no span
  uint32_t parent = 0;  // 0 = root
  uint32_t trace = 0;   // groups the spans of one request / epoch
};

class Tracer {
 public:
  // capacity 0 disables tracing: Begin returns 0 and End ignores it.
  explicit Tracer(size_t capacity) : spans_(capacity) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint32_t Begin(const char* name, uint32_t parent = 0, uint32_t trace = 0) {
    return Record(name, NowNs(), 0, parent, trace);
  }
  void End(uint32_t id) {
    if (id != 0) {
      spans_[id - 1].end_ns = NowNs();
    }
  }
  // A span whose interval is already known (e.g. an ACK measured from its
  // scheduled send time).  Safe from any thread.
  uint32_t Record(const char* name, int64_t start_ns, int64_t end_ns, uint32_t parent,
                  uint32_t trace) {
    if (spans_.empty()) {
      return 0;
    }
    uint32_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= spans_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    spans_[index] = Span{name, start_ns, end_ns, index + 1, parent, trace};
    return index + 1;
  }

  // Valid once every recording thread has been joined.
  std::vector<Span> Spans() const {
    size_t n = std::min<size_t>(next_.load(), spans_.size());
    return std::vector<Span>(spans_.begin(), spans_.begin() + n);
  }
  uint64_t dropped() const { return dropped_.load(); }

  // Duration of span `id` minus the part of it its direct children cover.
  static int64_t SelfNs(const std::vector<Span>& spans, uint32_t id) {
    const Span& span = spans[id - 1];
    std::vector<std::pair<int64_t, int64_t>> children;
    for (const Span& child : spans) {
      if (child.parent == id) {
        children.emplace_back(std::max(child.start_ns, span.start_ns),
                              std::min(child.end_ns, span.end_ns));
      }
    }
    std::sort(children.begin(), children.end());
    int64_t covered = 0;
    int64_t reach = span.start_ns;
    for (const auto& [start, end] : children) {
      int64_t from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    return (span.end_ns - span.start_ns) - covered;
  }

  // Median self time of the spans named `name` that are children of a span
  // named `parent_name` (a layer timed several times); 0 when there are none.
  static int64_t MedianSelfNs(const std::vector<Span>& spans, const char* parent_name,
                              const std::string& name) {
    std::vector<int64_t> self;
    for (const Span& span : spans) {
      if (span.parent != 0 && name == span.name &&
          std::string(spans[span.parent - 1].name) == parent_name) {
        self.push_back(SelfNs(spans, span.id));
      }
    }
    if (self.empty()) {
      return 0;
    }
    std::sort(self.begin(), self.end());
    return self[self.size() / 2];
  }

  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::vector<Span> spans = Spans();
    int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    for (const Span& span : spans) {
      origin = std::min(origin, span.start_ns);
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, \"parent\": %u, "
                   "\"trace\": %u}}%s\n",
                   s.name, s.trace, static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id, s.parent, s.trace,
                   i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::atomic<uint32_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace prochlo::esa

#endif  // PROCHLO_ESABENCH_ESA_TRACE_H_
