#ifndef PSPC_PERFBENCH_SPAN_TRACE_H_
#define PSPC_PERFBENCH_SPAN_TRACE_H_

// In-memory span log for the benchmark's traced mode. A span is one
// timed call into the library (name, start, end, parent span, request
// id shared by every span of one request). Spans are coarse — one per
// build, query pass, read request or update batch — so a mutex-guarded
// vector is cheap next to the work it brackets. With the log disabled,
// Begin/End cost one branch.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  // "<layer>.<call>", a string literal
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;    // index into the log, -1 for a root
  uint64_t request;  // shared by all spans of one request, 0 if none
};

class SpanLog {
 public:
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool Enabled() const { return enabled_; }

  // Opens a span under the calling thread's innermost open span.
  int64_t Begin(const char* name, uint64_t request) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t parent = Stack().empty() ? -1 : Stack().back();
    spans_.push_back({name, NowNs(), 0, parent, request});
    const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
    Stack().push_back(id);
    return id;
  }

  void End(int64_t id) {
    if (id < 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end_ns = now;
    Stack().pop_back();
  }

  // Records an already-measured child span (stage costs the library
  // reports after the call, e.g. an update batch's plan/repair split).
  void AddChild(int64_t parent, const char* name, int64_t start_ns,
                int64_t end_ns, uint64_t request) {
    if (parent < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start_ns, end_ns, parent, request});
  }

  size_t Size() {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  // Self time (duration minus the children's durations), in seconds,
  // summed per layer — the prefix of the span name before the first dot.
  std::map<std::string, double> SelfSecondsByLayer() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const std::string name = spans_[i].name;
      const std::string layer = name.substr(0, name.find('.'));
      self[layer] +=
          (spans_[i].end_ns - spans_[i].start_ns - child_ns[i]) * 1e-9;
    }
    return self;
  }

  // Total duration of the spans named `name`, in seconds.
  double TotalSeconds(const char* name) {
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (const Span& s : spans_) {
      if (std::string(s.name) == name) total += (s.end_ns - s.start_ns) * 1e-9;
    }
    return total;
  }

  bool WriteJson(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}%s\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::vector<int64_t>& Stack() {
    thread_local std::vector<int64_t> stack;
    return stack;
  }

  bool enabled_ = false;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a null or disabled log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t request = 0)
      : log_(log), id_(log.Begin(name, request)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t Id() const { return id_; }

 private:
  SpanLog& log_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PSPC_PERFBENCH_SPAN_TRACE_H_
