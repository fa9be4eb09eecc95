// In-memory spans for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer of the engine (a TCP request, Session::Query, Session::Insert, and
// the parse -> Planner::Choose -> Planner::Build -> RunToCompletion replay of
// a statement). The engine itself carries no instrumentation for this.
// Spans stay in memory and are written out once, when the run ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval. `parent` is 0 for a root span; every span of one
/// request shares `request`.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// Thread-safe span store. A disabled recorder records nothing and hands
/// out id 0, so the untraced run pays only a branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled). `name` must be a
  /// string literal: spans keep the pointer.
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  void End(uint64_t id);

  /// Fresh request id shared by all spans of one request.
  uint64_t NewRequest();

  std::vector<Span> Finished() const;

  /// Spans as a JSON array (name, id, parent, request, start_ns, end_ns).
  std::string ToJson() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
  uint64_t next_request_ = 1;
};

/// RAII span: Begin at construction, End at destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t parent,
             uint64_t request)
      : rec_(rec), id_(rec->Begin(name, parent, request)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  uint64_t id_;
};

/// Self time of every finished span, by id: its duration minus the part of
/// its interval covered by its children (overlapping children count once,
/// and a child sticking out of its parent counts only inside it).
std::map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans);

/// Self times of all spans named `name`, in nanoseconds, in span order.
std::vector<double> SelfTimesNamed(const std::vector<Span>& spans,
                                   const std::map<uint64_t, int64_t>& self,
                                   const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
