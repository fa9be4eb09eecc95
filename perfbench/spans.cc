#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanRecorder::Begin(const char* name, uint64_t parent,
                             uint64_t request) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = spans_.size() + 1;
  spans_.push_back(s);
  return s.id;
}

void SpanRecorder::End(uint64_t id) {
  if (id == 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

uint64_t SpanRecorder::NewRequest() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

std::vector<Span> SpanRecorder::Finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.reserve(spans_.size());
  for (const Span& s : spans_) {
    if (s.end_ns >= s.start_ns && s.end_ns != 0) out.push_back(s);
  }
  return out;
}

std::string SpanRecorder::ToJson() const {
  const std::vector<Span> spans = Finished();
  std::string out = "[";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                  "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out += buf;
  }
  out += "\n]\n";
  return out;
}

std::map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<uint64_t, int64_t> self;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    int64_t covered = 0;
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0;
      int64_t cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self[s.id] = s.duration_ns() - covered;
  }
  return self;
}

std::vector<double> SelfTimesNamed(const std::vector<Span>& spans,
                                   const std::map<uint64_t, int64_t>& self,
                                   const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(static_cast<double>(self.at(s.id)));
  }
  return out;
}

}  // namespace perfbench
