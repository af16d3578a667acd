// In-memory span recorder for the benchmark driver.
//
// Spans are opened and closed by perfbench.cc around calls into the
// engine's public functions; nothing inside src/ is instrumented. A span
// carries the request it serves (or -1) and the index of the span that
// encloses it, so self time can be computed once the run ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  std::int64_t request = -1;  ///< Request id; -1 for set-up spans.
  int parent = -1;            ///< Index of the enclosing span; -1 at top.
  std::int64_t begin_ns = 0;  ///< Since the tracer was created.
  std::int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - begin_ns) / 1e3; }
};

/// A disabled tracer records nothing; every call is one branch. Begin and
/// End may be called from any thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  int Begin(const char* name, std::int64_t request, int parent) {
    if (!enabled_) return -1;
    const std::int64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, request, parent, now, now});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    if (id < 0) return;
    const std::int64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = now;
  }

  /// Parent for spans opened on threads the driver does not own (the
  /// pipeline's match workers): the span the driving thread is inside.
  void set_ambient(int id) { ambient_.store(id, std::memory_order_release); }
  int ambient() const { return ambient_.load(std::memory_order_acquire); }

  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(spans_, {});
  }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  std::atomic<int> ambient_{-1};
  std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t request,
             int parent)
      : tracer_(tracer), id_(tracer.Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  const int id_;
};

/// Per span, the time (µs) covered by the union of its children's
/// intervals. Children overlap when they ran on several threads, so the
/// union, not the sum, is what a span's self time excludes.
inline std::vector<double> ChildCoverMicros(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.begin_ns,
                                                                 s.end_ns);
    }
  }
  std::vector<double> cover(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_begin = 0;
    std::int64_t run_end = -1;
    for (auto [b, e] : kids) {
      b = std::max(b, spans[i].begin_ns);
      e = std::min(e, spans[i].end_ns);
      if (e <= b) continue;
      if (b > run_end) {
        if (run_end > run_begin) covered += run_end - run_begin;
        run_begin = b;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end > run_begin) covered += run_end - run_begin;
    cover[i] = static_cast<double>(covered) / 1e3;
  }
  return cover;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
