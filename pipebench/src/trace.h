// Span recorder for the traced runs. Spans are recorded around calls into
// the product's public functions, never inside them: each one holds a
// name, start, end, parent span and op id (a rep block or a frame id),
// plus its busy time. Spans stay in per-thread buffers until the run
// ends, when they are merged and written out.
//
// Busy time is the work a span kept the machine doing, summed over
// threads. A span on a worker thread is busy for its whole duration. A
// span around a call that fans out to util::parallel's pool records the
// process CPU time spent during it instead, which is the pool's summed
// busy time: nothing else in the process runs while the benchmark makes
// such a call.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

/// Nanoseconds on std::chrono::steady_clock.
[[nodiscard]] std::uint64_t now_ns() noexcept;
/// Process CPU time (all threads) in nanoseconds.
[[nodiscard]] std::uint64_t process_cpu_ns() noexcept;
/// The calling thread's CPU time in nanoseconds.
[[nodiscard]] std::uint64_t thread_cpu_ns() noexcept;

struct Span {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = top level
  std::uint64_t op = 0;      ///< rep block or frame id
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t count = 0;   ///< work items the span covers
};

enum class Busy : std::uint8_t {
  Wall,        ///< the span's own thread is busy for its duration
  ProcessCpu,  ///< the call fans out; count CPU time over all threads
};

/// Process-wide recorder. Disabled spans cost one branch.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// A span id, unique for the run (0 is never returned).
  std::uint32_t next_id() noexcept;
  /// Append a finished span to the calling thread's buffer.
  void record(const Span& s);

  /// Merge and clear every thread's buffer (call with no span open).
  std::vector<Span> collect();

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
};

/// RAII span. `count` may be raised before the span closes.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint32_t parent, std::uint64_t op,
             Busy busy = Busy::Wall, std::uint64_t count = 1) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return span_.id; }
  void set_count(std::uint64_t n) noexcept { span_.count = n; }

 private:
  Span span_;
  Busy busy_;
  std::uint64_t cpu_start_ = 0;
  bool active_;
};

/// Per-name totals over a span set.
struct LayerTotals {
  std::uint64_t spans = 0;
  std::uint64_t count = 0;
  double busy_ms = 0.0;
  double wall_ms = 0.0;
  double self_ms = 0.0;  ///< duration minus the time children cover
};

/// Totals per span name.
std::map<std::string, LayerTotals> totals_by_name(
    const std::vector<Span>& spans);

/// Share of [begin_ns, end_ns) that top-level spans (parent 0) cover.
double top_level_coverage(const std::vector<Span>& spans,
                          std::uint64_t begin_ns, std::uint64_t end_ns);

/// Write every span as CSV (name,id,parent,op,start_ns,end_ns,busy_ns,
/// count), times relative to the first span's start. False on I/O error.
bool write_spans_csv(const std::vector<Span>& spans, const std::string& path);

}  // namespace pipebench
