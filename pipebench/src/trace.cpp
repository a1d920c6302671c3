#include "trace.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace pipebench {

namespace {

std::uint64_t clock_ns(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Buffers are owned by the registry, not by the threads, so spans of a
// thread that has already exited (a client connection, the publisher)
// survive until collect().
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::vector<Span>& thread_buffer() {
  thread_local std::vector<Span>* buf = [] {
    auto owned = std::make_unique<std::vector<Span>>();
    owned->reserve(1 << 14);
    std::vector<Span>* raw = owned.get();
    Registry& r = registry();
    const std::lock_guard lock(r.mu);
    r.buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buf;
}

std::atomic<std::uint32_t> g_next_id{1};

/// Length of the union of [start, end) intervals clipped to [lo, hi).
std::uint64_t union_length(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                           std::uint64_t lo, std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e <= s) continue;
    covered += e - s;
    cursor = e;
  }
  return covered;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t process_cpu_ns() noexcept {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

std::uint64_t thread_cpu_ns() noexcept {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

std::uint32_t Tracer::next_id() noexcept {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(const Span& s) { thread_buffer().push_back(s); }

std::vector<Span> Tracer::collect() {
  std::vector<Span> out;
  Registry& r = registry();
  const std::lock_guard lock(r.mu);
  for (auto& b : r.buffers) {
    out.insert(out.end(), b->begin(), b->end());
    b->clear();
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

ScopedSpan::ScopedSpan(const char* name, std::uint32_t parent,
                       std::uint64_t op, Busy busy,
                       std::uint64_t count) noexcept
    : busy_(busy), active_(Tracer::instance().enabled()) {
  if (!active_) return;
  span_.name = name;
  span_.id = Tracer::instance().next_id();
  span_.parent = parent;
  span_.op = op;
  span_.count = count;
  if (busy_ == Busy::ProcessCpu) cpu_start_ = process_cpu_ns();
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  span_.busy_ns = busy_ == Busy::ProcessCpu
                      ? process_cpu_ns() - cpu_start_
                      : span_.end_ns - span_.start_ns;
  Tracer::instance().record(span_);
}

std::map<std::string, LayerTotals> totals_by_name(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTotals> out;
  for (const Span& s : spans) {
    LayerTotals& t = out[s.name];
    ++t.spans;
    t.count += s.count;
    t.busy_ms += static_cast<double>(s.busy_ns) / 1e6;
    const std::uint64_t dur = s.end_ns - s.start_ns;
    t.wall_ms += static_cast<double>(dur) / 1e6;
    const auto it = children.find(s.id);
    const std::uint64_t covered =
        it == children.end() ? 0
                             : union_length(it->second, s.start_ns, s.end_ns);
    t.self_ms += static_cast<double>(dur - covered) / 1e6;
  }
  return out;
}

double top_level_coverage(const std::vector<Span>& spans,
                          std::uint64_t begin_ns, std::uint64_t end_ns) {
  if (end_ns <= begin_ns) return 0.0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (const Span& s : spans) {
    if (s.parent == 0) iv.emplace_back(s.start_ns, s.end_ns);
  }
  return static_cast<double>(union_length(std::move(iv), begin_ns, end_ns)) /
         static_cast<double>(end_ns - begin_ns);
}

bool write_spans_csv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "name,id,parent,op,start_ns,end_ns,busy_ns,count\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%u,%u,%llu,%llu,%llu,%llu,%llu\n", s.name, s.id,
                 s.parent, static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0),
                 static_cast<unsigned long long>(s.busy_ns),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

}  // namespace pipebench
