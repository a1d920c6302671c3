// Shared plumbing for the per-figure bench binaries.
//
// Every binary prints: a header naming the paper artefact it regenerates,
// the measured rows/series, and (where the paper uses a plot) an ASCII
// rendering of the figure. Numbers are expected to match the paper's
// *shape* — orderings, ratios, crossovers — not its absolute values (the
// substrate here is a simulator; see DESIGN.md and EXPERIMENTS.md).
//
// Environment knobs (parsed by util/env.h — the registry lives there):
//   GEOLOC_SMALL=1       run on the miniature scenario (quick smoke)
//   GEOLOC_TRIALS=N      trial count for the randomized sweeps
//   GEOLOC_CACHE_DIR=…   where the RTT-matrix / campaign caches live
//   GEOLOC_THREADS=N     parallel-engine workers; results are bit-identical
//                        for any value (DESIGN.md §9), only wall time moves
//   GEOLOC_BENCH_JSON=f  append machine-readable timing records (one JSON
//                        object per line) to file f
//   GEOLOC_METRICS_JSON=f  append obs-registry metric snapshots (same
//                        JSON-lines shape, tagged with the bench name)
//   GEOLOC_TRACE=1       record obs trace spans (flushed into the
//                        metrics snapshot)
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "util/ascii_chart.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/parallel.h"
#include "util/procstat.h"

namespace geoloc::bench {

inline bool small_mode() { return util::env::flag("GEOLOC_SMALL"); }

/// The scenario every bench shares (paper scale unless GEOLOC_SMALL=1).
inline const scenario::Scenario& bench_scenario() {
  static const scenario::Scenario s = [] {
    auto cfg =
        small_mode() ? scenario::small_config() : scenario::paper_config();
    if (cfg.cache_dir.empty()) cfg.cache_dir = scenario::default_cache_dir();
    return scenario::Scenario(cfg);
  }();
  return s;
}

inline void print_header(const char* artefact, const char* description,
                         const char* paper_shape) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artefact, description);
  std::printf("Paper shape to reproduce: %s\n", paper_shape);
  if (small_mode()) {
    std::printf("[GEOLOC_SMALL=1: miniature scenario — numbers are a smoke "
                "run, not the reproduction]\n");
  }
  std::printf("==============================================================\n");
}

/// Wall-clock stopwatch for the GEOLOC_BENCH_JSON records.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Append one timing record to $GEOLOC_BENCH_JSON as a JSON line:
///   {"name":…,"wall_ms":…,"threads":…,"vps":…,"targets":…,
///    "peak_rss_kb":…,"allocs":…}
/// so sweeps over GEOLOC_THREADS produce a machine-diffable speedup table.
/// peak_rss_kb is the process high-water mark (VmHWM) at emit time and
/// allocs the cumulative global operator-new count (util/procstat.h) — the
/// two columns a perf regression shows up in before wall time moves.
/// No-op when the variable is unset; also echoed to stdout either way.
inline void emit_bench_json(const std::string& name, double wall_ms,
                            std::size_t vps, std::size_t targets) {
  const unsigned threads = util::thread_count();
  std::printf("[timing] %s: %.1f ms at %u thread(s), %zu VPs x %zu targets\n",
              name.c_str(), wall_ms, threads, vps, targets);
  const std::string path = util::env::string_or("GEOLOC_BENCH_JSON", "");
  if (path.empty()) return;
  if (std::FILE* f = std::fopen(path.c_str(), "a")) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"wall_ms\":%.3f,\"threads\":%u,"
                 "\"vps\":%zu,\"targets\":%zu,\"peak_rss_kb\":%zu,"
                 "\"allocs\":%llu}\n",
                 name.c_str(), wall_ms, threads, vps, targets,
                 util::procstat::peak_rss_kb(),
                 static_cast<unsigned long long>(
                     util::procstat::alloc_count()));
    std::fclose(f);
  }
}

/// Append one free-form record to $GEOLOC_BENCH_JSON as a JSON line:
///   {"name":…,"threads":…,"host_cores":…,"<field>":<value>,…,
///    "peak_rss_kb":…,"allocs":…}
/// for benches whose natural outputs are rates/latencies rather than the
/// wall_ms/vps/targets shape of emit_bench_json(). No-op when unset.
inline void emit_bench_json_fields(
    const std::string& name,
    std::initializer_list<std::pair<const char*, double>> fields) {
  const std::string path = util::env::string_or("GEOLOC_BENCH_JSON", "");
  if (path.empty()) return;
  if (std::FILE* f = std::fopen(path.c_str(), "a")) {
    std::fprintf(f, "{\"name\":\"%s\",\"threads\":%u,\"host_cores\":%u",
                 name.c_str(), util::thread_count(),
                 std::thread::hardware_concurrency());
    for (const auto& [key, value] : fields) {
      std::fprintf(f, ",\"%s\":%.6g", key, value);
    }
    std::fprintf(f, ",\"peak_rss_kb\":%zu,\"allocs\":%llu}\n",
                 util::procstat::peak_rss_kb(),
                 static_cast<unsigned long long>(
                     util::procstat::alloc_count()));
    std::fclose(f);
  }
}

/// Append a snapshot of the obs metrics registry (plus any recorded trace
/// spans) to $GEOLOC_METRICS_JSON, each line tagged {"bench":"<name>"} so
/// the records diff the same way GEOLOC_BENCH_JSON timing records do.
/// No-op when the variable is unset.
inline void emit_metrics_snapshot(const std::string& name) {
  if (obs::flush_metrics_json(name)) {
    std::printf("[metrics snapshot appended to $GEOLOC_METRICS_JSON as "
                "bench=%s]\n",
                name.c_str());
  }
}

/// Export a figure's raw CDF series as "<GEOLOC_EXPORT_DIR>/<name>.csv"
/// (columns: series,value). No-op unless GEOLOC_EXPORT_DIR is set.
inline void export_cdf(const std::string& name,
                       const std::vector<util::CdfSeries>& series) {
  auto csv = util::maybe_csv(name);
  if (!csv) return;
  csv->row({"series", "value"});
  for (const auto& s : series) {
    for (double v : s.samples) {
      csv->row({s.label, std::to_string(v)});
    }
  }
  std::printf("[exported %zu rows to $GEOLOC_EXPORT_DIR/%s.csv]\n",
              csv->rows_written() - 1, name.c_str());
}

}  // namespace geoloc::bench
