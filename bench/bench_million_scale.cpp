// Million-scale streaming campaign acceptance bench (DESIGN.md §14).
//
// Builds a synthetic internet directly in sim::World — GEOLOC_MS_SLASH24S
// /24 sites (default 100 000), each with three hitlist representatives and
// GEOLOC_MS_TARGETS_PER_24 targets (default 10, i.e. one million targets),
// probed by GEOLOC_MS_VPS vantage points (default 128) — and runs the
// full streaming pipeline over it: representative campaign with per-/24
// VP selection, sparse final pings, CBG. The dense pipeline would need a
// |VPs| x |targets| matrix (gigabytes of floats and hours of synthesis
// at this scale); the streaming path holds no tile, and its bounded
// selection synthesises only the rep cells a lower bound cannot rule out
// (reported against the |VPs| x /24s cells a full sweep would need).
//
// Recorded to $GEOLOC_BENCH_JSON (BENCH_million_scale.json) and gated:
//   - throughput must be >= 10x the dense path's effective rate at the
//     paper point (10 724 VPs x 723 targets, both campaigns fully
//     materialised), with the dense per-cell rates measured in-process on
//     this host using the dense scalar recipe;
//   - peak RSS must stay under GEOLOC_MS_RSS_CEILING_MB (default 4096).
//
// GEOLOC_SMALL=1 shrinks the world (2 000 /24s, 5 targets each, 64 VPs)
// for a seconds-long smoke run; the gates still apply.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/streaming_campaign.h"
#include "scenario/tile_source.h"
#include "sim/latency_model.h"
#include "sim/world.h"
#include "util/env.h"
#include "util/procstat.h"
#include "util/rng.h"

namespace {

using namespace geoloc;

/// The synthetic world and the two campaign host lists. The world owns the
/// hosts; the latency model is built after population (it only borrows).
struct SynthWorld {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<sim::LatencyModel> latency;
  std::vector<sim::HostId> vps;
  std::vector<sim::HostId> rep_dsts;     ///< 3 per /24, grouped
  std::vector<sim::HostId> target_dsts;  ///< targets_per_24 per /24
  std::vector<std::uint32_t> target_to_rep_col;
};

SynthWorld build_world(std::size_t n24, std::size_t per24, std::size_t n_vps) {
  SynthWorld w;
  w.world = std::make_unique<sim::World>();
  sim::World& world = *w.world;
  auto gen = world.rng().fork("ms-build").gen();
  const auto continents = sim::all_continents();

  std::vector<net::Asn> ases;
  ases.reserve(64);
  for (int i = 0; i < 64; ++i) {
    ases.push_back(world.create_as(sim::AsCategory::Access, 0));
  }

  w.vps.reserve(n_vps);
  for (std::size_t v = 0; v < n_vps; ++v) {
    sim::Host h;
    h.kind = sim::HostKind::Probe;
    h.asn = ases[v % ases.size()];
    h.place = world.sample_place(continents[v % continents.size()],
                                 /*satellite_bias=*/0.2, gen);
    h.true_location = world.sample_location(h.place, /*mean_offset_km=*/8.0,
                                            gen);
    h.reported_location = h.true_location;
    h.last_mile_ms = gen.uniform(0.5, 10.0);
    h.addr = world.allocate_site_prefix(h.asn).address_at(1);
    w.vps.push_back(world.add_host(h));
  }

  w.rep_dsts.reserve(n24 * 3);
  w.target_dsts.reserve(n24 * per24);
  w.target_to_rep_col.reserve(n24 * per24);
  for (std::size_t site = 0; site < n24; ++site) {
    const net::Asn asn = ases[site % ases.size()];
    const net::Prefix prefix = world.allocate_site_prefix(asn);
    const sim::PlaceId place = world.sample_place(
        continents[site % continents.size()], /*satellite_bias=*/0.3, gen);
    const double site_last_mile = gen.uniform(0.3, 6.0);
    auto make = [&](sim::HostKind kind, std::uint32_t octet,
                    double responsive_prob) {
      sim::Host h;
      h.kind = kind;
      h.asn = asn;
      h.place = place;
      h.true_location =
          world.sample_location(place, /*mean_offset_km=*/2.0, gen);
      h.reported_location = h.true_location;
      h.last_mile_ms = site_last_mile + gen.uniform(0.0, 2.0);
      h.responsive = gen.chance(responsive_prob);
      h.addr = prefix.address_at(octet);
      return world.add_host(h);
    };
    for (std::uint32_t j = 0; j < 3; ++j) {
      w.rep_dsts.push_back(
          make(sim::HostKind::Representative, 1 + j, /*responsive=*/0.9));
    }
    for (std::uint32_t j = 0; j < static_cast<std::uint32_t>(per24); ++j) {
      w.target_dsts.push_back(
          make(sim::HostKind::WebServer, 10 + j, /*responsive=*/0.97));
      w.target_to_rep_col.push_back(static_cast<std::uint32_t>(site));
    }
  }

  w.latency = std::make_unique<sim::LatencyModel>(world);
  return w;
}

/// Dense scalar target-cell rate (cells/s): the per-cell recipe the dense
/// target_rtts loop runs — fork("m", (r << 20) | c), then min_rtt_ms —
/// sampled over random coordinates of this campaign.
double dense_target_cell_rate(const SynthWorld& w,
                              const util::RngStream& stream,
                              std::size_t sample) {
  util::Pcg32 pick{0x5a5aULL};
  const std::size_t rows = w.vps.size();
  const std::size_t cols = w.target_dsts.size();
  double sink = 0.0;
  bench::WallTimer timer;
  for (std::size_t i = 0; i < sample; ++i) {
    const std::size_t r = pick.index(rows);
    const std::size_t c = pick.index(cols);
    auto gen = stream.fork("m", (r << 20) | c).gen();
    if (const auto v = w.latency->min_rtt_ms(w.vps[r], w.target_dsts[c],
                                             /*packets=*/3, gen)) {
      sink += *v;
    }
  }
  const double s = timer.elapsed_ms() / 1e3;
  if (sink < 0) std::printf("unreachable %f\n", sink);  // keep the loop live
  return static_cast<double>(sample) / std::max(s, 1e-9);
}

/// Dense scalar representative-cell rate (cells/s): one cell = the median
/// over the /24's responsive representatives' min RTTs, exactly as the
/// dense representative_rtts loop computes it.
double dense_rep_cell_rate(const SynthWorld& w, const util::RngStream& stream,
                           std::size_t sample) {
  util::Pcg32 pick{0xa5a5ULL};
  const std::size_t rows = w.vps.size();
  const std::size_t cols = w.rep_dsts.size() / 3;
  double sink = 0.0;
  bench::WallTimer timer;
  for (std::size_t i = 0; i < sample; ++i) {
    const std::size_t r = pick.index(rows);
    const std::size_t c = pick.index(cols);
    auto gen = stream.fork("m", (r << 20) | c).gen();
    double vals[3];
    int n = 0;
    for (std::size_t j = 0; j < 3; ++j) {
      const sim::HostId rep = w.rep_dsts[c * 3 + j];
      if (const auto v = w.latency->min_rtt_ms(w.vps[r], rep, 3, gen)) {
        vals[n++] = *v;
      }
    }
    if (n > 0) {
      // Median of at most three, the dense loop's explicit swaps.
      if (n > 1 && vals[0] > vals[1]) std::swap(vals[0], vals[1]);
      if (n > 2) {
        if (vals[1] > vals[2]) std::swap(vals[1], vals[2]);
        if (vals[0] > vals[1]) std::swap(vals[0], vals[1]);
      }
      sink += vals[n / 2];
    }
  }
  const double s = timer.elapsed_ms() / 1e3;
  if (sink < 0) std::printf("unreachable %f\n", sink);
  return static_cast<double>(sample) / std::max(s, 1e-9);
}

double median_of_located(const std::vector<double>& errors) {
  std::vector<double> located;
  located.reserve(errors.size());
  for (const double e : errors) {
    if (e >= 0.0) located.push_back(e);
  }
  if (located.empty()) return -1.0;
  const std::size_t mid = located.size() / 2;
  std::nth_element(located.begin(), located.begin() + mid, located.end());
  return located[mid];
}

}  // namespace

int main() {
  const bool small = bench::small_mode();
  const auto n24 = static_cast<std::size_t>(
      util::env::int_or("GEOLOC_MS_SLASH24S", small ? 2'000 : 100'000));
  const auto per24 = static_cast<std::size_t>(
      util::env::int_or("GEOLOC_MS_TARGETS_PER_24", small ? 5 : 10));
  const auto n_vps = static_cast<std::size_t>(
      util::env::int_or("GEOLOC_MS_VPS", small ? 64 : 128));
  const auto ceiling_mb = static_cast<std::size_t>(
      util::env::int_or("GEOLOC_MS_RSS_CEILING_MB", 4'096));
  const std::size_t n_targets = n24 * per24;

  bench::print_header(
      "bench_million_scale",
      "streaming tiled campaign at internet scale (DESIGN.md §14)",
      "1M-target / 100k-/24 campaign completes under a fixed memory "
      "ceiling, >= 10x the dense path's effective rate");
  std::printf("world: %zu /24 sites x %zu targets = %zu targets, %zu VPs\n",
              n24, per24, n_targets, n_vps);

  bench::WallTimer build_timer;
  SynthWorld w = build_world(n24, per24, n_vps);
  std::printf("world built in %.1f s (%zu hosts)\n",
              build_timer.elapsed_ms() / 1e3, w.world->host_count());

  // Dense reference rates, measured with the dense scalar per-cell recipe
  // on this host. The ISSUE gate compares against the dense path's
  // effective rate at the paper point (10 724 VPs x 723 targets): the time
  // to materialise BOTH full matrices there, divided into its 723 targets.
  const util::RngStream target_stream = w.world->rng().fork("ms-targets");
  const util::RngStream rep_stream = w.world->rng().fork("ms-reps");
  const std::size_t dense_sample = small ? 20'000 : 200'000;
  const double rate_t = dense_target_cell_rate(w, target_stream, dense_sample);
  const double rate_r = dense_rep_cell_rate(w, rep_stream, dense_sample);
  constexpr double kPaperCells = 10'724.0 * 723.0;
  const double dense_ref_s = kPaperCells / rate_t + kPaperCells / rate_r;
  const double dense_ref_targets_per_s = 723.0 / dense_ref_s;
  // Secondary (same-world) reference: dense materialisation of THIS
  // campaign's two matrices at this host's scalar rates.
  const double dense_same_world_s =
      static_cast<double>(n_vps) * static_cast<double>(n_targets) / rate_t +
      static_cast<double>(n_vps) * static_cast<double>(n24) / rate_r;
  std::printf(
      "dense scalar rates: %.0f target-cells/s, %.0f rep-cells/s\n"
      "dense reference (723 x 10724 point): %.1f s -> %.1f targets/s\n"
      "dense same-world estimate: %.1f s for %zu targets\n",
      rate_t, rate_r, dense_ref_s, dense_ref_targets_per_s,
      dense_same_world_s, n_targets);

  // The streaming campaign proper.
  scenario::TileCampaign rc;
  rc.world = w.world.get();
  rc.latency = w.latency.get();
  rc.vps = w.vps;
  rc.dsts = w.rep_dsts;
  rc.group = 3;
  rc.stream = rep_stream;
  scenario::RttTileSource reps(std::move(rc));

  scenario::TileCampaign tc;
  tc.world = w.world.get();
  tc.latency = w.latency.get();
  tc.vps = w.vps;
  tc.dsts = w.target_dsts;
  tc.group = 1;
  tc.stream = target_stream;
  scenario::RttTileSource targets(std::move(tc));

  bench::WallTimer timer;
  const core::StreamingCampaignOutcome outcome =
      core::run_streaming_campaign(reps, targets, w.target_to_rep_col);
  const double wall_ms = timer.elapsed_ms();
  const double wall_s = wall_ms / 1e3;
  const double tiled_targets_per_s =
      static_cast<double>(n_targets) / std::max(wall_s, 1e-9);
  const double speedup = tiled_targets_per_s / dense_ref_targets_per_s;
  const double median_km = median_of_located(outcome.errors_km);

  // What a full sweep of the rep campaign would synthesise: every VP
  // against every /24 column, each cell pinging the /24's three reps.
  const double sweep_cells =
      static_cast<double>(reps.rows()) * static_cast<double>(reps.cols());
  const double rep_cell_share =
      static_cast<double>(outcome.rep_cells) / std::max(sweep_cells, 1.0);
  const std::size_t peak_rss_mb = util::procstat::peak_rss_kb() / 1024;

  std::printf(
      "campaign: %.1f s (%.0f targets/s), located %zu / failed %zu, "
      "median error %.1f km\n"
      "cells: %llu rep + %llu final-ping (dense would need %.0f)\n"
      "rep cells synthesised: %llu of the %.0f a full sweep needs "
      "(%zu VPs x %zu /24s x %zu reps = %.0f rep pings), %.2f%%\n"
      "peak RSS %zu MB (ceiling %zu MB)\n",
      wall_s, tiled_targets_per_s, outcome.located, outcome.failed, median_km,
      static_cast<unsigned long long>(outcome.rep_cells),
      static_cast<unsigned long long>(outcome.target_cells),
      static_cast<double>(n_vps) *
          static_cast<double>(n_targets + n24),
      static_cast<unsigned long long>(outcome.rep_cells), sweep_cells,
      reps.rows(), reps.cols(), reps.campaign().group,
      sweep_cells * static_cast<double>(reps.campaign().group),
      rep_cell_share * 100.0, peak_rss_mb, ceiling_mb);

  bench::emit_bench_json_fields(
      "million_scale",
      {{"slash24s", static_cast<double>(n24)},
       {"targets_per_24", static_cast<double>(per24)},
       {"targets", static_cast<double>(n_targets)},
       {"vps", static_cast<double>(n_vps)},
       {"wall_ms", wall_ms},
       {"targets_per_s", tiled_targets_per_s},
       {"located", static_cast<double>(outcome.located)},
       {"failed", static_cast<double>(outcome.failed)},
       {"median_error_km", median_km},
       {"rep_cells", static_cast<double>(outcome.rep_cells)},
       {"rep_sweep_cells", sweep_cells},
       {"rep_cell_share", rep_cell_share},
       {"target_cells", static_cast<double>(outcome.target_cells)},
       {"dense_target_cells_per_s", rate_t},
       {"dense_rep_cells_per_s", rate_r},
       {"dense_effective_targets_per_s", dense_ref_targets_per_s},
       {"dense_same_world_s", dense_same_world_s},
       {"speedup_vs_dense", speedup},
       {"peak_rss_mb", static_cast<double>(peak_rss_mb)},
       {"rss_ceiling_mb", static_cast<double>(ceiling_mb)}});
  bench::emit_metrics_snapshot("million_scale");

  bool ok = true;
  if (speedup >= 10.0) {
    std::printf("[gate] PASS: %.0f targets/s >= 10x dense effective "
                "%.1f targets/s (%.0fx)\n",
                tiled_targets_per_s, dense_ref_targets_per_s, speedup);
  } else {
    std::printf("[gate] FAIL: %.0f targets/s is only %.1fx the dense "
                "effective rate %.1f targets/s\n",
                tiled_targets_per_s, speedup, dense_ref_targets_per_s);
    ok = false;
  }
  if (peak_rss_mb <= ceiling_mb) {
    std::printf("[gate] PASS: peak RSS %zu MB <= ceiling %zu MB\n",
                peak_rss_mb, ceiling_mb);
  } else {
    std::printf("[gate] FAIL: peak RSS %zu MB exceeds ceiling %zu MB\n",
                peak_rss_mb, ceiling_mb);
    ok = false;
  }
  return ok ? 0 : 1;
}
