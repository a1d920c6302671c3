// Campaign stage: core::run_streaming_campaign over a build_world world,
// and a traced replay of it through its public pieces.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>

#include "core/streaming_campaign.h"
#include "geo/geodesy.h"
#include "pipeline.h"
#include "scenario/tile_source.h"
#include "trace.h"
#include "util/parallel.h"
#include "util/procstat.h"
#include "util/stats.h"

namespace pipebench {

using namespace geoloc;

namespace {

/// Timed campaigns per run, whatever --seconds allows: the median of three
/// discounts one campaign slowed by a stall of the host. An untimed
/// warm-up campaign comes first: the first campaign in a process pays for
/// page faults and the thread pool's start, up to twice a later one's time.
constexpr std::size_t kMinCampaigns = 3;

struct Sources {
  scenario::RttTileSource reps;
  scenario::RttTileSource targets;
};

Sources make_sources(const SynthWorld& w) {
  scenario::TileCampaign rc;
  rc.world = w.world.get();
  rc.latency = w.latency.get();
  rc.vps = w.vps;
  rc.dsts = w.rep_dsts;
  rc.group = 3;
  rc.stream = w.rng.fork("reps");
  scenario::TileCampaign tc;
  tc.world = w.world.get();
  tc.latency = w.latency.get();
  tc.vps = w.vps;
  tc.dsts = w.target_dsts;
  tc.group = 1;
  tc.stream = w.rng.fork("targets");
  return Sources{scenario::RttTileSource(std::move(rc)),
                 scenario::RttTileSource(std::move(tc))};
}

struct CampaignRun {
  core::StreamingCampaignOutcome outcome;
  double wall_s = 0.0;
  std::uint64_t allocs = 0;
};

CampaignRun run_campaign(const SynthWorld& w) {
  Sources src = make_sources(w);
  core::StreamingCampaignConfig cfg;
  cfg.k = kCampaignK;
  CampaignRun run;
  const std::uint64_t allocs0 = util::procstat::alloc_count();
  const std::uint64_t t0 = now_ns();
  run.outcome = core::run_streaming_campaign(src.reps, src.targets,
                                             w.target_to_rep_col, cfg);
  run.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  run.allocs = util::procstat::alloc_count() - allocs0;
  return run;
}

/// run_streaming_campaign's steps, in its order, through the public
/// pieces: per rep block, every VP-block tile (tile synthesis), then
/// streamed_select_block (pure selection, the tiles being cached), then
/// per target its selected cells and cbg_geolocate, spread with
/// util::parallel_map. Fills errors[t] for the targets of `blocks`.
void replay(const SynthWorld& w, std::span<const std::size_t> blocks,
            std::vector<double>& errors) {
  Sources src = make_sources(w);
  scenario::RttTileSource& reps = src.reps;
  const scenario::RttTileSource& targets = src.targets;
  const auto& tc = targets.campaign();
  const std::size_t tb_cols = reps.shape().target_block;
  std::vector<std::vector<std::uint32_t>> targets_of_block(
      reps.target_blocks());
  for (std::size_t t = 0; t < w.target_to_rep_col.size(); ++t) {
    targets_of_block[w.target_to_rep_col[t] / tb_cols].push_back(
        static_cast<std::uint32_t>(t));
  }
  const core::CbgConfig cbg;
  for (const std::size_t tb : blocks) {
    const auto& block_targets = targets_of_block[tb];
    if (block_targets.empty()) continue;
    const ScopedSpan block("campaign.block", 0, tb, Busy::ProcessCpu,
                           block_targets.size());
    for (std::size_t vb = 0; vb < reps.vp_blocks(); ++vb) {
      ScopedSpan s("scenario.tile", block.id(), tb, Busy::ProcessCpu);
      const auto& tile = reps.tile(vb, tb);
      s.set_count(tile.rows() * tile.cols());
    }
    std::vector<std::vector<std::size_t>> selection;
    {
      const ScopedSpan s("core.select", block.id(), tb, Busy::ProcessCpu);
      selection = core::streamed_select_block(reps, tb, kCampaignK);
    }
    const std::size_t col_begin = tb * tb_cols;
    const ScopedSpan locate("core.locate", block.id(), tb, Busy::ProcessCpu,
                            block_targets.size());
    const std::vector<double> block_errors = util::parallel_map<double>(
        block_targets.size(), [&](std::size_t i) {
          const std::size_t t = block_targets[i];
          const auto& rows = selection[w.target_to_rep_col[t] - col_begin];
          const sim::HostId target = tc.dsts[t];
          std::vector<core::VpObservation> obs;
          obs.reserve(rows.size());
          {
            ScopedSpan s("scenario.cell", locate.id(), tb, Busy::Wall, 0);
            std::uint64_t cells = 0;
            for (const std::size_t r : rows) {
              if (tc.vps[r] == target) continue;
              const float rtt = targets.cell(r, t);
              ++cells;
              if (scenario::RttMatrix::is_missing(rtt)) continue;
              obs.push_back(core::VpObservation{
                  w.world->host(tc.vps[r]).reported_location, rtt});
            }
            s.set_count(cells);
          }
          const ScopedSpan s("core.cbg", locate.id(), tb);
          const core::CbgResult res = core::cbg_geolocate(obs, cbg);
          return res.ok ? geo::distance_km(
                              res.estimate,
                              w.world->host(target).true_location)
                        : -1.0;
        });
    for (std::size_t i = 0; i < block_targets.size(); ++i) {
      errors[block_targets[i]] = block_errors[i];
    }
  }
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

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Every target of `blocks` has the error `want` has for it.
bool blocks_match(const SynthWorld& w, std::span<const std::size_t> blocks,
                  const std::vector<double>& got,
                  const std::vector<double>& want, std::size_t tb_cols) {
  for (std::size_t t = 0; t < want.size(); ++t) {
    const std::size_t tb = w.target_to_rep_col[t] / tb_cols;
    if (std::find(blocks.begin(), blocks.end(), tb) == blocks.end()) continue;
    if (std::memcmp(&got[t], &want[t], sizeof(double)) != 0) return false;
  }
  return true;
}

}  // namespace

void run_campaign_stage(const SynthWorld& w, double seconds, bool trace,
                        Report& report) {
  const CampaignRun warm_up = run_campaign(w);
  std::vector<CampaignRun> runs;
  const std::uint64_t start = now_ns();
  while (runs.size() < kMinCampaigns ||
         static_cast<double>(now_ns() - start) / 1e9 < seconds) {
    runs.push_back(run_campaign(w));
  }
  std::vector<double> walls;
  for (const CampaignRun& r : runs) walls.push_back(r.wall_s);
  const double median_wall_s = util::percentile(walls, 50.0);

  const auto& out = runs.front().outcome;
  std::printf("campaign: %zu run(s) after a %.3f s warm-up, %zu targets, "
              "located %zu, failed %zu; wall s:", runs.size(), warm_up.wall_s,
              out.targets, out.located, out.failed);
  for (const CampaignRun& r : runs) std::printf(" %.3f", r.wall_s);
  std::printf("\n");
  for (const CampaignRun& r : runs) {
    report.attempt(r.outcome.targets, r.outcome.failed);
    report.check(r.outcome.located + r.outcome.failed == r.outcome.targets,
                 "campaign: located + failed == targets");
    report.check(same_bytes(r.outcome.errors_km, out.errors_km),
                 "campaign: repeated campaigns give identical errors");
  }
  report.check(same_bytes(warm_up.outcome.errors_km, out.errors_km),
               "campaign: the warm-up campaign gives the same errors");

  // Thread-count determinism (DESIGN.md §9), sampled: the last rep block
  // (the short one) replayed on one thread equals the campaign's errors.
  const Sources shape = make_sources(w);
  const std::size_t tb_cols = shape.reps.shape().target_block;
  const std::size_t n_blocks = shape.reps.target_blocks();
  const std::vector<std::size_t> sample = {n_blocks - 1};
  {
    std::vector<double> one(out.errors_km.size(), -2.0);
    util::set_thread_count(1);
    replay(w, sample, one);
    util::set_thread_count(0);
    report.check(blocks_match(w, sample, one, out.errors_km, tb_cols),
                 "campaign: GEOLOC_THREADS=1 replay equals the campaign");
  }

  if (!trace) {
    std::vector<double> rates;
    for (const CampaignRun& r : runs) {
      rates.push_back(static_cast<double>(r.outcome.targets) / r.wall_s);
    }
    report.metric("campaign_targets_per_s", util::percentile(rates, 50.0),
                  "targets/s");
    report.metric("median_error_km", median_of_located(out.errors_km), "km");
    return;
  }

  // Traced replay of the same campaign, compared byte for byte.
  std::vector<std::size_t> blocks(n_blocks);
  for (std::size_t i = 0; i < n_blocks; ++i) blocks[i] = i;
  std::vector<double> traced(out.errors_km.size(), -2.0);
  Tracer::instance().set_enabled(true);
  const std::uint64_t t0 = now_ns();
  replay(w, blocks, traced);
  const std::uint64_t t1 = now_ns();
  Tracer::instance().set_enabled(false);
  report.traced(t0, t1, median_wall_s);
  report.check(same_bytes(traced, out.errors_km),
               "campaign: traced replay errors equal the campaign's");

  const auto& rs = out.rep_stats;
  report.metric("scenario.tile.generated", static_cast<double>(rs.misses),
                "count");
  report.metric("scenario.tile.cells", static_cast<double>(out.rep_cells),
                "count");
  report.metric("scenario.tile.evictions", static_cast<double>(rs.evictions),
                "count");
  report.metric("scenario.tile.peak_resident_mb",
                static_cast<double>(rs.peak_resident_bytes) / (1024.0 * 1024.0),
                "MB");
  report.metric("scenario.cell.count", static_cast<double>(out.target_cells),
                "count");
  report.metric("core.cbg.count", static_cast<double>(out.targets), "count");
  report.metric("core.cbg.located_ratio",
                static_cast<double>(out.located) /
                    static_cast<double>(std::max<std::size_t>(out.targets, 1)),
                "ratio");
  report.metric("campaign.allocs_per_target",
                static_cast<double>(runs.back().allocs) /
                    static_cast<double>(std::max<std::size_t>(out.targets, 1)),
                "count");
}

}  // namespace pipebench
