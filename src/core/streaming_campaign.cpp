#include "core/streaming_campaign.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "core/million_scale.h"
#include "geo/geodesy.h"
#include "util/parallel.h"

namespace geoloc::core {

namespace {

/// Per-worker buffers of the bounded search, reused column after column.
struct SelectScratch {
  std::vector<float> bound;                             ///< per row
  std::vector<std::pair<float, std::uint32_t>> queue;   ///< (bound, row)
  std::vector<std::pair<float, std::size_t>> best;      ///< (rtt, row) heap
};

SelectScratch& select_scratch() {
  thread_local SelectScratch s;
  return s;
}

/// The k lowest-(rtt, row) rows of global rep column c, synthesising only
/// the cells whose lower bound does not rule them out (DESIGN.md §14).
/// Returns the rows in ascending (rtt, row) order; `cells` counts the
/// cells synthesised.
std::vector<std::size_t> select_column(const scenario::RttTileSource& reps,
                                       std::size_t c, std::size_t kk,
                                       sim::HostId self,
                                       std::uint32_t& cells) {
  cells = 0;
  if (kk == 0) return {};
  const auto& vps = reps.campaign().vps;
  SelectScratch& s = select_scratch();
  s.bound.resize(reps.rows());
  reps.cell_lower_bounds(c, s.bound);
  s.queue.clear();
  for (std::size_t r = 0; r < s.bound.size(); ++r) {
    // A row whose every destination is unresponsive (+inf) is missing
    // everywhere; the self row is the anchors-as-both exclusion.
    if (std::isinf(s.bound[r]) || vps[r] == self) continue;
    s.queue.emplace_back(s.bound[r], static_cast<std::uint32_t>(r));
  }
  // Best-first: a min-heap on (bound, row).
  const auto later = std::greater<>{};
  std::make_heap(s.queue.begin(), s.queue.end(), later);
  // A max-heap of the k smallest (rtt, row) pairs seen — the dense
  // partial_sort's ordering. Once it is full, a row whose bound is
  // strictly above its top cannot enter, and neither can any row after
  // it. An equal bound must still be synthesised: its cell may tie the
  // top's rtt with a lower row.
  auto& best = s.best;
  best.clear();
  while (!s.queue.empty()) {
    std::pop_heap(s.queue.begin(), s.queue.end(), later);
    const auto [bound, r] = s.queue.back();
    s.queue.pop_back();
    if (best.size() == kk && bound > best.front().first) break;
    const float rtt = reps.cell(r, c);
    ++cells;
    if (scenario::RttMatrix::is_missing(rtt)) continue;
    const std::pair<float, std::size_t> cand{rtt, r};
    if (best.size() < kk) {
      best.push_back(cand);
      std::push_heap(best.begin(), best.end());
    } else if (cand < best.front()) {
      std::pop_heap(best.begin(), best.end());
      best.back() = cand;
      std::push_heap(best.begin(), best.end());
    }
  }
  std::sort(best.begin(), best.end());
  std::vector<std::size_t> rows;
  rows.reserve(best.size());
  for (const auto& [rtt, r] : best) rows.push_back(r);
  return rows;
}

/// streamed_select_block, also counting the rep cells it synthesised.
std::vector<std::vector<std::size_t>> select_block(
    const scenario::RttTileSource& reps, std::size_t target_block, int k,
    std::span<const sim::HostId> col_self, std::uint64_t& cells) {
  const std::size_t col_begin = target_block * reps.shape().target_block;
  const std::size_t col_end =
      std::min(reps.cols(), col_begin + reps.shape().target_block);
  const auto kk = static_cast<std::size_t>(std::max(k, 0));
  // Each column reads only its own cells and writes only its own slots, so
  // the block maps in parallel with the same result at any thread count.
  std::vector<std::uint32_t> col_cells(col_end - col_begin, 0);
  auto out = util::parallel_map<std::vector<std::size_t>>(
      col_end - col_begin, [&](std::size_t cc) {
        const std::size_t c = col_begin + cc;
        const sim::HostId self =
            col_self.empty() ? sim::kInvalidHost : col_self[c];
        return select_column(reps, c, kk, self, col_cells[cc]);
      });
  for (const std::uint32_t n : col_cells) cells += n;
  return out;
}

}  // namespace

std::vector<std::vector<std::size_t>> streamed_select_block(
    scenario::RttTileSource& reps, std::size_t target_block, int k,
    std::span<const sim::HostId> col_self) {
  std::uint64_t cells = 0;
  return select_block(reps, target_block, k, col_self, cells);
}

StreamingCampaignOutcome run_streaming_campaign(
    scenario::RttTileSource& reps, scenario::RttTileSource& targets,
    std::span<const std::uint32_t> target_to_rep_col,
    const StreamingCampaignConfig& config) {
  const auto& tc = targets.campaign();
  const sim::World& world = *tc.world;
  const std::size_t n_targets = targets.cols();
  const bool identity = target_to_rep_col.empty();
  if (identity && reps.cols() != n_targets) {
    throw std::invalid_argument(
        "run_streaming_campaign: identity mapping needs reps.cols() == "
        "targets.cols()");
  }
  if (!identity && target_to_rep_col.size() != n_targets) {
    throw std::invalid_argument(
        "run_streaming_campaign: target_to_rep_col must cover every target");
  }

  StreamingCampaignOutcome out;
  out.targets = n_targets;
  out.errors_km.assign(n_targets, -1.0);

  // Group target columns under the rep block their /24 column lives in, so
  // each rep block is selected once and every dependent target consumes
  // its selection.
  const auto rep_col_of = [&](std::size_t t) -> std::size_t {
    return identity ? t : target_to_rep_col[t];
  };
  std::vector<std::vector<std::uint32_t>> targets_of_block(
      reps.target_blocks());
  for (std::size_t t = 0; t < n_targets; ++t) {
    targets_of_block[rep_col_of(t) / reps.shape().target_block].push_back(
        static_cast<std::uint32_t>(t));
  }

  struct TargetOutcome {
    double error_km = -1.0;
    std::uint32_t cells = 0;
  };
  for (std::size_t tb = 0; tb < reps.target_blocks(); ++tb) {
    const auto& block_targets = targets_of_block[tb];
    if (block_targets.empty()) continue;
    // Self-VP exclusion during selection is the dense pipeline's
    // anchors-as-both rule; it only applies when rep columns ARE target
    // columns (identity mapping).
    const auto selection = select_block(
        reps, tb, config.k,
        identity ? std::span<const sim::HostId>(tc.dsts)
                 : std::span<const sim::HostId>{},
        out.rep_cells);
    const std::size_t col_begin = tb * reps.shape().target_block;
    // Final pings + CBG per target: each column is a pure function of its
    // selection and the sparse cells it computes, so the block maps in
    // parallel and folds in column order (bit-identical at any thread
    // count).
    const std::vector<TargetOutcome> results =
        util::parallel_map<TargetOutcome>(
            block_targets.size(), [&](std::size_t i) {
              const std::size_t t = block_targets[i];
              const auto& rows = selection[rep_col_of(t) - col_begin];
              const sim::HostId target = tc.dsts[t];
              TargetOutcome to;
              std::vector<VpObservation> obs;
              obs.reserve(rows.size());
              for (const std::size_t r : rows) {
                if (tc.vps[r] == target) continue;
                const float rtt = targets.cell(r, t);
                ++to.cells;
                if (scenario::RttMatrix::is_missing(rtt)) continue;
                obs.push_back(VpObservation{
                    world.host(tc.vps[r]).reported_location, rtt});
              }
              const CbgResult res = cbg_geolocate(obs, config.cbg);
              if (res.ok) {
                to.error_km = geo::distance_km(
                    res.estimate, world.host(target).true_location);
              }
              return to;
            });
    for (std::size_t i = 0; i < block_targets.size(); ++i) {
      out.errors_km[block_targets[i]] = results[i].error_km;
      out.target_cells += results[i].cells;
      if (results[i].error_km >= 0.0) {
        ++out.located;
      } else {
        ++out.failed;
      }
    }
  }
  out.rep_stats = reps.stats();
  out.target_stats = targets.stats();
  return out;
}

scenario::RttTileSource make_resilient_rep_source(
    const scenario::Scenario& s, const atlas::FaultModel* faults,
    scenario::TileShape shape, std::size_t budget_tiles) {
  scenario::TileCampaign c;
  c.world = &s.world();
  c.latency = &s.latency();
  c.vps = s.vps();
  c.group = 3;
  c.dsts.reserve(s.targets().size() * 3);
  for (const sim::HostId target : s.targets()) {
    const RepresentativeFallback fb =
        resilient_representatives(s, target, faults, 3);
    for (const sim::HostId rep : fb.chosen) c.dsts.push_back(rep);
    for (std::size_t i = fb.chosen.size(); i < 3; ++i) {
      c.dsts.push_back(sim::kInvalidHost);
    }
  }
  c.stream = s.world().rng().fork("campaign-reps-resilient");
  c.ping_packets = s.config().ping_packets;
  return scenario::RttTileSource(std::move(c), shape, budget_tiles);
}

}  // namespace geoloc::core
