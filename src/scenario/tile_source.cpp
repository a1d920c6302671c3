#include "scenario/tile_source.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "util/env.h"
#include "util/parallel.h"

namespace geoloc::scenario {

namespace {

struct TileMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& cells;
};

TileMetrics& tile_metrics() {
  static auto& reg = obs::Registry::instance();
  static TileMetrics m{reg.counter("scenario.rtt_tiles.hits"),
                       reg.counter("scenario.rtt_tiles.misses"),
                       reg.counter("scenario.rtt_tiles.evictions"),
                       reg.counter("scenario.rtt_tiles.cells")};
  return m;
}

constexpr std::size_t kMaxColumns = std::size_t{1} << 20;

/// Per-worker synthesis buffers, reused row after row: the city-pair
/// draws (reset per row, O(1)), the row's base RTTs and one destination's
/// per-row lower bounds.
struct RowScratch {
  sim::LatencyModel::CityPairCache cache;
  std::vector<double> base;
  std::vector<double> bound;
};

RowScratch& row_scratch() {
  thread_local RowScratch s;
  return s;
}

}  // namespace

TileShape tile_shape_from_env() {
  return TileShape{
      static_cast<std::size_t>(util::env::int_or("GEOLOC_RTT_TILE_VPS", 256)),
      static_cast<std::size_t>(
          util::env::int_or("GEOLOC_RTT_TILE_TARGETS", 512))};
}

std::size_t tile_budget_from_env() {
  return static_cast<std::size_t>(
      util::env::int_or("GEOLOC_RTT_TILE_BUDGET", 64));
}

RttTileSource::RttTileSource(TileCampaign campaign, TileShape shape,
                             std::size_t budget_tiles)
    : campaign_(std::move(campaign)) {
  if (campaign_.world == nullptr || campaign_.latency == nullptr) {
    throw std::invalid_argument(
        "RttTileSource: campaign needs a world and a latency model");
  }
  if (campaign_.group < 1 || campaign_.group > 3) {
    throw std::invalid_argument(
        "RttTileSource: destination group size must be 1..3");
  }
  if (campaign_.dsts.size() % campaign_.group != 0) {
    throw std::invalid_argument(
        "RttTileSource: dsts size must be a multiple of group");
  }
  if (cols() > kMaxColumns) {
    throw std::invalid_argument(
        "RttTileSource: the (r << 20) | c cell-RNG packing caps campaigns "
        "at 2^20 columns");
  }
  const TileShape env = tile_shape_from_env();
  shape_.vp_block = std::max<std::size_t>(
      1, shape.vp_block != 0 ? shape.vp_block : env.vp_block);
  shape_.target_block = std::max<std::size_t>(
      1, shape.target_block != 0 ? shape.target_block : env.target_block);
  budget_ = std::max<std::size_t>(
      1, budget_tiles != 0 ? budget_tiles : tile_budget_from_env());
  vp_soa_ = campaign_.latency->host_soa(campaign_.vps);
  dst_soa_ = campaign_.latency->host_soa(campaign_.dsts);
}

RttTileSource RttTileSource::for_targets(const Scenario& s, TileShape shape,
                                         std::size_t budget_tiles) {
  TileCampaign c;
  c.world = &s.world();
  c.latency = &s.latency();
  c.vps = s.vps();
  c.dsts = s.targets();
  c.group = 1;
  c.stream = s.world().rng().fork("campaign-target");
  c.ping_packets = s.config().ping_packets;
  return RttTileSource(std::move(c), shape, budget_tiles);
}

RttTileSource RttTileSource::for_representatives(const Scenario& s,
                                                 TileShape shape,
                                                 std::size_t budget_tiles) {
  TileCampaign c;
  c.world = &s.world();
  c.latency = &s.latency();
  c.vps = s.vps();
  c.group = 3;
  c.dsts.reserve(s.targets().size() * 3);
  for (const sim::HostId target : s.targets()) {
    for (const auto& rep : s.hitlist().for_target(target).reps) {
      c.dsts.push_back(rep.host);
    }
  }
  c.stream = s.world().rng().fork("campaign-reps");
  c.ping_packets = s.config().ping_packets;
  return RttTileSource(std::move(c), shape, budget_tiles);
}

std::size_t RttTileSource::vp_blocks() const noexcept {
  return (rows() + shape_.vp_block - 1) / shape_.vp_block;
}

std::size_t RttTileSource::target_blocks() const noexcept {
  return (cols() + shape_.target_block - 1) / shape_.target_block;
}

float RttTileSource::synthesise_cell(std::size_t r, std::size_t c,
                                     const double* base) const {
  // The dense loops' cell recipe, verbatim: one RNG forked from (r, c),
  // consumed sequentially across the column's destination group, median by
  // the same explicit swap sequence. Any change here breaks tile-vs-dense
  // byte-identity.
  auto gen = campaign_.stream.fork("m", (r << 20) | c).gen();
  const std::size_t g = campaign_.group;
  double vals[3];
  int n = 0;
  for (std::size_t k = 0; k < g; ++k) {
    const std::size_t d = c * g + k;
    const auto sample = campaign_.latency->ping_sample_with_base(
        base[k], dst_soa_.responsive[d] != 0, campaign_.ping_packets, gen);
    if (sample.min_rtt_ms) vals[n++] = *sample.min_rtt_ms;
  }
  if (n == 0) return std::numeric_limits<float>::quiet_NaN();
  if (n > 1 && vals[0] > vals[1]) std::swap(vals[0], vals[1]);
  if (n > 2 && vals[1] > vals[2]) std::swap(vals[1], vals[2]);
  if (n > 1 && vals[0] > vals[1]) std::swap(vals[0], vals[1]);
  const double med = (n == 3)   ? vals[1]
                     : (n == 2) ? (vals[0] + vals[1]) / 2.0
                                : vals[0];
  return static_cast<float>(med);
}

void RttTileSource::generate(std::size_t vp_block, std::size_t target_block,
                             Tile& out) const {
  const std::size_t g = campaign_.group;
  out.vp_begin = vp_block * shape_.vp_block;
  out.vp_end = std::min(rows(), out.vp_begin + shape_.vp_block);
  out.target_begin = target_block * shape_.target_block;
  out.target_end = std::min(cols(), out.target_begin + shape_.target_block);
  const std::size_t tile_rows = out.rows();
  const std::size_t tile_cols = out.cols();
  out.rtt.assign(tile_rows * tile_cols,
                 std::numeric_limits<float>::quiet_NaN());
  // Rows own disjoint slices and every cell derives its randomness from
  // (r, c), so the tile is bit-identical at any worker count — the same
  // argument the dense loops make (DESIGN.md §9).
  util::parallel_for(
      tile_rows,
      [&](std::size_t rr) {
        const std::size_t r = out.vp_begin + rr;
        RowScratch& scratch = row_scratch();
        scratch.cache.reset();
        scratch.base.resize(tile_cols * g);
        campaign_.latency->base_rtt_ms_batch(vp_soa_, r, dst_soa_,
                                             out.target_begin * g,
                                             out.target_end * g, scratch.cache,
                                             scratch.base.data());
        float* row_out = out.rtt.data() + rr * tile_cols;
        for (std::size_t cc = 0; cc < tile_cols; ++cc) {
          row_out[cc] = synthesise_cell(r, out.target_begin + cc,
                                        scratch.base.data() + cc * g);
        }
      },
      /*grain=*/1);
  stats_.generated_cells += tile_rows * tile_cols;
  tile_metrics().cells.add(static_cast<std::int64_t>(tile_rows * tile_cols));
}

void RttTileSource::note_resident(std::size_t bytes) const {
  stats_.peak_resident_bytes = std::max(stats_.peak_resident_bytes, bytes);
}

const RttTileSource::Tile& RttTileSource::tile(std::size_t vp_block,
                                               std::size_t target_block) {
  const std::size_t key = vp_block * target_blocks() + target_block;
  if (const auto it = cached_.find(key); it != cached_.end()) {
    ++stats_.hits;
    tile_metrics().hits.add();
    lru_.splice(lru_.begin(), lru_, it->second);
    return lru_.front().tile;
  }
  ++stats_.misses;
  tile_metrics().misses.add();
  lru_.emplace_front();
  lru_.front().key = key;
  generate(vp_block, target_block, lru_.front().tile);
  cached_[key] = lru_.begin();
  stats_.resident_bytes += lru_.front().tile.rtt.size() * sizeof(float);
  note_resident(stats_.resident_bytes);
  while (lru_.size() > budget_) {
    const CacheEntry& victim = lru_.back();
    stats_.resident_bytes -= victim.tile.rtt.size() * sizeof(float);
    cached_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
    tile_metrics().evictions.add();
  }
  stats_.resident_tiles = lru_.size();
  return lru_.front().tile;
}

float RttTileSource::at(std::size_t r, std::size_t c) {
  return tile(r / shape_.vp_block, c / shape_.target_block).at(r, c);
}

float RttTileSource::cell(std::size_t r, std::size_t c) const {
  sim::LatencyModel::CityPairCache& cache = row_scratch().cache;
  cache.reset();
  double base[3];
  const std::size_t g = campaign_.group;
  campaign_.latency->base_rtt_ms_batch(vp_soa_, r, dst_soa_, c * g,
                                       (c + 1) * g, cache, base);
  return synthesise_cell(r, c, base);
}

void RttTileSource::cell_lower_bounds(std::size_t c,
                                      std::span<float> out) const {
  std::fill(out.begin(), out.end(), std::numeric_limits<float>::infinity());
  std::vector<double>& bound = row_scratch().bound;
  bound.resize(rows());
  const std::size_t g = campaign_.group;
  for (std::size_t d = c * g; d < (c + 1) * g; ++d) {
    if (dst_soa_.responsive[d] == 0) continue;
    campaign_.latency->base_rtt_lower_bound_ms_batch(vp_soa_, dst_soa_, d,
                                                     bound.data());
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = std::min(out[r], static_cast<float>(bound[r]));
    }
  }
}

RttMatrix RttTileSource::materialise() const {
  RttMatrix m(rows(), cols());
  Tile scratch;
  const std::size_t n_vb = vp_blocks();
  const std::size_t n_tb = target_blocks();
  for (std::size_t vb = 0; vb < n_vb; ++vb) {
    for (std::size_t tb = 0; tb < n_tb; ++tb) {
      generate(vb, tb, scratch);
      note_resident(stats_.resident_bytes +
                    scratch.rtt.size() * sizeof(float));
      for (std::size_t r = scratch.vp_begin; r < scratch.vp_end; ++r) {
        for (std::size_t c = scratch.target_begin; c < scratch.target_end;
             ++c) {
          m.set(r, c, scratch.at(r, c));
        }
      }
    }
  }
  return m;
}

}  // namespace geoloc::scenario
