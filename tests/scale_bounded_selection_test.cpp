// Bounded representative selection vs the full tile sweep (DESIGN.md §14).
//
// streamed_select_block synthesises only the rep cells a lower bound
// cannot rule out. It is correct only if (1) the bound never exceeds the
// cell it bounds, on every pair the model can produce, and (2) the search
// stops exactly where a full sweep would stop changing the heap — ties
// included. (1) is checked here against the scalar base RTT, against the
// model's floor (the base RTT with every draw at its minimum), and cell by
// cell; (2) against tests/selection_reference.h, the tile sweep the
// search replaced, row for row.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "atlas/faults.h"
#include "core/streaming_campaign.h"
#include "geo/constants.h"
#include "geo/geodesy.h"
#include "geo/geopoint.h"
#include "scenario/presets.h"
#include "scenario/tile_source.h"
#include "selection_reference.h"
#include "sim/latency_model.h"
#include "sim/world.h"
#include "test_scenario.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace geoloc {
namespace {

using scenario::RttTileSource;
using scenario::TileShape;

struct ThreadGuard {
  ThreadGuard() = default;
  ~ThreadGuard() { util::set_thread_count(0); }
};

/// The least base_rtt_ms(a, b) can be under any draw of the model:
/// inflation at min_inflation and zero overhead, over the exact haversine
/// distance, summed in base_rtt_ms's association. A sound bound must not
/// exceed it — a tighter check than against one world's draws.
double model_floor_ms(const sim::World& world, const sim::LatencyModel& lm,
                      sim::HostId a, sim::HostId b) {
  const sim::Host& ha = world.host(a);
  const sim::Host& hb = world.host(b);
  const double d = geo::distance_km(ha.true_location, hb.true_location);
  double penalty = 0.0;
  const bool same_city =
      world.place(ha.place).parent == world.place(hb.place).parent;
  if (!(same_city && world.has_local_peering(ha.place))) {
    penalty = world.access_penalty_ms(ha.place) +
              world.access_penalty_ms(hb.place);
  }
  return geo::distance_to_min_rtt_ms(d) * lm.config().min_inflation +
         ha.last_mile_ms + hb.last_mile_ms + penalty;
}

/// bound <= model floor <= base_rtt_ms for every (src, dst) pair.
void expect_bound_sound_for_every_pair(const sim::World& world,
                                       const sim::LatencyModel& lm,
                                       std::span<const sim::HostId> src,
                                       std::span<const sim::HostId> dst) {
  const auto src_soa = lm.host_soa(src);
  const auto dst_soa = lm.host_soa(dst);
  std::vector<double> bound(src.size());
  for (std::size_t j = 0; j < dst.size(); ++j) {
    lm.base_rtt_lower_bound_ms_batch(src_soa, dst_soa, j, bound.data());
    for (std::size_t i = 0; i < src.size(); ++i) {
      const double floor = model_floor_ms(world, lm, src[i], dst[j]);
      ASSERT_LE(bound[i], floor) << "pair (" << i << ", " << j << ")";
      ASSERT_LE(floor, lm.base_rtt_ms(src[i], dst[j]))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

/// float(cell bound) <= cell(r, c) wherever the cell is not missing, and a
/// column whose every destination is unresponsive has +inf bounds.
void expect_cell_bounds_sound(const RttTileSource& src) {
  std::vector<float> bound(src.rows());
  for (std::size_t c = 0; c < src.cols(); ++c) {
    src.cell_lower_bounds(c, bound);
    bool any_responsive = false;
    for (std::size_t k = 0; k < src.campaign().group; ++k) {
      const sim::HostId d = src.campaign().dsts[c * src.campaign().group + k];
      any_responsive = any_responsive ||
                       (d != sim::kInvalidHost &&
                        src.campaign().world->host(d).responsive);
    }
    for (std::size_t r = 0; r < src.rows(); ++r) {
      ASSERT_EQ(std::isinf(bound[r]), !any_responsive)
          << "(" << r << ", " << c << ")";
      const float cell = src.cell(r, c);
      if (scenario::RttMatrix::is_missing(cell)) continue;
      ASSERT_LE(bound[r], cell) << "(" << r << ", " << c << ")";
    }
  }
}

/// A world of hand-placed hosts, in the default gazetteer's cities.
class PlacedWorld {
 public:
  PlacedWorld() : world_(std::make_unique<sim::World>()) {
    for (const sim::PlaceId city : world_->cities()) {
      const double pen = world_->access_penalty_ms(city);
      const bool peering = world_->has_local_peering(city);
      if (pen == 0.0 && open_ == kNone) open_ = city;
      if (pen > 0.0 && peering && peered_ == kNone) peered_ = city;
      if (pen > 0.0 && !peering && trombone_ == kNone) trombone_ = city;
    }
  }

  [[nodiscard]] bool has_city_kinds() const {
    return open_ != kNone && peered_ != kNone && trombone_ != kNone;
  }
  /// A well-connected city (no access penalty).
  [[nodiscard]] sim::PlaceId open_city() const { return open_; }
  /// A poorly connected city that keeps intra-city traffic local.
  [[nodiscard]] sim::PlaceId peered_city() const { return peered_; }
  /// A poorly connected city without local peering.
  [[nodiscard]] sim::PlaceId trombone_city() const { return trombone_; }

  sim::HostId add(sim::PlaceId place, geo::GeoPoint at, double last_mile_ms,
                  bool responsive = true) {
    sim::Host h;
    h.kind = sim::HostKind::Probe;
    h.place = place;
    h.true_location = at;
    h.reported_location = at;
    h.last_mile_ms = last_mile_ms;
    h.responsive = responsive;
    return world_->add_host(h);
  }

  [[nodiscard]] sim::World& world() { return *world_; }

 private:
  static constexpr sim::PlaceId kNone = ~sim::PlaceId{0};
  std::unique_ptr<sim::World> world_;
  sim::PlaceId open_ = kNone;
  sim::PlaceId peered_ = kNone;
  sim::PlaceId trombone_ = kNone;
};

RttTileSource group_source(const sim::World& world,
                           const sim::LatencyModel& lm,
                           std::vector<sim::HostId> vps,
                           std::vector<sim::HostId> dsts, TileShape shape) {
  scenario::TileCampaign c;
  c.world = &world;
  c.latency = &lm;
  c.vps = std::move(vps);
  c.dsts = std::move(dsts);
  c.group = 3;
  c.stream = util::RngStream(0x5e1ec7ULL);
  return RttTileSource(std::move(c), shape);
}

TEST(ScaleBoundedSelection, BoundIsSoundForEveryPairOfASeededWorld) {
  const auto& s = testing::small_scenario();
  std::vector<sim::HostId> reps;
  for (const sim::HostId t : s.targets()) {
    for (const auto& rep : s.hitlist().for_target(t).reps) {
      if (rep.host != sim::kInvalidHost) reps.push_back(rep.host);
    }
  }
  ASSERT_GE(s.vps().size(), 512u);
  ASSERT_FALSE(reps.empty());
  expect_bound_sound_for_every_pair(s.world(), s.latency(), s.vps(), reps);
  expect_cell_bounds_sound(RttTileSource::for_representatives(s));
}

TEST(ScaleBoundedSelection, BoundIsSoundOnAdversarialPairs) {
  PlacedWorld pw;
  ASSERT_TRUE(pw.has_city_kinds());
  const sim::PlaceId open = pw.open_city();
  std::vector<geo::GeoPoint> pts = {
      {90.0, 0.0},         {90.0, 137.0},        {-90.0, 0.0},
      {-90.0, -42.0},      {0.0, 180.0},         {0.0, -180.0},
      {10.0, 179.999999},  {10.0, -179.999999},  {-45.0, 135.0},
      {45.0, -45.0},       {45.0, -44.9999999},  {-44.9999999, 135.0},
      {0.0, 0.0},          {1e-12, -1e-12},      {52.52, 13.405},
      {-52.52, -166.595},  {-33.8688, 151.2093}, {33.8688, -28.7907},
  };
  // Near-coincident pairs 1 cm to 10 m apart: there the chord and the
  // haversine agree to rounding, and only the margin keeps the bound below.
  util::Pcg32 gen{20231022};
  for (int i = 0; i < 400; ++i) {
    const geo::GeoPoint p{gen.uniform(-89.0, 89.0),
                          gen.uniform(-180.0, 180.0)};
    const double off_deg = std::pow(10.0, gen.uniform(-7.0, -4.0));
    pts.push_back(p);
    pts.push_back({p.lat_deg + (gen.chance(0.5) ? off_deg : 0.0),
                   geo::normalize_lon(p.lon_deg + off_deg)});
  }
  // Zero last mile in a well-connected city: the distance term alone.
  std::vector<sim::HostId> hosts;
  for (const geo::GeoPoint& p : pts) hosts.push_back(pw.add(open, p, 0.0));
  // Same city with and without local peering, and across the two.
  const geo::GeoPoint here{48.8566, 2.3522};
  const geo::GeoPoint there{48.8567, 2.3523};
  for (const sim::PlaceId city :
       {pw.peered_city(), pw.trombone_city(), open}) {
    hosts.push_back(pw.add(city, here, 0.0));
    hosts.push_back(pw.add(city, there, 1.5));
  }
  const sim::LatencyModel lm(pw.world());
  expect_bound_sound_for_every_pair(pw.world(), lm, hosts, hosts);

  // Cells: groups mixing responsive reps, unresponsive reps and
  // kInvalidHost pads, including groups where nothing responds.
  const sim::HostId dark_a = pw.add(open, here, 0.0, /*responsive=*/false);
  const sim::HostId dark_b =
      pw.add(pw.trombone_city(), there, 2.0, /*responsive=*/false);
  std::vector<sim::HostId> dsts;
  for (std::size_t i = 0; i + 2 < hosts.size(); i += 7) {
    dsts.insert(dsts.end(), {hosts[i], hosts[i + 1], hosts[i + 2]});
    dsts.insert(dsts.end(), {hosts[i], dark_a, sim::kInvalidHost});
  }
  dsts.insert(dsts.end(), {dark_a, dark_b, sim::kInvalidHost});
  dsts.insert(dsts.end(),
              {sim::kInvalidHost, sim::kInvalidHost, sim::kInvalidHost});
  expect_cell_bounds_sound(group_source(pw.world(), lm, hosts, dsts, {}));
}

TEST(ScaleBoundedSelection, MatchesTileSweepRowForRow) {
  const auto& s = testing::small_scenario();
  ASSERT_GE(s.vps().size(), 512u);
  const atlas::FaultModel storm(s.world(), scenario::stormy_weather());
  ThreadGuard guard;
  for (const bool resilient : {false, true}) {
    for (const TileShape& shape : {TileShape{16, 64}, TileShape{7, 13}}) {
      // The sweep's source keeps every tile, so its ten selections below
      // synthesise the matrix once.
      const std::size_t all_tiles = (s.vps().size() / shape.vp_block + 1) *
                                    (s.targets().size() / shape.target_block + 1);
      RttTileSource swept =
          resilient ? core::make_resilient_rep_source(s, &storm, shape,
                                                      all_tiles)
                    : RttTileSource::for_representatives(s, shape, all_tiles);
      RttTileSource bounded =
          resilient ? core::make_resilient_rep_source(s, &storm, shape)
                    : RttTileSource::for_representatives(s, shape);
      if (resilient) {
        const auto& d = bounded.campaign().dsts;
        ASSERT_NE(std::find(d.begin(), d.end(), sim::kInvalidHost), d.end())
            << "the storm should leave some /24 with padded groups";
      }
      for (const bool self : {false, true}) {
        const std::span<const sim::HostId> col_self =
            self ? std::span<const sim::HostId>(s.targets())
                 : std::span<const sim::HostId>{};
        for (const int k : {0, 1, 3, 24, 100000}) {
          for (std::size_t tb = 0; tb < swept.target_blocks(); ++tb) {
            const auto want =
                testing::reference_select_block(swept, tb, k, col_self);
            for (const unsigned threads : {1u, 8u}) {
              util::set_thread_count(threads);
              const auto got =
                  core::streamed_select_block(bounded, tb, k, col_self);
              ASSERT_EQ(want, got)
                  << (resilient ? "resilient" : "hitlist") << " source, "
                  << shape.vp_block << "x" << shape.target_block
                  << ", self " << self << ", k " << k << ", block " << tb
                  << ", " << threads << " thread(s)";
            }
            util::set_thread_count(0);
          }
        }
      }
      // The bounded search reads cells, never tiles.
      EXPECT_EQ(bounded.stats().misses, 0u);
      EXPECT_EQ(bounded.stats().hits, 0u);
    }
  }
}

TEST(ScaleBoundedSelection, RowWhoseBoundTiesTheHeapTopIsStillSynthesised) {
  // A noise-free model — no jitter, loss or overhead, inflation pinned at
  // min_inflation — where VP y sits on its /24's three reps, so its cell
  // equals its bound, and VP x sits 100 km away with a last mile that
  // gives it the same cell but a lower bound. x is visited first and
  // fills the k = 1 heap; y's bound then equals the heap's top and y, the
  // lower row, must still be synthesised to win the (rtt, row) tie.
  PlacedWorld pw;
  const sim::PlaceId open = pw.open_city();
  ASSERT_TRUE(pw.has_city_kinds());
  const geo::GeoPoint site{40.0, -3.0};
  const geo::GeoPoint away = geo::destination(site, 90.0, 100.0);
  sim::LatencyModelConfig cfg;
  cfg.inflation_mu = -10.0;
  cfg.overhead_mean_ms = 0.0;
  cfg.overhead_local_mean_ms = 0.0;
  cfg.jitter_mean_ms = 0.0;
  cfg.loss_rate = 0.0;
  const double lift = geo::distance_to_min_rtt_ms(geo::distance_km(site, away)) *
                      cfg.min_inflation;
  const sim::HostId y = pw.add(open, site, 1.0);
  const sim::HostId x = pw.add(open, away, 1.0 - lift);
  std::vector<sim::HostId> dsts;
  for (int i = 0; i < 3; ++i) dsts.push_back(pw.add(open, site, 0.5));
  const sim::LatencyModel lm(pw.world(), cfg);
  RttTileSource src = group_source(pw.world(), lm, {y, x}, dsts, {});

  std::vector<float> bound(2);
  src.cell_lower_bounds(0, bound);
  ASSERT_EQ(src.cell(0, 0), src.cell(1, 0)) << "x and y must tie on rtt";
  ASSERT_EQ(bound[0], src.cell(0, 0)) << "y's bound must be exact";
  ASSERT_LT(bound[1], bound[0]) << "x must be visited first";

  for (const int k : {1, 2}) {
    EXPECT_EQ(testing::reference_select_block(src, 0, k),
              core::streamed_select_block(src, 0, k))
        << "k " << k;
  }
  EXPECT_EQ(core::streamed_select_block(src, 0, 1).front(),
            std::vector<std::size_t>{0});
}

TEST(ScaleBoundedSelection, CampaignCountsOnlySynthesisedRepCells) {
  const auto& s = testing::small_scenario();
  RttTileSource reps = RttTileSource::for_representatives(s, {16, 64});
  RttTileSource targets = RttTileSource::for_targets(s, {16, 64});
  const auto outcome = core::run_streaming_campaign(reps, targets);
  const std::uint64_t sweep = reps.rows() * reps.cols();
  EXPECT_GT(outcome.rep_cells, 0u);
  // At least k cells per located column, and far fewer than a sweep.
  EXPECT_GE(outcome.rep_cells, 3 * outcome.located);
  EXPECT_LT(outcome.rep_cells, sweep / 4);
  EXPECT_EQ(outcome.rep_stats.misses, 0u);
  EXPECT_EQ(outcome.rep_stats.generated_cells, 0u);
}

}  // namespace
}  // namespace geoloc
