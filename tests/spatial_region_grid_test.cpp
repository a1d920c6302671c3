// Byte-identity of the CBG sampling grid.
//
// intersect_disks places grid points with hoisted trig and decides most
// constraint tests with a margin-widened unit-vector pre-test;
// tests/region_reference.h places every point with destination() and tests
// every constraint with Disk::contains. The pre-test verdicts are
// conservative proofs, never approximations, so the two must agree
// bit-for-bit on every Region field — including the exact feasible sample
// list and the floating-point centroid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "core/cbg.h"
#include "geo/constants.h"
#include "geo/geodesy.h"
#include "geo/region.h"
#include "region_reference.h"

namespace geoloc::geo {
namespace {

std::mt19937 rng(2024);

GeoPoint random_point() {
  std::uniform_real_distribution<double> lat(-85.0, 85.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  return GeoPoint{lat(rng), lon(rng)};
}

/// Bitwise equality: NaN-free doubles compared with ==, samples in order.
void expect_identical(const Region& a, const Region& b) {
  ASSERT_EQ(a.empty, b.empty);
  EXPECT_EQ(a.centroid.lat_deg, b.centroid.lat_deg);
  EXPECT_EQ(a.centroid.lon_deg, b.centroid.lon_deg);
  EXPECT_EQ(a.radius_km, b.radius_km);
  EXPECT_EQ(a.area_km2, b.area_km2);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].lat_deg, b.samples[i].lat_deg);
    EXPECT_EQ(a.samples[i].lon_deg, b.samples[i].lon_deg);
  }
}

void expect_routed_matches_reference(std::span<const Disk> disks,
                                     const RegionOptions& options = {}) {
  expect_identical(intersect_disks(disks, options),
                   testing::reference_intersect_disks(disks, options));
}

TEST(SpatialRegionGrid, EmptyAndSingleDiskInputs) {
  expect_routed_matches_reference({});
  const Disk one{GeoPoint{48.2, 16.37}, 350.0};
  expect_routed_matches_reference(std::vector<Disk>{one});
}

TEST(SpatialRegionGrid, DisjointDisksBothReportEmpty) {
  const std::vector<Disk> disks{{GeoPoint{0.0, 0.0}, 100.0},
                                {GeoPoint{40.0, 90.0}, 100.0}};
  expect_routed_matches_reference(disks);
  EXPECT_TRUE(intersect_disks(disks).empty);
}

TEST(SpatialRegionGrid, ThinLensIntersection) {
  // Two disks whose centres are almost radius-sum apart: the feasible
  // region is a thin lens, exercising the retry-at-double-resolution path.
  const GeoPoint a{10.0, 20.0};
  const GeoPoint b = destination(a, 90.0, 995.0);
  const std::vector<Disk> disks{{a, 500.0}, {b, 500.0}};
  expect_routed_matches_reference(disks);
}

TEST(SpatialRegionGrid, PolarAndAntimeridianWindows) {
  {
    const std::vector<Disk> disks{{GeoPoint{88.5, 10.0}, 600.0},
                                  {GeoPoint{87.0, -120.0}, 700.0}};
    expect_routed_matches_reference(disks);
  }
  {
    const std::vector<Disk> disks{{GeoPoint{-5.0, 179.6}, 400.0},
                                  {GeoPoint{-4.0, -179.2}, 450.0},
                                  {GeoPoint{-6.0, 178.0}, 900.0}};
    expect_routed_matches_reference(disks);
  }
}

TEST(SpatialRegionGrid, RandomConstraintSetsAcrossSizes) {
  for (int trial = 0; trial < 60; ++trial) {
    const GeoPoint anchor = random_point();
    std::uniform_int_distribution<int> n_disks(2, 12);
    std::uniform_real_distribution<double> offset(0.0, 600.0);
    std::uniform_real_distribution<double> bearing(0.0, 360.0);
    std::uniform_real_distribution<double> radius(200.0, 2500.0);
    std::vector<Disk> disks;
    const int n = n_disks(rng);
    for (int i = 0; i < n; ++i) {
      disks.push_back(Disk{destination(anchor, bearing(rng), offset(rng)),
                           radius(rng)});
    }
    expect_routed_matches_reference(disks);
  }
}

TEST(SpatialRegionGrid, NonDefaultResolutionOptions) {
  const std::vector<Disk> disks{{GeoPoint{51.5, -0.1}, 800.0},
                                {GeoPoint{48.9, 2.35}, 700.0},
                                {GeoPoint{52.5, 13.4}, 1200.0}};
  for (const RegionOptions options :
       {RegionOptions{4, 8, 0}, RegionOptions{20, 40, 2},
        RegionOptions{12, 24, 3}}) {
    expect_routed_matches_reference(disks, options);
  }
}

TEST(SpatialRegionGrid, ManyConstraintsTightRegion) {
  // A CBG-like pile of 24 disks all containing a common point; the routed
  // grid must keep the same survivors after prune_dominated.
  const GeoPoint truth{37.77, -122.42};
  std::uniform_real_distribution<double> vp_off(100.0, 4000.0);
  std::uniform_real_distribution<double> bearing(0.0, 360.0);
  std::uniform_real_distribution<double> slack(50.0, 800.0);
  std::vector<Disk> disks;
  for (int i = 0; i < 24; ++i) {
    const GeoPoint vp = destination(truth, bearing(rng), vp_off(rng));
    disks.push_back(Disk{vp, distance_km(vp, truth) + slack(rng)});
  }
  expect_routed_matches_reference(disks);
  EXPECT_FALSE(intersect_disks(disks).empty);
}

TEST(SpatialRegionGrid, RadiusExactlyThroughGridPointsHitsTheMarginBand) {
  // Constraints whose boundary passes exactly through seed-grid points:
  // their pre-test dot products land inside the margin band, so only the
  // exact test can decide them — and distance <= radius keeps the point.
  const Disk seed{GeoPoint{45.0, 7.0}, 300.0};
  const RegionOptions options{12, 24, 0};  // samples = the seed grid's
  std::vector<Disk> all{seed};
  // Centres ~800 km out, so each boundary disk is larger than the seed
  // and the seed stays the window.
  const GeoPoint far_centres[] = {{53.0, 7.0}, {45.0, -4.0}, {38.0, 12.0}};
  const int ring[] = {11, 6, 9};
  const int sector[] = {3, 14, 20};
  for (int i = 0; i < 3; ++i) {
    const double r = seed.radius_km * static_cast<double>(ring[i]) /
                     static_cast<double>(options.rings);
    const double bearing = 360.0 * static_cast<double>(sector[i]) /
                           static_cast<double>(options.sectors);
    const GeoPoint on_grid = destination(seed.center, bearing, r);
    const Disk boundary{far_centres[i], distance_km(far_centres[i], on_grid)};
    const std::vector<Disk> pair{seed, boundary};
    expect_routed_matches_reference(pair, options);
    const Region region = intersect_disks(pair, options);
    EXPECT_NE(std::find(region.samples.begin(), region.samples.end(),
                        on_grid),
              region.samples.end())
        << "grid point on the boundary of constraint " << i;
    all.push_back(boundary);
    expect_routed_matches_reference(all, options);
    expect_routed_matches_reference(all);
  }
}

TEST(SpatialRegionGrid, NearAntipodalRadii) {
  std::uniform_real_distribution<double> radius(19'500.0, 20'015.0);
  std::uniform_real_distribution<double> offset(50.0, 3'000.0);
  std::uniform_real_distribution<double> bearing(0.0, 360.0);
  for (int trial = 0; trial < 30; ++trial) {
    const GeoPoint anchor = random_point();
    std::vector<Disk> disks;
    for (int i = 0; i < 3; ++i) {
      disks.push_back(Disk{destination(anchor, bearing(rng), offset(rng)),
                           radius(rng)});
    }
    expect_routed_matches_reference(disks);
  }
  // Radii at and past half the circumference (pi * R): no point is
  // provably outside, every candidate near the antipode is tested exactly.
  const double half_circumference = kPi * kEarthRadiusKm;
  for (const double r : {half_circumference - 0.01, half_circumference,
                         half_circumference + 0.2}) {
    const std::vector<Disk> disks{{GeoPoint{12.0, 40.0}, r},
                                  {GeoPoint{13.0, 41.5}, r + 1.0}};
    expect_routed_matches_reference(disks);
  }
}

TEST(SpatialRegionGrid, SubKilometreDisks) {
  std::uniform_real_distribution<double> radius(0.02, 0.9);
  std::uniform_real_distribution<double> offset(0.0, 0.5);
  std::uniform_real_distribution<double> bearing(0.0, 360.0);
  for (int trial = 0; trial < 40; ++trial) {
    const GeoPoint anchor = random_point();
    std::vector<Disk> disks;
    for (int i = 0; i < 3; ++i) {
      disks.push_back(Disk{destination(anchor, bearing(rng), offset(rng)),
                           radius(rng)});
    }
    expect_routed_matches_reference(disks);
  }
}

TEST(SpatialRegionGrid, CentresOnThePolesAndTheAntimeridian) {
  const std::vector<std::vector<Disk>> cases{
      {{GeoPoint{90.0, 0.0}, 500.0}, {GeoPoint{86.0, 30.0}, 700.0}},
      {{GeoPoint{-90.0, 45.0}, 800.0}, {GeoPoint{-84.0, -170.0}, 900.0},
       {GeoPoint{-88.0, 100.0}, 1'200.0}},
      {{GeoPoint{10.0, 180.0}, 400.0}, {GeoPoint{11.0, -180.0}, 450.0}},
      {{GeoPoint{-20.0, -180.0}, 600.0}, {GeoPoint{-21.0, 179.5}, 650.0},
       {GeoPoint{90.0, 0.0}, 12'500.0}},
      {{GeoPoint{90.0, 0.0}, 0.5}, {GeoPoint{89.999, 180.0}, 0.7}},
  };
  for (const auto& disks : cases) {
    expect_routed_matches_reference(disks);
    expect_routed_matches_reference(disks, RegionOptions{12, 24, 2});
  }
}

TEST(SpatialRegionGrid, SectorCountsThatDoNotDivide360) {
  const std::vector<Disk> disks{{GeoPoint{35.7, 139.7}, 600.0},
                                {GeoPoint{34.7, 135.5}, 500.0},
                                {GeoPoint{37.5, 127.0}, 1'300.0}};
  for (const RegionOptions options :
       {RegionOptions{7, 7, 1}, RegionOptions{5, 11, 2},
        RegionOptions{3, 13, 0}, RegionOptions{12, 25, 1},
        RegionOptions{9, 37, 1}}) {
    expect_routed_matches_reference(disks, options);
  }
}

TEST(SpatialRegionGrid, SeededPipebenchShapedCbgMatchesReference) {
  // 10,000 CBG evaluations shaped like the campaign's: a target, three
  // VPs 5-3000 km away, SOI-safe RTTs (inflated path + overhead). The
  // whole cbg_geolocate result is compared with the reference region.
  std::mt19937 gen(16);
  std::uniform_real_distribution<double> dist_km(5.0, 3'000.0);
  std::uniform_real_distribution<double> bearing(0.0, 360.0);
  std::uniform_real_distribution<double> inflation(1.05, 1.8);
  std::uniform_real_distribution<double> overhead_ms(0.0, 4.0);
  std::uniform_real_distribution<double> lat(-70.0, 70.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  const core::CbgConfig config;
  for (int trial = 0; trial < 10'000; ++trial) {
    const GeoPoint truth{lat(gen), lon(gen)};
    std::vector<core::VpObservation> obs;
    for (int k = 0; k < 3; ++k) {
      const double d = dist_km(gen);
      obs.push_back(core::VpObservation{
          destination(truth, bearing(gen), d),
          distance_to_min_rtt_ms(d) * inflation(gen) + overhead_ms(gen)});
    }
    const core::CbgResult got = core::cbg_geolocate(obs, config);
    const Region want = testing::reference_intersect_disks(
        core::constraint_disks(obs, config.soi_km_per_ms, config.max_disks),
        config.region);
    SCOPED_TRACE(trial);
    expect_identical(got.region, want);
    ASSERT_EQ(got.ok, !want.empty);
    EXPECT_EQ(got.estimate.lat_deg, want.centroid.lat_deg);
    EXPECT_EQ(got.estimate.lon_deg, want.centroid.lon_deg);
    EXPECT_EQ(got.confidence_radius_km,
              want.empty ? 0.0 : std::sqrt(std::max(want.area_km2, 0.0) / kPi));
    EXPECT_EQ(got.verdict, want.empty ? core::CbgVerdict::Unlocatable
                                      : core::CbgVerdict::Ok);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace geoloc::geo
