// The central contract of the spatial subsystem: every call site routed
// through the interval index returns *exactly* what the legacy linear /
// hash-grid scan returned — same contents, same order, on every input,
// including the degenerate ones (poles, anti-meridian, cell boundaries,
// malformed zips, empty worlds).

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "dataset/population_grid.h"
#include "geo/geopoint.h"
#include "landmark/ecosystem.h"
#include "landmark/mapping_service.h"
#include "sim/world.h"
#include "test_scenario.h"
#include "zip_scan_reference.h"

namespace geoloc {
namespace {

using landmark::WebEcosystem;
using landmark::WebsiteId;

std::vector<WebsiteId> to_vector(std::span<const WebsiteId> s) {
  return {s.begin(), s.end()};
}

/// Query points that exercise every geometric edge the index must handle.
std::vector<geo::GeoPoint> edge_points() {
  std::vector<geo::GeoPoint> pts = {
      {90.0, 0.0},      {-90.0, 0.0},        // poles
      {90.0, 180.0},    {-90.0, -180.0},     // pole + date-line corners
      {0.0, 180.0},     {0.0, -180.0},       // anti-meridian
      {10.0, 179.95},   {-10.0, -179.95},    // near the seam
      {0.0, 0.0},                            // origin (face boundary)
      {0.0, -0.0001},                        // just west of Greenwich
      {89.999, 45.0},   {-89.999, -45.0},    // near-polar
  };
  // Exact multiples of the 0.045-degree zip cell and the 1-degree
  // ecosystem cell — points *on* grid lines.
  for (const double lat : {0.045, 0.09, 45.0, -33.0}) {
    for (const double lon : {0.045, -0.045, 120.0, -73.0}) {
      pts.push_back({lat, lon});
    }
  }
  return pts;
}

TEST(SpatialEquivalence, WebsitesInZipMatchesScanForEveryRecordedZip) {
  const auto& s = testing::small_scenario();
  const WebEcosystem& eco = s.web();
  ASSERT_GT(eco.total_count(), 0u);

  const testing::ZipScan scan(eco);
  ASSERT_FALSE(scan.by_zip().empty());
  for (const auto& [zip, scanned] : scan.by_zip()) {
    const auto indexed = to_vector(eco.websites_in_zip(zip));
    ASSERT_EQ(indexed, scanned) << zip;
    EXPECT_FALSE(indexed.empty()) << zip;
  }
}

TEST(SpatialEquivalence, WebsitesInZipMatchesScanForForeignAndGarbageZips) {
  const auto& s = testing::small_scenario();
  const WebEcosystem& eco = s.web();
  const landmark::MappingService& mapping = s.mapping();

  std::vector<std::string> zips;
  for (const geo::GeoPoint& p : edge_points()) {
    zips.push_back(mapping.zone_of(p));
  }
  zips.insert(zips.end(), {"", "garbage", "Z1x2", "Z00001x00002junk",
                           "Z-0001x00002", "Z99999x99999", "Z00000x00000"});
  const testing::ZipScan scan(eco);
  for (const std::string& zip : zips) {
    EXPECT_EQ(to_vector(eco.websites_in_zip(zip)), scan.in_zip(zip))
        << "\"" << zip << "\"";
  }
}

TEST(SpatialEquivalence, WebsitesNearZipConcatenatesNeighborZones) {
  const auto& s = testing::small_scenario();
  const WebEcosystem& eco = s.web();
  const landmark::MappingService& mapping = s.mapping();

  const testing::ZipScan scan(eco);
  int checked = 0;
  for (const auto& w : eco.websites()) {
    if (++checked > 50) break;
    const auto got = eco.websites_near_zip(mapping, w.recorded_zip);
    std::vector<WebsiteId> want;
    for (const std::string& zone : mapping.neighbor_zones(w.recorded_zip)) {
      const auto& scanned = scan.in_zip(zone);
      want.insert(want.end(), scanned.begin(), scanned.end());
    }
    ASSERT_EQ(got, want) << w.recorded_zip;
  }
}

TEST(SpatialEquivalence, PassingNearMatchesScanAtScenarioPlaces) {
  const auto& s = testing::small_scenario();
  const WebEcosystem& eco = s.web();
  ASSERT_GT(eco.passing_count(), 0u);

  std::mt19937 rng(42);
  std::uniform_real_distribution<double> jitter(-0.8, 0.8);
  int checked = 0;
  for (const sim::Place& place : s.world().places()) {
    if (++checked > 40) break;
    for (const double radius_km : {1.0, 25.0, 120.0, 400.0}) {
      const geo::GeoPoint q{place.location.lat_deg + jitter(rng),
                            geo::normalize_lon(place.location.lon_deg +
                                               jitter(rng))};
      const auto indexed = eco.passing_near(q, radius_km);
      const auto scanned = eco.passing_near_scan(q, radius_km);
      ASSERT_EQ(indexed, scanned)
          << q.lat_deg << "," << q.lon_deg << " r=" << radius_km;
    }
  }
}

TEST(SpatialEquivalence, PassingNearMatchesScanAtGeometricEdges) {
  const auto& s = testing::small_scenario();
  const WebEcosystem& eco = s.web();
  for (const geo::GeoPoint& q : edge_points()) {
    for (const double radius_km : {0.0, 5.0, 200.0, 2000.0}) {
      EXPECT_EQ(eco.passing_near(q, radius_km),
                eco.passing_near_scan(q, radius_km))
          << q.lat_deg << "," << q.lon_deg << " r=" << radius_km;
    }
  }
}

TEST(SpatialEquivalence, ReverseGeocodeAgreesWithZoneArithmeticEverywhere) {
  const landmark::MappingService mapping;
  const spatial::ZipGrid& grid = mapping.grid();
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::vector<geo::GeoPoint> pts = edge_points();
  for (int i = 0; i < 500; ++i) pts.push_back({lat(rng), lon(rng)});
  for (const geo::GeoPoint& p : pts) {
    const std::string zip = mapping.reverse_geocode(p);
    EXPECT_EQ(zip, grid.format(grid.key_of(p)))
        << p.lat_deg << "," << p.lon_deg;
    // Every produced zone key parses back and is in bounds — the index
    // can bucket it.
    const auto key = spatial::ZipGrid::parse(zip);
    ASSERT_TRUE(key.has_value()) << zip;
    EXPECT_TRUE(grid.in_bounds(*key)) << zip;
  }
}

TEST(SpatialEquivalence, PopulationKernelsMatchScanEverywhere) {
  const auto& s = testing::small_scenario();
  const dataset::PopulationGrid grid(s.world());
  ASSERT_GT(grid.kernel_count(), 0u);

  std::mt19937 rng(9);
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::vector<geo::GeoPoint> pts = edge_points();
  for (int i = 0; i < 200; ++i) pts.push_back({lat(rng), lon(rng)});
  for (const sim::Place& place : s.world().places()) {
    pts.push_back(place.location);
  }
  for (const geo::GeoPoint& p : pts) {
    ASSERT_EQ(grid.kernel_indices_near(p), grid.kernel_indices_near_scan(p))
        << p.lat_deg << "," << p.lon_deg;
  }
}

TEST(SpatialEquivalence, EmptyEcosystemQueriesAgreeOnEmpty) {
  // A config that produces zero websites: the index is empty, and every
  // query — including the degenerate ones — must agree with the scan on
  // "nothing here".
  sim::World world;
  const landmark::MappingService mapping;
  landmark::EcosystemConfig cfg;
  cfg.websites_per_1k_pop = 0.0;
  cfg.min_websites_per_city = 0;
  cfg.max_websites_per_place = 0;
  const WebEcosystem eco = WebEcosystem::build(world, mapping, cfg);
  EXPECT_EQ(eco.total_count(), 0u);
  EXPECT_EQ(eco.passing_count(), 0u);
  for (const geo::GeoPoint& q : edge_points()) {
    EXPECT_TRUE(eco.passing_near(q, 500.0).empty());
    EXPECT_EQ(eco.passing_near(q, 500.0), eco.passing_near_scan(q, 500.0));
    const std::string zip = mapping.zone_of(q);
    EXPECT_TRUE(eco.websites_in_zip(zip).empty());
    EXPECT_EQ(to_vector(eco.websites_in_zip(zip)),
              testing::ZipScan(eco).in_zip(zip));
    EXPECT_EQ(eco.websites_near_zip(mapping, zip),
              std::vector<WebsiteId>{});
  }
}

}  // namespace
}  // namespace geoloc
