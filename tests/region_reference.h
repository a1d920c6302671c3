// Reference CBG region: the byte-identity oracle for geo::intersect_disks.
// It is the sampler's original, obviously-correct form: prune dominated
// disks, place every polar-grid point with destination(), test it against
// every constraint with Disk::contains, and average the feasible points
// with geo::centroid. Slow (full trig per point and per test), so only for
// tests.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "geo/constants.h"
#include "geo/disk.h"
#include "geo/geodesy.h"
#include "geo/region.h"

namespace geoloc::testing {

/// The feasible points of the polar grid over `seed` (center + rings x
/// sectors), with the area-weighted feasible fraction in `area_fraction`.
inline std::vector<geo::GeoPoint> reference_feasible_samples(
    const geo::Disk& seed, std::span<const geo::Disk> constraints, int rings,
    int sectors, double& area_fraction) {
  std::vector<geo::GeoPoint> feasible;
  double weight_total = 0.0, weight_feasible = 0.0;
  auto test = [&](const geo::GeoPoint& p, double weight) {
    weight_total += weight;
    for (const geo::Disk& d : constraints) {
      if (!d.contains(p)) return;
    }
    weight_feasible += weight;
    feasible.push_back(p);
  };
  test(seed.center, 0.125);  // the r < delta/2 cap around the centre
  for (int ri = 1; ri <= rings; ++ri) {
    const double r =
        seed.radius_km * static_cast<double>(ri) / static_cast<double>(rings);
    const double ring_weight =
        static_cast<double>(ri) / static_cast<double>(sectors);
    for (int si = 0; si < sectors; ++si) {
      const double bearing =
          360.0 * static_cast<double>(si) / static_cast<double>(sectors);
      test(geo::destination(seed.center, bearing, r), ring_weight);
    }
  }
  area_fraction = weight_total > 0.0 ? weight_feasible / weight_total : 0.0;
  return feasible;
}

/// The Region geo::intersect_disks must return for `disks` and `options`.
inline geo::Region reference_intersect_disks(
    std::span<const geo::Disk> disks, const geo::RegionOptions& options = {}) {
  geo::Region region;
  if (disks.empty()) return region;

  const std::vector<geo::Disk> kept = geo::prune_dominated(disks);
  const geo::Disk& seed = kept.front();
  for (std::size_t i = 1; i < kept.size(); ++i) {
    if (seed.disjoint(kept[i])) return region;
  }

  geo::Disk window = seed;
  std::vector<geo::GeoPoint> feasible;
  for (int level = 0; level <= options.refine_levels; ++level) {
    double area_fraction = 0.0;
    feasible = reference_feasible_samples(window, kept, options.rings,
                                          options.sectors, area_fraction);
    if (feasible.empty() && level == 0) {
      feasible = reference_feasible_samples(window, kept, options.rings * 2,
                                            options.sectors * 2,
                                            area_fraction);
    }
    if (feasible.empty()) return region;

    const geo::GeoPoint c = geo::centroid(feasible);
    double max_r = 0.0;
    for (const geo::GeoPoint& p : feasible) {
      max_r = std::max(max_r, geo::distance_km(c, p));
    }
    if (level == 0) {
      region.area_km2 =
          geo::kPi * seed.radius_km * seed.radius_km * area_fraction;
    }
    region.empty = false;
    region.centroid = c;
    region.radius_km = max_r;
    if (level < options.refine_levels) {
      window = geo::Disk{c, std::max(max_r * 1.2, 1e-3)};
    }
  }
  region.samples = std::move(feasible);
  return region;
}

}  // namespace geoloc::testing
