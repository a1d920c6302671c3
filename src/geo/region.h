// Intersection of spherical disks — the CBG feasible region.
//
// CBG estimates a target's position as the centroid of the intersection of
// the constraint disks (one per vantage point). Exact spherical
// disk-intersection polygons are expensive and fragile; following the
// design note in DESIGN.md we (1) prune dominated disks, then (2) sample
// the smallest remaining disk on a two-level polar grid and average the
// feasible samples. Resolution is configurable; the defaults keep Figure 2a's
// ~723k CBG evaluations tractable with sub-kilometre centroid error.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "geo/disk.h"
#include "geo/geopoint.h"

namespace geoloc::geo {

/// Sampling resolution for the region centroid estimator.
struct RegionOptions {
  int rings = 12;       ///< radial subdivisions of the seed disk
  int sectors = 24;     ///< angular subdivisions per ring
  int refine_levels = 1;  ///< extra passes zooming into the feasible set
};

/// Result of intersecting a set of constraint disks.
struct Region {
  bool empty = true;            ///< no feasible point found
  GeoPoint centroid;            ///< centroid of the feasible samples
  double radius_km = 0.0;       ///< max distance from centroid to a feasible sample
  double area_km2 = 0.0;        ///< Monte-Carlo style area estimate
  std::vector<GeoPoint> samples;  ///< feasible sample points (for tier 2 reuse)

  /// A region degenerates to a point when a single sample survived.
  [[nodiscard]] bool degenerate() const noexcept { return samples.size() <= 1; }
};

/// Remove dominated constraints: any disk that fully contains another disk
/// of the set adds nothing to the intersection. Returns the surviving disks
/// sorted by ascending radius. O(k * n) where k is the survivor count — in
/// practice a handful out of thousands.
std::vector<Disk> prune_dominated(std::span<const Disk> disks);

/// Intersect `disks` and estimate the feasible region.
/// An empty input yields an empty region.
///
/// Each grid point is first tested with unit-vector dot products against
/// margin-widened thresholds (provably inside / provably outside); only
/// points within the margin of some boundary run the exact Disk::contains.
/// The pre-test is a conservative proof, so every Region field is
/// byte-identical to the plain all-constraints scan (pinned by
/// tests/spatial_region_grid_test.cpp against tests/region_reference.h).
/// Reuses per-thread scratch: the returned samples are the only allocation.
Region intersect_disks(std::span<const Disk> disks,
                       const RegionOptions& options = {});

/// True when `p` satisfies every constraint.
bool region_contains(std::span<const Disk> disks, const GeoPoint& p) noexcept;

}  // namespace geoloc::geo
