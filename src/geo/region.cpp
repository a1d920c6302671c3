#include "geo/region.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/constants.h"

namespace geoloc::geo {

namespace {

/// Angular margin (radians, ~64 m) of the unit-vector pre-test: a dot
/// product with a disk centre >= cos(r/R - m) proves the point inside,
/// <= cos(r/R + m) proves it outside, and only the band between runs the
/// exact Disk::contains. m dwarfs the dot product's rounding and the
/// haversine's own error, so a verdict is a proof of what distance_km
/// decides (derivation: DESIGN.md §5 item 2).
constexpr double kMarginRad = 1e-5;

struct Vec3 {
  double x, y, z;
};

double dot(const Vec3& a, const Vec3& b) noexcept {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}

/// A constraint in pre-test form. The sentinels 2 and -2 are never reached
/// by a dot product: a disk with r/R <= m proves no point inside, one with
/// r/R + m >= pi proves no point outside.
struct DiskVec {
  Vec3 center;
  double cos_inside = 2.0;    ///< dot >= this: provably inside
  double cos_outside = -2.0;  ///< dot <= this: provably outside
};

/// sin/cos of the grid bearings for one sector count, each bearing computed
/// as the reference scan passes it to destination().
struct SectorTable {
  int sectors = 0;
  std::vector<double> sin_theta, cos_theta;

  const SectorTable& build(int n) {
    if (sectors == n) return *this;
    sectors = n;
    sin_theta.clear();
    cos_theta.clear();
    for (int si = 0; si < n; ++si) {
      const double theta = deg_to_rad(360.0 * static_cast<double>(si) /
                                      static_cast<double>(n));
      sin_theta.push_back(std::sin(theta));
      cos_theta.push_back(std::cos(theta));
    }
    return *this;
  }
};

/// Per-thread buffers reused across calls, so an evaluation allocates only
/// the Region::samples it returns.
struct Scratch {
  std::vector<Disk> sorted, kept;
  std::vector<DiskVec> vecs;
  SectorTable sectors, retry_sectors;
  std::vector<GeoPoint> feasible;
  std::vector<double> cos_lat;  ///< cos(latitude) of each feasible sample
};

void prune_into(std::span<const Disk> disks, std::vector<Disk>& sorted,
                std::vector<Disk>& kept) {
  sorted.assign(disks.begin(), disks.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Disk& a, const Disk& b) { return a.radius_km < b.radius_km; });
  kept.clear();
  for (const Disk& candidate : sorted) {
    // A disk is redundant if any already-kept (smaller) disk lies inside it.
    const bool redundant =
        std::any_of(kept.begin(), kept.end(), [&](const Disk& smaller) {
          return smaller.inside(candidate);
        });
    if (!redundant) kept.push_back(candidate);
  }
}

/// Sample a polar grid over `seed` (center + rings x sectors) into
/// `feasible`, keeping the points inside every constraint; returns the
/// area-weighted feasible fraction of the seed disk. Ring i stands for an
/// annulus whose area grows linearly with i, so per-point weights must too
/// (a flat count would oversample the centre).
///
/// A point is placed with destination()'s expression, term for term, with
/// the window, ring and sector trig hoisted, so it is the same double pair.
/// Its unit vector is built from the placement intermediates, and a point
/// the pre-test proves outside some constraint is dropped before its
/// asin/atan2. The feasible set is exactly the all-constraints scan's.
double feasible_samples(const Disk& seed, std::span<const Disk> constraints,
                        std::span<const DiskVec> vecs, const SectorTable& table,
                        int rings, std::vector<GeoPoint>& feasible) {
  feasible.clear();
  double weight_total = 0.0, weight_feasible = 0.0;
  // 0: some constraint provably excludes v; 1: all provably contain it;
  // 2: some constraint needs the exact test on the placed point.
  const auto pretest = [&](const Vec3& v) {
    int verdict = 1;
    for (const DiskVec& d : vecs) {
      const double c = dot(v, d.center);
      if (c >= d.cos_inside) continue;
      if (c <= d.cos_outside) return 0;
      verdict = 2;
    }
    return verdict;
  };
  const auto test = [&](const Vec3& v, double weight, auto&& place) {
    weight_total += weight;
    const int verdict = pretest(v);
    if (verdict == 0) return;
    const GeoPoint p = place();
    for (std::size_t k = 0; verdict == 2 && k < constraints.size(); ++k) {
      const bool proven_inside = dot(v, vecs[k].center) >= vecs[k].cos_inside;
      if (!proven_inside && !constraints[k].contains(p)) return;
    }
    weight_feasible += weight;
    feasible.push_back(p);
  };

  const double lat1 = deg_to_rad(seed.center.lat_deg);
  const double lon1 = deg_to_rad(seed.center.lon_deg);
  const double sin_lat1 = std::sin(lat1), cos_lat1 = std::cos(lat1);
  const double sin_lon1 = std::sin(lon1), cos_lon1 = std::cos(lon1);
  // The r < delta/2 cap around the centre.
  test({cos_lat1 * cos_lon1, cos_lat1 * sin_lon1, sin_lat1}, 0.125,
       [&] { return seed.center; });
  for (int ri = 1; ri <= rings; ++ri) {
    const double r =
        seed.radius_km * static_cast<double>(ri) / static_cast<double>(rings);
    const double ring_weight =
        static_cast<double>(ri) / static_cast<double>(table.sectors);
    const double delta = r / kEarthRadiusKm;
    const double sin_delta = std::sin(delta), cos_delta = std::cos(delta);
    const double a = sin_lat1 * cos_delta, b = cos_lat1 * sin_delta;
    for (int si = 0; si < table.sectors; ++si) {
      const double sin_theta = table.sin_theta[static_cast<std::size_t>(si)];
      const double cos_theta = table.cos_theta[static_cast<std::size_t>(si)];
      const double sin_lat2 = a + b * cos_theta;
      const double z = std::clamp(sin_lat2, -1.0, 1.0);
      const double y = sin_theta * sin_delta * cos_lat1;
      const double x = cos_delta - sin_lat1 * sin_lat2;
      // cos(lat2) from z; lon2 = lon1 + atan2(y, x) as (x, y)/|(x, y)|
      // rotated by lon1. A vanishing (x, y) keeps the NaN vector, which
      // fails every pre-test comparison: all constraints are tested exactly.
      Vec3 v{std::numeric_limits<double>::quiet_NaN(), 0.0, 0.0};
      if (const double xy2 = x * x + y * y; xy2 > 1e-200) {
        const double inv = 1.0 / std::sqrt(xy2);
        const double cx = x * inv, sy = y * inv;
        const double cos_lat2 = std::sqrt((1.0 - z) * (1.0 + z));
        v = {cos_lat2 * (cos_lon1 * cx - sin_lon1 * sy),
             cos_lat2 * (sin_lon1 * cx + cos_lon1 * sy), z};
      }
      test(v, ring_weight, [&] {
        return GeoPoint{clamp_lat(rad_to_deg(std::asin(z))),
                        normalize_lon(rad_to_deg(lon1 + std::atan2(y, x)))};
      });
    }
  }
  return weight_total > 0.0 ? weight_feasible / weight_total : 0.0;
}

/// centroid(points) and the largest distance_km(centroid, point), sharing
/// each point's cos(latitude) between the two. Every expression is the one
/// geodesy.cpp evaluates, so both results are bit-identical to those calls.
GeoPoint centroid_and_radius(std::span<const GeoPoint> points,
                             std::vector<double>& cos_lat, double& max_r) {
  cos_lat.resize(points.size());
  double x = 0.0, y = 0.0, z = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double lat = deg_to_rad(points[i].lat_deg);
    const double lon = deg_to_rad(points[i].lon_deg);
    cos_lat[i] = std::cos(lat);
    x += cos_lat[i] * std::cos(lon);
    y += cos_lat[i] * std::sin(lon);
    z += std::sin(lat);
  }
  const auto n = static_cast<double>(points.size());
  x /= n;
  y /= n;
  z /= n;
  const double hyp = std::hypot(x, y);
  GeoPoint c;  // degenerate (antipodal average): {0, 0}
  if (hyp != 0.0 || z != 0.0) {
    c = GeoPoint{clamp_lat(rad_to_deg(std::atan2(z, hyp))),
                 normalize_lon(rad_to_deg(std::atan2(y, x)))};
  }
  const double lat_c = deg_to_rad(c.lat_deg);
  const double cos_lat_c = std::cos(lat_c);
  max_r = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double dlat = deg_to_rad(points[i].lat_deg) - lat_c;
    const double dlon = deg_to_rad(points[i].lon_deg - c.lon_deg);
    const double sin_dlat = std::sin(dlat / 2.0);
    const double sin_dlon = std::sin(dlon / 2.0);
    const double h =
        sin_dlat * sin_dlat + cos_lat_c * cos_lat[i] * sin_dlon * sin_dlon;
    max_r = std::max(
        max_r, 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h))));
  }
  return c;
}

}  // namespace

std::vector<Disk> prune_dominated(std::span<const Disk> disks) {
  std::vector<Disk> sorted, kept;
  prune_into(disks, sorted, kept);
  return kept;
}

Region intersect_disks(std::span<const Disk> disks,
                       const RegionOptions& options) {
  Region region;
  if (disks.empty()) return region;

  thread_local Scratch s;
  prune_into(disks, s.sorted, s.kept);
  const std::span<const Disk> kept = s.kept;
  const Disk& seed = kept.front();  // smallest radius: the tightest constraint

  // Quick disjointness check: if the seed is disjoint from any other
  // constraint the intersection is provably empty.
  for (std::size_t i = 1; i < kept.size(); ++i) {
    if (seed.disjoint(kept[i])) return region;
  }

  s.vecs.clear();
  for (const Disk& d : kept) {
    const double lat = deg_to_rad(d.center.lat_deg);
    const double lon = deg_to_rad(d.center.lon_deg);
    DiskVec& v = s.vecs.emplace_back();
    v.center = {std::cos(lat) * std::cos(lon), std::cos(lat) * std::sin(lon),
                std::sin(lat)};
    const double a = d.radius_km / kEarthRadiusKm;
    if (a - kMarginRad > 0.0) v.cos_inside = std::cos(a - kMarginRad);
    if (a + kMarginRad < kPi) v.cos_outside = std::cos(a + kMarginRad);
  }

  s.feasible.clear();
  Disk window = seed;
  for (int level = 0; level <= options.refine_levels; ++level) {
    double area_fraction =
        feasible_samples(window, kept, s.vecs, s.sectors.build(options.sectors),
                         options.rings, s.feasible);
    if (s.feasible.empty() && level == 0) {
      // One retry at double resolution before declaring emptiness: thin
      // lens-shaped intersections can slip between coarse samples.
      area_fraction = feasible_samples(
          window, kept, s.vecs, s.retry_sectors.build(options.sectors * 2),
          options.rings * 2, s.feasible);
    }
    if (s.feasible.empty()) return region;

    double max_r = 0.0;
    const GeoPoint c = centroid_and_radius(s.feasible, s.cos_lat, max_r);
    // Area estimate from the *first* (seed-disk-covering) pass.
    if (level == 0) {
      region.area_km2 =
          kPi * seed.radius_km * seed.radius_km * area_fraction;
    }
    region.empty = false;
    region.centroid = c;
    region.radius_km = max_r;
    if (level < options.refine_levels) {
      // Zoom: re-sample a window just covering the feasible set. The ring
      // spacing shrinks by ~rings/1.2 per level.
      window = Disk{c, std::max(max_r * 1.2, 1e-3)};
    }
  }
  region.samples.assign(s.feasible.begin(), s.feasible.end());
  return region;
}

bool region_contains(std::span<const Disk> disks, const GeoPoint& p) noexcept {
  return std::all_of(disks.begin(), disks.end(),
                     [&](const Disk& d) { return d.contains(p); });
}

}  // namespace geoloc::geo
