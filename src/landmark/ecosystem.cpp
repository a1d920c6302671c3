#include "landmark/ecosystem.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>

#include "geo/geodesy.h"
#include "obs/metrics.h"

namespace geoloc::landmark {

std::string_view to_string(HostingType t) noexcept {
  switch (t) {
    case HostingType::Local: return "local";
    case HostingType::Cdn: return "cdn";
    case HostingType::RemoteDatacenter: return "remote";
  }
  return "?";
}

namespace {

/// The `n` most populous real cities — CDN edge / datacenter hub locations.
std::vector<sim::PlaceId> top_cities(const sim::World& world, int n) {
  std::vector<sim::PlaceId> cities(world.cities().begin(),
                                   world.cities().end());
  std::sort(cities.begin(), cities.end(),
            [&world](sim::PlaceId a, sim::PlaceId b) {
              return world.place(a).population_k > world.place(b).population_k;
            });
  if (static_cast<int>(cities.size()) > n) {
    cities.resize(static_cast<std::size_t>(n));
  }
  return cities;
}

sim::PlaceId nearest_of(const sim::World& world,
                        const std::vector<sim::PlaceId>& candidates,
                        const geo::GeoPoint& p) {
  sim::PlaceId best = candidates.front();
  double best_d = std::numeric_limits<double>::infinity();
  for (sim::PlaceId c : candidates) {
    const double d = geo::distance_km(world.place(c).location, p);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

/// The original coarse 1-degree cell key.
std::int64_t cell_key(const geo::GeoPoint& p) noexcept {
  const auto lat = static_cast<std::int64_t>(std::floor(p.lat_deg)) + 90;
  const auto lon = static_cast<std::int64_t>(std::floor(p.lon_deg)) + 180;
  return lat * 4096 + lon;
}

/// The probe-cell footprint of a passing_near query: the 1-degree cell
/// keys the original hash-grid scan visits, in its (lat, lon) scan order,
/// duplicates preserved. The footprint — not the exact disk — defines the
/// query's semantics, so the index-backed path reproduces it.
std::vector<std::int64_t> probe_cells(const geo::GeoPoint& p,
                                      double radius_km, int& lat_lo,
                                      int& lat_hi, int& lon_lo, int& lon_hi) {
  const double dlat = radius_km / 111.0;
  const double dlon =
      radius_km / std::max(20.0, 111.0 * std::cos(geo::deg_to_rad(p.lat_deg)));
  lat_lo = static_cast<int>(std::floor(p.lat_deg - dlat));
  lat_hi = static_cast<int>(std::floor(p.lat_deg + dlat));
  lon_lo = static_cast<int>(std::floor(p.lon_deg - dlon));
  lon_hi = static_cast<int>(std::floor(p.lon_deg + dlon));
  std::vector<std::int64_t> probes;
  probes.reserve(static_cast<std::size_t>(lat_hi - lat_lo + 1) *
                 static_cast<std::size_t>(lon_hi - lon_lo + 1));
  for (int lat = lat_lo; lat <= lat_hi; ++lat) {
    for (int lon = lon_lo; lon <= lon_hi; ++lon) {
      const geo::GeoPoint probe{
          static_cast<double>(lat) + 0.5,
          geo::normalize_lon(static_cast<double>(lon) + 0.5)};
      probes.push_back(cell_key(probe));
    }
  }
  return probes;
}

}  // namespace

std::int64_t WebEcosystem::cell_of(const geo::GeoPoint& p) noexcept {
  return cell_key(p);
}

WebEcosystem WebEcosystem::build(sim::World& world,
                                 const MappingService& mapping,
                                 const EcosystemConfig& config) {
  WebEcosystem eco;
  eco.grid_ = mapping.grid();
  auto gen = world.rng().fork("web-ecosystem").gen();

  const auto cdn_pops = top_cities(world, config.cdn_pop_count);
  const auto hubs = top_cities(world, config.datacenter_hub_count);

  // One AS for the CDN, one per datacenter hub region, one generic hosting
  // AS for local sites (their connectivity is the POI's own uplink).
  const net::Asn cdn_as = world.create_as(sim::AsCategory::Content, 0);
  const net::Asn hosting_as = world.create_as(sim::AsCategory::Content, 0);
  const net::Asn local_as = world.create_as(sim::AsCategory::Enterprise, 0);

  const std::size_t nplaces = world.places().size();
  for (sim::PlaceId place = 0; place < nplaces; ++place) {
    const sim::Place& pl = world.place(place);
    int count = static_cast<int>(pl.population_k * config.websites_per_1k_pop);
    if (!pl.satellite) count = std::max(count, config.min_websites_per_city);
    count = std::min(count, config.max_websites_per_place);

    for (int i = 0; i < count; ++i) {
      Website w;
      w.id = static_cast<WebsiteId>(eco.websites_.size());
      w.place = place;
      w.poi_location = world.sample_urban_location(
          place, config.hotspot_prob, config.hotspot_spread_km,
          config.loose_spread_km, gen);

      const double u = gen.uniform();
      w.hosting = u < config.local_share ? HostingType::Local
                  : u < config.local_share + config.cdn_share
                      ? HostingType::Cdn
                      : HostingType::RemoteDatacenter;

      w.chain = gen.chance(config.chain_rate);
      w.zip_mismatch = gen.chance(config.zip_mismatch_rate);
      // The recorded postal address: usually the POI's own zone; chains and
      // HQ-registered sites record another zone (here: the place centre's).
      w.recorded_zip = w.zip_mismatch
                           ? mapping.zone_of(pl.location)
                           : mapping.zone_of(w.poi_location);

      switch (w.hosting) {
        case HostingType::Local:
          w.detected_nonlocal = gen.chance(config.local_false_detect_rate);
          break;
        case HostingType::Cdn:
          w.detected_nonlocal = gen.chance(config.cdn_detect_rate);
          break;
        case HostingType::RemoteDatacenter:
          w.detected_nonlocal = gen.chance(config.remote_detect_rate);
          break;
      }

      // Test 1 (zip consistency) compares the recorded zip with the zone of
      // the POI coordinates; tests 2-3 are the CDN and multi-zip checks.
      const bool zip_ok =
          w.recorded_zip == mapping.zone_of(w.poi_location);
      w.passes_tests = zip_ok && !w.detected_nonlocal && !w.chain;

      if (w.passes_tests) {
        // Materialise the serving host. For false landmarks (CDN/remote
        // sites that slipped through) it is far from the postal address.
        sim::Host server;
        server.kind = sim::HostKind::WebServer;
        switch (w.hosting) {
          case HostingType::Local: {
            server.asn = local_as;
            server.place = place;
            server.true_location = w.poi_location;
            break;
          }
          case HostingType::Cdn: {
            server.asn = cdn_as;
            server.place = nearest_of(world, cdn_pops, w.poi_location);
            server.true_location = world.sample_location(server.place, 3.0, gen);
            break;
          }
          case HostingType::RemoteDatacenter: {
            server.asn = hosting_as;
            server.place = hubs[gen.index(hubs.size())];
            server.true_location = world.sample_location(server.place, 5.0, gen);
            break;
          }
        }
        server.reported_location = server.true_location;
        server.last_mile_ms = gen.uniform(config.webserver_last_mile_min_ms,
                                          config.webserver_last_mile_max_ms);
        server.addr = net::IPv4Address{0xB0000000 + w.id};  // 176.0.0.0 + id
        world.router_of(server.place);
        w.server = world.add_host(server);

        ++eco.passing_count_;
      }

      eco.websites_.push_back(std::move(w));
    }
  }

  // Index construction (the generation loop above is untouched so the RNG
  // draw sequence — and with it every existing artifact — is preserved).
  std::vector<spatial::IntervalIndex::Item> zip_items;
  std::vector<spatial::IntervalIndex::Item> passing_items;
  zip_items.reserve(eco.websites_.size());
  passing_items.reserve(eco.passing_count_);
  for (const Website& w : eco.websites_) {
    // recorded_zip came from ZipGrid::format, so it always parses and is
    // in bounds; the zone representative's leaf token is the bucket key.
    if (const auto key = spatial::ZipGrid::parse(w.recorded_zip)) {
      zip_items.push_back({eco.grid_.representative(*key), w.id});
    }
    if (w.passes_tests) passing_items.push_back({w.poi_location, w.id});
  }
  eco.zip_index_ = spatial::IntervalIndex::build(zip_items);
  eco.passing_index_ = spatial::IntervalIndex::build(passing_items);
  return eco;
}

std::span<const WebsiteId> WebEcosystem::websites_in_zip(
    const std::string& zip) const {
  const auto token = grid_.token_of_zip(zip);
  if (!token) return {};
  return zip_index_.at_token(*token);
}

std::vector<WebsiteId> WebEcosystem::websites_near_zip(
    const MappingService& mapping, const std::string& zip) const {
  std::vector<WebsiteId> out;
  for (const std::string& zone : mapping.neighbor_zones(zip)) {
    const auto ids = websites_in_zip(zone);
    out.insert(out.end(), ids.begin(), ids.end());
  }
  return out;
}

std::vector<WebsiteId> WebEcosystem::passing_near(const geo::GeoPoint& p,
                                                  double radius_km) const {
  static obs::Counter& queries =
      obs::Registry::instance().counter("spatial.eco.passing_near");
  queries.add();

  int lat_lo = 0, lat_hi = 0, lon_lo = 0, lon_hi = 0;
  const std::vector<std::int64_t> probes =
      probe_cells(p, radius_km, lat_lo, lat_hi, lon_lo, lon_hi);

  // One covering query for the whole probe footprint (a guaranteed
  // superset), then the exact per-candidate predicate: within the radius
  // AND in a probed 1-degree cell.
  const auto rect = spatial::LatLonRect::from_degrees(
      lat_lo, static_cast<double>(lat_hi) + 1.0, lon_lo,
      static_cast<double>(lon_hi) + 1.0);
  const std::vector<std::uint32_t> cand =
      passing_index_.candidates_in_rect(rect);

  std::map<std::int64_t, std::vector<WebsiteId>> buckets;
  for (const std::uint32_t id : cand) {
    if (geo::distance_km(websites_[id].poi_location, p) <= radius_km) {
      buckets[cell_of(websites_[id].poi_location)].push_back(id);
    }
  }
  // Candidates arrive in token order; within a 1-degree cell the original
  // scan emits ascending IDs (its buckets were filled in ID order).
  for (auto& [key, ids] : buckets) std::sort(ids.begin(), ids.end());

  std::vector<WebsiteId> out;
  for (const std::int64_t key : probes) {
    if (const auto it = buckets.find(key); it != buckets.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

std::vector<WebsiteId> WebEcosystem::passing_near_scan(
    const geo::GeoPoint& p, double radius_km) const {
  // The original 1-degree hash-grid scan, expressed without the grid: for
  // each probe cell in scan order, every passing site in that cell (by ID,
  // the grid's bucket order) within the radius. One pass over every
  // website buckets the in-radius passing sites by cell, in ID order.
  int lat_lo = 0, lat_hi = 0, lon_lo = 0, lon_hi = 0;
  const std::vector<std::int64_t> probes =
      probe_cells(p, radius_km, lat_lo, lat_hi, lon_lo, lon_hi);
  std::unordered_map<std::int64_t, std::vector<WebsiteId>> in_radius;
  for (const Website& w : websites_) {
    if (w.passes_tests && geo::distance_km(w.poi_location, p) <= radius_km) {
      in_radius[cell_of(w.poi_location)].push_back(w.id);
    }
  }
  std::vector<WebsiteId> out;
  for (const std::int64_t key : probes) {
    if (const auto it = in_radius.find(key); it != in_radius.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

}  // namespace geoloc::landmark
