#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "util/rng.h"

namespace pipebench {

using namespace geoloc;

namespace {
constexpr std::uint64_t kPlatformSeed = 20230415;
}  // namespace

SynthWorld build_world(std::uint64_t seed, std::size_t n24, std::size_t per24,
                       std::size_t n_vps) {
  SynthWorld w;
  w.world = std::make_unique<sim::World>();
  w.rng = util::RngStream(seed).fork("pipebench");
  sim::World& world = *w.world;
  // The probes are the platform, the same in every run: with only 128 of
  // them, where they sit moves the median error more than anything a seed
  // draws for the measured sites.
  auto vp_gen = util::RngStream(kPlatformSeed).fork("vps").gen();
  auto gen = w.rng.fork("build").gen();
  const auto continents = sim::all_continents();

  std::vector<net::Asn> ases;
  ases.reserve(64);
  for (int i = 0; i < 64; ++i) {
    ases.push_back(world.create_as(sim::AsCategory::Access, 0));
  }

  w.vps.reserve(n_vps);
  for (std::size_t v = 0; v < n_vps; ++v) {
    sim::Host h;
    h.kind = sim::HostKind::Probe;
    h.asn = ases[v % ases.size()];
    h.place = world.sample_place(continents[v % continents.size()],
                                 /*satellite_bias=*/0.2, vp_gen);
    h.true_location = world.sample_location(h.place, /*mean_offset_km=*/8.0,
                                            vp_gen);
    h.reported_location = h.true_location;
    h.last_mile_ms = vp_gen.uniform(0.5, 10.0);
    h.addr = world.allocate_site_prefix(h.asn).address_at(1);
    w.vps.push_back(world.add_host(h));
  }

  w.rep_dsts.reserve(n24 * 3);
  w.target_dsts.reserve(n24 * per24);
  w.target_to_rep_col.reserve(n24 * per24);
  for (std::size_t site = 0; site < n24; ++site) {
    const net::Asn asn = ases[site % ases.size()];
    const net::Prefix prefix = world.allocate_site_prefix(asn);
    const sim::PlaceId place = world.sample_place(
        continents[site % continents.size()], /*satellite_bias=*/0.3, gen);
    const double site_last_mile = gen.uniform(0.3, 6.0);
    auto make = [&](sim::HostKind kind, std::uint32_t octet,
                    double responsive_prob) {
      sim::Host h;
      h.kind = kind;
      h.asn = asn;
      h.place = place;
      h.true_location =
          world.sample_location(place, /*mean_offset_km=*/2.0, gen);
      h.reported_location = h.true_location;
      h.last_mile_ms = site_last_mile + gen.uniform(0.0, 2.0);
      h.responsive = gen.chance(responsive_prob);
      h.addr = prefix.address_at(octet);
      return world.add_host(h);
    };
    // Unlike bench_million_scale's world, every target answers and every
    // /24 keeps one responsive representative, so each target can be
    // located and a failed target means a failed technique. The other two
    // representatives still go missing, as in the original.
    for (std::uint32_t j = 0; j < 3; ++j) {
      w.rep_dsts.push_back(make(sim::HostKind::Representative, 1 + j,
                                /*responsive=*/j == 0 ? 1.0 : 0.9));
    }
    for (std::uint32_t j = 0; j < static_cast<std::uint32_t>(per24); ++j) {
      w.target_dsts.push_back(
          make(sim::HostKind::WebServer, 10 + j, /*responsive=*/1.0));
      w.target_to_rep_col.push_back(static_cast<std::uint32_t>(site));
    }
  }

  w.latency = std::make_unique<sim::LatencyModel>(world);
  return w;
}

std::vector<publish::Record> make_records(std::uint64_t seed,
                                          std::size_t count) {
  util::Pcg32 gen(seed ^ 0x5eed'0f'5a4e'5107ull);
  std::vector<std::uint32_t> nets(count);
  for (auto& n : nets) n = gen() & net::Prefix::mask(24);
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  for (std::size_t i = nets.size(); i > 1; --i) {
    std::swap(nets[i - 1], nets[gen.bounded(static_cast<std::uint32_t>(i))]);
  }

  std::vector<std::string> provenance(64);
  for (auto& p : provenance) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "cbg k=3 vps=%u as%u",
                  64 + gen.bounded(1024), 1 + gen.bounded(400'000));
    p = buf;
  }

  std::vector<publish::Record> out(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    publish::Record& r = out[i];
    r.prefix = net::Prefix{net::IPv4Address{nets[i]}, 24};
    r.location = {gen.uniform(-55.0, 70.0), gen.uniform(-180.0, 180.0)};
    r.method = gen.chance(0.8) ? publish::Method::Cbg
                               : publish::Method::TwoStep;
    r.tier = gen.chance(0.9) ? core::CbgVerdict::Ok
                             : core::CbgVerdict::Degraded;
    r.confidence_radius_km = static_cast<float>(gen.uniform(5.0, 500.0));
    // Lookups run at simulated time 0, well inside every TTL: the served
    // path is the fresh-hit path, not the stale-prefix queue.
    r.ttl_s = 30.0f * 86'400.0f;
    r.provenance = provenance[gen.bounded(64)];
  }
  return out;
}

void shift_records(const std::vector<publish::Record>& base,
                   std::uint32_t version, std::vector<publish::Record>& out) {
  out = base;
  const double d = 1e-4 * static_cast<double>(version % 1000);
  for (publish::Record& r : out) {
    r.location.lat_deg += d;
    r.location.lon_deg = r.location.lon_deg > 0.0 ? r.location.lon_deg - d
                                                  : r.location.lon_deg + d;
  }
}

std::vector<net::IPv4Address> make_addresses(
    std::uint64_t seed, const std::vector<publish::Record>& records,
    std::size_t n) {
  util::Pcg32 gen(seed ^ 0xadd2'e55e'5ull);
  const double log_n = std::log(static_cast<double>(records.size()) + 1.0);
  std::vector<net::IPv4Address> out(n);
  for (auto& a : out) {
    if (records.empty() || gen.chance(0.1)) {
      a = net::IPv4Address{gen()};
      continue;
    }
    // Zipf(1), continuous inverse: P(rank < x) = ln(1 + x) / ln(1 + n).
    const auto rank = std::min(
        records.size() - 1,
        static_cast<std::size_t>(std::exp(gen.uniform() * log_n) - 1.0));
    a = records[rank].prefix.address_at(gen.bounded(256));
  }
  return out;
}

}  // namespace pipebench
