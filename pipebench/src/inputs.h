// Generated inputs. Everything the product code receives is made here from
// the workload seed, before any timing starts: a synthetic world in the
// style of bench_million_scale's build_world, snapshot records in the
// style of bench_serve_server_qps's make_snapshot, and the address stream
// the load generators send.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "publish/snapshot.h"
#include "sim/latency_model.h"
#include "sim/world.h"
#include "util/rng.h"

namespace pipebench {

/// A synthetic internet: `n_vps` probes and `n24` /24 sites, each with
/// three representatives and `per24` targets. The world owns the hosts;
/// the latency model only borrows it.
struct SynthWorld {
  std::unique_ptr<geoloc::sim::World> world;
  geoloc::util::RngStream rng{0};  ///< the seed's stream for measurements
  std::unique_ptr<geoloc::sim::LatencyModel> latency;
  std::vector<geoloc::sim::HostId> vps;
  std::vector<geoloc::sim::HostId> rep_dsts;     ///< 3 per /24, grouped
  std::vector<geoloc::sim::HostId> target_dsts;  ///< per24 per /24
  std::vector<std::uint32_t> target_to_rep_col;
};

/// The internet model (cities, their connectivity) is the default
/// sim::World and the probes are placed the same way in every run; the
/// seed draws the /24 sites, their hosts and the measurement noise.
SynthWorld build_world(std::uint64_t seed, std::size_t n24, std::size_t per24,
                       std::size_t n_vps);

/// About `count` records for distinct random /24s (duplicates of the
/// random draw collapse, so the count varies slightly with the seed), in
/// random order, with provenance strings from a small seeded pool.
std::vector<geoloc::publish::Record> make_records(std::uint64_t seed,
                                                  std::size_t count);

/// The records of dataset version `version`: every location of `base`
/// moved by a version-dependent offset, so a reply served from the wrong
/// version disagrees with Snapshot::find on the version it names.
void shift_records(const std::vector<geoloc::publish::Record>& base,
                   std::uint32_t version,
                   std::vector<geoloc::publish::Record>& out);

/// `n` lookup addresses: 90% inside the records' prefixes with Zipf(1)
/// popularity over a seeded rank order, 10% uniform over IPv4.
std::vector<geoloc::net::IPv4Address> make_addresses(
    std::uint64_t seed, const std::vector<geoloc::publish::Record>& records,
    std::size_t n);

}  // namespace pipebench
