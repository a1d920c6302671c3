// RTT synthesis between simulated hosts.
//
// Model (DESIGN.md "SOI-safe latency model"):
//
//   RTT(a,b) = prop(d_true(a,b)) * inflation(a,b)        // path circuitousness
//            + overhead(a,b)                             // serialization, hops
//            + last_mile(a) + last_mile(b)               // access delay
//            + jitter                                    // per measurement
//
// with prop(d) the 2/3-c great-circle minimum, inflation >= min_inflation > 1
// and everything else non-negative — so an RTT can never violate the speed
// of Internet with respect to the hosts' *true* locations. Hosts whose
// *reported* location is wrong are exactly the ones the paper's Section 4.3
// sanitiser catches.
//
// The deterministic components (inflation, overhead, asymmetry) are seeded
// per host pair, so repeated measurements of a pair are consistent up to
// jitter, like a real path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/geodesy_batch.h"
#include "sim/world.h"
#include "util/rng.h"

namespace geoloc::sim {

struct LatencyModelConfig {
  double min_inflation = 1.05;     ///< floor on path circuitousness
  /// Path circuitousness is a property of the route between two metros, so
  /// the bulk of it is drawn per *city pair*; a small per-host-pair factor
  /// captures intra-metro differences. Two hosts of the same city pair thus
  /// see nearly the same inflation — which is what keeps the street-level
  /// D1/D2 subtraction meaningful at all.
  double inflation_mu = 0.24;      ///< city-pair lognormal location
  double inflation_sigma = 0.20;   ///< city-pair lognormal scale
  double inflation_host_sigma = 0.05;  ///< per-host-pair lognormal scale
  /// Extra multiplicative inflation applied to short paths: real short paths
  /// detour through metro POPs, so the *relative* inflation grows as the
  /// geodesic shrinks. Multiplier = 1 + short_path_boost_km / (d + short_path_floor_km).
  double short_path_boost_km = 30.0;
  double short_path_floor_km = 35.0;
  /// Additive overhead, also split into a city-pair part (scaled down for
  /// short paths, which cross fewer devices) and a host-local part.
  double overhead_mean_ms = 0.8;        ///< city-pair component (exponential)
  double overhead_local_mean_ms = 0.15; ///< host-pair component (exponential)
  double jitter_mean_ms = 0.12;    ///< per-measurement additive jitter (exponential)
  double loss_rate = 0.006;        ///< per-packet loss probability
  /// Reverse-path asymmetry of router hop RTTs (lognormal sigma of the
  /// per-(src,router) multiplier). Drives the D1+D2 noise of Section 5.2.3.
  double router_asym_sigma = 0.25;
  /// Router ICMP generation delay: exponential mean + Pareto tail.
  double router_icmp_mean_ms = 6.5;
  double router_icmp_tail_scale_ms = 0.6;
  double router_icmp_tail_alpha = 1.6;
  double router_icmp_tail_prob = 0.35;
};

/// Synthesises RTT samples. Thread-safe: all methods are const and callers
/// supply their own generator for the per-measurement randomness.
class LatencyModel {
 public:
  LatencyModel(const World& world, const LatencyModelConfig& config = {});

  /// Deterministic RTT floor for the pair: everything except jitter.
  [[nodiscard]] double base_rtt_ms(HostId a, HostId b) const;

  /// One echo-request sample (base + jitter). Does not model loss.
  [[nodiscard]] double sample_rtt_ms(HostId a, HostId b,
                                     util::Pcg32& gen) const;

  /// Minimum of `packets` samples with loss; returns nullopt when the
  /// destination is unresponsive or every packet was lost.
  [[nodiscard]] std::optional<double> min_rtt_ms(HostId src, HostId dst,
                                                 int packets,
                                                 util::Pcg32& gen) const;

  /// One ping measurement with per-packet accounting.
  struct PingSample {
    std::optional<double> min_rtt_ms;  ///< nullopt: no packet came back
    int packets_received = 0;
  };

  /// Like min_rtt_ms, but also reports how many of the `packets` echo
  /// requests were answered — the observable loss a real platform reports.
  /// Consumes the generator identically to min_rtt_ms (same draw order), so
  /// the two are interchangeable without perturbing downstream streams.
  [[nodiscard]] PingSample ping_sample(HostId src, HostId dst, int packets,
                                       util::Pcg32& gen) const;

  // -- batched SoA path (DESIGN.md §14) -----------------------------------
  // The streaming tile pipeline synthesises base RTTs one VP row at a time
  // against thousands of destinations. The scalar path would chase Host and
  // Place pointers and re-hash the substream labels for every cell; the
  // batch path gathers the world fields once per host list, hoists the
  // label hashes, caches the per-city-pair draws within a row, and takes
  // its distances from the bit-identical batch kernel — so the outputs
  // equal the scalar path double for double (asserted by the scale suite).

  /// SoA gather of exactly the World/Host fields base_rtt_ms reads.
  struct HostSoA {
    std::vector<HostId> ids;
    std::vector<geo::GeoPoint> location;  ///< true locations (kernel `from` side)
    geo::PointsSoA points;                ///< true locations, precomputed terms
    std::vector<std::uint64_t> city;      ///< parent city of the host's place
    /// Dense index of `city` within this SoA (first-appearance order), in
    /// [0, cities): the slot a CityPairCache keeps that city's draws in.
    std::vector<std::uint32_t> city_index;
    std::size_t cities = 0;
    std::vector<double> last_mile_ms;
    std::vector<double> access_penalty_ms;
    std::vector<char> local_peering;      ///< has_local_peering(host.place)
    std::vector<char> responsive;

    [[nodiscard]] std::size_t size() const noexcept { return ids.size(); }
  };
  [[nodiscard]] HostSoA host_soa(std::span<const HostId> hosts) const;

  /// The two draws base_rtt_ms keys on the unordered *city* pair. They are
  /// values, not generator state — each (pair, label) substream is
  /// independent — so caching them per row is exact, and a row over one
  /// metro's targets pays the lognormal/exponential machinery once per
  /// distinct city instead of once per cell.
  struct CityPairDraws {
    double inflation_city = 0.0;  ///< lognormal(inflation_mu, inflation_sigma)
    double overhead_city = 0.0;   ///< exponential(overhead_mean_ms)
  };

  /// The draws of one source city against every city of one destination
  /// HostSoA: a flat array over HostSoA::city_index whose entries carry a
  /// generation stamp, so reset() forgets them all in O(1) and a reused
  /// cache allocates nothing. base_rtt_ms_batch resets it itself when the
  /// source city changes; a caller that moves one cache to another
  /// destination HostSoA must reset() it first.
  class CityPairCache {
   public:
    void reset() noexcept;

   private:
    friend class LatencyModel;
    std::vector<std::uint32_t> stamp_;  ///< entry valid iff == generation_
    std::vector<CityPairDraws> draws_;
    std::uint32_t generation_ = 1;
    std::uint64_t src_city_ = 0;
  };

  /// out[j - begin] = base_rtt_ms(src.ids[i], dst.ids[j]) for j in
  /// [begin, end), bit-identical to the scalar method. `cache` persists
  /// across calls for the same `dst` (and across rows of one source city).
  void base_rtt_ms_batch(const HostSoA& src, std::size_t i, const HostSoA& dst,
                         std::size_t begin, std::size_t end,
                         CityPairCache& cache, double* out) const;

  /// out[i] <= base_rtt_ms(src.ids[i], dst.ids[j]) for every source i of
  /// `src`, whatever the pair's draws: the base RTT's formula
  /// with inflation at min_inflation, overhead at 0 and the distance
  /// replaced by R·|u−v| − 1 m, the chord of the SoA unit vectors less the
  /// chord kernel's error bound. Summed in base_rtt_ms_batch's association,
  /// so monotone rounding keeps the double inequality (DESIGN.md §14).
  void base_rtt_lower_bound_ms_batch(const HostSoA& src, const HostSoA& dst,
                                     std::size_t j, double* out) const;

  /// ping_sample with the pair's deterministic base RTT already in hand:
  /// consumes `gen` identically to ping_sample(src, dst, ...) and returns
  /// the same value when (base_rtt, responsive) match that pair. The tile
  /// generator calls this with batched bases; the scalar ping_sample is a
  /// thin wrapper, so the loss/jitter logic exists exactly once.
  [[nodiscard]] PingSample ping_sample_with_base(double base_rtt,
                                                 bool responsive, int packets,
                                                 util::Pcg32& gen) const;

  /// The RTT a traceroute from `src` reports for intermediate router `hop`:
  /// base RTT skewed by reverse-path asymmetry plus the router's ICMP
  /// generation delay. Noisier than an end-to-end ping by construction.
  [[nodiscard]] double router_hop_rtt_ms(HostId src, HostId hop,
                                         util::Pcg32& gen) const;

  /// Deterministic path-circuitousness multiplier for the pair (>= 1).
  [[nodiscard]] double pair_inflation(HostId a, HostId b) const;

  [[nodiscard]] const LatencyModelConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const World& world() const noexcept { return *world_; }

 private:
  [[nodiscard]] util::Pcg32 pair_gen(HostId a, HostId b,
                                     std::string_view label) const;
  /// Generator keyed on the unordered pair of *parent cities* — the
  /// path-level randomness shared by all host pairs of a city pair.
  [[nodiscard]] util::Pcg32 city_pair_gen(HostId a, HostId b,
                                          std::string_view label) const;

  const World* world_;
  LatencyModelConfig config_;
  std::uint64_t seed_;
};

}  // namespace geoloc::sim
