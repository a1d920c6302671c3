#include "serve/geo_service.h"

#include <algorithm>
#include <utility>

#include "geo/geodesy.h"
#include "util/env.h"

namespace geoloc::serve {

namespace {

/// Queue-dedup key: network in the high bits, length below.
std::uint64_t prefix_key(const net::Prefix& p) noexcept {
  return (static_cast<std::uint64_t>(p.network().value()) << 8) |
         static_cast<std::uint64_t>(p.length());
}

std::uint64_t next_service_id() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread snapshot cache: valid while (service, epoch) both match.
struct TlsSnapshotCache {
  std::uint64_t service_id = 0;
  std::uint64_t epoch = 0;
  std::shared_ptr<const publish::Snapshot> snap;
};
thread_local TlsSnapshotCache tls_snapshot_cache;

std::size_t remeasure_cap_from_env() {
  // int_or rejects non-positive values, so "0" (= unbounded) must be an
  // explicit opt-in via the ctor argument, not an env typo.
  return static_cast<std::size_t>(
      util::env::int_or("GEOLOC_SERVE_REMEASURE_CAP", 65536));
}

}  // namespace

// -- RemeasureQueue --------------------------------------------------------

RemeasureQueue::RemeasureQueue() : cap_(remeasure_cap_from_env()) {}

RemeasureQueue::RemeasureQueue(std::size_t max_pending) : cap_(max_pending) {}

bool RemeasureQueue::push(net::Prefix prefix) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Dedup first: a re-push of a pending prefix is not a drop.
  if (pending_.contains(prefix_key(prefix))) return false;
  if (cap_ != 0 && queue_.size() >= cap_) {
    dropped_.add();
    return false;
  }
  pending_.insert(prefix_key(prefix));
  queue_.push_back(prefix);
  return true;
}

std::vector<net::Prefix> RemeasureQueue::drain() {
  const std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
  return std::exchange(queue_, {});
}

std::size_t RemeasureQueue::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

// -- GeoService ------------------------------------------------------------

GeoService::GeoService(std::shared_ptr<const publish::Snapshot> initial)
    : service_id_(next_service_id()), snapshot_(std::move(initial)) {}

void GeoService::publish(std::shared_ptr<const publish::Snapshot> snapshot) {
  {
    const std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snapshot);
  }
  // Bumped after the store: a reader that sees the new epoch refreshes its
  // cache and (through the mutex) sees at least this snapshot.
  epoch_.fetch_add(1, std::memory_order_release);
  swaps_.fetch_add(1, std::memory_order_relaxed);
}

bool GeoService::publish_from_file(const std::string& path,
                                   std::string* error) {
  // Snapshot::load validates before a byte is served and quarantines a
  // corrupt file (renames it to `<path>.corrupt`, util/durable.h): on
  // false the currently served version keeps serving untouched, and the
  // caller's republish lands on a clean path.
  auto snap = publish::Snapshot::load(path, error);
  if (!snap) return false;
  publish(std::move(snap));
  return true;
}

std::shared_ptr<const publish::Snapshot> GeoService::current() const {
  const std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

const std::shared_ptr<const publish::Snapshot>& GeoService::cached_snapshot()
    const {
  // Read the epoch before the (mutex-guarded, cold) snapshot fetch: if
  // another publish lands in between we cache a newer snapshot under the
  // older epoch and simply revalidate on the next lookup.
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  TlsSnapshotCache& cache = tls_snapshot_cache;
  if (cache.service_id != service_id_ || cache.epoch != epoch) {
    cache.snap = current();
    cache.service_id = service_id_;
    cache.epoch = epoch;
  }
  return cache.snap;
}

Answer GeoService::answer_from(
    const std::shared_ptr<const publish::Snapshot>& snap,
    net::IPv4Address address, double now_s) const {
  Answer a;
  const auto hit = snap ? snap->find(address) : std::nullopt;
  if (!hit) {
    counters_.misses.add();
    return a;
  }
  counters_.hits.add();
  a.found = true;
  a.prefix = hit->prefix;
  a.location = hit->location;
  a.method = hit->method;
  a.tier = hit->tier;
  a.confidence_radius_km = hit->confidence_radius_km;
  a.provenance = hit->provenance;
  a.age_s = hit->age_s(now_s);
  a.dataset_version = snap->dataset_version();
  a.source = snap;
  if (hit->stale_at(now_s)) {
    a.stale = true;
    counters_.stale_hits.add();
    queue_.push(hit->prefix);
  }
  return a;
}

Answer GeoService::lookup(net::IPv4Address address, double now_s) const {
  return answer_from(cached_snapshot(), address, now_s);
}

void GeoService::lookup_batch(std::span<const net::IPv4Address> addresses,
                              double now_s, std::span<Answer> out) const {
  const auto& snap = cached_snapshot();
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    out[i] = answer_from(snap, addresses[i], now_s);
  }
}

ServiceStats GeoService::stats() const {
  ServiceStats s;
  s.hits = counters_.hits.value();
  s.misses = counters_.misses.value();
  s.lookups = s.hits + s.misses;  // every lookup is exactly one of the two
  s.stale_hits = counters_.stale_hits.value();
  s.swaps = swaps_.load(std::memory_order_relaxed);
  return s;
}

std::vector<net::Prefix> GeoService::stale_prefixes(double now_s) const {
  std::vector<net::Prefix> out;
  const auto snap = current();
  if (!snap) return out;
  for (std::size_t i = 0; i < snap->size(); ++i) {
    const publish::SnapshotEntry e = snap->entry(i);
    if (e.stale_at(now_s)) out.push_back(e.prefix);
  }
  // Process-wide: sweeps have no per-instance counter to duplicate.
  static obs::Counter& scans =
      obs::Registry::instance().counter("serve.ttl_scans");
  static obs::Counter& expired =
      obs::Registry::instance().counter("serve.ttl_expired");
  scans.add();
  expired.add(out.size());
  return out;
}

// -- re-measurement bridge -------------------------------------------------

std::vector<atlas::MeasurementRequest> plan_remeasurement(
    const scenario::Scenario& s, std::span<const net::Prefix> stale,
    std::size_t vps_per_target, int packets) {
  return plan_remeasurement(s, stale, std::span<const sim::HostId>(s.vps()),
                            vps_per_target, packets);
}

std::vector<atlas::MeasurementRequest> plan_remeasurement(
    const scenario::Scenario& s, std::span<const net::Prefix> stale,
    std::span<const sim::HostId> vps, std::size_t vps_per_target,
    int packets) {
  std::vector<atlas::MeasurementRequest> requests;
  if (vps.empty() || stale.empty()) return requests;
  const std::size_t k =
      vps_per_target == 0 ? vps.size() : std::min(vps_per_target, vps.size());
  for (const net::Prefix& prefix : stale) {
    for (std::size_t col = 0; col < s.targets().size(); ++col) {
      const sim::HostId target = s.targets()[col];
      if (!prefix.contains(s.world().host(target).addr)) continue;
      // Spread the VPs deterministically: stride through the VP set from a
      // per-target offset so successive targets reuse different VPs.
      const std::size_t stride = vps.size() / k ? vps.size() / k : 1;
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t row = (col + j * stride) % vps.size();
        requests.push_back(atlas::MeasurementRequest{
            .vp = vps[row],
            .target = target,
            .kind = atlas::MeasurementKind::Ping,
            .packets = packets});
      }
    }
  }
  return requests;
}

std::vector<atlas::MeasurementRequest> plan_remeasurement(
    const scenario::Scenario& s, std::span<const net::Prefix> stale,
    const publish::Snapshot& prior, std::span<const sim::HostId> vps,
    std::size_t vps_per_target, int packets) {
  std::vector<atlas::MeasurementRequest> requests;
  if (vps.empty() || stale.empty()) return requests;
  const std::size_t k =
      vps_per_target == 0 ? vps.size() : std::min(vps_per_target, vps.size());
  // (distance to the prior estimate, pool index): recomputed per prefix,
  // tie-broken by pool order so the plan is bit-stable.
  std::vector<std::pair<double, std::size_t>> ranked(vps.size());
  for (const net::Prefix& prefix : stale) {
    const auto hit = prior.find(prefix.network());
    for (std::size_t col = 0; col < s.targets().size(); ++col) {
      const sim::HostId target = s.targets()[col];
      if (!prefix.contains(s.world().host(target).addr)) continue;
      if (!hit) {
        // No prior estimate (a prefix new to the dataset): stride spread.
        const std::size_t stride = vps.size() / k ? vps.size() / k : 1;
        for (std::size_t j = 0; j < k; ++j) {
          requests.push_back(atlas::MeasurementRequest{
              .vp = vps[(col + j * stride) % vps.size()],
              .target = target,
              .kind = atlas::MeasurementKind::Ping,
              .packets = packets});
        }
        continue;
      }
      // Guard VPs: a quarter of the budget stays globally spread so a
      // prefix that moved continents since `prior` still gets constraints
      // near its *new* home; without them every selected VP sits near the
      // stale estimate and the fix can't escape it.
      const std::size_t guards = k > 1 ? std::max<std::size_t>(1, k / 4) : 0;
      std::vector<std::size_t> rows;
      rows.reserve(k);
      const std::size_t stride = vps.size() / k ? vps.size() / k : 1;
      for (std::size_t j = 0; j < guards; ++j) {
        const std::size_t row = (col + j * stride) % vps.size();
        if (std::find(rows.begin(), rows.end(), row) == rows.end()) {
          rows.push_back(row);
        }
      }
      for (std::size_t row = 0; row < vps.size(); ++row) {
        ranked[row] = {geo::distance_km(
                           s.world().host(vps[row]).reported_location,
                           hit->location),
                       row};
      }
      std::sort(ranked.begin(), ranked.end());
      for (std::size_t j = 0; j < vps.size() && rows.size() < k; ++j) {
        const std::size_t row = ranked[j].second;
        if (std::find(rows.begin(), rows.end(), row) == rows.end()) {
          rows.push_back(row);
        }
      }
      for (const std::size_t row : rows) {
        requests.push_back(atlas::MeasurementRequest{
            .vp = vps[row],
            .target = target,
            .kind = atlas::MeasurementKind::Ping,
            .packets = packets});
      }
    }
  }
  return requests;
}

}  // namespace geoloc::serve
