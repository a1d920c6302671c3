// The benchmark's stages. Every workload runs the whole pipeline —
// campaign, publish, serve — and the workload's shape decides which stage
// carries the weight (see README.md for the table and the reasons).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "inputs.h"
#include "publish/snapshot.h"
#include "serve/geo_service.h"
#include "serve/server.h"

namespace pipebench {

struct Workload {
  const char* name;
  // Campaign stage: a build_world world.
  std::size_t n24;
  std::size_t per24;
  std::size_t n_vps;
  double campaign_share;  ///< of --seconds; the serve stage gets the rest
  // Publish and serve stages.
  std::size_t prefixes;   ///< records drawn (distinct /24s published)
  int conns;              ///< client connections, one thread each
  int window;             ///< requests in flight per connection
  std::size_t batch;      ///< addresses per BATCH frame; 0 = LOOKUP frames
  bool republish;         ///< a publisher thread runs beside the load
};

constexpr unsigned kServerWorkers = 2;
constexpr int kCampaignK = 3;

/// Metrics and output checks of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a check; a failed one makes the run incorrect.
  bool check(bool ok, const std::string& what);
  void attempt(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A traced stretch of the run, [begin_ns, end_ns) on now_ns(), and the
  /// time the same work took untraced: trace.overhead is their ratio summed
  /// over stretches, and top-level spans must cover the stretches.
  void traced(std::uint64_t begin_ns, std::uint64_t end_ns,
              double untraced_s) {
    windows_.push_back({begin_ns, end_ns, untraced_s});
  }
  struct TracedWindow {
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
    double untraced_s;
  };
  [[nodiscard]] const std::vector<TracedWindow>& traced_windows() const {
    return windows_;
  }

  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  /// The result line: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
  [[nodiscard]] std::string result_json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<TracedWindow> windows_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// -- campaign stage ----------------------------------------------------------

/// Timed campaigns for `seconds` (at least three), then the output checks.
/// With `trace`, a traced replay of the campaign follows.
void run_campaign_stage(const SynthWorld& w, double seconds, bool trace,
                        Report& report);

// -- publish stage -------------------------------------------------------------

/// Every published snapshot by dataset version, so a client can check a
/// reply against the version it names. Keeps the newest few.
class VersionRegistry {
 public:
  void add(std::shared_ptr<const geoloc::publish::Snapshot> snap);
  [[nodiscard]] std::shared_ptr<const geoloc::publish::Snapshot> get(
      std::uint32_t version) const;
  [[nodiscard]] std::shared_ptr<const geoloc::publish::Snapshot> newest() const;

 private:
  mutable std::mutex mu_;
  std::map<std::uint32_t, std::shared_ptr<const geoloc::publish::Snapshot>>
      snaps_;
};

struct PublishTimes {
  double build_ms = 0.0;  ///< records -> SnapshotBuilder -> bytes
  double write_ms = 0.0;  ///< atomic write incl. fsync and rename
  double load_ms = 0.0;   ///< Snapshot::load: CRC checks + FlatLpm build
  double swap_ms = 0.0;   ///< GeoService::publish
  double total_s = 0.0;   ///< records -> swapped in
  std::uint64_t bytes = 0;
  std::uint64_t entries = 0;
  std::uint64_t allocs = 0;
  bool ok = false;
};

/// Publish `records` as `version`: SnapshotBuilder -> write -> load ->
/// GeoService::publish (the steps of SnapshotBuilder::write_file, split so
/// each is timed and the builder's CRC is known). Checks the loaded CRC,
/// entry count and version against the builder's. With tracing on, records
/// a publish.version span (op = version) with one child per step.
PublishTimes publish_version(const std::vector<geoloc::publish::Record>& records,
                             std::uint32_t version, const std::string& path,
                             geoloc::serve::GeoService& service,
                             VersionRegistry& registry, Report& report);

// -- serve stage ---------------------------------------------------------------

struct ServeEnv {
  const Workload& workload;
  geoloc::serve::GeoService& service;
  geoloc::serve::Server& server;
  VersionRegistry& registry;
  const std::vector<geoloc::publish::Record>& records;
  const std::vector<geoloc::net::IPv4Address>& addresses;
  std::string snapshot_path;
  std::uint32_t next_version;  ///< republish continues from here
};

/// Server CPU over the untraced window of a traced run (process CPU minus
/// the client and publisher threads), and the work it did.
struct ServeCpu {
  double server_cpu_ns = 0.0;
  double frames = 0.0;
  double addrs = 0.0;
};

/// The closed-loop load for `seconds` (plus republishing when the workload
/// asks for it); with `trace`, an untraced and a traced window of half the
/// time each, then in-process layer timings on the run's address stream.
ServeCpu run_serve_stage(ServeEnv& env, double seconds, bool trace,
                         std::vector<PublishTimes>& publishes, Report& report);

}  // namespace pipebench
