// Load generator for the epoll TCP server (serve/server.h, DESIGN.md §12):
// pipelined lookup QPS and latency percentiles over loopback as the
// connection count grows, then a deliberate overload phase against a
// shrunken shed threshold.
//
// Acceptance shape (ISSUE): QPS grows with connections until saturation
// and then *plateaus* while past saturation the server sheds excess
// requests with typed OVERLOADED replies — throughput for admitted work
// holds and p99 stays bounded; the server never collapses or hangs. Each
// phase appends a GEOLOC_BENCH_JSON record (BENCH_serve_server_qps.json in
// the repo is a committed reference run).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "publish/snapshot.h"
#include "serve/geo_service.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace geoloc;
using Clock = std::chrono::steady_clock;

std::shared_ptr<const publish::Snapshot> make_snapshot(std::size_t prefixes) {
  publish::SnapshotBuilder b;
  util::Pcg32 gen(20230815);
  for (std::size_t i = 0; i < prefixes; ++i) {
    publish::Record r;
    r.prefix = net::Prefix{
        net::IPv4Address{static_cast<std::uint32_t>(gen()) &
                         net::Prefix::mask(24)},
        24};
    r.location = {static_cast<double>(i % 90), static_cast<double>(i % 180)};
    r.provenance = "qps bench";
    b.add(std::move(r));
  }
  return publish::Snapshot::from_bytes(b.build(
      publish::SnapshotMeta{.dataset_version = 1, .source = "qps bench"}));
}

struct LoadResult {
  std::uint64_t served = 0;     ///< lookup replies received
  std::uint64_t shed = 0;       ///< typed OVERLOADED replies received
  std::uint64_t errors = 0;     ///< anything else (should stay 0)
  std::vector<double> latency_ms;  ///< per-reply, send -> receive
};

/// One client connection driving `window` pipelined single lookups for
/// `duration`. Every reply is matched to its send timestamp.
LoadResult run_client(std::uint16_t port, int window,
                      std::chrono::milliseconds duration,
                      std::uint64_t seed) {
  LoadResult res;
  serve::wire::TcpClient c;
  std::string error;
  if (!c.connect(port, &error)) {
    ++res.errors;
    return res;
  }
  util::Pcg32 gen(seed);
  const auto deadline = Clock::now() + duration;
  std::uint32_t next_id = 0;
  std::deque<std::pair<std::uint32_t, Clock::time_point>> in_flight;
  res.latency_ms.reserve(1 << 16);
  const auto send_one = [&] {
    const auto frame = serve::wire::encode_lookup_request(
        next_id, net::IPv4Address{static_cast<std::uint32_t>(gen())},
        /*now_s=*/0.0);
    if (!c.send_raw(frame)) return false;
    in_flight.emplace_back(next_id++, Clock::now());
    return true;
  };
  for (int i = 0; i < window; ++i) {
    if (!send_one()) return res;
  }
  while (Clock::now() < deadline) {
    serve::wire::Reply r;
    if (!c.recv_reply(&r, 2000)) {
      ++res.errors;
      break;
    }
    if (in_flight.empty() || r.request_id != in_flight.front().first) {
      ++res.errors;
      break;
    }
    res.latency_ms.push_back(std::chrono::duration<double, std::milli>(
                                 Clock::now() - in_flight.front().second)
                                 .count());
    in_flight.pop_front();
    if (r.type == serve::wire::MsgType::LookupReply) {
      ++res.served;
    } else if (r.type == serve::wire::MsgType::ErrorReply &&
               r.error == serve::wire::ErrorCode::Overloaded) {
      ++res.shed;
    } else {
      ++res.errors;
    }
    if (!send_one()) break;
  }
  return res;
}

struct BurstResult {
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
};

/// Overload client: fire `burst` batch requests without reading a byte,
/// half-close, then drain. Conservation is the assertion — every request
/// comes back served or shed, never dropped, never hung.
BurstResult run_burst_client(std::uint16_t port, int burst,
                             std::size_t batch_size) {
  BurstResult res;
  serve::wire::TcpClient c;
  std::string error;
  if (!c.connect(port, &error)) {
    ++res.errors;
    return res;
  }
  const std::vector<net::IPv4Address> addrs(batch_size,
                                            net::IPv4Address{0x0A000001});
  std::vector<std::byte> out;
  for (int i = 0; i < burst; ++i) {
    const auto f = serve::wire::encode_batch_request(
        static_cast<std::uint32_t>(i), addrs, /*now_s=*/0.0);
    out.insert(out.end(), f.begin(), f.end());
  }
  if (!c.send_raw(out)) {
    ++res.errors;
    return res;
  }
  c.shutdown_write();
  for (int i = 0; i < burst; ++i) {
    serve::wire::Reply r;
    if (!c.recv_reply(&r, 10'000)) {
      ++res.errors;
      return res;
    }
    if (r.type == serve::wire::MsgType::BatchReply) {
      ++res.served;
    } else if (r.type == serve::wire::MsgType::ErrorReply &&
               r.error == serve::wire::ErrorCode::Overloaded) {
      ++res.shed;
    } else {
      ++res.errors;
    }
  }
  return res;
}

struct PhaseRow {
  int conns = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
};

PhaseRow run_phase(std::uint16_t port, int conns, int window,
                   std::chrono::milliseconds duration) {
  std::vector<LoadResult> results(conns);
  std::vector<std::thread> clients;
  clients.reserve(conns);
  const auto start = Clock::now();
  for (int i = 0; i < conns; ++i) {
    clients.emplace_back([&, i] {
      results[i] = run_client(port, window, duration,
                              /*seed=*/0x9e3779b9ull * (i + 1));
    });
  }
  for (auto& t : clients) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  PhaseRow row;
  row.conns = conns;
  std::vector<double> all_latencies;
  for (auto& r : results) {
    row.served += r.served;
    row.shed += r.shed;
    row.errors += r.errors;
    all_latencies.insert(all_latencies.end(), r.latency_ms.begin(),
                         r.latency_ms.end());
  }
  row.qps = static_cast<double>(row.served + row.shed) / elapsed;
  if (!all_latencies.empty()) {
    row.p50_ms = util::percentile(all_latencies, 50.0);
    row.p99_ms = util::percentile(all_latencies, 99.0);
  }
  return row;
}

void print_row(const PhaseRow& r) {
  std::printf("  %3d conn(s): %9.0f replies/s   p50 %7.3f ms   p99 %7.3f ms"
              "   served %8llu   shed %6llu   errors %llu\n",
              r.conns, r.qps, r.p50_ms, r.p99_ms,
              static_cast<unsigned long long>(r.served),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.errors));
}

}  // namespace

int main() {
  bench::print_header(
      "bench_serve_server_qps",
      "TCP server QPS/latency under pipelined load, then forced overload",
      "QPS plateaus at saturation; past it requests shed typed OVERLOADED, "
      "no collapse");

  const bool small = bench::small_mode();
  const auto snapshot = make_snapshot(small ? 2'000 : 50'000);
  if (!snapshot) {
    std::fprintf(stderr, "snapshot build failed\n");
    return 1;
  }
  const auto duration = std::chrono::milliseconds(small ? 300 : 800);
  const auto host_cores =
      static_cast<double>(std::thread::hardware_concurrency());
  int exit_code = 0;

  // -- phase 1: QPS vs connection count -----------------------------------
  double peak_qps = 0.0;
  {
    serve::GeoService service(snapshot);
    serve::Server server(service, {});
    std::string error;
    if (!server.start(&error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("\npipelined lookups (window 32/conn), %u worker(s):\n",
                server.config().workers);
    for (const int conns : {1, 2, 4, 8, 16}) {
      const PhaseRow row = run_phase(server.port(), conns, /*window=*/32,
                                     duration);
      print_row(row);
      peak_qps = std::max(peak_qps, row.qps);
      if (row.errors > 0) exit_code = 1;
      bench::emit_bench_json_fields(
          "serve_server_qps/sweep",
          {{"conns", static_cast<double>(row.conns)},
           {"qps", row.qps},
           {"p50_ms", row.p50_ms},
           {"p99_ms", row.p99_ms},
           {"served", static_cast<double>(row.served)},
           {"shed", static_cast<double>(row.shed)},
           {"errors", static_cast<double>(row.errors)},
           {"server_workers", static_cast<double>(server.config().workers)},
           {"host_cores", host_cores}});
    }
    server.stop();
  }

  // -- phase 2: past saturation, shed — don't collapse ---------------------
  std::printf("\nforced overload (shed threshold shrunk to 256 KiB):\n");
  {
    serve::ServerConfig cfg;
    cfg.max_outstanding_bytes = 256 * 1024;
    serve::GeoService service(snapshot);
    serve::Server server(service, cfg);
    std::string error;
    if (!server.start(&error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      return 1;
    }
    // Burst clients queue replies far faster than they drain them (no
    // reads until the whole burst is sent): outstanding bytes cross the
    // threshold and the tail must shed. A probe connection runs windowed
    // lookups throughout, measuring responsiveness *during* the overload.
    constexpr int kBurstConns = 8;
    const int burst = small ? 48 : 96;
    const std::size_t batch_size = 256;
    std::vector<BurstResult> bursts(kBurstConns);
    std::vector<std::thread> flood;
    flood.reserve(kBurstConns);
    const auto start = Clock::now();
    for (int i = 0; i < kBurstConns; ++i) {
      flood.emplace_back([&, i] {
        bursts[i] = run_burst_client(server.port(), burst, batch_size);
      });
    }
    const LoadResult probe =
        run_client(server.port(), /*window=*/8, duration, /*seed=*/1);
    for (auto& t : flood) t.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();

    BurstResult total;
    for (const auto& b : bursts) {
      total.served += b.served;
      total.shed += b.shed;
      total.errors += b.errors;
    }
    const double probe_p50 = probe.latency_ms.empty()
                                 ? 0.0
                                 : util::percentile(probe.latency_ms, 50.0);
    const double probe_p99 = probe.latency_ms.empty()
                                 ? 0.0
                                 : util::percentile(probe.latency_ms, 99.0);
    const std::uint64_t sent =
        static_cast<std::uint64_t>(kBurstConns) * burst;
    const double answered_per_s =
        static_cast<double>(total.served + total.shed) / elapsed;
    std::printf("  %d burst conn(s) x %d batches of %zu: served %llu, "
                "shed %llu, errors %llu (of %llu sent)\n",
                kBurstConns, burst, batch_size,
                static_cast<unsigned long long>(total.served),
                static_cast<unsigned long long>(total.shed),
                static_cast<unsigned long long>(total.errors),
                static_cast<unsigned long long>(sent));
    std::printf("  probe during overload: %llu lookups, p50 %.3f ms, "
                "p99 %.3f ms, errors %llu\n",
                static_cast<unsigned long long>(probe.served), probe_p50,
                probe_p99, static_cast<unsigned long long>(probe.errors));
    const bool shed_worked = total.shed > 0 && total.served > 0 &&
                             total.errors == 0 &&
                             total.served + total.shed == sent;
    std::printf("  overload verdict: %s (every burst request answered, "
                "probe stayed live)\n",
                shed_worked ? "SHEDS, NO COLLAPSE" : "FAIL");
    if (!shed_worked || probe.errors > 0) exit_code = 1;
    bench::emit_bench_json_fields(
        "serve_server_qps/overload",
        {{"burst_conns", static_cast<double>(kBurstConns)},
         {"batches_sent", static_cast<double>(sent)},
         {"served", static_cast<double>(total.served)},
         {"shed", static_cast<double>(total.shed)},
         {"errors", static_cast<double>(total.errors)},
         {"answered_per_s", answered_per_s},
         {"probe_lookups", static_cast<double>(probe.served)},
         {"probe_p50_ms", probe_p50},
         {"probe_p99_ms", probe_p99},
         {"peak_sweep_qps", peak_qps},
         {"server_workers", static_cast<double>(server.config().workers)},
         {"host_cores", host_cores}});
    server.stop();
  }

  bench::emit_metrics_snapshot("serve_server_qps");
  return exit_code;
}
