// Publish and serve stages: snapshot publication, a closed-loop load over
// loopback against serve::Server, the republish thread, and in-process
// timings of the serving layers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <thread>

#include "pipeline.h"
#include "serve/wire.h"
#include "trace.h"
#include "util/durable.h"
#include "util/procstat.h"
#include "util/stats.h"

namespace pipebench {

using namespace geoloc;

namespace {

/// Versions a reply can still name: one in flight per connection window,
/// far fewer than this many publish cycles.
constexpr std::size_t kKeptVersions = 3;
/// Pause between republish cycles.
constexpr auto kRepublishPause = std::chrono::milliseconds(200);
/// A reply later than this counts as a failed request.
constexpr int kReplyTimeoutMs = 2000;
/// Each connection's replies are timed in groups of kGroupWindows times
/// its window (one to a few milliseconds), and its rate leaves out the
/// kTrimShare of groups that took longest. The shared host stops the whole
/// machine now and then for milliseconds at a time, and how often varies
/// with its load from run to run. Such a stop stretches the one group it
/// falls in, which the trim drops, where a plain count over the window
/// would lose the whole stop.
constexpr std::size_t kGroupWindows = 4;
constexpr double kTrimShare = 0.25;
/// Addresses per in-process op, and how many ops the traced run times.
constexpr std::size_t kOpAddrs = 256;
constexpr std::size_t kInprocOps = 4096;

double ms_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

void sleep_until_ns(std::uint64_t t) {
  const std::uint64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

std::uint32_t load_u32(const std::vector<std::byte>& b, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint32_t>(b[off + static_cast<std::size_t>(i)]);
  }
  return v;
}

std::uint64_t load_u64(const std::vector<std::byte>& b, std::size_t off) {
  return static_cast<std::uint64_t>(load_u32(b, off)) |
         (static_cast<std::uint64_t>(load_u32(b, off + 4)) << 32);
}

bool same_answer(const serve::wire::WireAnswer& got,
                 const std::optional<publish::SnapshotEntry>& want) {
  if (got.found != want.has_value()) return false;
  if (!got.found) return true;
  return got.prefix == want->prefix &&
         got.lat_deg == want->location.lat_deg &&
         got.lon_deg == want->location.lon_deg &&
         got.method == static_cast<std::uint8_t>(want->method) &&
         got.tier == static_cast<std::uint8_t>(want->tier) &&
         got.confidence_radius_km == want->confidence_radius_km &&
         got.provenance == want->provenance && !got.stale;
}

// -- load generator -----------------------------------------------------------

struct ClientResult {
  std::uint64_t addrs_requested = 0;
  std::uint64_t addrs_failed = 0;
  std::uint64_t addrs_in_window = 0;  ///< answered before the deadline
  std::uint64_t frames_in_window = 0;
  std::vector<float> latency_ms;       ///< per in-window frame
  std::vector<std::uint64_t> group_ns;  ///< per group of in-window replies
  std::uint64_t cpu_ns = 0;
  std::uint64_t last_reply_ns = 0;
};

/// One closed-loop connection: `window` requests in flight; each reply is
/// timed send -> reply, answered by the next request, then checked against
/// Snapshot::find on the dataset version it names. No request is sent
/// after `deadline_ns`; the ones in flight are drained and checked.
void client_loop(const ServeEnv& env, int conn, std::uint64_t start_ns,
                 std::uint64_t deadline_ns, bool traced,
                 ClientResult& res) {
  const Workload& wl = env.workload;
  const std::size_t per_frame = wl.batch == 0 ? 1 : wl.batch;
  const auto& addrs = env.addresses;
  serve::wire::TcpClient client;
  std::string error;
  const bool connected = client.connect(env.server.port(), &error);
  sleep_until_ns(start_ns);
  if (!connected) {
    std::fprintf(stderr, "client %d: connect failed: %s\n", conn,
                 error.c_str());
    res.addrs_requested = res.addrs_failed = 1;
    return;
  }
  const std::uint64_t cpu0 = thread_cpu_ns();
  const std::size_t group = kGroupWindows * static_cast<std::size_t>(wl.window);
  std::uint64_t group_begin_ns = 0;
  std::size_t in_group = 0;

  struct InFlight {
    std::uint32_t id;
    std::uint64_t sent_ns;
    std::size_t first;  ///< index into addrs
  };
  std::deque<InFlight> in_flight;
  std::size_t cursor = addrs.size() / static_cast<std::size_t>(wl.conns) *
                       static_cast<std::size_t>(conn);
  std::uint32_t next_id = 0;
  const auto send_one = [&] {
    if (cursor + per_frame > addrs.size()) cursor = 0;
    const auto frame =
        wl.batch == 0
            ? serve::wire::encode_lookup_request(next_id, addrs[cursor], 0.0)
            : serve::wire::encode_batch_request(
                  next_id,
                  std::span<const net::IPv4Address>(&addrs[cursor], per_frame),
                  0.0);
    in_flight.push_back({next_id++, now_ns(), cursor});
    cursor += per_frame;
    res.addrs_requested += per_frame;
    return client.send_raw(frame);
  };

  bool ok = true;
  for (int i = 0; i < wl.window && ok; ++i) ok = send_one();
  std::shared_ptr<const publish::Snapshot> snap;
  std::uint32_t snap_version = 0;
  serve::wire::Reply reply;
  while (ok && !in_flight.empty()) {
    if (!client.recv_reply(&reply, kReplyTimeoutMs)) break;
    const std::uint64_t now = now_ns();
    const InFlight f = in_flight.front();
    in_flight.pop_front();
    if (reply.request_id != f.id) {
      res.addrs_failed += per_frame;
      break;
    }
    if (now < deadline_ns) {
      res.latency_ms.push_back(static_cast<float>(ms_between(f.sent_ns, now)));
      if (group_begin_ns == 0) {
        group_begin_ns = now;
      } else if (++in_group == group) {
        res.group_ns.push_back(now - group_begin_ns);
        group_begin_ns = now;
        in_group = 0;
      }
      ++res.frames_in_window;
      res.addrs_in_window += per_frame;
      ok = send_one();
    }
    if (traced) {
      Span s;
      s.name = "serve.frame";
      s.id = Tracer::instance().next_id();
      s.op = (static_cast<std::uint64_t>(conn) << 32) | f.id;
      s.start_ns = f.sent_ns;
      s.end_ns = now;
      s.busy_ns = now - f.sent_ns;
      s.count = per_frame;
      Tracer::instance().record(s);
    }
    res.last_reply_ns = now;

    // Check the reply while the next request is being served.
    const serve::wire::WireAnswer* answers = nullptr;
    std::size_t n = 0;
    if (wl.batch == 0 && reply.type == serve::wire::MsgType::LookupReply) {
      answers = &reply.answer;
      n = 1;
    } else if (wl.batch != 0 &&
               reply.type == serve::wire::MsgType::BatchReply) {
      answers = reply.batch.data();
      n = reply.batch.size();
    }
    if (n != per_frame) {
      res.addrs_failed += per_frame;  // error, OVERLOADED or short reply
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const serve::wire::WireAnswer& a = answers[i];
      // A miss names no version; the prefix set is the same in every one.
      const std::uint32_t v = a.found ? a.dataset_version : snap_version;
      if (!snap || v != snap_version) {
        snap = a.found ? env.registry.get(v) : env.registry.newest();
        snap_version = snap ? snap->dataset_version() : 0;
      }
      if (!snap || !same_answer(a, snap->find(addrs[f.first + i]))) {
        ++res.addrs_failed;
      }
    }
  }
  // Whatever is still in flight got no answer in time.
  res.addrs_failed += in_flight.size() * per_frame;
  res.cpu_ns = thread_cpu_ns() - cpu0;
}

/// Addresses per second over a connection's reply groups, leaving out the
/// kTrimShare of groups that took longest.
double trimmed_rate(std::vector<std::uint64_t> group_ns, double group_addrs) {
  if (group_ns.empty()) return 0.0;
  std::sort(group_ns.begin(), group_ns.end());
  const auto kept = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(group_ns.size()) *
                                  (1.0 - kTrimShare)));
  double ns = 0.0;
  for (std::size_t i = 0; i < kept; ++i) {
    ns += static_cast<double>(group_ns[i]);
  }
  return ns > 0.0 ? static_cast<double>(kept) * group_addrs * 1e9 / ns : 0.0;
}

struct WindowResult {
  double seconds = 0.0;  ///< start -> deadline
  std::uint64_t addrs_requested = 0;
  std::uint64_t addrs_failed = 0;
  std::uint64_t addrs = 0;   ///< answered in the window
  std::uint64_t frames = 0;  ///< answered in the window
  std::vector<double> latency_ms;  ///< per frame, all connections
  double trimmed_qps = 0.0;  ///< summed over connections (kTrimShare)
  std::uint64_t process_cpu_ns = 0;
  std::uint64_t server_cpu_ns = 0;  ///< process minus clients and publisher
  serve::ServerStats server0, server1;
  serve::ServiceStats service0, service1;
  std::vector<PublishTimes> publishes;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// One load window of `seconds`, with the publisher beside it when the
/// workload republishes.
WindowResult run_window(ServeEnv& env, double seconds, bool traced,
                        Report& report) {
  const Workload& wl = env.workload;
  WindowResult w;
  std::vector<ClientResult> results(static_cast<std::size_t>(wl.conns));
  // Clients connect during a 50 ms lead-in; the window opens after it.
  const std::uint64_t start_ns = now_ns() + 50'000'000;
  const auto window_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t deadline_ns = start_ns + window_ns;
  Tracer::instance().set_enabled(traced);
  std::vector<std::thread> clients;
  for (int c = 0; c < wl.conns; ++c) {
    clients.emplace_back([&, c] {
      client_loop(env, c, start_ns, deadline_ns, traced,
                  results[static_cast<std::size_t>(c)]);
    });
  }
  std::uint64_t publisher_cpu_ns = 0;
  std::thread publisher;
  if (wl.republish) {
    publisher = std::thread([&] {
      sleep_until_ns(start_ns);
      const std::uint64_t cpu0 = thread_cpu_ns();
      std::vector<publish::Record> fresh;
      double last_s = 0.0;
      while (static_cast<double>(now_ns()) + last_s * 1e9 <
             static_cast<double>(deadline_ns)) {
        shift_records(env.records, env.next_version, fresh);
        const PublishTimes t =
            publish_version(fresh, env.next_version++, env.snapshot_path,
                            env.service, env.registry, report);
        w.publishes.push_back(t);
        last_s = t.total_s;
        std::this_thread::sleep_for(kRepublishPause);
      }
      publisher_cpu_ns = thread_cpu_ns() - cpu0;
    });
  }
  sleep_until_ns(start_ns);
  w.server0 = env.server.stats();
  w.service0 = env.service.stats();
  const std::uint64_t cpu0 = process_cpu_ns();
  w.begin_ns = start_ns;
  for (auto& t : clients) t.join();
  if (publisher.joinable()) publisher.join();
  w.process_cpu_ns = process_cpu_ns() - cpu0;
  w.server1 = env.server.stats();
  w.service1 = env.service.stats();
  Tracer::instance().set_enabled(false);

  w.seconds = static_cast<double>(window_ns) / 1e9;
  std::uint64_t client_cpu = 0;
  w.end_ns = start_ns;
  const double group_addrs = static_cast<double>(
      kGroupWindows * static_cast<std::size_t>(wl.window) *
      (wl.batch == 0 ? 1 : wl.batch));
  for (ClientResult& r : results) {
    w.trimmed_qps += trimmed_rate(r.group_ns, group_addrs);
    w.addrs_requested += r.addrs_requested;
    w.addrs_failed += r.addrs_failed;
    w.addrs += r.addrs_in_window;
    w.frames += r.frames_in_window;
    w.latency_ms.insert(w.latency_ms.end(), r.latency_ms.begin(),
                        r.latency_ms.end());
    client_cpu += r.cpu_ns;
    w.end_ns = std::max(w.end_ns, r.last_reply_ns);
  }
  const std::uint64_t others = client_cpu + publisher_cpu_ns;
  w.server_cpu_ns = w.process_cpu_ns > others ? w.process_cpu_ns - others : 0;
  return w;
}

double percentile_ms(const WindowResult& w, double p) {
  return w.latency_ms.empty() ? 0.0 : util::percentile(w.latency_ms, p);
}

// -- in-process layer timings ---------------------------------------------------

struct InprocTotals {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// The serving layers called directly on the run's own address stream, in
/// ops of kOpAddrs addresses shaped like the workload's frames: parse the
/// request frames, LPM over Snapshot::index(), GeoService lookups, encode
/// the replies. Each step is a span under one inproc.op span.
InprocTotals run_inproc(const ServeEnv& env) {
  const Workload& wl = env.workload;
  const std::size_t per_frame = wl.batch == 0 ? 1 : wl.batch;
  const std::size_t frames_per_op = kOpAddrs / per_frame;
  const auto snap = env.service.current();
  const std::size_t n_ops =
      std::min(kInprocOps, env.addresses.size() / kOpAddrs);

  // Request frames as a client sends them, encoded before timing starts.
  std::vector<std::vector<std::byte>> frames;
  frames.reserve(n_ops * frames_per_op);
  for (std::size_t op = 0; op < n_ops; ++op) {
    for (std::size_t f = 0; f < frames_per_op; ++f) {
      const std::size_t first = op * kOpAddrs + f * per_frame;
      const auto id = static_cast<std::uint32_t>(op * frames_per_op + f);
      frames.push_back(
          wl.batch == 0
              ? serve::wire::encode_lookup_request(id, env.addresses[first],
                                                   0.0)
              : serve::wire::encode_batch_request(
                    id,
                    std::span<const net::IPv4Address>(&env.addresses[first],
                                                      per_frame),
                    0.0));
    }
  }

  std::vector<const net::FlatLpm<std::uint32_t>::Slot*> slots(kOpAddrs);
  std::vector<serve::Answer> answers(kOpAddrs);
  std::vector<std::byte> out;
  out.reserve(1 << 16);
  serve::wire::Request req;
  std::uint64_t sink = 0;
  InprocTotals t;
  Tracer::instance().set_enabled(true);
  t.begin_ns = now_ns();
  for (std::size_t op = 0; op < n_ops; ++op) {
    const std::span<const net::IPv4Address> addrs(
        &env.addresses[op * kOpAddrs], kOpAddrs);
    const ScopedSpan top("inproc.op", 0, op, Busy::Wall, kOpAddrs);
    {
      const ScopedSpan s("wire.parse_request", top.id(), op, Busy::Wall,
                         frames_per_op);
      for (std::size_t f = 0; f < frames_per_op; ++f) {
        const auto& fr = frames[op * frames_per_op + f];
        serve::wire::parse_request(
            std::span<const std::byte>(fr).subspan(
                serve::wire::kFramePrefixBytes),
            env.server.config().max_batch, &req);
        sink += req.request_id;
      }
    }
    {
      const ScopedSpan s("net.lpm", top.id(), op, Busy::Wall, kOpAddrs);
      snap->index().lookup_batch(addrs, slots);
      sink += slots[op % kOpAddrs] != nullptr;
    }
    {
      const ScopedSpan s("serve.lookup", top.id(), op, Busy::Wall, kOpAddrs);
      if (wl.batch == 0) {
        for (std::size_t i = 0; i < kOpAddrs; ++i) {
          answers[i] = env.service.lookup(addrs[i], 0.0);
        }
      } else {
        env.service.lookup_batch(addrs, 0.0, answers);
      }
    }
    {
      const ScopedSpan s("wire.encode_reply", top.id(), op, Busy::Wall,
                         kOpAddrs);
      out.clear();
      if (wl.batch == 0) {
        for (std::size_t i = 0; i < kOpAddrs; ++i) {
          serve::wire::encode_lookup_reply(
              out, static_cast<std::uint32_t>(i), answers[i]);
        }
      } else {
        for (std::size_t f = 0; f < frames_per_op; ++f) {
          serve::wire::encode_batch_reply(
              out, static_cast<std::uint32_t>(f),
              std::span<const serve::Answer>(&answers[f * per_frame],
                                             per_frame));
        }
      }
      sink += out.size();
    }
  }
  t.end_ns = now_ns();
  Tracer::instance().set_enabled(false);
  if (sink == 0) std::printf("(in-process sink %llu)\n",
                             static_cast<unsigned long long>(sink));
  return t;
}

}  // namespace

// -- VersionRegistry ------------------------------------------------------------

void VersionRegistry::add(std::shared_ptr<const publish::Snapshot> snap) {
  const std::lock_guard lock(mu_);
  snaps_[snap->dataset_version()] = std::move(snap);
  while (snaps_.size() > kKeptVersions) snaps_.erase(snaps_.begin());
}

std::shared_ptr<const publish::Snapshot> VersionRegistry::get(
    std::uint32_t version) const {
  const std::lock_guard lock(mu_);
  const auto it = snaps_.find(version);
  return it == snaps_.end() ? nullptr : it->second;
}

std::shared_ptr<const publish::Snapshot> VersionRegistry::newest() const {
  const std::lock_guard lock(mu_);
  return snaps_.empty() ? nullptr : snaps_.rbegin()->second;
}

// -- publish ------------------------------------------------------------------------

PublishTimes publish_version(const std::vector<publish::Record>& records,
                             std::uint32_t version, const std::string& path,
                             serve::GeoService& service,
                             VersionRegistry& registry, Report& report) {
  PublishTimes t;
  const std::uint64_t allocs0 = util::procstat::alloc_count();
  const ScopedSpan top("publish.version", 0, version, Busy::Wall,
                       records.size());
  const std::uint64_t t0 = now_ns();
  std::vector<std::byte> bytes;
  {
    const ScopedSpan s("publish.build", top.id(), version, Busy::Wall,
                       records.size());
    publish::SnapshotBuilder builder;
    builder.add(records);
    bytes = builder.build(publish::SnapshotMeta{
        .dataset_version = version, .source = "pipebench"});
  }
  const std::uint64_t t1 = now_ns();
  // Header fields the loaded snapshot must reproduce (snapshot.h layout).
  const std::uint64_t built_entries = load_u64(bytes, 16);
  const std::uint32_t built_crc = load_u32(bytes, 48);
  t.bytes = bytes.size();
  std::string error;
  bool ok = false;
  {
    const ScopedSpan s("publish.write", top.id(), version, Busy::Wall,
                       bytes.size());
    ok = util::durable::atomic_write_file(path, std::move(bytes), &error);
  }
  const std::uint64_t t2 = now_ns();
  std::shared_ptr<const publish::Snapshot> snap;
  if (ok) {
    const ScopedSpan s("publish.load", top.id(), version, Busy::Wall,
                       built_entries);
    snap = publish::Snapshot::load(path, &error);
  }
  const std::uint64_t t3 = now_ns();
  const auto previous = service.current();
  if (snap) {
    registry.add(snap);
    const ScopedSpan s("serve.swap", top.id(), version, Busy::Wall, 1);
    service.publish(snap);
  }
  const std::uint64_t t4 = now_ns();
  t.allocs = util::procstat::alloc_count() - allocs0;
  t.build_ms = ms_between(t0, t1);
  t.write_ms = ms_between(t1, t2);
  t.load_ms = ms_between(t2, t3);
  t.swap_ms = ms_between(t3, t4);
  t.total_s = static_cast<double>(t4 - t0) / 1e9;
  t.entries = built_entries;
  t.ok = report.check(snap != nullptr, "publish: snapshot written and loaded" +
                                           (error.empty() ? "" : ": " + error)) &&
         report.check(snap->payload_crc() == built_crc &&
                          snap->size() == built_entries &&
                          snap->dataset_version() == version,
                      "publish: loaded CRC, entry count and version equal "
                      "the builder's") &&
         report.check(!previous || previous->dataset_version() < version,
                      "publish: dataset_version strictly increases");
  return t;
}

// -- serve stage ------------------------------------------------------------------

ServeCpu run_serve_stage(ServeEnv& env, double seconds, bool trace,
                         std::vector<PublishTimes>& publishes,
                         Report& report) {
  const WindowResult w =
      run_window(env, trace ? seconds / 2 : seconds, false, report);
  report.attempt(w.addrs_requested, w.addrs_failed);
  report.check(w.server1.malformed == w.server0.malformed,
               "serve: no request was malformed");
  report.check(w.addrs_failed == 0,
               "serve: every request answered, and every answer equals "
               "Snapshot::find on the version it names");
  publishes.insert(publishes.end(), w.publishes.begin(), w.publishes.end());
  const double qps = static_cast<double>(w.addrs) / w.seconds;

  if (!trace) {
    report.check(w.trimmed_qps > 0.0, "serve: replies in the window");
    report.metric("lookup_qps", w.trimmed_qps, "addr/s");
    report.metric("lookup_p50_ms", percentile_ms(w, 50.0), "ms");
    std::printf("serve: %llu frames (latency samples), %llu addresses in "
                "%.3f s (%.0f addr/s over the window, %.0f trimmed); %zu "
                "publish(es) under load\n",
                static_cast<unsigned long long>(w.frames),
                static_cast<unsigned long long>(w.addrs), w.seconds, qps,
                w.trimmed_qps, w.publishes.size());
    return {};
  }

  // p99 follows the host's scheduling more than the server (README.md),
  // so it is reported here, ungated, from the untraced window.
  report.metric("lookup_p99_ms", percentile_ms(w, 99.0), "ms");

  // Counter deltas over the untraced window.
  const double addrs = static_cast<double>(std::max<std::uint64_t>(w.addrs, 1));
  const auto& s0 = w.server0;
  const auto& s1 = w.server1;
  report.metric("serve.frames", static_cast<double>(s1.frames - s0.frames),
                "count");
  report.metric("serve.addresses",
                static_cast<double>(w.service1.lookups - w.service0.lookups),
                "count");
  report.metric("serve.bytes_out_per_addr",
                static_cast<double>(s1.bytes_out - s0.bytes_out) /
                    static_cast<double>(std::max<std::uint64_t>(
                        w.service1.lookups - w.service0.lookups, 1)),
                "B");
  report.metric("serve.shed_requests",
                static_cast<double>(s1.shed_requests - s0.shed_requests),
                "count");
  report.metric("serve.malformed",
                static_cast<double>(s1.malformed - s0.malformed), "count");
  const auto lookups = w.service1.lookups - w.service0.lookups;
  report.metric("serve.hit_ratio",
                static_cast<double>(w.service1.hits - w.service0.hits) /
                    static_cast<double>(std::max<std::uint64_t>(lookups, 1)),
                "ratio");
  report.metric("serve.swaps",
                static_cast<double>(w.service1.swaps - w.service0.swaps),
                "count");
  report.metric("process.cpu_ms_per_1k_addr",
                static_cast<double>(w.process_cpu_ns) / 1e6 / (addrs / 1e3),
                "ms");

  // The traced window: per-frame spans on the clients, publish spans on
  // the publisher.
  const WindowResult tw = run_window(env, seconds / 2, true, report);
  report.attempt(tw.addrs_requested, tw.addrs_failed);
  report.check(tw.addrs_failed == 0,
               "serve (traced): every request answered correctly");
  publishes.insert(publishes.end(), tw.publishes.begin(),
                   tw.publishes.end());
  report.traced(tw.begin_ns, tw.end_ns,
                static_cast<double>(tw.addrs) / std::max(qps, 1.0) +
                    static_cast<double>(tw.end_ns - tw.begin_ns) / 1e9 -
                    tw.seconds);

  const InprocTotals ip = run_inproc(env);
  report.traced(ip.begin_ns, ip.end_ns, -1.0);

  return ServeCpu{static_cast<double>(w.server_cpu_ns),
                  static_cast<double>(w.frames), static_cast<double>(w.addrs)};
}

}  // namespace pipebench
