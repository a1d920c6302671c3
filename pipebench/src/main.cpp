// pipebench: one run of one workload of the campaign -> publish -> serve
// pipeline benchmark. Normally started through run.py, which builds it:
//
//   pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--git-sha <sha>] [--source-digest <hex>]
//
// Prints a metadata line, progress lines, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when an output check failed, 2 on bad arguments.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "pipeline.h"
#include "trace.h"
#include "util/parallel.h"
#include "util/procstat.h"
#include "util/stats.h"

namespace pipebench {
namespace {

using namespace geoloc;

// Sizes fix each workload's layer balance; README.md gives the reasons.
constexpr Workload kWorkloads[] = {
    {"campaign-cbg", 10'000, 10, 128, 0.5, 10'000, 2, 4, 256, false},
    {"campaign-tiles", 10'000, 1, 1024, 0.5, 10'000, 2, 4, 256, false},
    {"serve-single", 5'000, 2, 128, 0.5, 1'000'000, 1, 32, 0, false},
    {"serve-republish", 5'000, 2, 128, 0.35, 1'000'000, 2, 4, 256, true},
};
/// Set-ups per untraced run (setup_s is their median): at least
/// kMinSetups, more while they fit in kSetupBudgetS, at most kMaxSetups.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 25;
constexpr double kSetupBudgetS = 2.0;
/// Addresses in the load generators' stream (cycled).
constexpr std::size_t kAddressStream = std::size_t{1} << 22;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/run";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) return false;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else if (k == "--source-digest") {
      a.source_digest = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a.workload != nullptr && a.seconds > 0.0;
}

/// The run metadata every record carries.
void print_meta(const Args& a) {
  const char* env_threads = std::getenv("GEOLOC_THREADS");
  const Workload& w = *a.workload;
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"geoloc_threads\": \"%s\", "
      "\"campaign_threads\": %u, \"server_workers\": %u, "
      "\"client_threads\": %d, \"connections\": %d, \"window\": %d, "
      "\"batch\": %zu, \"publisher_threads\": %d, \"build_type\": \"%s\", "
      "\"git_sha\": \"%s\", \"source_digest\": \"%s\"}}\n",
      w.name, static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      env_threads ? env_threads : "", util::thread_count(), kServerWorkers,
      w.conns, w.conns, w.window, w.batch, w.republish ? 1 : 0,
      PIPEBENCH_BUILD_TYPE, a.git_sha.c_str(), a.source_digest.c_str());
  std::fflush(stdout);
}

/// Everything set-up builds: the world, the first published version and a
/// started server.
struct Pipeline {
  SynthWorld world;
  std::unique_ptr<serve::GeoService> service;
  std::unique_ptr<serve::Server> server;
  VersionRegistry registry;
  PublishTimes first_publish;
};

std::unique_ptr<Pipeline> set_up(const Workload& wl, std::uint64_t seed,
                                 const std::vector<publish::Record>& records,
                                 const std::string& path, Report& report) {
  auto p = std::make_unique<Pipeline>();
  p->world = build_world(seed, wl.n24, wl.per24, wl.n_vps);
  p->service = std::make_unique<serve::GeoService>();
  p->first_publish = publish_version(records, 1, path, *p->service,
                                     p->registry, report);
  serve::ServerConfig cfg;
  cfg.workers = kServerWorkers;
  p->server = std::make_unique<serve::Server>(*p->service, cfg);
  std::string error;
  report.check(p->server->start(&error), "serve: server starts: " + error);
  return p;
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : util::percentile(v, 50.0);
}

/// Per-layer metrics from the traced run's spans.
void layer_metrics(const std::vector<Span>& spans, const ServeCpu& cpu,
                   const std::vector<PublishTimes>& publishes,
                   const PublishTimes& quiet_publish, Report& report) {
  const auto by_name = totals_by_name(spans);
  for (const auto& [name, t] : by_name) {
    std::printf("span %-20s spans %8llu  work %10llu  wall %10.3f ms  "
                "self %10.3f ms  busy %10.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(t.spans),
                static_cast<unsigned long long>(t.count), t.wall_ms,
                t.self_ms, t.busy_ms);
  }
  const auto get = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? LayerTotals{} : it->second;
  };
  const auto per = [](double ms, std::uint64_t n) {
    return n == 0 ? 0.0 : ms / static_cast<double>(n);
  };

  // Campaign layers: summed busy time and share of the four layers'.
  const char* campaign_layers[] = {"scenario.tile", "core.select", "core.cbg",
                                   "scenario.cell"};
  double layer_busy = 0.0;
  for (const char* l : campaign_layers) layer_busy += get(l).busy_ms;
  for (const char* l : campaign_layers) {
    const LayerTotals t = get(l);
    report.metric(std::string(l) + ".busy_ms", t.busy_ms, "ms");
    report.metric(std::string(l) + ".busy_share",
                  layer_busy > 0.0 ? t.busy_ms / layer_busy : 0.0, "ratio");
  }

  // Publish layer, per version.
  const LayerTotals version = get("publish.version");
  report.metric("publish.build.ms", per(get("publish.build").wall_ms,
                                        version.spans), "ms");
  report.metric("publish.write.ms", per(get("publish.write").wall_ms,
                                        version.spans), "ms");
  report.metric("publish.load.ms", per(get("publish.load").wall_ms,
                                       version.spans), "ms");
  report.metric("serve.swap.ms", per(get("serve.swap").wall_ms,
                                     version.spans), "ms");
  report.metric("publish.versions", static_cast<double>(publishes.size()),
                "count");
  const auto entries = static_cast<double>(
      std::max<std::uint64_t>(quiet_publish.entries, 1));
  report.metric("publish.bytes_per_prefix",
                static_cast<double>(quiet_publish.bytes) / entries, "B");
  report.metric("publish.allocs_per_prefix",
                static_cast<double>(quiet_publish.allocs) / entries, "count");

  // Serving layers, called in-process (ns per address or frame).
  const auto ns_per = [&](const char* name) {
    const LayerTotals t = get(name);
    return t.count == 0 ? 0.0 : t.busy_ms * 1e6 / static_cast<double>(t.count);
  };
  const double lpm = ns_per("net.lpm");
  const double lookup = ns_per("serve.lookup");
  const double encode = ns_per("wire.encode_reply");
  const double parse = ns_per("wire.parse_request");
  report.metric("net.lpm.ns_per_addr", lpm, "ns");
  report.metric("serve.lookup.ns_per_addr", lookup, "ns");
  report.metric("wire.encode_reply.ns_per_addr", encode, "ns");
  report.metric("wire.parse_request.ns_per_frame", parse, "ns");
  // The server CPU that parse, lookup (LPM included) and encode do not
  // account for: socket I/O, epoll, framing and scheduling.
  const double accounted = parse * cpu.frames + (lookup + encode) * cpu.addrs;
  report.metric("serve.io_share",
                cpu.server_cpu_ns > 0.0
                    ? std::max(0.0, 1.0 - accounted / cpu.server_cpu_ns)
                    : 0.0,
                "ratio");

  // Tracing itself.
  double traced_s = 0.0;
  double untraced_s = 0.0;
  double wall_ns = 0.0;
  double covered_ns = 0.0;
  for (const auto& w : report.traced_windows()) {
    const double len = static_cast<double>(w.end_ns - w.begin_ns);
    wall_ns += len;
    covered_ns += len * top_level_coverage(spans, w.begin_ns, w.end_ns);
    if (w.untraced_s >= 0.0) {
      traced_s += len / 1e9;
      untraced_s += w.untraced_s;
    }
  }
  report.metric("trace.overhead", untraced_s > 0.0 ? traced_s / untraced_s : 0.0,
                "ratio");
  report.metric("trace.coverage", wall_ns > 0.0 ? covered_ns / wall_ns : 0.0,
                "ratio");
}

int run(const Args& a) {
  const Workload& wl = *a.workload;
  print_meta(a);
  std::filesystem::create_directories(a.workdir);
  const std::string path = a.workdir + "/" + wl.name + ".glsn";
  Report report;

  // Inputs, before any timing.
  const std::vector<publish::Record> records =
      make_records(a.seed, wl.prefixes);
  const std::vector<net::IPv4Address> addresses =
      make_addresses(a.seed, records, kAddressStream);

  // Set-up: world, first publication, server start. Repeated; the last
  // one stays up for the stages.
  std::vector<double> setup_s;
  std::vector<PublishTimes> setup_publishes;
  std::unique_ptr<Pipeline> p;
  double setup_total_s = 0.0;
  while (setup_s.empty() ||
         (!a.trace && setup_s.size() < kMaxSetups &&
          (setup_s.size() < kMinSetups || setup_total_s < kSetupBudgetS))) {
    p.reset();
    const std::uint64_t t0 = now_ns();
    p = set_up(wl, a.seed, records, path, report);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup_total_s += setup_s.back();
    setup_publishes.push_back(p->first_publish);
  }
  std::printf("setup: %zu host(s), %zu published prefixes, %zu set-up(s), "
              "%.3f s median\n", p->world.world->host_count(), records.size(),
              setup_s.size(), median(setup_s));
  std::fflush(stdout);

  run_campaign_stage(p->world, a.seconds * wl.campaign_share, a.trace, report);
  std::fflush(stdout);

  ServeEnv env{wl, *p->service, *p->server, p->registry, records,
               addresses, path, 2};
  std::vector<PublishTimes> publishes;
  const ServeCpu cpu = run_serve_stage(
      env, a.seconds * (1.0 - wl.campaign_share), a.trace, publishes, report);

  if (a.trace && !wl.republish) {
    // A quiet traced publication of two more versions.
    Tracer::instance().set_enabled(true);
    const std::uint64_t t0 = now_ns();
    std::vector<publish::Record> fresh;
    for (int i = 0; i < 2; ++i) {
      shift_records(records, env.next_version, fresh);
      publishes.push_back(publish_version(fresh, env.next_version++, path,
                                          *p->service, p->registry, report));
    }
    Tracer::instance().set_enabled(false);
    report.traced(t0, now_ns(), 2 * setup_publishes.front().total_s);
  }
  p->server->stop();

  if (!a.trace) {
    std::vector<double> publish_s;
    for (const PublishTimes& t : wl.republish ? publishes : setup_publishes) {
      publish_s.push_back(t.total_s);
    }
    report.check(!publish_s.empty(), "publish: at least one version timed");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("publish_s", median(publish_s), "s");
    report.metric("snapshot_bytes_per_prefix",
                  static_cast<double>(setup_publishes.front().bytes) /
                      static_cast<double>(std::max<std::uint64_t>(
                          setup_publishes.front().entries, 1)),
                  "B");
    report.metric("peak_rss_mb",
                  static_cast<double>(util::procstat::peak_rss_kb()) / 1024.0,
                  "MB");
  } else {
    const std::vector<Span> spans = Tracer::instance().collect();
    layer_metrics(spans, cpu, publishes, setup_publishes.front(), report);
    const std::string csv = a.workdir + "/trace-" + wl.name + ".csv";
    if (write_spans_csv(spans, csv)) {
      std::printf("spans: %zu written to %s\n", spans.size(), csv.c_str());
    }
  }
  p.reset();
  std::filesystem::remove(path);

  for (const std::string& f : report.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", report.result_json().c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is finite");
  metrics_[name] = Metric{value, unit};
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
  return ok;
}

std::string Report::result_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_ + failures_.size());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + value +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace pipebench

int main(int argc, char** argv) {
  pipebench::Args args;
  if (!pipebench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: pipebench --workload <campaign-cbg|campaign-tiles|"
                 "serve-single|serve-republish> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>] [--git-sha <sha>] "
                 "[--source-digest <hex>]\n");
    return 2;
  }
  return pipebench::run(args);
}
