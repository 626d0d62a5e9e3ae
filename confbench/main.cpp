// Conference benchmark driver: runs one workload from outside the
// program's public API and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set (a measured run per scenario instance,
// untraced); with --trace 1 they are the per-layer set, from a traced run
// of instance 0 next to an untraced one.
//
//   confbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Every run is checked: each measured or traced run must reproduce the
// ToCsv() digest of a plain ScenarioRunner::Run() of the same spec, a
// repeated instance must reproduce its first pass exactly, and the traced
// run's modeled metrics must equal the untraced run's. A run that fails a
// check or delivers no media prints "correct": false and exits 1.
//
// Each simulation runs in its own forked child, one at a time, each on
// one thread: a second run in the same process inherits the first one's
// heap and packet freelist and measured 5-30% slower per pass, so a fresh
// process per run is what makes runs comparable. The parent only
// orchestrates and pools the children's fixed-size results.
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/fingerprint.hpp"
#include "harness/runner.hpp"
#include "layers.hpp"
#include "observe.hpp"
#include "workloads.hpp"

namespace confbench {
namespace {

namespace sh = scallop::harness;
namespace su = scallop::util;

// Scheduler step of every measured and traced run; the leg tracker polls
// after each step.
constexpr su::DurationUs kStep = su::Millis(20);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out = ".bench_build/confbench-out";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      // Scenario seeds are 16 * seed + instance.
      if (*end != '\0' || a.seed > (UINT64_MAX >> 5)) return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1" ? 1 : 0;
    } else if (key == "--out") {
      a.out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Counters read at the window's edges.
struct Counters {
  uint64_t access_sent = 0;
  uint64_t access_lost = 0;  // random loss plus queue overflow
  scallop::testbed::BackendCounters backend;
  scallop::testbed::ControlPlaneCounters control;
  uint64_t eastwest_sent = 0;
};

Counters Snapshot(sh::ScenarioRunner& runner) {
  Counters c;
  auto& backend = runner.backend();
  auto& net = backend.network();
  for (const auto& peer : backend.peers()) {
    for (scallop::sim::Link* link :
         {net.uplink(peer->address()), net.downlink(peer->address())}) {
      if (link == nullptr) continue;
      const scallop::sim::LinkStats& st = link->stats();
      c.access_sent += st.sent_packets;
      c.access_lost += st.lost_packets + st.dropped_packets;
    }
  }
  c.backend = backend.counters();
  c.control = backend.control_counters();
  c.eastwest_sent = backend.federation_counters().messages_sent;
  return c;
}

struct InstanceRun {
  double setup_s = 0.0;
  double window_wall_s = 0.0;
  double window_sim_s = 0.0;
  uint64_t events = 0;
  Modeled modeled;
  uint64_t digest = 0;
  Counters at_window;
  Counters at_end;
  uint64_t frames_total = 0;  // whole run, including retired legs
  uint64_t backbone_relay_bytes = 0;
  uint64_t relay_replans = 0;

  double rate() const { return window_sim_s / window_wall_s; }
};

uint64_t TimelineFrames(const sh::ScenarioMetrics& m, double t_s) {
  for (const sh::TimelineSample& s : m.timeline) {
    if (std::fabs(s.t_s - t_s) < 1e-6) return s.frames_decoded_total;
  }
  throw std::logic_error("no timeline sample at " + std::to_string(t_s) + " s");
}

// Runs `fn` in a forked child and returns its result, copied back through
// a shared anonymous mapping. Throws if the child fails.
template <typename Fn>
auto InChild(Fn fn) -> decltype(fn()) {
  using Result = decltype(fn());
  static_assert(std::is_trivially_copyable_v<Result>);
  void* shared = mmap(nullptr, sizeof(Result), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (shared == MAP_FAILED) throw std::runtime_error("mmap failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    munmap(shared, sizeof(Result));
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    int code = 1;
    try {
      const Result r = fn();
      std::memcpy(shared, &r, sizeof(Result));
      code = 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "confbench: %s\n", e.what());
    }
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(code);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) break;
  }
  Result r;
  std::memcpy(&r, shared, sizeof(Result));
  munmap(shared, sizeof(Result));
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a simulation child process failed");
  }
  return r;
}

uint64_t PlainDigest(const Workload& w, uint64_t scenario_seed) {
  sh::ScenarioRunner runner(w.build(scenario_seed, w.duration_s));
  return sh::ScenarioFingerprint::Of(runner.Run());
}

// One stepped, tapped run of one scenario instance. When `traced` is
// given, the switches are wrapped before the first step; the wrappers
// outlive the runner so nothing can call into a destroyed one.
InstanceRun RunInstance(const Workload& w, uint64_t scenario_seed,
                        std::unique_ptr<TracedLayers>* traced) {
  InstanceRun run;
  const int64_t t_start = NowNs();
  sh::ScenarioSpec spec = w.build(scenario_seed, w.duration_s);
  LatencyTap tap(w.window_start_s);
  spec.base.peer.media_tap = tap.Fn();
  sh::ScenarioRunner runner(spec);
  LegTracker legs(runner, w.window_start_s);
  TracedLayers* layers = nullptr;
  if (traced != nullptr) {
    *traced = std::make_unique<TracedLayers>(runner);
    layers = traced->get();
  }

  auto& sched = runner.backend().sched();
  const su::TimeUs window_start = su::Seconds(w.window_start_s);
  const su::TimeUs end = su::Seconds(w.duration_s);
  su::TimeUs t = 0;
  while (t < window_start) {
    t = std::min(t + kStep, window_start);
    sched.RunUntil(t);
    legs.Poll();
  }
  run.setup_s = static_cast<double>(NowNs() - t_start) / 1e9;
  run.at_window = Snapshot(runner);

  int64_t wall_ns = 0;
  if (layers != nullptr) layers->set_counting(true);
  while (t < end) {
    t = std::min(t + kStep, end);
    const int64_t t0 = NowNs();
    run.events += sched.RunUntil(t);
    const int64_t t1 = NowNs();
    wall_ns += t1 - t0;
    if (layers != nullptr) layers->Step(t0, t1);
    legs.Poll();
  }
  if (layers != nullptr) layers->set_counting(false);
  run.window_wall_s = static_cast<double>(wall_ns) / 1e9;
  run.window_sim_s = w.duration_s - w.window_start_s;
  run.at_end = Snapshot(runner);

  const sh::ScenarioMetrics& m = runner.Run();
  run.digest = sh::ScenarioFingerprint::Of(m);
  run.modeled = legs.Finish();
  run.modeled.latency_ms = tap.histogram();
  run.modeled.window_sim_s = run.window_sim_s;
  run.modeled.frames_in_window = TimelineFrames(m, w.duration_s) -
                                 TimelineFrames(m, w.window_start_s);
  run.frames_total = TimelineFrames(m, w.duration_s);
  for (const auto& link : m.topology.links) {
    run.backbone_relay_bytes += link.relay_bytes;
  }
  run.relay_replans = m.topology.relay_replans;
  return run;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// The modeled end-to-end metrics: deterministic per spec. Rates and shares
// pool the instances; each percentile is the median over instances of
// that instance's percentile, so one chaotic instance cannot carry it.
std::vector<Metric> ModeledMetrics(const std::vector<Modeled>& instances) {
  Modeled m;
  for (const Modeled& one : instances) m.Merge(one);
  const auto median_of = [&](const Histogram Modeled::*hist, double q) {
    std::vector<double> v;
    for (const Modeled& one : instances) {
      const double x = (one.*hist).Quantile(q);
      if (!std::isnan(x)) v.push_back(x);  // an instance with no samples
    }
    return Median(v);
  };
  return {
      {"media_latency_ms_p50", median_of(&Modeled::latency_ms, 0.50), "ms"},
      {"media_latency_ms_p99", median_of(&Modeled::latency_ms, 0.99), "ms"},
      {"frames_decoded_per_s",
       Ratio(static_cast<double>(m.frames_in_window), m.window_sim_s), "1/s"},
      {"unfrozen_share",
       1.0 - Ratio(m.freeze_ms_in_window, m.stream_ms_in_window), "share"},
      {"join_to_media_ms_p50", median_of(&Modeled::join_ms, 0.50), "ms"},
      {"join_to_media_ms_p90", median_of(&Modeled::join_ms, 0.90), "ms"},
      {"stream_success_share",
       1.0 - Ratio(static_cast<double>(m.legs_failed),
                   static_cast<double>(m.legs_judged)),
       "share"},
  };
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
}

bool AllFinite(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      return false;
    }
  }
  return true;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Largest resident set of any simulation child waited for so far.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t ScenarioSeed(uint64_t seed, int instance) {
  return seed * 16 + static_cast<uint64_t>(instance);
}

void PrintInstance(const char* kind, uint64_t scenario_seed,
                   const InstanceRun& r) {
  std::printf("%-8s scenario_seed=%-6" PRIu64
              " setup_s=%.4f window_wall_s=%.4f sim_s_per_wall_s=%.5f "
              "latency_p99_ms=%.2f legs=%" PRIu64 "/%" PRIu64
              " failed digest=%s\n",
              kind, scenario_seed, r.setup_s, r.window_wall_s, r.rate(),
              r.modeled.latency_ms.Quantile(0.99), r.modeled.legs_failed,
              r.modeled.legs_judged,
              sh::ScenarioFingerprint::Hex(r.digest).c_str());
}

// Untraced: every instance once (the modeled metrics pool over this
// pass), then further passes over the instances until `seconds` of
// measured wall time have elapsed; those only add timing samples.
// Throughput is the pooled window sim time over the pooled window wall
// time of every run, so each instance weighs by its length.
int RunMeasured(const Workload& w, const Args& args) {
  bool correct = true;
  const uint64_t plain =
      InChild([&] { return PlainDigest(w, ScenarioSeed(args.seed, 0)); });
  std::vector<InstanceRun> first;
  std::vector<double> setups;
  double window_sim_s = 0.0;
  double window_wall_s = 0.0;
  double measured_s = 0.0;
  for (int pass = 0;; ++pass) {
    const int i = pass % w.instances;
    if (pass >= w.instances && measured_s >= args.seconds) break;
    const uint64_t s = ScenarioSeed(args.seed, i);
    const InstanceRun r =
        InChild([&] { return RunInstance(w, s, nullptr); });
    PrintInstance("measured", s, r);
    if (pass == 0 && r.digest != plain) {
      std::fprintf(stderr, "digest mismatch: measured %s, plain Run() %s\n",
                   sh::ScenarioFingerprint::Hex(r.digest).c_str(),
                   sh::ScenarioFingerprint::Hex(plain).c_str());
      correct = false;
    }
    if (pass < w.instances) {
      first.push_back(r);
    } else if (r.digest != first[static_cast<size_t>(i)].digest ||
               !(r.modeled == first[static_cast<size_t>(i)].modeled)) {
      std::fprintf(stderr, "instance %d did not repeat its first pass\n", i);
      correct = false;
    }
    setups.push_back(r.setup_s);
    window_sim_s += r.window_sim_s;
    window_wall_s += r.window_wall_s;
    measured_s += r.setup_s + r.window_wall_s;
  }
  std::printf("plain Run() digest of instance 0: %s\n",
              sh::ScenarioFingerprint::Hex(plain).c_str());
  std::vector<Modeled> instances;
  Modeled pooled;
  for (const InstanceRun& r : first) {
    instances.push_back(r.modeled);
    pooled.Merge(r.modeled);
  }
  std::printf("%s\n", pooled.Describe().c_str());

  std::vector<Metric> metrics = {
      {"sim_s_per_wall_s", window_sim_s / window_wall_s, "sim_s/s"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  for (const Metric& m : ModeledMetrics(instances)) metrics.push_back(m);
  PrintTable("end-to-end metrics:", metrics);
  if (pooled.latency_ms.count() == 0 || pooled.frames_in_window == 0) {
    std::fprintf(stderr, "invalid run: no media delivered in the window\n");
    correct = false;
  }
  correct = AllFinite(metrics) && correct;
  PrintResult(correct, pooled.legs_judged, pooled.legs_failed, metrics);
  return correct ? 0 : 1;
}

struct TracedResult {
  InstanceRun run;
  LayerTotals totals;
  ReplayCosts replay;
};

// Traced: instance 0 untraced and traced, the control timings on a fresh
// backend, and the replays of the traced run's captured egress packets.
int RunTraced(const Workload& w, const Args& args, double canary) {
  bool correct = true;
  const uint64_t s = ScenarioSeed(args.seed, 0);
  const uint64_t plain = InChild([&] { return PlainDigest(w, s); });
  const InstanceRun u = InChild([&] { return RunInstance(w, s, nullptr); });
  PrintInstance("untraced", s, u);
  std::filesystem::create_directories(args.out);
  const std::string stem = args.out + "/" + w.name;
  const TracedResult traced = InChild([&] {
    std::unique_ptr<TracedLayers> layers;
    TracedResult r;
    r.run = RunInstance(w, s, &layers);
    r.totals = layers->totals();
    r.replay = Replay(layers->capture());
    if (!layers->WriteSpans(stem + ".spans.json") ||
        !layers->WriteCapture(stem + ".capture.txt")) {
      throw std::runtime_error("could not write spans/capture under " +
                               args.out);
    }
    return r;
  });
  const InstanceRun& t = traced.run;
  const ReplayCosts& replay = traced.replay;
  PrintInstance("traced", s, t);
  std::printf("plain Run() digest: %s\n",
              sh::ScenarioFingerprint::Hex(plain).c_str());
  if (u.digest != plain || t.digest != plain) {
    std::fprintf(stderr, "digest mismatch against the plain Run()\n");
    correct = false;
  }
  PrintTable("modeled end-to-end metrics, untraced run:",
             ModeledMetrics({u.modeled}));
  PrintTable("modeled end-to-end metrics, traced run:",
             ModeledMetrics({t.modeled}));
  if (!(u.modeled == t.modeled)) {
    std::fprintf(stderr, "traced run's modeled metrics differ\n");
    correct = false;
  }
  std::printf("%s\n", t.modeled.Describe().c_str());
  std::printf("spans and %" PRIu64 " captured packets written to %s.*\n",
              replay.packets, stem.c_str());

  const ControlTimes control =
      InChild([&] { return TimeControl(w.build(s, w.duration_s)); });

  const LayerTotals& lt = traced.totals;
  const double window = u.window_sim_s;
  const double traced_wall_ns = t.window_wall_s * 1e9;
  const double dp_ns = static_cast<double>(lt.ingress_ns + lt.egress_ns);
  const double agent_ns = static_cast<double>(lt.cpu_ns);
  const auto delta = [](uint64_t end, uint64_t start) {
    return static_cast<double>(end - start);
  };
  const double joins = static_cast<double>(u.modeled.joins);
  const auto& ctl = u.at_end.control;
  const std::vector<Metric> metrics = {
      {"sim.events_per_sim_s", static_cast<double>(u.events) / window, "1/s"},
      {"sim.access_packets_per_sim_s",
       delta(u.at_end.access_sent, u.at_window.access_sent) / window, "1/s"},
      {"sim.wall_ns_per_event",
       Ratio(u.window_wall_s * 1e9, static_cast<double>(u.events)), "ns"},
      {"sim.link_replay_ns_per_packet", replay.link_ns, "ns"},
      {"sim.access_drop_share",
       Ratio(delta(u.at_end.access_lost, u.at_window.access_lost),
             delta(u.at_end.access_sent, u.at_window.access_sent)),
       "share"},
      {"rtp.parse_ns_per_packet", replay.rtp_parse_ns, "ns"},
      {"media.receiver_ns_per_packet", replay.media_receiver_ns, "ns"},
      {"bwe.ns_per_packet", replay.bwe_ns, "ns"},
      {"client.residual_busy_share",
       1.0 - Ratio(dp_ns + agent_ns, traced_wall_ns), "share"},
      {"client.nacks_per_s", static_cast<double>(u.modeled.nacks_sent) / window,
       "1/s"},
      {"client.nack_recovery_share",
       Ratio(static_cast<double>(u.modeled.recovered_packets),
             static_cast<double>(u.modeled.nacked_packets)),
       "share"},
      {"dataplane.ingress_per_sim_s",
       static_cast<double>(lt.ingress_calls) / window, "1/s"},
      {"dataplane.ingress_ns",
       Ratio(static_cast<double>(lt.ingress_ns),
             static_cast<double>(lt.ingress_calls)),
       "ns"},
      {"dataplane.egress_per_ingress",
       Ratio(static_cast<double>(lt.egress_calls),
             static_cast<double>(lt.ingress_calls)),
       "ratio"},
      {"dataplane.egress_ns",
       Ratio(static_cast<double>(lt.egress_ns),
             static_cast<double>(lt.egress_calls)),
       "ns"},
      {"dataplane.busy_share", Ratio(dp_ns, traced_wall_ns), "share"},
      {"dataplane.egress_pass_share",
       Ratio(static_cast<double>(lt.egress_pass),
             static_cast<double>(lt.egress_calls)),
       "share"},
      {"agent.cpu_packets_per_sim_s",
       static_cast<double>(lt.cpu_packets) / window, "1/s"},
      {"agent.ns_per_cpu_packet",
       Ratio(agent_ns, static_cast<double>(lt.cpu_packets)), "ns"},
      {"agent.busy_share", Ratio(agent_ns, traced_wall_ns), "share"},
      {"agent.remb_forward_share",
       Ratio(delta(u.at_end.backend.remb_forwarded,
                   u.at_window.backend.remb_forwarded),
             delta(u.at_end.backend.remb_forwarded,
                   u.at_window.backend.remb_forwarded) +
                 delta(u.at_end.backend.remb_filtered,
                       u.at_window.backend.remb_filtered)),
       "share"},
      {"control.join_us_p50", control.join_us_p50, "us"},
      {"control.join_us_p90", control.join_us_p90, "us"},
      {"control.leave_us_p50", control.leave_us_p50, "us"},
      {"control.leave_us_p90", control.leave_us_p90, "us"},
      {"control.commands_per_join",
       Ratio(static_cast<double>(ctl.commands_sent), joins), "count"},
      {"control.command_drop_share",
       Ratio(static_cast<double>(ctl.commands_dropped),
             static_cast<double>(ctl.commands_sent)),
       "share"},
      {"control.command_retx_share",
       Ratio(static_cast<double>(ctl.commands_retransmitted),
             static_cast<double>(ctl.commands_sent)),
       "share"},
      {"control.eastwest_per_join",
       Ratio(static_cast<double>(u.at_end.eastwest_sent), joins), "count"},
      {"control.migrations",
       static_cast<double>(u.at_end.backend.placements_rebalanced), "count"},
      {"topology.backbone_bytes_per_frame",
       Ratio(static_cast<double>(u.backbone_relay_bytes),
             static_cast<double>(u.frames_total)),
       "B"},
      {"topology.relay_replans", static_cast<double>(u.relay_replans), "count"},
      {"host.canary_events_per_us", canary, "1/us"},
      {"trace.overhead_sim_s_per_wall_s", t.rate() - u.rate(), "sim_s/s"},
  };
  PrintTable("per-layer metrics (instance 0):", metrics);
  correct = AllFinite(metrics) && correct;
  if (u.modeled.latency_ms.count() == 0 || u.modeled.frames_in_window == 0) {
    std::fprintf(stderr, "invalid run: no media delivered in the window\n");
    correct = false;
  }
  PrintResult(correct, u.modeled.legs_judged, u.modeled.legs_failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace confbench

int main(int argc, char** argv) {
  confbench::Args args;
  if (!confbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: confbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n");
    return 2;
  }
  const confbench::Workload* w = confbench::FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (have: %s)\n",
                 args.workload.c_str(), confbench::WorkloadNames().c_str());
    return 2;
  }
  try {
    std::printf("workload %s seed %" PRIu64
                " instances %d window %.1f-%.1f sim-s trace %d\n",
                w->name, args.seed, w->instances, w->window_start_s,
                w->duration_s, args.trace);
    const double canary = confbench::CanaryEventsPerUs();
    std::printf("host canary: %.4f scheduler events/us\n", canary);
    return args.trace == 1 ? confbench::RunTraced(*w, args, canary)
                           : confbench::RunMeasured(*w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "confbench: %s\n", e.what());
    return 1;
  }
}
