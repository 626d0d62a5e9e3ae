// End-to-end backend benchmark -> BENCH_backends.json. Runs the same
// 8-meeting x 5-peer, 10-sim-second scenario on all three conference
// backends and reports simulated seconds per wall second for each — the
// repo's headline "how fast does the whole simulator go" number — plus a
// southbound command microloop (create/program/tear down meetings through
// a zero-latency ControlChannel) for the control-plane write path. Each
// metric is the median of three timed passes.
#include <cstdio>

#include "bench_common.hpp"
#include "core/control_channel.hpp"
#include "harness/runner.hpp"
#include "perf_report.hpp"

namespace {

using namespace scallop;

// Simulated seconds per wall second for one backend.
double BackendRate(const testbed::BackendChoice& choice, int meetings,
                   int peers, double duration_s, bool* ok) {
  harness::ScenarioSpec spec = harness::ScenarioSpec::Uniform(
      "perf-backends", meetings, peers, duration_s);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.sample_interval_s = 1.0;
  spec.backend = choice;
  harness::ScenarioRunner runner(spec);
  scallop::bench::WallTimer timer;
  const harness::ScenarioMetrics& m = runner.Run();
  double wall = timer.Seconds();
  if (m.counters.switch_packets_in == 0 || m.WorstDeliveryFloor() < 10) {
    std::printf("FAIL: backend %s delivered no media\n",
                choice.Label().c_str());
    *ok = false;
  }
  return duration_s / wall;
}

// Southbound command throughput: program and tear down `meetings`
// two-party meetings through an inline (zero-latency) channel.
double SouthboundRate(int meetings, uint64_t* commands) {
  sim::Scheduler sched;
  sim::Network net(sched, 7);
  switchsim::Switch sw(sched, net, {.address = net::Ipv4(100, 64, 0, 1)});
  net.Attach(sw.address(), &sw, {}, {});
  core::DataPlaneProgram dp(sw, {});
  core::SwitchAgent agent(sched, dp, {.sfu_ip = sw.address()});
  core::ControlChannel chan(sched, agent, {});

  net::Endpoint a{net::Ipv4(10, 0, 0, 1), 40'000};
  net::Endpoint b{net::Ipv4(10, 0, 0, 2), 41'000};
  scallop::bench::WallTimer timer;
  for (int m = 1; m <= meetings; ++m) {
    core::MeetingId id = m;
    core::ParticipantId p1 = 2 * m, p2 = 2 * m + 1;
    chan.CreateMeeting(id);
    chan.AddParticipant(id, p1, a, 0x1000u + m, 0x2000u + m, true, true);
    chan.AddParticipant(id, p2, b, 0x3000u + m, 0x4000u + m, true, true);
    chan.AddRecvLeg(id, p1, p2, a);
    chan.AddRecvLeg(id, p2, p1, b);
    chan.ForceDecodeTarget(id, p1, p2, 1);
    chan.RemoveMeeting(id);
    sched.RunAll();
  }
  double secs = timer.Seconds();
  *commands = chan.stats().commands_sent;
  return static_cast<double>(chan.stats().commands_sent) / secs;
}

}  // namespace

int main() {
  bench::Header("Perf: backend sim-s/wall-s + southbound commands");

  const bool full = bench::FullScale();
  const int meetings = 8;
  const int peers = 5;
  const double duration_s = full ? 30.0 : 10.0;
  const int passes = 3;

  bool ok = true;
  auto median_rate = [&](const testbed::BackendChoice& choice) {
    return bench::MedianOfPasses(passes, [&] {
      return BackendRate(choice, meetings, peers, duration_s, &ok);
    });
  };
  double scallop_rate = median_rate(testbed::BackendChoice::Scallop());
  double fleet_rate = median_rate(testbed::BackendChoice::Fleet(4));
  double software_rate = median_rate(testbed::BackendChoice::Software());
  if (!ok) return 1;

  uint64_t commands = 0;
  double southbound = bench::MedianOfPasses(passes, [&] {
    return SouthboundRate(full ? 12'000 : 6'000, &commands);
  });

  std::printf(
      "scallop: %.3g sim-s/wall-s   fleet{4}: %.3g   software: %.3g   "
      "southbound: %.3g cmd/s (%llu commands)\n",
      scallop_rate, fleet_rate, software_rate, southbound,
      static_cast<unsigned long long>(commands));

  scallop::bench::PerfReport report("backends");
  report.AddMetric("sim_s_per_wall_s_scallop", scallop_rate, "sim-s/wall-s");
  report.AddMetric("sim_s_per_wall_s_fleet", fleet_rate, "sim-s/wall-s");
  report.AddMetric("sim_s_per_wall_s_software", software_rate,
                   "sim-s/wall-s");
  report.AddMetric("southbound_commands_per_sec", southbound, "commands/s");
  report.AddParam("meetings", meetings);
  report.AddParam("peers_per_meeting", peers);
  report.AddParam("duration_s", duration_s);
  report.AddParam("fleet_switches", 4);
  report.WriteJson();
  return 0;
}
