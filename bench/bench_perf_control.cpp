// Control-plane benchmark -> BENCH_control.json. Two write paths: the
// southbound command microloop (create/program/tear down meetings through
// a zero-latency ControlChannel — the per-switch boundary) and the
// east-west federation plane (a fleet{6,2} scenario with cross-region
// placement and a mid-run controller death; reports controller-to-
// controller messages per wall second). Guards the federation against
// silently regressing into a bottleneck as the fleet grows. Each metric is
// the median of three timed passes.
#include <cstdio>

#include "bench_common.hpp"
#include "core/control_channel.hpp"
#include "harness/runner.hpp"
#include "perf_report.hpp"
#include "testbed/fleet_testbed.hpp"

namespace {

using namespace scallop;

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

// East-west message throughput of a federated fleet{6,2} under real
// signaling load: cross-region meetings, directory traffic, controller
// heartbeats, and a mid-run controller death + shard adoption.
double EastWestRate(double duration_s, uint64_t* messages, bool* ok) {
  harness::ScenarioSpec spec =
      harness::ScenarioSpec::Uniform("perf-federation", 6, 2, duration_s);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.sample_interval_s = 1.0;
  spec.WithBackend(testbed::BackendChoice::Fleet(6, 2));
  spec.WithControlPlane(/*latency_s=*/0.001);
  spec.WithRebalance(/*interval_s=*/2.0, /*imbalance_threshold=*/2);
  spec.WithControllerFailure(/*at_s=*/duration_s / 2.0, /*region=*/1);
  harness::ScenarioRunner runner(spec);
  scallop::bench::WallTimer timer;
  const harness::ScenarioMetrics& m = runner.Run();
  double wall = timer.Seconds();
  *messages = m.federation.messages_sent;
  if (m.federation.messages_sent == 0 || m.federation.shards_adopted != 1 ||
      m.WorstDeliveryFloor() < 10) {
    std::printf("FAIL: federation carried no east-west traffic or starved\n");
    *ok = false;
  }
  return static_cast<double>(m.federation.messages_sent) / wall;
}

}  // namespace

int main() {
  bench::Header("Perf: southbound commands + east-west federation messages");

  const bool full = bench::FullScale();
  const int passes = 3;

  bool ok = true;
  uint64_t commands = 0;
  double southbound = bench::MedianOfPasses(passes, [&] {
    return SouthboundRate(full ? 12'000 : 6'000, &commands);
  });
  uint64_t messages = 0;
  double east_west = bench::MedianOfPasses(passes, [&] {
    return EastWestRate(full ? 20.0 : 8.0, &messages, &ok);
  });
  if (!ok) return 1;

  std::printf(
      "southbound: %.3g cmd/s (%llu commands)   east-west: %.3g msg/s "
      "(%llu messages)\n",
      southbound, static_cast<unsigned long long>(commands), east_west,
      static_cast<unsigned long long>(messages));

  scallop::bench::PerfReport report("control");
  report.AddMetric("southbound_commands_per_sec", southbound, "commands/s");
  report.AddMetric("east_west_messages_per_sec", east_west, "messages/s");
  report.AddParam("southbound_meetings", full ? 12'000 : 6'000);
  report.AddParam("fleet_switches", 6);
  report.AddParam("fleet_regions", 2);
  report.WriteJson();
  return 0;
}
