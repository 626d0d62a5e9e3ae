// Fleet-scale frontier bench -> BENCH_fleet_scale.json. ROADMAP's target
// is "fleet{16}, 1k+ peers"; today's benches stopped at fleet{4} and ~40
// peers. This leg runs a fleet{12} with 216 peers (36 meetings x 6) for a
// few simulated seconds and records sim-s/wall-s (the median of three
// passes), turning the scale frontier into a tracked number. CI runs it on
// every push, so it must finish in single-digit wall seconds.
#include <cstdio>

#include "bench_common.hpp"
#include "harness/runner.hpp"
#include "perf_report.hpp"

int main() {
  using namespace scallop;
  bench::Header("Perf: fleet{12} scale frontier");

  const bool full = bench::FullScale();
  const int switches = 12;
  const int meetings = 36;
  const int peers = 6;
  const double duration_s = full ? 10.0 : 3.0;
  const int passes = 3;

  harness::ScenarioSpec spec = harness::ScenarioSpec::Uniform(
      "perf-fleet-scale", meetings, peers, duration_s);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.sample_interval_s = 1.0;
  spec.WithBackend(testbed::BackendChoice::Fleet(switches));

  bool ok = true;
  const double rate = bench::MedianOfPasses(passes, [&] {
    harness::ScenarioRunner runner(spec);
    bench::WallTimer timer;
    const harness::ScenarioMetrics& m = runner.Run();
    const double wall = timer.Seconds();
    if (m.counters.switch_packets_in == 0 || m.WorstDeliveryFloor() < 10) {
      ok = false;
    }
    return duration_s / wall;
  });
  if (!ok) {
    std::printf("FAIL: fleet{%d} scale run delivered no media\n", switches);
    return 1;
  }

  const double wall = duration_s / rate;
  std::printf("fleet{%d}, %d peers: %.2f sim-s in %.2f wall-s = %.3g "
              "sim-s/wall-s\n",
              switches, meetings * peers, duration_s, wall, rate);

  bench::PerfReport report("fleet_scale");
  report.AddMetric("sim_s_per_wall_s", rate, "sim-s/wall-s");
  report.AddMetric("wall_s", wall, "s", /*higher_is_better=*/false);
  report.AddParam("switches", switches);
  report.AddParam("meetings", meetings);
  report.AddParam("peers_per_meeting", peers);
  report.AddParam("duration_s", duration_s);
  report.WriteJson();
  return 0;
}
