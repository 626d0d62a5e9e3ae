// Figures 20, 21 and 22: campus concurrency over two weeks and the bytes a
// software SFU would process vs Scallop's switch agent.
// Paper shape: diurnal weekday peaks (~300 meetings, ~500 participants);
// software SFU peaks ~1250 Mb/s, switch agent peaks ~4.4 Mb/s.
// The analytic curves are complemented by a simulated campus snapshot: a
// ScenarioSpec whose meeting-size mix is drawn from the campus model and
// executed through the real switch stack by the ScenarioRunner, measuring
// the same control/data-plane byte split from live packets.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "harness/runner.hpp"
#include "trace/campus.hpp"

namespace {

// Builds a scaled snapshot of the campus load: meeting sizes drawn from
// the model's distribution, diurnal churn compressed into a short run.
scallop::harness::ScenarioSpec CampusSnapshot(
    const scallop::trace::CampusModel& model, int max_meetings,
    int max_peers, double duration_s) {
  using scallop::harness::ScenarioSpec;
  ScenarioSpec spec;
  spec.name = "campus-snapshot";
  spec.duration_s = duration_s;
  spec.sample_interval_s = duration_s;  // one closing sample
  spec.base.peer.encoder.start_bitrate_bps = 500'000;

  int peers = 0;
  for (const auto& rec : model.meetings()) {
    if (static_cast<int>(spec.meetings.size()) >= max_meetings) break;
    int size = std::max(2, rec.participants);
    if (peers + size > max_peers) continue;
    scallop::harness::MeetingSpec meeting;
    meeting.participants.resize(static_cast<size_t>(size));
    // Compressed diurnal churn: staggered arrivals, and in larger
    // meetings the last participant leaves mid-run and returns.
    for (size_t p = 0; p < meeting.participants.size(); ++p) {
      meeting.participants[p].join_at_s = 0.5 * static_cast<double>(p);
    }
    if (size > 2) {
      meeting.participants.back().leave_at_s = duration_s * 0.5;
      meeting.participants.back().rejoin_at_s = duration_s * 0.7;
    }
    peers += size;
    spec.meetings.push_back(std::move(meeting));
  }
  return spec;
}

}  // namespace

int main() {
  using namespace scallop;
  trace::CampusModel model;

  bench::Header("Figures 20+21: concurrent meetings / participants (6 h bins)");
  auto meetings = model.ConcurrentMeetings(6.0);
  auto participants = model.ConcurrentParticipants(6.0);
  std::printf("%8s %10s %14s\n", "day", "meetings", "participants");
  for (size_t i = 0; i < meetings.size(); ++i) {
    std::printf("%8.2f %10d %14d\n", meetings[i].first / 24.0,
                meetings[i].second, participants[i].second);
  }
  int peak_m = 0, peak_p = 0;
  for (auto& [t, v] : model.ConcurrentMeetings(0.25)) peak_m = std::max(peak_m, v);
  for (auto& [t, v] : model.ConcurrentParticipants(0.25)) peak_p = std::max(peak_p, v);
  std::printf("\nPeaks: %d concurrent meetings (paper ~300), %d concurrent "
              "participants (paper ~500)\n",
              peak_m, peak_p);

  bench::Header("Figure 22: bytes processed, software SFU vs switch agent");
  std::printf("%8s %16s %16s\n", "day", "software [Mb/s]", "agent [Mb/s]");
  double peak_sw = 0, peak_agent = 0;
  for (const auto& p : model.ByteRates(0.25)) {
    peak_sw = std::max(peak_sw, p.software_bps / 1e6);
    peak_agent = std::max(peak_agent, p.agent_bps / 1e6);
  }
  for (const auto& p : model.ByteRates(6.0)) {
    if (p.hour > 7 * 24) break;  // one week, as in the paper's figure
    std::printf("%8.2f %16.1f %16.3f\n", p.hour / 24.0, p.software_bps / 1e6,
                p.agent_bps / 1e6);
  }
  std::printf("\nPeaks: software %.0f Mb/s (paper ~1250), agent %.1f Mb/s "
              "(paper ~4.4)\n",
              peak_sw, peak_agent);
  std::printf("A 40 Gb/s server would spend %.1f%% of its capacity on the "
              "software SFU at peak vs %.3f%% with Scallop (paper: 3.1%% vs "
              "0.01%%)\n",
              100.0 * peak_sw / 40'000.0, 100.0 * peak_agent / 40'000.0);

  bench::Header("Fig. 22 cross-check: simulated campus snapshot (live stack)");
  bool full = bench::FullScale();
  trace::CampusConfig snap_cfg;
  snap_cfg.total_meetings = full ? 60 : 12;
  snap_cfg.max_participants = full ? 12 : 6;
  trace::CampusModel snapshot_model(snap_cfg);
  harness::ScenarioSpec spec =
      CampusSnapshot(snapshot_model, full ? 40 : 10, full ? 120 : 30,
                     full ? 60.0 : 20.0);
  std::printf("Driving %zu meetings / %d participants through one switch "
              "for %.0f s...\n",
              spec.meetings.size(), spec.TotalParticipants(), spec.duration_s);
  harness::ScenarioRunner runner(spec);
  const harness::ScenarioMetrics& m = runner.Run();
  std::printf("%s", m.Summary().c_str());
  double cpu_share = m.counters.switch_packets_in == 0
                         ? 0.0
                         : 100.0 * static_cast<double>(m.counters.agent_cpu_packets) /
                               static_cast<double>(m.counters.switch_packets_in);
  std::printf("Agent CPU saw %lu of %lu switch packets (%.2f%%): the "
              "control plane stays tiny while the data plane replicates "
              "%lu packets.\n",
              static_cast<unsigned long>(m.counters.agent_cpu_packets),
              static_cast<unsigned long>(m.counters.switch_packets_in), cpu_share,
              static_cast<unsigned long>(m.counters.switch_replicas));
  return 0;
}
