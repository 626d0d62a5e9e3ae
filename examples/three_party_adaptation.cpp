// Three-party call with automatic rate adaptation: one participant's
// downlink degrades mid-call; GCC at the receiver reports lower estimates,
// the switch agent picks a lower decode target, and the data plane drops
// SVC layers + rewrites sequence numbers — the paper's headline behaviour
// (Fig. 14) as a runnable scenario.
//
// The degradation and recovery are LinkEvents in a ScenarioSpec — the
// same declarative vocabulary the tests and bench harnesses use — and
// the example steps through the schedule with RunUntil to report at the
// interesting moments.
#include <cstdio>

#include "harness/runner.hpp"

using namespace scallop;

int main() {
  harness::ScenarioSpec spec =
      harness::ScenarioSpec::Uniform("three-party-adaptation", 1, 3, 70.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.max_bitrate_bps = 800'000;
  // Carol's downlink degrades at 15 s and recovers at 40 s.
  spec.WithLinkEvent(
          {.at_s = 15.0, .meeting = 0, .participant = 2, .rate_bps = 1.45e6})
      .WithLinkEvent(
          {.at_s = 40.0, .meeting = 0, .participant = 2, .rate_bps = 20e6});

  harness::ScenarioRunner runner(spec);
  client::Peer& alice = runner.peer(0, 0);
  client::Peer& bob = runner.peer(0, 1);
  client::Peer& carol = runner.peer(0, 2);
  auto meeting = runner.meeting_id(0);

  auto report = [&](const char* label) {
    testbed::ScallopTestbed& bed = runner.scallop();
    util::TimeUs now = bed.sched().now();
    std::printf("%s\n", label);
    std::printf("  carol <- alice: %.1f fps (decode target %d)\n",
                carol.video_receiver(alice.id())->RecentFps(now, util::Seconds(3)),
                bed.agent().DecodeTargetOf(carol.id(), alice.id()));
    std::printf("  carol <- bob:   %.1f fps (decode target %d)\n",
                carol.video_receiver(bob.id())->RecentFps(now, util::Seconds(3)),
                bed.agent().DecodeTargetOf(carol.id(), bob.id()));
    std::printf("  bob   <- alice: %.1f fps (unaffected)\n",
                bob.video_receiver(alice.id())->RecentFps(now, util::Seconds(3)));
    std::printf("  alice sends at %.0f kb/s; meeting design: %s\n",
                alice.encoder()->target_bitrate() / 1000.0,
                core::TreeDesignName(
                    *bed.agent().tree_manager().CurrentDesign(meeting)));
  };

  std::printf("t=0s: three-party call at full rate\n");
  runner.RunUntil(15.0);
  report("after 15 s (healthy):");

  std::printf("\nt=15s: carol's downlink degrades to 1.45 Mb/s\n");
  runner.RunUntil(40.0);
  report("after adaptation:");

  std::printf("\nt=40s: carol's downlink recovers\n");
  const harness::ScenarioMetrics& m = runner.Run();  // to 70 s + metrics
  report("after recovery:");

  std::printf("\nData plane: %lu seq rewrites, %lu REMBs filtered by the "
              "best-downlink rule, %lu forwarded\n",
              static_cast<unsigned long>(m.counters.seq_rewritten),
              static_cast<unsigned long>(m.counters.remb_filtered),
              static_cast<unsigned long>(m.counters.remb_forwarded));
  const auto& rx = carol.video_receiver(alice.id())->stats();
  std::printf("Carol<-Alice: %lu frames decoded, %lu decoder breaks, "
              "%.0f ms frozen across both transitions\n",
              static_cast<unsigned long>(rx.frames_decoded),
              static_cast<unsigned long>(rx.decoder_breaks),
              rx.total_freeze_ms);
  return 0;
}
