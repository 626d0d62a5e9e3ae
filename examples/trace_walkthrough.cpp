// Trace walkthrough: drive a fleet{4} switch-failover drill with
// structured tracing on, then walk the artifacts the obs subsystem
// produces — the deterministic text log, the causal correlation chains
// (heartbeat miss -> switch death -> meeting migration; command sent ->
// applied spans), the Chrome/Perfetto JSON export with the unified stats
// registry embedded, and the flight-recorder counters in the CSV/Summary.
//
// Load the written trace in https://ui.perfetto.dev (or
// chrome://tracing): one track per switch (sw:N) carries the southbound
// command spans, the fleet controller's track carries placement /
// heartbeat / migration instants, and the runner's track brackets the
// failover drill.
#include <cstdio>
#include <string>

#include "harness/runner.hpp"
#include "obs/stats_registry.hpp"
#include "obs/trace.hpp"

using namespace scallop;

int main() {
  // Four switches, one 5-party meeting plus a 2-party meeting; at t=3s
  // the switch hosting meeting 0 dies. The fleet's heartbeat detector
  // must notice the silence, declare the switch dead, and migrate its
  // meetings onto survivors — every step of that chain lands in the
  // trace under one correlation id.
  harness::ScenarioSpec spec =
      harness::ScenarioSpec::Uniform("trace-walkthrough", 2, 2, 8.0);
  spec.meetings[0].participants.resize(5);
  spec.base.peer.encoder.start_bitrate_bps = 500'000;
  spec.WithBackend(testbed::BackendChoice::Fleet(4));
  spec.WithControlPlane(/*latency_s=*/0.002);
  spec.WithFailover(/*at_s=*/3.0);
  spec.failover_blackout_s = 0.5;  // > 4 heartbeats + 2x control latency
  spec.WithTrace();

  harness::ScenarioRunner runner(spec);
  const harness::ScenarioMetrics& m = runner.Run();
  std::printf("%s\n", m.Summary().c_str());

  const obs::TraceLog& trace = *runner.trace();

  // 1. The deterministic text form: every event is
  //    "<t_us> <category> <track> <name> corr=<id> [detail]". Same spec +
  //    seed => byte-identical text, so traces diff cleanly across runs.
  const std::string text = trace.ToText();
  std::printf("--- first trace events (%zu total) ---\n", trace.size());
  size_t shown = 0, pos = 0;
  while (shown < 8 && pos < text.size()) {
    const size_t end = text.find('\n', pos);
    std::printf("  %s\n", text.substr(pos, end - pos).c_str());
    pos = end + 1;
    ++shown;
  }

  // 2. The failure chain: grep the text for the failover. The heartbeat
  //    misses, the death verdict, and every resulting migration share the
  //    correlation id minted when the detector saw the first fatal gap.
  std::printf("--- failure chain ---\n");
  for (const char* name :
       {"switch.heartbeat_miss", "switch.dead", "switch.down",
        "meeting.migrate", "failover.begin", "failover.end"}) {
    size_t at = text.find(std::string(" ") + name + " ");
    if (at == std::string::npos) continue;
    const size_t line_start = text.rfind('\n', at) + 1;
    const size_t line_end = text.find('\n', at);
    std::printf("  %s\n",
                text.substr(line_start, line_end - line_start).c_str());
  }

  // 3. The Chrome export, with the run's aggregates riding along as a
  //    metadata record. Every .sent command that was .applied becomes a
  //    complete span ("ph":"X") on its switch's track.
  obs::StatsRegistry registry;
  m.RegisterInto(registry);
  const std::string json = trace.ToChromeJson(&registry);
  std::string error;
  if (!obs::TraceLog::ValidateChromeTrace(json, &error)) {
    std::printf("trace export malformed: %s\n", error.c_str());
    return 1;
  }
  const char* path = "trace_walkthrough.trace.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("--- wrote %s (%zu bytes) — load it in ui.perfetto.dev ---\n",
                path, json.size());
  }

  // 4. The unified registry: the entries the CSV's single-row sections,
  //    Summary() and the Chrome metadata above are all rendered from —
  //    the same numbers, one namespace.
  std::printf("--- stats registry ---\n%s", registry.ToText().c_str());
  return 0;
}
