// Per-layer instrumentation for the traced run, applied from outside the
// program: each switch's pipeline program and CPU-port handler are
// replaced by timing wrappers around the same DataPlaneProgram and
// SwitchAgent calls, a bounded span log records each call, and a bounded
// sample of egress media is captured for the standalone replays
// (rtp parse, media receiver, bwe, link). Also: timed Peer::Join/Leave on
// a fresh backend, and the host-speed canary.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "net/packet.hpp"

namespace confbench {

int64_t NowNs();

struct LayerTotals {
  uint64_t ingress_calls = 0;
  uint64_t ingress_ns = 0;
  uint64_t egress_calls = 0;
  uint64_t egress_pass = 0;
  uint64_t egress_ns = 0;
  uint64_t cpu_packets = 0;
  uint64_t cpu_ns = 0;
};

struct CapturedPacket {
  scallop::util::TimeUs at = 0;  // sim time the replica left egress
  scallop::net::Endpoint dst;
  std::vector<uint8_t> payload;
};

class TracedLayers {
 public:
  // Wraps every switch of the runner's backend (single switch or fleet).
  explicit TracedLayers(scallop::harness::ScenarioRunner& runner);
  ~TracedLayers();
  TracedLayers(const TracedLayers&) = delete;
  TracedLayers& operator=(const TracedLayers&) = delete;

  // Totals, spans and captures accumulate only while counting (the
  // measured window).
  void set_counting(bool on) { counting_ = on; }
  // Records one scheduler step as the parent span of the calls inside it.
  void Step(int64_t start_ns, int64_t end_ns);

  const LayerTotals& totals() const { return totals_; }
  const std::vector<CapturedPacket>& capture() const { return capture_; }

  // Chrome trace-event JSON of the recorded spans, and one line per
  // captured packet ("<sim_us> <dst> <bytes>").
  bool WriteSpans(const std::string& path) const;
  bool WriteCapture(const std::string& path) const;

 private:
  class TimedProgram;
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t dur_ns;
    uint64_t step;
  };
  void Record(const char* name, int64_t start_ns, int64_t end_ns);
  void MaybeCapture(const scallop::net::Packet& pkt);

  scallop::sim::Scheduler& sched_;
  bool counting_ = false;
  LayerTotals totals_;
  std::vector<Span> spans_;
  uint64_t spans_dropped_ = 0;
  uint64_t step_ = 0;
  std::vector<scallop::net::Endpoint> capture_dsts_;
  std::vector<CapturedPacket> capture_;
  std::vector<std::unique_ptr<TimedProgram>> programs_;
};

// Standalone replays of the captured egress packets; ns per packet, each
// the median over several passes.
struct ReplayCosts {
  uint64_t packets = 0;
  double rtp_parse_ns = 0.0;
  double media_receiver_ns = 0.0;
  double bwe_ns = 0.0;
  double link_ns = 0.0;
};
ReplayCosts Replay(const std::vector<CapturedPacket>& capture);

// Wall time of every Peer::Join, then every Peer::Leave, on a fresh
// backend of the spec's shape with instant, lossless control and nothing
// scheduled, so each call covers controller, channel, agent and table
// writes inline. Percentiles over the calls, in microseconds.
struct ControlTimes {
  double join_us_p50 = 0.0;
  double join_us_p90 = 0.0;
  double leave_us_p50 = 0.0;
  double leave_us_p90 = 0.0;
};
ControlTimes TimeControl(const scallop::harness::ScenarioSpec& spec);

// Host-speed canary: events per microsecond through a fixed standalone
// sim::Scheduler loop (median of three passes). Informational only.
double CanaryEventsPerUs();

}  // namespace confbench
