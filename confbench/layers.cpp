#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "bwe/estimator.hpp"
#include "media/packetizer.hpp"
#include "media/receiver.hpp"
#include "observe.hpp"
#include "rtp/classifier.hpp"
#include "rtp/rtp_packet.hpp"
#include "sim/link.hpp"
#include "sim/scheduler.hpp"
#include "testbed/fleet_testbed.hpp"
#include "testbed/testbed.hpp"

namespace confbench {

namespace sc = scallop;
namespace su = scallop::util;

namespace {

// Bounds on what the traced run keeps: spans, and the receivers whose
// egress stream is captured whole (so replayed receivers see gap-free
// sequences) up to a packet cap.
constexpr size_t kSpanCapacity = 32768;
constexpr size_t kCaptureReceivers = 12;
constexpr size_t kCapturePackets = 8192;

// Linear interpolation between order statistics.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class TracedLayers::TimedProgram : public sc::switchsim::PipelineProgram {
 public:
  TimedProgram(TracedLayers& owner, sc::core::DataPlaneProgram& dp)
      : owner_(owner), dp_(dp) {}

  void Ingress(const sc::net::Packet& pkt,
               sc::switchsim::PacketMetadata& meta) override {
    if (!owner_.counting_) {
      dp_.Ingress(pkt, meta);
      return;
    }
    const int64_t t0 = NowNs();
    dp_.Ingress(pkt, meta);
    const int64_t t1 = NowNs();
    ++owner_.totals_.ingress_calls;
    owner_.totals_.ingress_ns += static_cast<uint64_t>(t1 - t0);
    owner_.Record("dataplane.ingress", t0, t1);
  }

  bool Egress(sc::net::Packet& pkt, const sc::switchsim::PacketMetadata& meta,
              const sc::switchsim::Replica& replica) override {
    if (!owner_.counting_) return dp_.Egress(pkt, meta, replica);
    const int64_t t0 = NowNs();
    const bool pass = dp_.Egress(pkt, meta, replica);
    const int64_t t1 = NowNs();
    ++owner_.totals_.egress_calls;
    owner_.totals_.egress_ns += static_cast<uint64_t>(t1 - t0);
    owner_.Record("dataplane.egress", t0, t1);
    if (pass) {
      ++owner_.totals_.egress_pass;
      owner_.MaybeCapture(pkt);
    }
    return pass;
  }

 private:
  TracedLayers& owner_;
  sc::core::DataPlaneProgram& dp_;
};

TracedLayers::TracedLayers(sc::harness::ScenarioRunner& runner)
    : sched_(runner.backend().sched()) {
  spans_.reserve(kSpanCapacity);
  auto wrap = [this](sc::switchsim::Switch& sw, sc::core::DataPlaneProgram& dp,
                     sc::core::SwitchAgent& agent) {
    programs_.push_back(std::make_unique<TimedProgram>(*this, dp));
    sw.SetProgram(programs_.back().get());
    sw.SetCpuHandler([this, &agent](sc::net::PacketPtr pkt) {
      if (!counting_) {
        agent.OnCpuPacket(std::move(pkt));
        return;
      }
      const int64_t t0 = NowNs();
      agent.OnCpuPacket(std::move(pkt));
      const int64_t t1 = NowNs();
      ++totals_.cpu_packets;
      totals_.cpu_ns += static_cast<uint64_t>(t1 - t0);
      Record("agent.cpu_packet", t0, t1);
    });
  };
  using Kind = sc::testbed::BackendChoice::Kind;
  switch (runner.spec().backend.kind) {
    case Kind::kScallop: {
      auto& bed = runner.scallop();
      wrap(bed.sw(), bed.dataplane(), bed.agent());
      break;
    }
    case Kind::kFleet: {
      auto& fleet = runner.fleet();
      for (size_t i = 0; i < fleet.switch_count(); ++i) {
        wrap(fleet.sw(i), fleet.dataplane(i), fleet.agent(i));
      }
      break;
    }
    case Kind::kSoftware:
      break;  // no switch: the layer totals stay zero
  }
}

TracedLayers::~TracedLayers() = default;

void TracedLayers::Record(const char* name, int64_t start_ns, int64_t end_ns) {
  if (spans_.size() >= kSpanCapacity) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(Span{name, start_ns, end_ns - start_ns, step_});
}

void TracedLayers::Step(int64_t start_ns, int64_t end_ns) {
  Record("sim.step", start_ns, end_ns);
  ++step_;
}

void TracedLayers::MaybeCapture(const sc::net::Packet& pkt) {
  if (capture_.size() >= kCapturePackets) return;
  const auto payload = pkt.payload_span();
  if (sc::rtp::Classify(payload) != sc::rtp::PayloadKind::kRtp) return;
  if ((payload[1] & 0x7F) != sc::media::PacketizerConfig{}.payload_type) {
    return;  // audio
  }
  if (std::find(capture_dsts_.begin(), capture_dsts_.end(), pkt.dst) ==
      capture_dsts_.end()) {
    if (capture_dsts_.size() >= kCaptureReceivers) return;
    capture_dsts_.push_back(pkt.dst);
  }
  capture_.push_back(CapturedPacket{sched_.now(), pkt.dst, pkt.payload});
}

bool TracedLayers::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"step\":%llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin) / 1000.0,
                 static_cast<double>(s.dur_ns) / 1000.0,
                 static_cast<unsigned long long>(s.step));
  }
  std::fprintf(f, "],\"otherData\":{\"spans_dropped\":%llu}}\n",
               static_cast<unsigned long long>(spans_dropped_));
  return std::fclose(f) == 0;
}

bool TracedLayers::WriteCapture(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const CapturedPacket& p : capture_) {
    std::fprintf(f, "%lld %s %zu\n", static_cast<long long>(p.at),
                 p.dst.ToString().c_str(), p.payload.size());
  }
  return std::fclose(f) == 0;
}

ReplayCosts Replay(const std::vector<CapturedPacket>& capture) {
  ReplayCosts out;
  out.packets = capture.size();
  if (capture.empty()) return out;
  constexpr int kPasses = 7;
  const double n = static_cast<double>(capture.size());

  // Parsed once, outside every timed loop, for the receiver/bwe replays.
  struct Parsed {
    size_t dst;
    su::TimeUs arrival;
    su::TimeUs send_time;
    size_t bytes;
    sc::rtp::RtpPacket pkt;
  };
  std::vector<sc::net::Endpoint> dsts;
  std::vector<Parsed> parsed;
  parsed.reserve(capture.size());
  // Arrival = egress time plus the default access downlink's one-way
  // delay; only spacing matters to the receivers.
  constexpr su::DurationUs kDownlinkDelay = su::Millis(5);
  for (const CapturedPacket& c : capture) {
    auto pkt = sc::rtp::RtpPacket::Parse(c.payload);
    if (!pkt.has_value()) continue;
    auto it = std::find(dsts.begin(), dsts.end(), c.dst);
    const size_t d = static_cast<size_t>(it - dsts.begin());
    if (it == dsts.end()) dsts.push_back(c.dst);
    const su::TimeUs arrival = c.at + kDownlinkDelay;
    su::TimeUs send_time = c.at;
    // abs-send-time aligned to the arrival clock, as the receiving Peer
    // does.
    if (const auto* ast =
            pkt->FindExtension(sc::media::kAbsSendTimeExtensionId)) {
      constexpr su::TimeUs kWrap = 64'000'000;
      send_time = arrival - (arrival % kWrap) +
                  sc::media::DecodeAbsSendTime(ast->data);
      if (send_time > arrival + kWrap / 2) send_time -= kWrap;
    }
    parsed.push_back(Parsed{d, arrival, send_time,
                            c.payload.size() + sc::net::kL3L4Overhead,
                            std::move(*pkt)});
  }
  if (parsed.empty()) return out;

  std::vector<double> parse_ns, rx_ns, bwe_ns, link_ns;
  uint64_t sink = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    int64_t t0 = NowNs();
    for (const CapturedPacket& c : capture) {
      auto pkt = sc::rtp::RtpPacket::Parse(c.payload);
      if (pkt.has_value()) sink += pkt->sequence_number;
    }
    parse_ns.push_back(static_cast<double>(NowNs() - t0) / n);

    std::vector<std::unique_ptr<sc::media::VideoReceiver>> receivers;
    std::vector<std::unique_ptr<sc::bwe::ReceiverBandwidthEstimator>> bwes;
    for (size_t d = 0; d < dsts.size(); ++d) {
      receivers.push_back(std::make_unique<sc::media::VideoReceiver>(
          sc::media::VideoReceiverConfig{},
          [](const std::vector<uint16_t>&) {}, [] {}));
      bwes.push_back(std::make_unique<sc::bwe::ReceiverBandwidthEstimator>(
          sc::client::PeerConfig{}.bwe));
    }
    t0 = NowNs();
    for (const Parsed& p : parsed) receivers[p.dst]->OnPacket(p.pkt, p.arrival);
    rx_ns.push_back(static_cast<double>(NowNs() - t0) /
                    static_cast<double>(parsed.size()));
    for (const auto& rx : receivers) sink += rx->stats().frames_decoded;

    t0 = NowNs();
    for (const Parsed& p : parsed) {
      bwes[p.dst]->OnPacket(p.arrival, p.send_time, p.bytes);
    }
    bwe_ns.push_back(static_cast<double>(NowNs() - t0) /
                     static_cast<double>(parsed.size()));
    for (const auto& b : bwes) sink += b->estimate();

    sc::sim::Scheduler sched;
    sc::sim::Link link(sched, sc::testbed::TestbedConfig{}.client_downlink,
                       /*seed=*/1);
    std::vector<sc::net::PacketPtr> pkts;
    pkts.reserve(capture.size());
    for (const CapturedPacket& c : capture) {
      pkts.push_back(
          sc::net::MakePacket(sc::net::Endpoint{}, c.dst, c.payload));
    }
    uint64_t delivered = 0;
    t0 = NowNs();
    for (size_t i = 0; i < capture.size(); ++i) {
      sched.RunUntil(capture[i].at);
      link.Send(std::move(pkts[i]),
                [&delivered](sc::net::PacketPtr) { ++delivered; });
    }
    sched.RunAll();
    link_ns.push_back(static_cast<double>(NowNs() - t0) / n);
    sink += delivered;
  }
  if (sink == 0) std::fputs("replay: nothing decoded or delivered\n", stderr);
  out.rtp_parse_ns = Median(parse_ns);
  out.media_receiver_ns = Median(rx_ns);
  out.bwe_ns = Median(bwe_ns);
  out.link_ns = Median(link_ns);
  return out;
}

ControlTimes TimeControl(const sc::harness::ScenarioSpec& workload_spec) {
  sc::harness::ScenarioSpec spec = workload_spec;
  spec.name += "-control";
  spec.control_latency_s = 0.0;
  spec.control_loss = 0.0;
  spec.rebalance_interval_s = -1.0;
  spec.controller_failure_at_s = -1.0;
  spec.failover_at_s = -1.0;
  spec.roams.clear();
  spec.correlated_failures.clear();
  spec.topology_events.clear();
  spec.link_events.clear();
  spec.base.peer.media_tap = nullptr;
  // The runner schedules each join at join_at_s; pushing them past the end
  // (never reached: nothing runs the scheduler) leaves every call to us.
  for (auto& meeting : spec.meetings) {
    for (auto& p : meeting.participants) {
      p.join_at_s = spec.duration_s + 1.0;
      p.leave_at_s = -1.0;
      p.rejoin_at_s = -1.0;
    }
  }
  sc::harness::ScenarioRunner runner(spec);
  std::vector<double> join_us;
  std::vector<double> leave_us;
  for (size_t m = 0; m < spec.meetings.size(); ++m) {
    for (size_t i = 0; i < spec.meetings[m].participants.size(); ++i) {
      auto& peer = runner.peer(static_cast<int>(m), static_cast<int>(i));
      const int64_t t0 = NowNs();
      peer.Join(runner.backend().signaling(),
                runner.meeting_id(static_cast<int>(m)));
      join_us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
    }
  }
  for (size_t m = 0; m < spec.meetings.size(); ++m) {
    for (size_t i = 0; i < spec.meetings[m].participants.size(); ++i) {
      auto& peer = runner.peer(static_cast<int>(m), static_cast<int>(i));
      const int64_t t0 = NowNs();
      peer.Leave();
      leave_us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
    }
  }
  return ControlTimes{Percentile(join_us, 0.50), Percentile(join_us, 0.90),
                      Percentile(leave_us, 0.50), Percentile(leave_us, 0.90)};
}

double CanaryEventsPerUs() {
  constexpr uint64_t kEvents = 400'000;
  constexpr int kChains = 64;
  std::vector<double> rates;
  for (int pass = 0; pass < 3; ++pass) {
    sc::sim::Scheduler sched;
    uint64_t fired = 0;
    std::function<void(int)> fire = [&](int chain) {
      if (++fired + kChains > kEvents) return;
      sched.After(1 + chain % 7, [&fire, chain] { fire(chain); });
    };
    for (int c = 0; c < kChains; ++c) {
      sched.At(c, [&fire, c] { fire(c); });
    }
    const int64_t t0 = NowNs();
    sched.RunAll();
    const int64_t t1 = NowNs();
    rates.push_back(static_cast<double>(fired) /
                    (static_cast<double>(t1 - t0) / 1000.0));
  }
  return Median(rates);
}

}  // namespace confbench
