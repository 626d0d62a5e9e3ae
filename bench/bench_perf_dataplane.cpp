// Data-plane packet-path benchmark -> BENCH_dataplane.json. Pumps crafted
// RTP video through a switch running DataPlaneProgram (the full
// Ingress -> replicate -> Egress -> network path) and reports packets/sec
// on the two per-packet shapes that dominate real runs:
//
//   forward_packets_per_sec  two-party forwarding, no SVC entry: classify,
//                            stream lookup, egress rewrite.
//   svc_packets_per_sec      same, plus the SVC layer filter and the
//                            sequence rewriter (3 of 5 L1T3 frames pass
//                            at decode target 1).
//
// Packet bytes are pre-serialized outside the timed region; the timed
// loop pays MakePacket + OnPacket + the scheduler drain, i.e. exactly the
// per-packet cost a testbed run pays per switch hop.
#include <cstdio>
#include <vector>

#include "av1/dependency_descriptor.hpp"
#include "bench_common.hpp"
#include "core/dataplane.hpp"
#include "perf_report.hpp"
#include "rtp/rtp_packet.hpp"
#include "sim/network.hpp"

namespace {

using namespace scallop;

class CountingHost : public sim::Host {
 public:
  void OnPacket(net::PacketPtr) override { ++count; }
  uint64_t count = 0;
};

class Fixture {
 public:
  Fixture()
      : net_(sched_, 5),
        sw_(sched_, net_, {.address = net::Ipv4(100, 64, 0, 1)}),
        dp_(sw_, {}) {
    net_.Attach(sw_.address(), &sw_, {}, {});
    net_.Attach(client_a_.addr, &host_a_, {}, {});
    net_.Attach(client_b_.addr, &host_b_, {}, {});
    sw_.SetCpuHandler([](net::PacketPtr) {});
  }

  void InstallTwoParty(uint32_t ssrc, bool with_svc, int dt) {
    core::StreamEntry stream;
    stream.meeting = 1;
    stream.sender = 1;
    stream.is_video = true;
    stream.design = core::TreeDesign::kTwoParty;
    stream.peer_egress = 2;
    dp_.InstallStream(core::StreamKey{client_a_, ssrc}, stream);

    core::EgressEntry out;
    out.dst = client_b_;
    out.sfu_src = net::Endpoint{sw_.address(), 10'001};
    out.receiver = 2;
    dp_.InstallEgress(core::EgressKey{client_a_, 2}, out);

    if (with_svc) {
      core::SvcEntry svc;
      svc.decode_target = dt;
      svc.cadence = core::SkipCadence::ForDecodeTarget(dt, 1);
      svc.rewriter_index = dp_.AllocateRewriter(svc.cadence);
      svc.filter_in_egress = true;
      dp_.InstallSvc(core::SvcKey{ssrc, 2}, svc);
    }
  }

  // L1T3 pattern, one packet per frame, templates cycling 0,3,2,4,1.
  std::vector<std::vector<uint8_t>> BuildPayloads(uint32_t ssrc, int count) {
    static const uint8_t kTemplates[] = {0, 3, 2, 4, 1};
    std::vector<std::vector<uint8_t>> out;
    out.reserve(count);
    for (int i = 0; i < count; ++i) {
      rtp::RtpPacket pkt;
      pkt.payload_type = 96;
      pkt.sequence_number = static_cast<uint16_t>(i + 1);
      pkt.ssrc = ssrc;
      av1::DependencyDescriptor dd;
      dd.template_id = kTemplates[i % 5];
      dd.frame_number = static_cast<uint16_t>(i + 1);
      pkt.SetExtension(av1::kDdExtensionId, dd.Serialize());
      pkt.payload.assign(1000, 0x42);
      out.push_back(pkt.Serialize());
    }
    return out;
  }

  // Timed inner loop: one switch hop per payload, then one drain.
  void Pump(const std::vector<std::vector<uint8_t>>& payloads) {
    net::Endpoint sfu{sw_.address(), 10'000};
    for (const auto& bytes : payloads) {
      sw_.OnPacket(net::MakePacket(client_a_, sfu, bytes));
    }
    sched_.RunAll();
  }

  sim::Scheduler sched_;
  sim::Network net_;
  switchsim::Switch sw_;
  core::DataPlaneProgram dp_;
  net::Endpoint client_a_{net::Ipv4(10, 0, 0, 1), 40'000};
  net::Endpoint client_b_{net::Ipv4(10, 0, 0, 2), 41'000};
  CountingHost host_a_;
  CountingHost host_b_;
};

// Runs `rounds` rounds of `per_round` packets, a fresh ssrc (and fresh
// rewriter state) per round; returns packets/sec through the switch.
double Measure(bool with_svc, int rounds, int per_round,
               uint64_t* delivered) {
  Fixture fx;
  std::vector<std::vector<std::vector<uint8_t>>> rounds_payloads;
  for (int r = 0; r < rounds; ++r) {
    uint32_t ssrc = 0xA000 + r;
    fx.InstallTwoParty(ssrc, with_svc, /*dt=*/1);
    rounds_payloads.push_back(fx.BuildPayloads(ssrc, per_round));
  }
  scallop::bench::WallTimer timer;
  for (const auto& payloads : rounds_payloads) fx.Pump(payloads);
  double secs = timer.Seconds();
  *delivered = fx.host_b_.count;
  return static_cast<double>(rounds) * per_round / secs;
}

}  // namespace

int main() {
  bench::Header("Perf: data-plane packet path");

  const bool full = bench::FullScale();
  const int rounds = full ? 30 : 10;
  const int per_round = 8'192;
  // Each metric is the median of this many timed passes.
  const int passes = 5;

  bool fwd_ok = true;
  double fwd = bench::MedianOfPasses(passes, [&] {
    uint64_t delivered = 0;
    double rate = Measure(/*with_svc=*/false, rounds, per_round, &delivered);
    if (delivered != static_cast<uint64_t>(rounds) * per_round) {
      std::printf("FAIL: forward leg delivered %llu of %llu packets\n",
                  static_cast<unsigned long long>(delivered),
                  static_cast<unsigned long long>(
                      static_cast<uint64_t>(rounds) * per_round));
      fwd_ok = false;
    }
    return rate;
  });
  if (!fwd_ok) return 1;

  // Decode target 1 keeps 3 of every 5 L1T3 frames.
  const uint64_t expected_svc =
      static_cast<uint64_t>(rounds) *
      (static_cast<uint64_t>(per_round) / 5 * 3 + per_round % 5);
  bool svc_ok = true;
  double svc = bench::MedianOfPasses(passes, [&] {
    uint64_t delivered = 0;
    double rate = Measure(/*with_svc=*/true, rounds, per_round, &delivered);
    if (delivered < expected_svc - rounds ||
        delivered > expected_svc + rounds) {
      std::printf("FAIL: svc leg delivered %llu packets, expected ~%llu\n",
                  static_cast<unsigned long long>(delivered),
                  static_cast<unsigned long long>(expected_svc));
      svc_ok = false;
    }
    return rate;
  });
  if (!svc_ok) return 1;

  std::printf("forward: %.3g pkts/s   svc+rewrite: %.3g pkts/s\n", fwd, svc);

  scallop::bench::PerfReport report("dataplane");
  report.AddMetric("forward_packets_per_sec", fwd, "packets/s");
  report.AddMetric("svc_packets_per_sec", svc, "packets/s");
  report.AddParam("rounds", rounds);
  report.AddParam("packets_per_round", per_round);
  report.WriteJson();
  return 0;
}
