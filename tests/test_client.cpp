// Client (Peer) unit tests: signaling flow, media cadences calibrated to
// Table 1, REMB-driven encoder control, NACK retransmission from history,
// PLI-triggered key frames with structure refresh, and STUN RTT probing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "rtp/classifier.hpp"
#include "rtp/rtcp.hpp"
#include "testbed/testbed.hpp"

namespace scallop::client {
namespace {

client::PeerConfig QuietPeer() {
  client::PeerConfig pc;
  pc.encoder.start_bitrate_bps = 700'000;
  pc.encoder.max_bitrate_bps = 900'000;
  pc.encoder.key_frame_interval = util::Seconds(100);  // only PLI keys
  return pc;
}

TEST(PeerTest, JoinNegotiatesLegsBothWays) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  Peer& b = bed.AddPeer();
  Peer& c = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.controller(), meeting);
  EXPECT_TRUE(a.remote_senders().empty());
  b.Join(bed.controller(), meeting);
  EXPECT_EQ(a.remote_senders().size(), 1u);
  EXPECT_EQ(b.remote_senders().size(), 1u);
  c.Join(bed.controller(), meeting);
  EXPECT_EQ(a.remote_senders().size(), 2u);
  EXPECT_EQ(c.remote_senders().size(), 2u);
  EXPECT_GT(bed.controller().stats().legs_negotiated, 4u);
  EXPECT_GT(bed.controller().stats().candidates_rewritten, 0u);
}

TEST(PeerTest, EndMeetingNotifiesRemainingMembers) {
  // Ending a meeting must tell every remaining member about every peer
  // sender's departure — otherwise clients keep stale receive legs toward
  // SFU ports that no longer exist and never learn the meeting ended.
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  Peer& b = bed.AddPeer();
  Peer& c = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.controller(), meeting);
  b.Join(bed.controller(), meeting);
  c.Join(bed.controller(), meeting);
  bed.RunFor(2.0);
  ASSERT_EQ(a.remote_senders().size(), 2u);

  bed.controller().EndMeeting(meeting);
  EXPECT_TRUE(a.remote_senders().empty());
  EXPECT_TRUE(b.remote_senders().empty());
  EXPECT_TRUE(c.remote_senders().empty());
  EXPECT_EQ(a.video_receiver(b.id()), nullptr);
  // The switch-side state went with it.
  EXPECT_EQ(bed.agent().meeting_count(), 0u);
  EXPECT_EQ(bed.agent().participant_count(), 0u);
}

TEST(PeerTest, MediaCadencesMatchTable1) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  // 2.2 Mb/s 720p-equivalent video, as in the paper's Table 1 trace.
  cfg.peer.encoder.start_bitrate_bps = 2'200'000;
  cfg.peer.encoder.max_bitrate_bps = 2'300'000;
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  Peer& b = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.controller(), meeting);
  b.Join(bed.controller(), meeting);
  bed.RunFor(20.0);

  double rtp_per_s = static_cast<double>(a.stats().rtp_sent) / 20.0;
  double rtcp_per_s = static_cast<double>(a.stats().rtcp_sent) / 20.0;
  double stun_per_s = static_cast<double>(a.stats().stun_sent) / 20.0;
  // Paper: ~285 RTP/s (235 video + 50 audio), a few RTCP/s, ~1 STUN/s.
  EXPECT_NEAR(rtp_per_s, 285.0, 45.0);
  EXPECT_GT(rtcp_per_s, 4.0);
  EXPECT_LT(rtcp_per_s, 15.0);
  EXPECT_NEAR(stun_per_s, 0.8, 0.5);
}

TEST(PeerTest, RembControlsEncoderTarget) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  Peer& b = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.controller(), meeting);
  b.Join(bed.controller(), meeting);
  bed.RunFor(10.0);
  // The forwarded REMB from B raised A's target toward B's estimate.
  EXPECT_GT(a.stats().remb_received, 5u);
  EXPECT_GE(a.encoder()->target_bitrate(), 700'000u);
}

TEST(PeerTest, PliTriggersKeyFrameWithStructure) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  // Heavy loss on B's downlink forces freezes -> PLI -> key frames.
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  sim::LinkConfig lossy = cfg.client_downlink;
  lossy.loss_rate = 0.30;
  Peer& b = bed.AddPeer(cfg.client_uplink, lossy);
  auto meeting = bed.CreateMeeting();
  a.Join(bed.controller(), meeting);
  b.Join(bed.controller(), meeting);
  bed.RunFor(20.0);

  EXPECT_GT(a.stats().pli_received, 0u);
  EXPECT_GT(a.stats().keyframes_on_pli, 0u);
  // Refresh key frames re-announce the SVC structure to the agent.
  EXPECT_GT(bed.agent().stats().keyframe_dd_processed, 1u);
}

TEST(PeerTest, RetransmitsFromHistoryOnNack) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  sim::LinkConfig lossy = cfg.client_downlink;
  lossy.loss_rate = 0.05;
  Peer& b = bed.AddPeer(cfg.client_uplink, lossy);
  auto meeting = bed.CreateMeeting();
  a.Join(bed.controller(), meeting);
  b.Join(bed.controller(), meeting);
  bed.RunFor(15.0);
  EXPECT_GT(a.stats().nack_received, 0u);
  EXPECT_GT(a.stats().retransmissions_sent, 0u);
  EXPECT_GT(b.video_receiver(a.id())->stats().recovered_packets, 5u);
}

TEST(PeerTest, LeaveTearsDownLegsEverywhere) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  Peer& b = bed.AddPeer();
  Peer& c = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.controller(), meeting);
  b.Join(bed.controller(), meeting);
  c.Join(bed.controller(), meeting);
  bed.RunFor(5.0);
  c.Leave();
  bed.RunFor(2.0);
  EXPECT_EQ(a.remote_senders().size(), 1u);
  EXPECT_EQ(b.remote_senders().size(), 1u);
  // Meeting migrated back to the two-party fast path.
  EXPECT_EQ(*bed.agent().tree_manager().CurrentDesign(meeting),
            core::TreeDesign::kTwoParty);
  // Media between A and B still flows.
  uint64_t before = b.video_receiver(a.id())->stats().frames_decoded;
  bed.RunFor(4.0);
  EXPECT_GT(b.video_receiver(a.id())->stats().frames_decoded, before + 90);
}

TEST(PeerTest, RejoinAfterLeaveRestartsCleanMedia) {
  // Leave + re-Join must renegotiate fresh legs on both sides and resume
  // media without sequence-space corruption. With QuietPeer (no periodic
  // key frames) the rejoiner's new receive legs depend entirely on the
  // cold-start PLI to obtain key frames mid-stream.
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  Peer& b = bed.AddPeer();
  Peer& c = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.controller(), meeting);
  b.Join(bed.controller(), meeting);
  c.Join(bed.controller(), meeting);
  bed.RunFor(5.0);

  c.Leave();
  EXPECT_TRUE(c.remote_senders().empty());  // decoders torn down
  bed.RunFor(2.0);
  c.Join(bed.controller(), meeting);
  bed.RunFor(8.0);

  // The rejoiner decodes everyone again (fresh legs, PLI-driven resync).
  for (Peer* sender : {&a, &b}) {
    const auto* rx = c.video_receiver(sender->id());
    ASSERT_NE(rx, nullptr);
    EXPECT_GT(rx->stats().frames_decoded, 120u);
    EXPECT_EQ(rx->stats().decoder_breaks, 0u);
    EXPECT_EQ(rx->stats().conflicting_duplicates, 0u);
  }
  // And everyone decodes the rejoiner's restarted stream (note: a re-join
  // assigns a fresh participant id).
  for (Peer* receiver : {&a, &b}) {
    const auto* rx = receiver->video_receiver(c.id());
    ASSERT_NE(rx, nullptr);
    EXPECT_GT(rx->stats().frames_decoded, 150u);
    EXPECT_EQ(rx->stats().conflicting_duplicates, 0u);
  }
}

TEST(PeerTest, AudioOnlyParticipant) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  client::PeerConfig listener = QuietPeer();
  listener.send_video = false;
  Peer& b = bed.AddPeer(listener, cfg.client_uplink, cfg.client_downlink);
  auto meeting = bed.CreateMeeting();
  a.Join(bed.controller(), meeting);
  b.Join(bed.controller(), meeting);
  bed.RunFor(8.0);
  // B receives A's video; A receives only audio from B.
  EXPECT_GT(b.video_receiver(a.id())->stats().frames_decoded, 200u);
  EXPECT_GT(a.audio_receiver(b.id())->packets_received(), 300u);
  EXPECT_EQ(a.video_receiver(b.id())->stats().packets_received, 0u);
}

// ---------- Retransmission history ----------
// One peer whose uplink lands in a capture sink standing in for the SFU;
// NACKs are handed to the peer directly. Zero-delay links make every
// retransmission arrive at the instant it was requested.
class HistoryBench : public core::SignalingServer, public sim::Host {
 public:
  static constexpr net::Ipv4 kSfu{10, 9, 9, 9};

  explicit HistoryBench(size_t history) : net_(sched_, 5) {
    PeerConfig pc = QuietPeer();
    pc.address = net::Ipv4(10, 0, 0, 1);
    pc.send_audio = false;
    pc.retransmit_history = history;
    // ~70 packets per frame, so the 16-bit sequence space wraps in
    // about half a minute of simulated time.
    pc.encoder.start_bitrate_bps = 20'000'000;
    pc.encoder.max_bitrate_bps = 20'000'000;
    peer_ = std::make_unique<Peer>(sched_, net_, pc);
    net_.Attach(pc.address, peer_.get(), {}, {});
    net_.Attach(kSfu, this, {}, {});
  }

  JoinResult Join(core::MeetingId, const sdp::SessionDescription&,
                  core::SignalingClient*) override {
    return JoinResult{.participant = 1, .uplink_sfu = {kSfu, 5000}};
  }
  void Leave(core::MeetingId, core::ParticipantId) override {}

  void OnPacket(net::PacketPtr pkt) override {
    if (rtp::Classify(pkt->payload_span()) != rtp::PayloadKind::kRtp) return;
    uint16_t seq = *rtp::PeekSequenceNumber(pkt->payload_span());
    uint64_t digest = Digest(pkt->payload);
    if (collecting_retransmissions_) {
      retransmitted_.emplace_back(seq, digest);
      return;
    }
    latest_[seq] = digest;
    newest_ = seq;
    ++originals_;
  }

  Peer& peer() { return *peer_; }
  void JoinMeeting() { peer_->Join(*this, 1); }

  // Runs whole frames until at least `n` more original packets went out.
  void SendAtLeast(uint64_t n) {
    const uint64_t target = originals_ + n;
    while (originals_ < target) sched_.RunUntil(sched_.now() + 33'334);
  }

  // NACKs `seqs` and returns the (seq, digest) of every retransmission.
  std::vector<std::pair<uint16_t, uint64_t>> Nack(
      std::vector<uint16_t> seqs) {
    rtp::Nack nack;
    nack.sender_ssrc = 7;
    nack.media_ssrc = peer_->video_ssrc();
    nack.sequence_numbers = std::move(seqs);
    retransmitted_.clear();
    collecting_retransmissions_ = true;
    peer_->OnPacket(net::MakePacket(
        {kSfu, 5000}, {peer_->address(), PeerConfig{}.base_port},
        rtp::Serialize(rtp::RtcpMessage{nack})));
    sched_.RunUntil(sched_.now());
    collecting_retransmissions_ = false;
    return retransmitted_;
  }

  uint16_t newest() const { return newest_; }
  uint64_t originals() const { return originals_; }
  uint64_t latest(uint16_t seq) const { return latest_[seq]; }

 private:
  static uint64_t Digest(const std::vector<uint8_t>& bytes) {
    uint64_t h = 1469598103934665603ull;
    for (uint8_t b : bytes) h = (h ^ b) * 1099511628211ull;
    return h;
  }

  sim::Scheduler sched_;
  sim::Network net_;
  std::unique_ptr<Peer> peer_;
  std::vector<uint64_t> latest_ = std::vector<uint64_t>(65536, 0);
  std::vector<std::pair<uint16_t, uint64_t>> retransmitted_;
  bool collecting_retransmissions_ = false;
  uint16_t newest_ = 0;
  uint64_t originals_ = 0;
};

// The history serves exactly the last `retransmit_history` packets sent:
// the oldest retained one is served with its original bytes, the one
// before it is ignored — also right after the 65535 -> 0 wrap.
TEST(PeerHistoryTest, ServesExactlyTheLastNPacketsAcrossTheWrap) {
  for (size_t history : {size_t{1024}, size_t{1000}}) {
    SCOPED_TRACE(history);
    HistoryBench bench(history);
    bench.JoinMeeting();
    for (uint64_t upto : {uint64_t{3000}, uint64_t{65'540}}) {
      bench.SendAtLeast(upto - bench.originals());
      const uint16_t newest = bench.newest();
      const auto oldest = static_cast<uint16_t>(newest - (history - 1));
      const auto evicted = static_cast<uint16_t>(oldest - 1);
      auto got = bench.Nack({evicted, oldest, newest});
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0].first, oldest);
      EXPECT_EQ(got[0].second, bench.latest(oldest));
      EXPECT_EQ(got[1].first, newest);
      EXPECT_EQ(got[1].second, bench.latest(newest));
    }
    // Both sides of the wrap are retained.
    ASSERT_LT(bench.newest(), 200);
    auto got = bench.Nack({65'535, 0});
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].second, bench.latest(65'535));
    EXPECT_EQ(got[1].second, bench.latest(0));
    EXPECT_EQ(bench.peer().stats().retransmissions_sent, 6u);
  }
}

TEST(PeerHistoryTest, ZeroHistoryServesNothing) {
  HistoryBench bench(0);
  bench.JoinMeeting();
  bench.SendAtLeast(500);
  EXPECT_TRUE(bench.Nack({1, 100, bench.newest()}).empty());
  EXPECT_EQ(bench.peer().stats().retransmissions_sent, 0u);
}

// A rejoin restarts the packetizer in the same sequence space: a NACK must
// never be answered with bytes from before the Leave.
TEST(PeerHistoryTest, RejoinNeverRetransmitsStaleBytes) {
  HistoryBench bench(1024);
  bench.JoinMeeting();
  bench.SendAtLeast(500);
  ASSERT_GE(bench.newest(), 300);
  const uint64_t old100 = bench.latest(100);
  bench.peer().Leave();
  EXPECT_TRUE(bench.Nack({100, 300}).empty());
  bench.JoinMeeting();
  EXPECT_TRUE(bench.Nack({100, 300}).empty());
  bench.SendAtLeast(150);
  ASSERT_LT(bench.newest(), 300);
  auto got = bench.Nack({100, 300});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 100);
  EXPECT_EQ(got[0].second, bench.latest(100));
  EXPECT_NE(got[0].second, old100);
}

}  // namespace
}  // namespace scallop::client
