#include <gtest/gtest.h>

#include <algorithm>

#include "media/audio.hpp"
#include "media/encoder.hpp"
#include "media/packetizer.hpp"
#include "media/receiver.hpp"
#include "util/random.hpp"

namespace scallop::media {
namespace {

SvcEncoderConfig TestEncoderConfig() {
  SvcEncoderConfig cfg;
  cfg.fps = 30.0;
  cfg.start_bitrate_bps = 1'200'000;
  cfg.key_frame_interval = util::Seconds(1000);  // only explicit key frames
  cfg.size_jitter = 0.0;
  return cfg;
}

TEST(Encoder, FirstFrameIsKey) {
  SvcEncoder enc(TestEncoderConfig(), 1);
  auto f = enc.NextFrame(0);
  EXPECT_TRUE(f.key_frame);
  EXPECT_EQ(f.template_id, 0);
  EXPECT_EQ(f.frame_number, 1);
}

TEST(Encoder, FollowsL1T3Pattern) {
  SvcEncoder enc(TestEncoderConfig(), 1);
  std::vector<uint8_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(enc.NextFrame(i * 33'333).template_id);
  }
  EXPECT_EQ(ids, (std::vector<uint8_t>{0, 3, 2, 4, 1, 3, 2, 4}));
}

TEST(Encoder, MeanRateTracksTarget) {
  SvcEncoderConfig cfg = TestEncoderConfig();
  cfg.size_jitter = 0.15;
  SvcEncoder enc(cfg, 2);
  size_t total = 0;
  int n = 3000;
  for (int i = 0; i < n; ++i) {
    total += enc.NextFrame(i * 33'333).size_bytes;
  }
  double measured_bps = static_cast<double>(total) * 8.0 /
                        (static_cast<double>(n) / 30.0);
  // Within 10% (key frames add some excess).
  EXPECT_NEAR(measured_bps, 1'200'000, 120'000);
}

TEST(Encoder, SetTargetBitrateClamped) {
  SvcEncoder enc(TestEncoderConfig(), 1);
  enc.SetTargetBitrate(10);
  EXPECT_EQ(enc.target_bitrate(), enc.config().min_bitrate_bps);
  enc.SetTargetBitrate(100'000'000);
  EXPECT_EQ(enc.target_bitrate(), enc.config().max_bitrate_bps);
}

TEST(Encoder, RequestKeyFrameDeferredToPhaseZero) {
  SvcEncoder enc(TestEncoderConfig(), 1);
  enc.NextFrame(0);  // frame 1: key at phase 0
  enc.NextFrame(1);  // frame 2
  enc.RequestKeyFrame();
  // Frames 3 and 4 are mid-cycle: the key is deferred to the next GOP
  // boundary (phase-0 slot) so the SFU's cadence anchor stays valid.
  EXPECT_FALSE(enc.NextFrame(2).key_frame);
  EXPECT_FALSE(enc.NextFrame(3).key_frame);
  auto f = enc.NextFrame(4);
  EXPECT_TRUE(f.key_frame);
  EXPECT_EQ(f.template_id, 0);
  EXPECT_EQ((f.frame_number - 1) % 4, 0);  // keys land on anchor slots
}

TEST(Encoder, PeriodicKeyFrames) {
  SvcEncoderConfig cfg = TestEncoderConfig();
  cfg.key_frame_interval = util::Seconds(2);
  SvcEncoder enc(cfg, 1);
  int keys = 0;
  for (int i = 0; i < 300; ++i) {  // 10 seconds
    if (enc.NextFrame(i * 33'333).key_frame) ++keys;
  }
  EXPECT_GE(keys, 5);
  EXPECT_LE(keys, 6);
}

TEST(Packetizer, SplitsLargeFrames) {
  Packetizer p(PacketizerConfig{.max_payload_bytes = 1200, .ssrc = 7});
  EncodedFrame f;
  f.frame_number = 1;
  f.template_id = 0;
  f.key_frame = true;
  f.size_bytes = 3000;
  f.capture_time = 1'000'000;
  auto pkts = p.Packetize(f, 1'000'000);
  ASSERT_EQ(pkts.size(), 3u);
  EXPECT_FALSE(pkts[0].marker);
  EXPECT_TRUE(pkts[2].marker);
  EXPECT_EQ(pkts[0].sequence_number + 1, pkts[1].sequence_number);
  EXPECT_EQ(pkts[0].ssrc, 7u);

  auto dd0 = av1::PeekMandatory(pkts[0].FindExtension(av1::kDdExtensionId)->data);
  ASSERT_TRUE(dd0.has_value());
  EXPECT_TRUE(dd0->start_of_frame);
  EXPECT_FALSE(dd0->end_of_frame);
  EXPECT_TRUE(dd0->has_extended);  // key frame carries the structure
  auto dd2 = av1::PeekMandatory(pkts[2].FindExtension(av1::kDdExtensionId)->data);
  EXPECT_FALSE(dd2->start_of_frame);
  EXPECT_TRUE(dd2->end_of_frame);
  EXPECT_FALSE(dd2->has_extended);
}

TEST(Packetizer, SinglePacketFrame) {
  Packetizer p(PacketizerConfig{});
  EncodedFrame f;
  f.frame_number = 9;
  f.size_bytes = 500;
  auto pkts = p.Packetize(f, 0);
  ASSERT_EQ(pkts.size(), 1u);
  EXPECT_TRUE(pkts[0].marker);
  auto dd = av1::PeekMandatory(pkts[0].FindExtension(av1::kDdExtensionId)->data);
  EXPECT_TRUE(dd->start_of_frame);
  EXPECT_TRUE(dd->end_of_frame);
}

TEST(Packetizer, AbsSendTimeRoundTrip) {
  util::TimeUs t = 12'345'678;
  auto enc = EncodeAbsSendTime(t);
  util::TimeUs decoded = DecodeAbsSendTime(enc);
  EXPECT_NEAR(static_cast<double>(decoded), static_cast<double>(t), 4.0);
}

TEST(Audio, ConstantStream) {
  AudioSource src(AudioSourceConfig{.ssrc = 5});
  auto p1 = src.NextPacket(0);
  auto p2 = src.NextPacket(20'000);
  EXPECT_EQ(p1.ssrc, 5u);
  EXPECT_EQ(p2.sequence_number, p1.sequence_number + 1);
  EXPECT_EQ(p1.payload.size(), 160u);
  EXPECT_EQ(p2.timestamp - p1.timestamp, 960u);  // 20 ms at 48 kHz
}

// ---------- Receiver pipeline ----------

class ReceiverHarness {
 public:
  ReceiverHarness()
      : receiver_(
            VideoReceiverConfig{},
            [this](const std::vector<uint16_t>& s) {
              nacks.insert(nacks.end(), s.begin(), s.end());
            },
            [this] { ++plis; }),
        packetizer_(PacketizerConfig{.max_payload_bytes = 1200, .ssrc = 1}),
        encoder_(TestEncoderConfig(), 3) {}

  // Generates `n` frames and returns all packets.
  std::vector<rtp::RtpPacket> GenerateFrames(int n) {
    std::vector<rtp::RtpPacket> out;
    for (int i = 0; i < n; ++i) {
      util::TimeUs t = next_time_;
      next_time_ += 33'333;
      auto frame = encoder_.NextFrame(t);
      for (auto& pkt : packetizer_.Packetize(frame, t)) {
        out.push_back(std::move(pkt));
      }
    }
    return out;
  }

  void Deliver(const rtp::RtpPacket& pkt, util::TimeUs at) {
    receiver_.OnPacket(pkt, at);
  }

  VideoReceiver receiver_;
  Packetizer packetizer_;
  SvcEncoder encoder_;
  util::TimeUs next_time_ = 0;
  std::vector<uint16_t> nacks;
  int plis = 0;
};

TEST(VideoReceiverTest, DecodesCleanStream) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(30);
  util::TimeUs t = 0;
  for (const auto& p : pkts) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_EQ(h.receiver_.stats().frames_decoded, 30u);
  EXPECT_EQ(h.receiver_.stats().frames_undecodable, 0u);
  EXPECT_TRUE(h.nacks.empty());
  EXPECT_EQ(h.receiver_.stats().key_frames_decoded, 1u);
}

TEST(VideoReceiverTest, GapTriggersNackAfterReorderTolerance) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(10);
  ASSERT_GT(pkts.size(), 5u);
  util::TimeUs t = 0;
  for (size_t i = 0; i < pkts.size(); ++i) {
    if (i == 4) continue;  // drop one packet
    h.Deliver(pkts[i], t);
    t += 100;
  }
  // No NACK yet: the gap could be micro-reordering.
  h.receiver_.OnTick(t + 1'000);
  EXPECT_TRUE(h.nacks.empty());
  // Past the reorder tolerance the NACK goes out.
  h.receiver_.OnTick(t + 30'000);
  ASSERT_FALSE(h.nacks.empty());
  EXPECT_EQ(h.nacks[0], pkts[4].sequence_number);
}

TEST(VideoReceiverTest, RetransmissionRecoversFrame) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(10);
  util::TimeUs t = 0;
  for (size_t i = 0; i < pkts.size(); ++i) {
    if (i == 4) continue;
    h.Deliver(pkts[i], t);
    t += 1'000;
  }
  uint64_t before = h.receiver_.stats().frames_decoded;
  h.Deliver(pkts[4], t + 10'000);  // retransmission arrives
  EXPECT_GT(h.receiver_.stats().frames_decoded, before);
  EXPECT_EQ(h.receiver_.stats().recovered_packets, 1u);
  EXPECT_EQ(h.receiver_.stats().frames_undecodable, 0u);
}

TEST(VideoReceiverTest, ConflictingDuplicateBreaksDecoderUntilKeyFrame) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(8);
  util::TimeUs t = 0;
  for (const auto& p : pkts) {
    h.Deliver(p, t);
    t += 1'000;
  }
  uint64_t decoded_before = h.receiver_.stats().frames_decoded;

  // A "bad rewrite": same sequence number as an already-received packet but
  // different frame content.
  rtp::RtpPacket bogus = pkts[3];
  av1::DependencyDescriptor dd;
  dd.template_id = 2;
  dd.frame_number = 999;
  bogus.SetExtension(av1::kDdExtensionId, dd.Serialize());
  h.Deliver(bogus, t);

  EXPECT_EQ(h.receiver_.stats().decoder_breaks, 1u);

  // Subsequent delta frames are NOT decoded.
  auto more = h.GenerateFrames(8);
  for (const auto& p : more) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_EQ(h.receiver_.stats().frames_decoded, decoded_before);

  // A key frame recovers the decoder.
  h.encoder_.RequestKeyFrame();
  auto recovery = h.GenerateFrames(4);
  for (const auto& p : recovery) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_GT(h.receiver_.stats().frames_decoded, decoded_before);
}

TEST(VideoReceiverTest, AbandonedLossFreezesUntilKeyFrame) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(6);
  util::TimeUs t = 0;
  // Find a packet belonging to a TL0 frame (frame 5 in pattern) and drop it
  // permanently: everything referencing it becomes undecodable.
  size_t drop_idx = 0;
  for (size_t i = 0; i < pkts.size(); ++i) {
    auto dd = av1::PeekMandatory(
        pkts[i].FindExtension(av1::kDdExtensionId)->data);
    if (dd->frame_number == 5) {
      drop_idx = i;
      break;
    }
  }
  ASSERT_GT(drop_idx, 0u);
  for (size_t i = 0; i < pkts.size(); ++i) {
    if (i == drop_idx) continue;
    h.Deliver(pkts[i], t);
    t += 1'000;
  }
  // Time passes beyond the abandon timeout; receiver gives up.
  t += 600'000;
  h.receiver_.OnTick(t);
  uint64_t decoded_before = h.receiver_.stats().frames_decoded;

  auto more = h.GenerateFrames(12);  // frames 7..18, many depend on frame 5
  for (const auto& p : more) {
    h.Deliver(p, t);
    t += 1'000;
  }
  h.receiver_.OnTick(t);
  // Some frames after the abandoned one must be undecodable.
  EXPECT_GT(h.receiver_.stats().frames_undecodable, 0u);

  h.encoder_.RequestKeyFrame();
  for (const auto& p : h.GenerateFrames(4)) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_GT(h.receiver_.stats().frames_decoded, decoded_before);
}

TEST(VideoReceiverTest, SvcFilteredStreamStillDecodes) {
  // Simulates what Scallop's data plane does at DT1: drop TL2 packets and
  // rewrite seq numbers to close gaps. The receiver should decode at half
  // rate with zero NACKs.
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(41);
  util::TimeUs t = 0;
  uint16_t out_seq = 1;
  int forwarded_frames = 0;
  for (auto p : pkts) {
    auto dd = av1::PeekMandatory(p.FindExtension(av1::kDdExtensionId)->data);
    if (!av1::TemplateInDecodeTarget(dd->template_id,
                                     av1::DecodeTarget::kDT1)) {
      continue;  // drop TL2
    }
    p.sequence_number = out_seq++;  // gapless rewrite
    h.Deliver(p, t);
    t += 1'000;
    if (dd->end_of_frame) ++forwarded_frames;
  }
  EXPECT_TRUE(h.nacks.empty());
  EXPECT_EQ(h.receiver_.stats().frames_decoded,
            static_cast<uint64_t>(forwarded_frames));
  // 41 frames: key + 40 in cycles of 4 -> half survive DT1 filtering.
  EXPECT_NEAR(static_cast<double>(forwarded_frames), 21.0, 1.0);
}

TEST(VideoReceiverTest, FreezeDetectionSendsPli) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(5);
  util::TimeUs t = 0;
  for (const auto& p : pkts) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_FALSE(h.receiver_.frozen(t));
  // Nothing arrives for 2 seconds.
  h.receiver_.OnTick(t + util::Seconds(2));
  EXPECT_TRUE(h.receiver_.frozen(t + util::Seconds(2)));
  EXPECT_GE(h.plis, 1);
  EXPECT_GT(h.receiver_.stats().total_freeze_ms, 1000.0);
}

TEST(VideoReceiverTest, ColdStartWithoutKeyFrameSendsPli) {
  // A receiver attached mid-stream (late join / rejoin) sees only delta
  // frames: nothing ever decodes, so the freeze detector has no decode
  // timestamp to key off. It must still PLI instead of waiting for the
  // sender's periodic key-frame refresh.
  ReceiverHarness h;
  h.GenerateFrames(1);  // key frame lost to the pre-join past
  auto pkts = h.GenerateFrames(8);
  util::TimeUs t = 0;
  for (const auto& p : pkts) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_EQ(h.receiver_.stats().frames_decoded, 0u);
  EXPECT_EQ(h.plis, 0);
  // Past the freeze threshold with zero decodes: PLI goes out.
  h.receiver_.OnTick(t + util::Seconds(1));
  EXPECT_GE(h.plis, 1);

  // The PLI-triggered key frame unblocks decoding.
  h.encoder_.RequestKeyFrame();
  auto refresh = h.GenerateFrames(6);
  t += util::Seconds(1);
  for (const auto& p : refresh) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_GT(h.receiver_.stats().frames_decoded, 0u);
}

TEST(VideoReceiverTest, PerSecondSeries) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(60);  // 2 seconds of video
  for (const auto& p : pkts) {
    // Deliver at capture time (timestamp is 90 kHz).
    util::TimeUs t = static_cast<util::TimeUs>(p.timestamp) * 1000 / 90;
    h.Deliver(p, t);
  }
  EXPECT_NEAR(h.receiver_.decoded_fps_series().SumInSecond(0), 30.0, 1.0);
  EXPECT_NEAR(h.receiver_.decoded_fps_series().SumInSecond(1), 30.0, 1.0);
  EXPECT_GT(h.receiver_.received_bytes_series().SumInSecond(0), 0.0);
}

// ---------- Receiver semantics pins ----------
// Hand-built packets with explicit sequence and frame numbers, so each
// case hits one edge of the duplicate window, the frame assembler or the
// decoder exactly. The expected counts are part of the receiver's
// contract; a storage change must leave every one of them unchanged.

rtp::RtpPacket PinPacket(uint16_t seq, uint16_t frame, uint8_t template_id,
                         bool start = true, bool end = true,
                         size_t bytes = 100) {
  rtp::RtpPacket p;
  p.payload_type = 96;
  p.sequence_number = seq;
  p.timestamp = static_cast<uint32_t>(frame) * 3000;
  p.ssrc = 1;
  av1::DependencyDescriptor dd;
  dd.start_of_frame = start;
  dd.end_of_frame = end;
  dd.template_id = template_id;
  dd.frame_number = frame;
  p.SetExtension(av1::kDdExtensionId, dd.Serialize());
  p.payload.assign(bytes, 0xab);
  return p;
}

// L1T3 template of frame `n` when frame `key` is the last key frame.
uint8_t PinTemplate(int64_t n, int64_t key = 1) {
  if (n == key) return 0;
  static constexpr uint8_t kCycle[4] = {3, 2, 4, 1};
  return kCycle[(n - key - 1) % 4];
}

struct PinRx {
  PinRx()
      : rx(
            VideoReceiverConfig{},
            [this](const std::vector<uint16_t>& s) {
              nacks.insert(nacks.end(), s.begin(), s.end());
            },
            [this] { ++plis; }) {}
  VideoReceiver rx;
  std::vector<uint16_t> nacks;
  int plis = 0;
};

// Single-packet frames: seq `first + i` carries frame `1 + i`.
void FeedSinglePacketFrames(PinRx& h, uint16_t first, int count,
                            util::TimeUs& t) {
  for (int i = 0; i < count; ++i) {
    int64_t frame = 1 + i;
    h.rx.OnPacket(PinPacket(static_cast<uint16_t>(first + i),
                            static_cast<uint16_t>(frame), PinTemplate(frame)),
                  t);
    t += 1'000;
  }
}

TEST(VideoReceiverPin, DuplicateWindowEdges) {
  PinRx h;
  util::TimeUs t = 0;
  FeedSinglePacketFrames(h, 1, 5000, t);  // seen_max = 5000
  const auto& st = h.rx.stats();
  ASSERT_EQ(st.frames_decoded, 5000u);
  ASSERT_EQ(st.duplicate_packets, 0u);

  // seen_max - 4096 is still inside the window: a duplicate.
  h.rx.OnPacket(PinPacket(904, 904, PinTemplate(904)), t);
  EXPECT_EQ(st.duplicate_packets, 1u);
  EXPECT_EQ(st.packets_received, 5001u);
  // seen_max - 4097 has aged out: accepted as a new (very late) packet.
  h.rx.OnPacket(PinPacket(903, 903, PinTemplate(903)), t);
  EXPECT_EQ(st.duplicate_packets, 1u);
  EXPECT_EQ(st.packets_received, 5002u);
  EXPECT_EQ(st.conflicting_duplicates, 0u);
  EXPECT_EQ(st.decoder_breaks, 0u);
}

TEST(VideoReceiverPin, VeryLatePacketStaysDuplicateUntilNewerPacket) {
  PinRx h;
  util::TimeUs t = 0;
  FeedSinglePacketFrames(h, 1, 6000, t);
  const auto& st = h.rx.stats();
  // 1000 is 5000 behind: accepted, and it re-enters the window.
  h.rx.OnPacket(PinPacket(1000, 1000, PinTemplate(1000)), t);
  EXPECT_EQ(st.duplicate_packets, 0u);
  // Its immediate duplicate is detected (nothing newer pruned it yet) —
  // and with different content it is a conflicting one.
  h.rx.OnPacket(PinPacket(1000, 1000, PinTemplate(1000)), t);
  EXPECT_EQ(st.duplicate_packets, 1u);
  h.rx.OnPacket(PinPacket(1000, 77, 2), t);
  EXPECT_EQ(st.duplicate_packets, 2u);
  EXPECT_EQ(st.conflicting_duplicates, 1u);
  EXPECT_EQ(st.decoder_breaks, 1u);
  // A newer packet prunes it; the next copy is new again.
  h.rx.OnPacket(PinPacket(6001, 6001, PinTemplate(6001)), t);
  h.rx.OnPacket(PinPacket(1000, 1000, PinTemplate(1000)), t);
  EXPECT_EQ(st.duplicate_packets, 2u);
  EXPECT_EQ(st.packets_received, 6005u);
  // Duplicates never prune: a late packet followed by duplicates of
  // itself stays detectable until a newer non-duplicate arrives.
  h.rx.OnPacket(PinPacket(1000, 1000, PinTemplate(1000)), t);
  EXPECT_EQ(st.duplicate_packets, 3u);
}

TEST(VideoReceiverPin, ConflictingDuplicateAfterReordering) {
  PinRx h;
  util::TimeUs t = 0;
  for (uint16_t s : {1, 2, 3, 5, 4, 7, 6, 8}) {
    h.rx.OnPacket(PinPacket(s, s, PinTemplate(s)), t);
    t += 1'000;
  }
  const auto& st = h.rx.stats();
  EXPECT_EQ(st.frames_decoded, 8u);
  EXPECT_EQ(st.duplicate_packets, 0u);
  // Same content at a reordered seq: a benign duplicate.
  h.rx.OnPacket(PinPacket(4, 4, PinTemplate(4)), t);
  EXPECT_EQ(st.duplicate_packets, 1u);
  EXPECT_EQ(st.conflicting_duplicates, 0u);
  // Same seq, another frame's content: breaks the decoder.
  h.rx.OnPacket(PinPacket(6, 9, PinTemplate(9)), t);
  EXPECT_EQ(st.duplicate_packets, 2u);
  EXPECT_EQ(st.conflicting_duplicates, 1u);
  EXPECT_EQ(st.decoder_breaks, 1u);
  // Delta frames stay undecodable until the next key frame.
  h.rx.OnPacket(PinPacket(9, 9, PinTemplate(9)), t);
  EXPECT_EQ(st.frames_decoded, 8u);
  EXPECT_EQ(st.frames_undecodable, 1u);
  h.rx.OnPacket(PinPacket(10, 10, 0), t);
  EXPECT_EQ(st.frames_decoded, 9u);
  EXPECT_EQ(st.key_frames_decoded, 2u);
}

TEST(VideoReceiverPin, OutOfOrderAssemblyAndKeyFrameSkip) {
  PinRx h;
  util::TimeUs t = 0;
  // Frame 1 (key) in three packets, delivered end, start, middle.
  h.rx.OnPacket(PinPacket(3, 1, 0, false, true), t);
  h.rx.OnPacket(PinPacket(1, 1, 0, true, false), t);
  EXPECT_EQ(h.rx.stats().frames_decoded, 0u);
  h.rx.OnPacket(PinPacket(2, 1, 0, false, false), t);
  EXPECT_EQ(h.rx.stats().frames_decoded, 1u);
  // Frame 2 complete, frame 3 loses its middle packet, frame 4 loses its
  // start, frame 5 is a complete key frame: the decoder decodes 2 and then
  // skips 3 and 4 (both incomplete) to resync on 5.
  t += 1'000;
  h.rx.OnPacket(PinPacket(4, 2, PinTemplate(2), true, true), t);
  h.rx.OnPacket(PinPacket(5, 3, PinTemplate(3), true, false), t);
  h.rx.OnPacket(PinPacket(7, 3, PinTemplate(3), false, true), t);
  h.rx.OnPacket(PinPacket(9, 4, PinTemplate(4), false, true), t);
  const auto& st = h.rx.stats();
  EXPECT_EQ(st.frames_decoded, 2u);
  h.rx.OnPacket(PinPacket(11, 5, 0, false, true), t);
  h.rx.OnPacket(PinPacket(10, 5, 0, true, false), t);
  EXPECT_EQ(st.frames_decoded, 3u);
  EXPECT_EQ(st.key_frames_decoded, 2u);
  EXPECT_EQ(st.frames_undecodable, 2u);
  EXPECT_EQ(st.frames_completed, 3u);
  // The missing packets (6, 8, and 10 seen as a gap) count as recoveries.
  // 6 and 8 belong to dropped frames: they re-open frames 3 and 4 as
  // incomplete pending entries, which hold frame 6 back (it depends on
  // key frame 5) until the next complete key frame.
  h.rx.OnPacket(PinPacket(6, 3, PinTemplate(3), false, false), t);
  h.rx.OnPacket(PinPacket(8, 4, PinTemplate(4), true, false), t);
  EXPECT_EQ(st.recovered_packets, 3u);
  EXPECT_EQ(st.frames_decoded, 3u);
  h.rx.OnPacket(PinPacket(12, 6, PinTemplate(6, 5)), t);
  EXPECT_EQ(st.frames_decoded, 3u);
  h.rx.OnPacket(PinPacket(13, 7, 0), t);
  EXPECT_EQ(st.frames_decoded, 4u);
  EXPECT_EQ(st.frames_undecodable, 5u);
}

TEST(VideoReceiverPin, RecentFpsKeepsLast256Decodes) {
  PinRx h;
  util::TimeUs t = 0;
  for (int i = 0; i < 300; ++i) {
    int64_t frame = 1 + i;
    h.rx.OnPacket(PinPacket(static_cast<uint16_t>(frame),
                            static_cast<uint16_t>(frame), PinTemplate(frame)),
                  t);
    t += 33'333;
  }
  const util::TimeUs now = t - 33'333;
  EXPECT_EQ(h.rx.stats().frames_decoded, 300u);
  // One second back covers 31 decodes (both ends inclusive).
  EXPECT_DOUBLE_EQ(h.rx.RecentFps(now), 31.0);
  // A window wider than the whole run still counts only the last 256.
  EXPECT_DOUBLE_EQ(h.rx.RecentFps(now, util::Seconds(100)), 2.56);
  EXPECT_DOUBLE_EQ(h.rx.RecentFps(now, util::Millis(100)), 40.0);
}

TEST(VideoReceiverPin, SequenceWrap) {
  PinRx h;
  util::TimeUs t = 0;
  FeedSinglePacketFrames(h, 65'500, 200, t);  // 65500..65535, 0..163
  const auto& st = h.rx.stats();
  EXPECT_EQ(st.frames_decoded, 200u);
  EXPECT_EQ(st.duplicate_packets, 0u);
  EXPECT_TRUE(h.nacks.empty());
  // Duplicates on both sides of the wrap are still recognised.
  h.rx.OnPacket(PinPacket(65'535, 36, PinTemplate(36)), t);
  h.rx.OnPacket(PinPacket(0, 37, PinTemplate(37)), t);
  EXPECT_EQ(st.duplicate_packets, 2u);
  EXPECT_EQ(st.conflicting_duplicates, 0u);
  // Past the wrap, a lost packet is NACKed by its 16-bit seq.
  h.rx.OnPacket(PinPacket(165, 202, PinTemplate(202)), t);
  h.rx.OnTick(t + util::Millis(20));
  EXPECT_EQ(h.nacks, (std::vector<uint16_t>{164}));
}

TEST(VideoReceiverPin, AbandonmentFailsTheNeighbourFrameRange) {
  PinRx h;
  util::TimeUs t = 0;
  // Frames of three packets: frame f owns seqs 3f-2 .. 3f.
  auto send_frame = [&](int64_t f, std::initializer_list<int> skip) {
    for (int k = 0; k < 3; ++k) {
      if (std::find(skip.begin(), skip.end(), k) != skip.end()) continue;
      h.rx.OnPacket(PinPacket(static_cast<uint16_t>(3 * f - 2 + k),
                              static_cast<uint16_t>(f), PinTemplate(f),
                              k == 0, k == 2),
                    t);
    }
    t += 33'333;
  };
  for (int64_t f = 1; f <= 3; ++f) send_frame(f, {});
  send_frame(4, {2});   // loses seq 12 (end of frame 4)
  send_frame(5, {0});   // loses seq 13 (start of frame 5)
  for (int64_t f = 6; f <= 12; ++f) send_frame(f, {});
  const auto& st = h.rx.stats();
  EXPECT_EQ(st.frames_decoded, 3u);
  h.rx.OnTick(t);  // first NACK
  EXPECT_EQ(h.nacks, (std::vector<uint16_t>{12, 13}));
  t += util::Millis(460);
  h.rx.OnTick(t);  // both abandoned: frames 4 and 5 fail
  EXPECT_EQ(st.abandoned_packets, 2u);
  EXPECT_EQ(st.nacks_sent, 1u);
  EXPECT_EQ(st.frames_decoded, 3u);
  EXPECT_EQ(st.frames_undecodable, 9u);
  EXPECT_EQ(st.frames_completed, 10u);
  // A retransmission after abandonment is counted but changes nothing.
  h.rx.OnPacket(PinPacket(12, 4, PinTemplate(4), false, true), t);
  EXPECT_EQ(st.recovered_packets, 1u);
  EXPECT_EQ(st.frames_decoded, 3u);
}

// Pseudo-random stream with reordering, loss, retransmissions,
// duplicates, conflicting rewrites, very late packets and a sequence wrap,
// fed through one receiver. The digest of its counters pins the whole
// receive pipeline's semantics at once.
TEST(VideoReceiverPin, RandomizedStreamDigest) {
  PinRx h;
  util::Rng rng(2024);
  struct Sent {
    uint16_t seq;
    uint16_t frame;
    uint8_t tid;
    bool start, end;
  };
  std::vector<Sent> sent;
  uint16_t seq = 60'000;
  int64_t key = 1;
  for (int64_t f = 1; f <= 2500; ++f) {
    if (f > 1 && rng.Bernoulli(0.03)) key = f;
    int n = static_cast<int>(rng.UniformInt(1, 4));
    for (int k = 0; k < n; ++k) {
      sent.push_back(Sent{seq++, static_cast<uint16_t>(f),
                          PinTemplate(f, key), k == 0, k + 1 == n});
    }
  }
  util::TimeUs t = 0;
  std::vector<size_t> late;
  auto deliver = [&](const Sent& s, uint16_t frame) {
    h.rx.OnPacket(PinPacket(s.seq, frame, s.tid, s.start, s.end), t);
  };
  for (size_t i = 0; i < sent.size(); ++i) {
    t += 2'500;
    if (i % 20 == 0) h.rx.OnTick(t);
    double r = rng.NextDouble();
    if (r < 0.01) continue;                      // lost for good
    if (r < 0.05) { late.push_back(i); continue; }  // delivered later
    deliver(sent[i], sent[i].frame);
    if (rng.Bernoulli(0.02)) deliver(sent[i], sent[i].frame);  // dup
    if (rng.Bernoulli(0.0005)) deliver(sent[i], sent[i].frame + 1);
    if (!late.empty() && rng.Bernoulli(0.3)) {
      size_t j = late[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(late.size()) - 1))];
      deliver(sent[j], sent[j].frame);
    }
    if (i > 5000 && rng.Bernoulli(0.001)) {  // very late (> 4096 behind)
      const Sent& old = sent[i - 4100 - static_cast<size_t>(
                                           rng.UniformInt(0, 400))];
      deliver(old, old.frame);
      deliver(old, old.frame);
    }
  }
  h.rx.OnTick(t + util::Seconds(1));
  const VideoReceiverStats& st = h.rx.stats();
  std::vector<uint64_t> got = {st.packets_received,   st.bytes_received,
                               st.duplicate_packets,  st.conflicting_duplicates,
                               st.nacks_sent,         st.nacked_packets,
                               st.plis_sent,          st.recovered_packets,
                               st.abandoned_packets,  st.frames_completed,
                               st.frames_decoded,     st.key_frames_decoded,
                               st.frames_undecodable, st.decoder_breaks,
                               h.nacks.size(),        static_cast<uint64_t>(h.plis)};
  std::vector<uint64_t> want = {7884, 788400, 1624, 2,   291, 1032,
                                8,    198,    183,  428, 327, 59,
                                2366, 2,      1032, 8};
  EXPECT_EQ(got, want);
  EXPECT_DOUBLE_EQ(st.total_freeze_ms, 6475.0);
  EXPECT_DOUBLE_EQ(h.rx.RecentFps(t, util::Seconds(3)), 10.0);
}

TEST(AudioReceiverTest, CountsGaps) {
  AudioReceiver rx;
  AudioSource src(AudioSourceConfig{.ssrc = 9});
  for (int i = 0; i < 10; ++i) {
    auto p = src.NextPacket(i * 20'000);
    if (i == 5) continue;
    rx.OnPacket(p, i * 20'000);
  }
  EXPECT_EQ(rx.packets_received(), 9u);
  EXPECT_EQ(rx.gaps_detected(), 1u);
}

}  // namespace
}  // namespace scallop::media
