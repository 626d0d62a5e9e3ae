// WebRTC client endpoint model: what a browser tab runs in the paper's
// testbed. One Peer owns an SVC video encoder + packetizer, an audio
// source, per-remote-sender receive pipelines with GCC bandwidth
// estimation, RTCP generation (SR/SDES, RR+REMB, NACK, PLI), a
// retransmission history, and STUN keepalives. It implements the
// controller's SignalingClient interface so the per-participant stream
// split (paper §5.3) is negotiated exactly as in Scallop.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "bwe/estimator.hpp"
#include "core/controller.hpp"
#include "media/audio.hpp"
#include "media/encoder.hpp"
#include "media/packetizer.hpp"
#include "media/receiver.hpp"
#include "net/packet.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "stun/stun.hpp"
#include "util/bytes.hpp"

namespace scallop::client {

struct PeerConfig {
  PeerConfig() {
    // Allow upgrade probing: the estimate may exceed the throttled
    // incoming rate by 2x, so a receiver recovering from an SFU-side
    // downgrade can signal headroom (WebRTC solves this with padding
    // probes; the cap plays that role here).
    bwe.aimd.max_rate_multiplier = 2.0;
  }

  net::Ipv4 address;
  uint16_t base_port = 40'000;
  bool send_video = true;
  bool send_audio = true;
  media::SvcEncoderConfig encoder;
  // RTCP cadences calibrated against the paper's Table 1.
  util::DurationUs sr_interval = util::Millis(350);
  util::DurationUs remb_interval = util::Millis(220);
  util::DurationUs rr_interval = util::Seconds(5);
  util::DurationUs stun_interval = util::Millis(2500);
  util::DurationUs tick_interval = util::Millis(50);
  bwe::EstimatorConfig bwe;
  size_t retransmit_history = 1024;
  uint64_t seed = 1;
  // Observability: called for every received media packet with the
  // sender-stamped send time (abs-send-time) and the arrival time.
  std::function<void(uint32_t ssrc, util::TimeUs send_time,
                     util::TimeUs arrival)>
      media_tap;
};

struct PeerStats {
  uint64_t rtp_sent = 0;
  uint64_t rtcp_sent = 0;
  uint64_t stun_sent = 0;
  uint64_t retransmissions_sent = 0;
  uint64_t keyframes_on_pli = 0;
  uint64_t remb_received = 0;
  uint64_t nack_received = 0;
  uint64_t pli_received = 0;
  uint64_t stun_rtt_samples = 0;
  double last_stun_rtt_ms = 0.0;
};

class Peer : public sim::Host, public core::SignalingClient {
 public:
  Peer(sim::Scheduler& sched, sim::Network& network, const PeerConfig& cfg);
  ~Peer() override;

  // Joins a meeting through a signaling server (SDP offer/answer + legs);
  // works against both Scallop's controller and the software SFU.
  void Join(core::SignalingServer& server, core::MeetingId meeting);
  void Leave();

  // sim::Host
  void OnPacket(net::PacketPtr pkt) override;

  // core::SignalingClient
  net::Endpoint AllocateLocalLeg(core::ParticipantId sender) override;
  void OnRemoteLegReady(core::ParticipantId sender, uint32_t video_ssrc,
                        uint32_t audio_ssrc,
                        net::Endpoint sfu_endpoint) override;
  void OnRemoteSenderLeft(core::ParticipantId sender) override;

  core::ParticipantId id() const { return id_; }
  net::Ipv4 address() const { return cfg_.address; }
  uint32_t video_ssrc() const { return video_ssrc_; }
  uint32_t audio_ssrc() const { return audio_ssrc_; }
  const PeerStats& stats() const { return stats_; }
  media::SvcEncoder* encoder() { return encoder_.get(); }

  // Receive pipeline for a remote sender (nullptr if none).
  const media::VideoReceiver* video_receiver(core::ParticipantId sender) const;
  const media::AudioReceiver* audio_receiver(core::ParticipantId sender) const;
  const bwe::ReceiverBandwidthEstimator* bwe_for(
      core::ParticipantId sender) const;
  // All remote senders currently known.
  std::vector<core::ParticipantId> remote_senders() const;

 private:
  struct RemoteLeg {
    core::ParticipantId sender = 0;
    net::Endpoint local;       // our endpoint for this leg
    net::Endpoint sfu;         // SFU endpoint for this leg
    uint32_t video_ssrc = 0;
    uint32_t audio_ssrc = 0;
    std::unique_ptr<media::VideoReceiver> video;
    std::unique_ptr<media::AudioReceiver> audio;
    std::unique_ptr<bwe::ReceiverBandwidthEstimator> bwe;
    uint32_t highest_video_seq_ext = 0;  // for RR report blocks
    uint64_t video_packets = 0;
    util::TimeUs last_rr = 0;  // standalone receiver reports
  };

  void StartMedia();
  void SendVideoFrame();
  void SendAudioFrame();
  void SendSenderReports();
  void SendReceiverFeedback(RemoteLeg& leg, bool include_remb);
  void SendStun();
  void Tick();
  void HandleMediaPacket(RemoteLeg& leg, const rtp::RtpPacket& pkt,
                         util::TimeUs arrival, size_t wire_bytes);
  void HandleRtcp(RemoteLeg* leg, std::span<const uint8_t> payload);
  void HandleNack(const rtp::Nack& nack);
  void Transmit(net::Endpoint from, net::Endpoint to,
                std::vector<uint8_t> payload);
  // A pooled packet on the uplink leg; the caller writes its payload over
  // the pooled buffer (media paths) instead of swapping in a fresh one.
  net::PacketPtr UplinkPacket() const;
  RemoteLeg* LegByLocalPort(uint16_t port);
  size_t LegIndex(uint16_t port) const {
    return static_cast<uint16_t>(port - cfg_.base_port - 1);
  }

  sim::Scheduler& sched_;
  sim::Network& network_;
  PeerConfig cfg_;
  core::SignalingServer* server_ = nullptr;
  core::MeetingId meeting_ = 0;
  core::ParticipantId id_ = 0;

  net::Endpoint media_local_;  // uplink leg, local side
  net::Endpoint uplink_sfu_;   // uplink leg, SFU side
  uint16_t next_local_port_;
  uint32_t video_ssrc_ = 0;
  uint32_t audio_ssrc_ = 0;

  std::unique_ptr<media::SvcEncoder> encoder_;
  std::unique_ptr<media::Packetizer> packetizer_;
  std::unique_ptr<media::AudioSource> audio_source_;
  uint32_t video_packet_count_ = 0;
  uint32_t video_octet_count_ = 0;
  uint32_t audio_packet_count_ = 0;
  uint32_t audio_octet_count_ = 0;

  std::map<core::ParticipantId, RemoteLeg> legs_;  // by sender
  // Leg by local port for the per-packet receive path, indexed by
  // LegIndex(port): local ports are minted sequentially from
  // base_port + 1. legs_ is node-based, so RemoteLeg addresses are stable.
  std::vector<RemoteLeg*> port_to_leg_;

  // Retransmission history: the wire bytes of the last
  // `retransmit_history` video packets sent, in send order. Slot i holds
  // send number i mod capacity, so the newest is at history_next_ - 1 and
  // a seq `d` behind the newest sits `d` slots before it (the packetizer
  // numbers consecutively). A slot keeps the bytes as header plus trailing
  // run: media bodies are one repeated byte, so a slot costs about a
  // header, and its buffer keeps its capacity.
  struct SentPacket {
    uint16_t seq = 0;
    util::TrailingRunBytes wire;
  };
  void RememberSent(uint16_t seq, std::span<const uint8_t> wire);
  const SentPacket* FindSent(uint16_t seq) const;
  std::vector<SentPacket> history_;
  size_t history_next_ = 0;  // slot of the next packet sent
  // Received media packets are parsed into one long-lived RtpPacket per
  // kind, so audio (one extension) and video (two) never shrink each
  // other's extension vectors and free their buffers.
  rtp::RtpPacket rx_video_;
  rtp::RtpPacket rx_audio_;

  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks_;
  std::map<uint64_t, util::TimeUs> stun_inflight_;  // tid hash -> send time
  uint64_t stun_counter_ = 0;

  PeerStats stats_;
};

}  // namespace scallop::client
