#include "client/peer.hpp"

#include <algorithm>

#include "rtp/classifier.hpp"
#include "rtp/rtcp.hpp"

namespace scallop::client {

namespace {
// SSRCs derived from the peer address: unique across the simulation.
uint32_t DeriveSsrc(net::Ipv4 addr, uint16_t port, uint8_t media) {
  return (addr.value() ^ (static_cast<uint32_t>(port) << 8)) * 4 + media;
}

constexpr uint8_t kAudioPayloadType = media::AudioSourceConfig{}.payload_type;
}  // namespace

Peer::Peer(sim::Scheduler& sched, sim::Network& network, const PeerConfig& cfg)
    : sched_(sched),
      network_(network),
      cfg_(cfg),
      next_local_port_(static_cast<uint16_t>(cfg.base_port + 1)) {
  media_local_ = net::Endpoint{cfg_.address, cfg_.base_port};
  video_ssrc_ = DeriveSsrc(cfg_.address, cfg_.base_port, 1);
  audio_ssrc_ = DeriveSsrc(cfg_.address, cfg_.base_port, 2);
  cfg_.bwe.remb_interval = cfg_.remb_interval;
}

Peer::~Peer() = default;

void Peer::Join(core::SignalingServer& server, core::MeetingId meeting) {
  server_ = &server;
  meeting_ = meeting;

  sdp::SessionDescription offer;
  offer.origin = "peer";
  offer.session_id = video_ssrc_;
  offer.ice_ufrag = "uf" + std::to_string(video_ssrc_);
  offer.ice_pwd = "pw";

  sdp::Candidate cand;
  cand.priority = 100;
  cand.endpoint = media_local_;

  sdp::MediaSection video;
  video.type = sdp::MediaType::kVideo;
  video.payload_type = 96;
  video.codec = "AV1";
  video.clock_rate = 90'000;
  video.ssrc = video_ssrc_;
  video.cname = "peer" + std::to_string(video_ssrc_);
  video.svc_l1t3 = true;
  video.dd_extension_id = av1::kDdExtensionId;
  video.abs_send_time_id = media::kAbsSendTimeExtensionId;
  video.recv_only = !cfg_.send_video;
  video.candidates.push_back(cand);
  offer.media.push_back(video);

  sdp::MediaSection audio;
  audio.type = sdp::MediaType::kAudio;
  audio.payload_type = 111;
  audio.codec = "opus";
  audio.clock_rate = 48'000;
  audio.ssrc = audio_ssrc_;
  audio.cname = video.cname;
  audio.abs_send_time_id = media::kAbsSendTimeExtensionId;
  audio.recv_only = !cfg_.send_audio;
  audio.candidates.push_back(cand);
  offer.media.push_back(audio);

  auto result = server.Join(meeting, offer, this);
  id_ = result.participant;
  uplink_sfu_ = result.uplink_sfu;
  StartMedia();
}

void Peer::Leave() {
  if (server_ != nullptr) {
    server_->Leave(meeting_, id_);
    server_ = nullptr;
  }
  tasks_.clear();
  // Tear down the receive pipelines like a real client closing its
  // decoders: keeping them would misattribute in-flight or post-rejoin
  // packets on reused ports to dead legs.
  legs_.clear();
  port_to_leg_.clear();
  // Drop the retransmission history: a rejoin restarts the packetizer in
  // the same sequence space (deterministic per-peer seed), so serving
  // NACKs from the previous session would retransmit stale frames under
  // live sequence numbers — exactly the conflicting-duplicate corruption
  // the rewriter exists to prevent.
  std::vector<SentPacket>().swap(history_);
  history_next_ = 0;
  stun_inflight_.clear();
}

net::Endpoint Peer::AllocateLocalLeg(core::ParticipantId sender) {
  // Defensive: if a leg for this sender already exists (a renegotiation
  // without an intervening Leave), replace it — emplace below would
  // silently keep the stale one and the new port mapping would dangle.
  auto stale = legs_.find(sender);
  if (stale != legs_.end()) {
    port_to_leg_[LegIndex(stale->second.local.port)] = nullptr;
    legs_.erase(stale);
  }
  net::Endpoint local{cfg_.address, next_local_port_++};
  RemoteLeg leg;
  leg.sender = sender;
  leg.local = local;
  auto [it, inserted] = legs_.emplace(sender, std::move(leg));
  (void)inserted;
  const size_t index = LegIndex(local.port);
  if (index >= port_to_leg_.size()) port_to_leg_.resize(index + 1, nullptr);
  port_to_leg_[index] = &it->second;
  return local;
}

void Peer::OnRemoteLegReady(core::ParticipantId sender, uint32_t video_ssrc,
                            uint32_t audio_ssrc, net::Endpoint sfu_endpoint) {
  auto it = legs_.find(sender);
  if (it == legs_.end()) return;
  RemoteLeg& leg = it->second;
  leg.sfu = sfu_endpoint;
  leg.video_ssrc = video_ssrc;
  leg.audio_ssrc = audio_ssrc;
  leg.bwe = std::make_unique<bwe::ReceiverBandwidthEstimator>(cfg_.bwe);
  leg.audio = std::make_unique<media::AudioReceiver>();

  media::VideoReceiverConfig rx_cfg;
  RemoteLeg* leg_ptr = &leg;
  leg.video = std::make_unique<media::VideoReceiver>(
      rx_cfg,
      [this, leg_ptr](const std::vector<uint16_t>& seqs) {
        rtp::Nack nack;
        nack.sender_ssrc = video_ssrc_;
        nack.media_ssrc = leg_ptr->video_ssrc;
        nack.sequence_numbers = seqs;
        Transmit(leg_ptr->local, leg_ptr->sfu,
                 rtp::Serialize(rtp::RtcpMessage{nack}));
        ++stats_.rtcp_sent;
      },
      [this, leg_ptr] {
        rtp::Pli pli;
        pli.sender_ssrc = video_ssrc_;
        pli.media_ssrc = leg_ptr->video_ssrc;
        Transmit(leg_ptr->local, leg_ptr->sfu,
                 rtp::Serialize(rtp::RtcpMessage{pli}));
        ++stats_.rtcp_sent;
      });
}

void Peer::OnRemoteSenderLeft(core::ParticipantId sender) {
  auto it = legs_.find(sender);
  if (it == legs_.end()) return;
  port_to_leg_[LegIndex(it->second.local.port)] = nullptr;
  legs_.erase(it);
}

void Peer::StartMedia() {
  if (cfg_.send_video) {
    encoder_ = std::make_unique<media::SvcEncoder>(cfg_.encoder, cfg_.seed);
    media::PacketizerConfig pk;
    pk.ssrc = video_ssrc_;
    packetizer_ = std::make_unique<media::Packetizer>(pk);
    tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        sched_, encoder_->frame_interval(), [this] {
          SendVideoFrame();
          return true;
        }));
  }
  if (cfg_.send_audio) {
    media::AudioSourceConfig ac;
    ac.ssrc = audio_ssrc_;
    audio_source_ = std::make_unique<media::AudioSource>(ac);
    tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        sched_, audio_source_->frame_interval(), [this] {
          SendAudioFrame();
          return true;
        }));
  }
  if (cfg_.send_video || cfg_.send_audio) {
    tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        sched_, cfg_.sr_interval, [this] {
          SendSenderReports();
          return true;
        }));
  }
  tasks_.push_back(std::make_unique<sim::PeriodicTask>(
      sched_, cfg_.stun_interval, [this] {
        SendStun();
        return true;
      }));
  tasks_.push_back(std::make_unique<sim::PeriodicTask>(
      sched_, cfg_.tick_interval, [this] {
        Tick();
        return true;
      }));
}

void Peer::SendVideoFrame() {
  util::TimeUs now = sched_.now();
  media::EncodedFrame frame = encoder_->NextFrame(now);
  for (const rtp::RtpPacket& pkt : packetizer_->Packetize(frame, now)) {
    net::PacketPtr out = UplinkPacket();
    pkt.SerializeInto(out->payload.Mutable());
    RememberSent(pkt.sequence_number, out->payload_span());
    ++video_packet_count_;
    video_octet_count_ += static_cast<uint32_t>(pkt.payload.size());
    ++stats_.rtp_sent;
    network_.Send(std::move(out));
  }
}

void Peer::RememberSent(uint16_t seq, std::span<const uint8_t> wire) {
  const size_t capacity = cfg_.retransmit_history;
  if (capacity == 0) return;
  if (history_.size() < capacity) history_.emplace_back();
  SentPacket& slot = history_[history_next_];
  slot.seq = seq;
  slot.wire.Assign(wire);
  history_next_ = (history_next_ + 1) % capacity;
}

const Peer::SentPacket* Peer::FindSent(uint16_t seq) const {
  if (history_.empty()) return nullptr;
  const size_t capacity = cfg_.retransmit_history;
  const size_t newest = (history_next_ + capacity - 1) % capacity;
  const auto behind = static_cast<uint16_t>(history_[newest].seq - seq);
  if (behind >= history_.size()) return nullptr;  // evicted or never sent
  const SentPacket& slot = history_[(newest + capacity - behind) % capacity];
  return slot.seq == seq ? &slot : nullptr;
}

void Peer::SendAudioFrame() {
  util::TimeUs now = sched_.now();
  const rtp::RtpPacket& pkt = audio_source_->NextPacket(now);
  ++audio_packet_count_;
  audio_octet_count_ += static_cast<uint32_t>(pkt.payload.size());
  ++stats_.rtp_sent;
  net::PacketPtr out = UplinkPacket();
  pkt.SerializeInto(out->payload.Mutable());
  network_.Send(std::move(out));
}

void Peer::SendSenderReports() {
  util::TimeUs now = sched_.now();
  std::string cname = "peer" + std::to_string(video_ssrc_);
  if (cfg_.send_video) {
    rtp::SenderReport sr;
    sr.sender_ssrc = video_ssrc_;
    sr.ntp_timestamp = util::ToNtp(now);
    sr.rtp_timestamp = util::ToRtpTimestamp90k(now);
    sr.packet_count = video_packet_count_;
    sr.octet_count = video_octet_count_;
    rtp::Sdes sdes;
    sdes.chunks.push_back({video_ssrc_, cname});
    std::vector<rtp::RtcpMessage> compound{sr, sdes};
    Transmit(media_local_, uplink_sfu_, rtp::SerializeCompound(compound));
    ++stats_.rtcp_sent;
  }
  if (cfg_.send_audio) {
    rtp::SenderReport sr;
    sr.sender_ssrc = audio_ssrc_;
    sr.ntp_timestamp = util::ToNtp(now);
    sr.rtp_timestamp = static_cast<uint32_t>(now * 48 / 1000);
    sr.packet_count = audio_packet_count_;
    sr.octet_count = audio_octet_count_;
    rtp::Sdes sdes;
    sdes.chunks.push_back({audio_ssrc_, cname});
    std::vector<rtp::RtcpMessage> compound{sr, sdes};
    Transmit(media_local_, uplink_sfu_, rtp::SerializeCompound(compound));
    ++stats_.rtcp_sent;
  }
}

void Peer::SendReceiverFeedback(RemoteLeg& leg, bool include_remb) {
  rtp::ReceiverReport rr;
  rr.sender_ssrc = video_ssrc_;
  if (leg.video != nullptr && leg.video_ssrc != 0) {
    rtp::ReportBlock block;
    block.ssrc = leg.video_ssrc;
    block.highest_seq = leg.highest_video_seq_ext;
    block.jitter = leg.video->jitter().JitterClockUnits();
    rr.blocks.push_back(block);
  }
  std::vector<rtp::RtcpMessage> compound{rr};
  if (include_remb && leg.bwe != nullptr) {
    rtp::Remb remb;
    remb.sender_ssrc = video_ssrc_;
    remb.bitrate_bps = leg.bwe->estimate();
    remb.media_ssrcs = {leg.video_ssrc};
    compound.emplace_back(remb);
  }
  Transmit(leg.local, leg.sfu, rtp::SerializeCompound(compound));
  ++stats_.rtcp_sent;
}

void Peer::SendStun() {
  util::TimeUs now = sched_.now();
  auto send_check = [&](net::Endpoint from, net::Endpoint to) {
    if (to.port == 0) return;
    stun::StunMessage req;
    req.type = stun::MessageType::kBindingRequest;
    uint64_t tid = (static_cast<uint64_t>(id_) << 32) | ++stun_counter_;
    req.transaction_id =
        stun::MakeTransactionId(tid, static_cast<uint32_t>(from.port));
    req.username = "sfu:peer" + std::to_string(id_);
    req.priority = 100;
    req.ice_controlling = tid;
    stun_inflight_[tid] = now;
    ++stats_.stun_sent;
    Transmit(from, to, req.Serialize());
  };
  send_check(media_local_, uplink_sfu_);
  for (auto& [sender, leg] : legs_) send_check(leg.local, leg.sfu);
  // Bound the in-flight table (lost responses).
  while (stun_inflight_.size() > 64) {
    stun_inflight_.erase(stun_inflight_.begin());
  }
}

void Peer::Tick() {
  util::TimeUs now = sched_.now();
  for (auto& [sender, leg] : legs_) {
    if (leg.video != nullptr) leg.video->OnTick(now);
    if (leg.bwe != nullptr && leg.sfu.port != 0) {
      auto remb = leg.bwe->MaybeRemb(now);
      if (remb.has_value()) SendReceiverFeedback(leg, /*include_remb=*/true);
    }
    // Occasional standalone receiver reports (no REMB), as in Table 1.
    if (leg.sfu.port != 0 && now - leg.last_rr >= cfg_.rr_interval) {
      leg.last_rr = now;
      SendReceiverFeedback(leg, /*include_remb=*/false);
    }
  }
}

Peer::RemoteLeg* Peer::LegByLocalPort(uint16_t port) {
  const size_t index = LegIndex(port);
  return index < port_to_leg_.size() ? port_to_leg_[index] : nullptr;
}

void Peer::OnPacket(net::PacketPtr pkt) {
  util::TimeUs arrival = pkt->arrival;
  switch (rtp::Classify(pkt->payload_span())) {
    case rtp::PayloadKind::kStun: {
      auto msg = stun::StunMessage::Parse(pkt->payload_span());
      if (msg.has_value() && msg->is_response()) {
        uint64_t tid = 0;
        for (int i = 0; i < 8; ++i) {
          tid = tid << 8 | msg->transaction_id[static_cast<size_t>(i)];
        }
        auto it = stun_inflight_.find(tid);
        if (it != stun_inflight_.end()) {
          stats_.last_stun_rtt_ms = util::ToMillis(arrival - it->second);
          ++stats_.stun_rtt_samples;
          stun_inflight_.erase(it);
        }
      }
      return;
    }
    case rtp::PayloadKind::kRtcp:
      HandleRtcp(LegByLocalPort(pkt->dst.port), pkt->payload_span());
      return;
    case rtp::PayloadKind::kRtp: {
      RemoteLeg* leg = LegByLocalPort(pkt->dst.port);
      if (leg == nullptr) return;
      rtp::RtpPacket& rx =
          rtp::PeekPayloadType(pkt->payload_span()) == kAudioPayloadType
              ? rx_audio_
              : rx_video_;
      if (!rtp::RtpPacket::ParseInto(pkt->payload_span(), rx)) return;
      HandleMediaPacket(*leg, rx, arrival, pkt->payload.size());
      return;
    }
    default:
      return;
  }
}

void Peer::HandleMediaPacket(RemoteLeg& leg, const rtp::RtpPacket& pkt,
                             util::TimeUs arrival, size_t wire_bytes) {
  // abs-send-time for GCC (wraps every 64 s; deltas unaffected for our
  // experiment horizons because consecutive packets are close together).
  util::TimeUs send_time = arrival;
  const rtp::RtpExtension* ast =
      pkt.FindExtension(media::kAbsSendTimeExtensionId);
  if (ast != nullptr) {
    util::TimeUs decoded = media::DecodeAbsSendTime(ast->data);
    // Align the 64 s window with the arrival clock.
    constexpr util::TimeUs kWrap = 64'000'000;  // abs-send-time wrap: 64 s
    util::TimeUs base = arrival - (arrival % kWrap);
    send_time = base + decoded;
    if (send_time > arrival + kWrap / 2) send_time -= kWrap;
  }
  if (leg.bwe != nullptr) {
    leg.bwe->OnPacket(arrival, send_time, wire_bytes + net::kL3L4Overhead);
  }
  if (cfg_.media_tap) cfg_.media_tap(pkt.ssrc, send_time, arrival);
  if (pkt.ssrc == leg.video_ssrc && leg.video != nullptr) {
    leg.video->OnPacket(pkt, arrival);
    ++leg.video_packets;
    leg.highest_video_seq_ext = pkt.sequence_number;
  } else if (pkt.ssrc == leg.audio_ssrc && leg.audio != nullptr) {
    leg.audio->OnPacket(pkt, arrival);
  }
}

void Peer::HandleRtcp(RemoteLeg* leg, std::span<const uint8_t> payload) {
  auto msgs = rtp::ParseCompound(payload);
  if (!msgs.has_value()) return;
  for (const auto& msg : *msgs) {
    if (const auto* remb = std::get_if<rtp::Remb>(&msg)) {
      ++stats_.remb_received;
      // Receiver-driven rate adaptation (paper §5.2): the forwarded REMB
      // from the best downlink sets the encoder target.
      if (encoder_ != nullptr) {
        encoder_->SetTargetBitrate(remb->bitrate_bps);
      }
    } else if (const auto* nack = std::get_if<rtp::Nack>(&msg)) {
      ++stats_.nack_received;
      HandleNack(*nack);
    } else if (std::get_if<rtp::Pli>(&msg)) {
      ++stats_.pli_received;
      if (encoder_ != nullptr) {
        encoder_->RequestKeyFrame();
        // Refresh keyframes re-announce the SVC structure so the SFU can
        // revalidate (this is what keeps Table 1's "AV1 DS" row tiny).
        if (packetizer_ != nullptr) packetizer_->ResendStructure();
        ++stats_.keyframes_on_pli;
      }
    } else if (std::get_if<rtp::SenderReport>(&msg)) {
      // Lip-sync reference; nothing to do in the model.
      (void)leg;
    }
  }
}

void Peer::HandleNack(const rtp::Nack& nack) {
  for (uint16_t seq : nack.sequence_numbers) {
    const SentPacket* sent = FindSent(seq);
    if (sent == nullptr) continue;
    ++stats_.retransmissions_sent;
    ++stats_.rtp_sent;
    net::PacketPtr out = UplinkPacket();
    sent->wire.RestoreInto(out->payload.Mutable());
    network_.Send(std::move(out));
  }
}

net::PacketPtr Peer::UplinkPacket() const {
  net::PacketPtr p = net::AcquirePacket();
  p->src = media_local_;
  p->dst = uplink_sfu_;
  return p;
}

void Peer::Transmit(net::Endpoint from, net::Endpoint to,
                    std::vector<uint8_t> payload) {
  network_.Send(net::MakePacket(from, to, std::move(payload)));
}

const media::VideoReceiver* Peer::video_receiver(
    core::ParticipantId sender) const {
  auto it = legs_.find(sender);
  return it == legs_.end() ? nullptr : it->second.video.get();
}

const media::AudioReceiver* Peer::audio_receiver(
    core::ParticipantId sender) const {
  auto it = legs_.find(sender);
  return it == legs_.end() ? nullptr : it->second.audio.get();
}

const bwe::ReceiverBandwidthEstimator* Peer::bwe_for(
    core::ParticipantId sender) const {
  auto it = legs_.find(sender);
  return it == legs_.end() ? nullptr : it->second.bwe.get();
}

std::vector<core::ParticipantId> Peer::remote_senders() const {
  std::vector<core::ParticipantId> out;
  for (const auto& [sender, leg] : legs_) out.push_back(sender);
  return out;
}

}  // namespace scallop::client
