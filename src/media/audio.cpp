#include "media/audio.hpp"

#include "media/packetizer.hpp"

namespace scallop::media {

const rtp::RtpPacket& AudioSource::NextPacket(util::TimeUs now) {
  rtp::RtpPacket& pkt = packet_;
  pkt.payload_type = cfg_.payload_type;
  pkt.sequence_number = next_seq_++;
  pkt.timestamp = static_cast<uint32_t>(
      (now * cfg_.clock_rate) / 1'000'000);
  pkt.ssrc = cfg_.ssrc;
  pkt.marker = false;
  EncodeAbsSendTimeInto(now, pkt.MutableExtension(cfg_.abs_send_time_id));
  pkt.payload.assign(cfg_.payload_bytes, 0xAB);
  ++packets_produced_;
  return pkt;
}

}  // namespace scallop::media
