// Constant-bitrate audio source (Opus-like): 20 ms frames, one packet per
// frame, ~200-byte packets as observed in the paper's campus traces.
#pragma once

#include <cstdint>

#include "rtp/rtp_packet.hpp"
#include "util/time.hpp"

namespace scallop::media {

struct AudioSourceConfig {
  uint8_t payload_type = 111;
  uint32_t ssrc = 0;
  uint32_t clock_rate = 48'000;
  util::DurationUs frame_interval = util::Millis(20);
  size_t payload_bytes = 160;
  uint8_t abs_send_time_id = 3;
};

class AudioSource {
 public:
  explicit AudioSource(const AudioSourceConfig& cfg) : cfg_(cfg) {}

  // The packet lives in the source and stays valid until the next call,
  // which rewrites it in place (no allocation once warm).
  const rtp::RtpPacket& NextPacket(util::TimeUs now);

  util::DurationUs frame_interval() const { return cfg_.frame_interval; }
  uint64_t packets_produced() const { return packets_produced_; }
  const AudioSourceConfig& config() const { return cfg_; }

 private:
  AudioSourceConfig cfg_;
  rtp::RtpPacket packet_;
  uint16_t next_seq_ = 1;
  uint64_t packets_produced_ = 0;
};

}  // namespace scallop::media
