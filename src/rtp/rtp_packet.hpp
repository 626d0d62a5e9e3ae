// RTP packet (RFC 3550) with RFC 8285 header extensions, parse + serialize.
// The AV1 dependency descriptor rides in one of these extensions (module av1).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace scallop::rtp {

constexpr uint8_t kRtpVersion = 2;

// RFC 8285 profiles for the extension block.
constexpr uint16_t kOneByteExtProfile = 0xBEDE;
constexpr uint16_t kTwoByteExtProfile = 0x1000;

struct RtpExtension {
  uint8_t id = 0;  // 1..14 (one-byte) or 1..255 (two-byte)
  std::vector<uint8_t> data;
};

struct RtpPacket {
  bool marker = false;
  uint8_t payload_type = 0;
  uint16_t sequence_number = 0;
  uint32_t timestamp = 0;
  uint32_t ssrc = 0;
  std::vector<uint32_t> csrcs;
  std::vector<RtpExtension> extensions;
  std::vector<uint8_t> payload;

  // Serializes to wire bytes. Chooses one-byte extension headers when all
  // extensions fit (id<=14, len<=16), two-byte otherwise.
  std::vector<uint8_t> Serialize() const;
  // Same bytes, written over `out` (reusing its capacity).
  void SerializeInto(std::vector<uint8_t>& out) const;

  static std::optional<RtpPacket> Parse(std::span<const uint8_t> data);
  // Parses into `out`, reusing its vectors' capacity (the per-packet
  // receive path parses every packet into one long-lived RtpPacket).
  // Returns false on malformed input, leaving `out` unspecified.
  static bool ParseInto(std::span<const uint8_t> data, RtpPacket& out);

  const RtpExtension* FindExtension(uint8_t id) const;
  void SetExtension(uint8_t id, std::vector<uint8_t> data);
  // The data of extension `id`, appended empty when absent: writing into
  // it reuses the buffer of a packet that already carries the extension.
  std::vector<uint8_t>& MutableExtension(uint8_t id);

  // Size the packet would occupy on the wire.
  size_t SerializedSize() const;
};

// In-place surgical rewrites used by the data plane: patching the sequence
// number or SSRC without reserializing the whole packet, exactly like a
// switch pipeline would edit header fields.
bool PatchSequenceNumber(std::span<uint8_t> wire, uint16_t new_seq);
bool PatchSsrc(std::span<uint8_t> wire, uint32_t new_ssrc);
// Reads seq/ssrc straight from wire bytes (fast path for the switch model).
std::optional<uint16_t> PeekSequenceNumber(std::span<const uint8_t> wire);
std::optional<uint32_t> PeekSsrc(std::span<const uint8_t> wire);
std::optional<uint8_t> PeekPayloadType(std::span<const uint8_t> wire);

}  // namespace scallop::rtp
