#include "rtp/rtp_packet.hpp"

#include <algorithm>

namespace scallop::rtp {

using util::ByteReader;
using util::ByteWriter;

namespace {

bool FitsOneByte(const std::vector<RtpExtension>& exts) {
  return std::all_of(exts.begin(), exts.end(), [](const RtpExtension& e) {
    return e.id >= 1 && e.id <= 14 && !e.data.empty() && e.data.size() <= 16;
  });
}

}  // namespace

size_t RtpPacket::SerializedSize() const {
  size_t size = 12 + csrcs.size() * 4;
  if (!extensions.empty()) {
    size_t ext_bytes = 0;
    if (FitsOneByte(extensions)) {
      for (const auto& e : extensions) ext_bytes += 1 + e.data.size();
    } else {
      for (const auto& e : extensions) ext_bytes += 2 + e.data.size();
    }
    ext_bytes = (ext_bytes + 3) & ~size_t{3};
    size += 4 + ext_bytes;
  }
  return size + payload.size();
}

std::vector<uint8_t> RtpPacket::Serialize() const {
  std::vector<uint8_t> out;
  SerializeInto(out);
  return out;
}

void RtpPacket::SerializeInto(std::vector<uint8_t>& out) const {
  ByteWriter w(std::move(out), SerializedSize());
  bool has_ext = !extensions.empty();
  w.WriteU8(static_cast<uint8_t>(kRtpVersion << 6 | (has_ext ? 0x10 : 0) |
                                 (csrcs.size() & 0x0f)));
  w.WriteU8(static_cast<uint8_t>((marker ? 0x80 : 0) | (payload_type & 0x7f)));
  w.WriteU16(sequence_number);
  w.WriteU32(timestamp);
  w.WriteU32(ssrc);
  for (uint32_t csrc : csrcs) w.WriteU32(csrc);

  if (has_ext) {
    bool one_byte = FitsOneByte(extensions);
    w.WriteU16(one_byte ? kOneByteExtProfile : kTwoByteExtProfile);
    size_t len_pos = w.size();
    w.WriteU16(0);  // patched below
    size_t ext_start = w.size();
    for (const auto& e : extensions) {
      if (one_byte) {
        w.WriteU8(static_cast<uint8_t>((e.id << 4) | ((e.data.size() - 1) & 0x0f)));
      } else {
        w.WriteU8(e.id);
        w.WriteU8(static_cast<uint8_t>(e.data.size()));
      }
      w.WriteBytes(e.data);
    }
    size_t ext_bytes = w.size() - ext_start;
    size_t padded = (ext_bytes + 3) & ~size_t{3};
    w.WritePadding(padded - ext_bytes);
    w.PatchU16(len_pos, static_cast<uint16_t>(padded / 4));
  }

  w.WriteBytes(payload);
  out = std::move(w).Take();
}

std::optional<RtpPacket> RtpPacket::Parse(std::span<const uint8_t> data) {
  RtpPacket pkt;
  if (!ParseInto(data, pkt)) return std::nullopt;
  return pkt;
}

bool RtpPacket::ParseInto(std::span<const uint8_t> data, RtpPacket& pkt) {
  ByteReader r(data);
  uint8_t b0 = r.ReadU8();
  uint8_t b1 = r.ReadU8();
  if (!r.ok() || (b0 >> 6) != kRtpVersion) return false;

  bool has_padding = (b0 & 0x20) != 0;
  bool has_ext = (b0 & 0x10) != 0;
  uint8_t cc = b0 & 0x0f;
  pkt.marker = (b1 & 0x80) != 0;
  pkt.payload_type = b1 & 0x7f;
  pkt.sequence_number = r.ReadU16();
  pkt.timestamp = r.ReadU32();
  pkt.ssrc = r.ReadU32();
  pkt.csrcs.clear();
  for (int i = 0; i < cc; ++i) pkt.csrcs.push_back(r.ReadU32());
  if (!r.ok()) return false;

  // Extensions overwrite the target's existing entries in place, so their
  // data buffers keep their capacity from packet to packet.
  size_t n_ext = 0;
  auto add_extension = [&pkt, &n_ext](uint8_t id,
                                      std::span<const uint8_t> bytes) {
    if (n_ext == pkt.extensions.size()) pkt.extensions.emplace_back();
    RtpExtension& e = pkt.extensions[n_ext++];
    e.id = id;
    e.data.assign(bytes.begin(), bytes.end());
  };
  if (has_ext) {
    uint16_t profile = r.ReadU16();
    uint16_t words = r.ReadU16();
    auto ext_data = r.ReadBytes(static_cast<size_t>(words) * 4);
    if (!r.ok()) return false;
    ByteReader er(ext_data);
    pkt.extensions.reserve(4);  // one growth step covers typical packets
    if (profile == kOneByteExtProfile) {
      while (er.remaining() > 0) {
        uint8_t hdr = er.ReadU8();
        if (hdr == 0) continue;  // padding
        uint8_t id = hdr >> 4;
        size_t len = static_cast<size_t>(hdr & 0x0f) + 1;
        if (id == 15) break;  // reserved: stop parsing
        auto bytes = er.ReadBytes(len);
        if (!er.ok()) return false;
        add_extension(id, bytes);
      }
    } else if (profile == kTwoByteExtProfile) {
      while (er.remaining() > 1) {
        uint8_t id = er.ReadU8();
        if (id == 0) continue;  // padding
        size_t len = er.ReadU8();
        auto bytes = er.ReadBytes(len);
        if (!er.ok()) return false;
        add_extension(id, bytes);
      }
    }
    // Unknown profiles: extension data skipped, still a valid packet.
  }
  pkt.extensions.resize(n_ext);

  size_t payload_len = r.remaining();
  if (has_padding && payload_len > 0) {
    uint8_t pad = data[data.size() - 1];
    if (pad <= payload_len) payload_len -= pad;
  }
  auto body = r.ReadBytes(payload_len);
  if (!r.ok()) return false;
  pkt.payload.assign(body.begin(), body.end());
  return true;
}

const RtpExtension* RtpPacket::FindExtension(uint8_t id) const {
  for (const auto& e : extensions) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

void RtpPacket::SetExtension(uint8_t id, std::vector<uint8_t> data) {
  MutableExtension(id) = std::move(data);
}

std::vector<uint8_t>& RtpPacket::MutableExtension(uint8_t id) {
  for (auto& e : extensions) {
    if (e.id == id) return e.data;
  }
  return extensions.emplace_back(RtpExtension{id, {}}).data;
}

bool PatchSequenceNumber(std::span<uint8_t> wire, uint16_t new_seq) {
  if (wire.size() < 12 || (wire[0] >> 6) != kRtpVersion) return false;
  wire[2] = static_cast<uint8_t>(new_seq >> 8);
  wire[3] = static_cast<uint8_t>(new_seq);
  return true;
}

bool PatchSsrc(std::span<uint8_t> wire, uint32_t new_ssrc) {
  if (wire.size() < 12 || (wire[0] >> 6) != kRtpVersion) return false;
  wire[8] = static_cast<uint8_t>(new_ssrc >> 24);
  wire[9] = static_cast<uint8_t>(new_ssrc >> 16);
  wire[10] = static_cast<uint8_t>(new_ssrc >> 8);
  wire[11] = static_cast<uint8_t>(new_ssrc);
  return true;
}

std::optional<uint16_t> PeekSequenceNumber(std::span<const uint8_t> wire) {
  if (wire.size() < 12 || (wire[0] >> 6) != kRtpVersion) return std::nullopt;
  return static_cast<uint16_t>(wire[2] << 8 | wire[3]);
}

std::optional<uint32_t> PeekSsrc(std::span<const uint8_t> wire) {
  if (wire.size() < 12 || (wire[0] >> 6) != kRtpVersion) return std::nullopt;
  return static_cast<uint32_t>(wire[8]) << 24 |
         static_cast<uint32_t>(wire[9]) << 16 |
         static_cast<uint32_t>(wire[10]) << 8 | static_cast<uint32_t>(wire[11]);
}

std::optional<uint8_t> PeekPayloadType(std::span<const uint8_t> wire) {
  if (wire.size() < 12 || (wire[0] >> 6) != kRtpVersion) return std::nullopt;
  return wire[1] & 0x7f;
}

}  // namespace scallop::rtp
