#include "av1/dependency_descriptor.hpp"

#include "util/bytes.hpp"

namespace scallop::av1 {

using util::ByteReader;
using util::ByteWriter;

uint8_t TemporalLayerForTemplate(uint8_t template_id) {
  switch (template_id) {
    case 0:
    case 1:
      return 0;
    case 2:
      return 1;
    case 3:
    case 4:
      return 2;
    default:
      return 2;  // unknown templates conservatively treated as top layer
  }
}

bool TemplateInDecodeTarget(uint8_t template_id, DecodeTarget dt) {
  return TemporalLayerForTemplate(template_id) <= static_cast<uint8_t>(dt);
}

double FpsForDecodeTarget(DecodeTarget dt, double full_fps) {
  switch (dt) {
    case DecodeTarget::kDT0: return full_fps / 4.0;
    case DecodeTarget::kDT1: return full_fps / 2.0;
    case DecodeTarget::kDT2: return full_fps;
  }
  return full_fps;
}

TemplateStructure TemplateStructure::L1T3() {
  TemplateStructure s;
  s.num_decode_targets = kNumDecodeTargets;
  s.template_temporal_ids = {0, 0, 1, 2, 2};
  return s;
}

std::vector<uint8_t> DependencyDescriptor::Serialize() const {
  std::vector<uint8_t> out;
  SerializeInto(out);
  return out;
}

void DependencyDescriptor::SerializeInto(std::vector<uint8_t>& out) const {
  ByteWriter w(std::move(out), 8);
  uint8_t b0 = static_cast<uint8_t>((start_of_frame ? 0x80 : 0) |
                                    (end_of_frame ? 0x40 : 0) |
                                    (template_id & 0x3f));
  w.WriteU8(b0);
  w.WriteU16(frame_number);
  if (structure.has_value()) {
    w.WriteU8(structure->num_decode_targets);
    w.WriteU8(static_cast<uint8_t>(structure->template_temporal_ids.size()));
    for (uint8_t tid : structure->template_temporal_ids) w.WriteU8(tid);
  }
  out = std::move(w).Take();
}

std::optional<DependencyDescriptor> DependencyDescriptor::Parse(
    std::span<const uint8_t> data) {
  ByteReader r(data);
  uint8_t b0 = r.ReadU8();
  DependencyDescriptor dd;
  dd.start_of_frame = (b0 & 0x80) != 0;
  dd.end_of_frame = (b0 & 0x40) != 0;
  dd.template_id = b0 & 0x3f;
  dd.frame_number = r.ReadU16();
  if (!r.ok()) return std::nullopt;
  if (r.remaining() > 0) {
    TemplateStructure s;
    s.num_decode_targets = r.ReadU8();
    uint8_t n = r.ReadU8();
    for (int i = 0; i < n; ++i) s.template_temporal_ids.push_back(r.ReadU8());
    if (!r.ok()) return std::nullopt;
    dd.structure = std::move(s);
  }
  return dd;
}

std::optional<DdMandatory> PeekMandatory(std::span<const uint8_t> data) {
  if (data.size() < 3) return std::nullopt;
  DdMandatory m;
  m.start_of_frame = (data[0] & 0x80) != 0;
  m.end_of_frame = (data[0] & 0x40) != 0;
  m.template_id = data[0] & 0x3f;
  m.frame_number = static_cast<uint16_t>(data[1] << 8 | data[2]);
  m.has_extended = data.size() > 3;
  return m;
}

uint8_t L1T3Pattern::NextTemplateId(bool key_frame) {
  if (key_frame || !started_) {
    started_ = true;
    phase_ = 0;
    return 0;  // key frame template, TL0
  }
  // Cycle after a TL0 frame: TL2 (3), TL1 (2), TL2 (4), TL0 (1), ...
  static constexpr uint8_t kCycle[4] = {3, 2, 4, 1};
  uint8_t id = kCycle[phase_];
  phase_ = (phase_ + 1) % 4;
  return id;
}

void L1T3Pattern::Reset() {
  phase_ = 0;
  started_ = false;
}

int L1T3Pattern::DependencyDistance(uint8_t template_id, bool key_frame) {
  if (key_frame) return 0;
  switch (TemporalLayerForTemplate(template_id)) {
    case 0: return 4;
    case 1: return 2;
    default: return 1;
  }
}

}  // namespace scallop::av1
