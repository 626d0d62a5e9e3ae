// AV1 RTP Dependency Descriptor (DD) header extension and the L1T3 scalable
// structure used by the paper (Fig. 9).
//
// Wire format note: the mandatory 24-bit prefix (start/end flags, 6-bit
// template id, 16-bit frame number) matches the AV1 RTP spec exactly — this
// is what Scallop's data plane parses. The optional extended structure
// (present on key frames) is carried here in a simplified byte-aligned
// encoding that preserves the same semantic content (decode-target count and
// per-template temporal ids); the bit-packed original adds nothing for the
// reproduction and is unparseable by the data plane anyway (the paper sends
// extended descriptors to the control plane for exactly this reason).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace scallop::av1 {

// Default RFC 8285 extension id used for the DD in this codebase (the real
// value is negotiated in SDP; WebRTC commonly uses the a=extmap line).
constexpr uint8_t kDdExtensionId = 4;

// L1T3: one spatial layer, three temporal layers. Template ids 0..4 as in
// the paper: 0,1 -> TL0 (7.5 fps), 2 -> TL1 (15 fps), 3,4 -> TL2 (30 fps).
constexpr int kNumTemplatesL1T3 = 5;
constexpr int kNumTemporalLayersL1T3 = 3;

// Decode targets: DT0 = 7.5 fps (TL0 only), DT1 = 15 fps (TL0+TL1),
// DT2 = 30 fps (all layers).
enum class DecodeTarget : uint8_t { kDT0 = 0, kDT1 = 1, kDT2 = 2 };
constexpr int kNumDecodeTargets = 3;

// Temporal layer carrying a given L1T3 template id (0,0,1,2,2).
uint8_t TemporalLayerForTemplate(uint8_t template_id);

// True if packets with `template_id` are part of `dt`'s layer set.
bool TemplateInDecodeTarget(uint8_t template_id, DecodeTarget dt);

// Frame rate delivered by a decode target given the full-rate fps.
double FpsForDecodeTarget(DecodeTarget dt, double full_fps);

// Key-frame extended structure: template id -> temporal layer map.
struct TemplateStructure {
  uint8_t num_decode_targets = kNumDecodeTargets;
  std::vector<uint8_t> template_temporal_ids;  // indexed by template id

  bool operator==(const TemplateStructure&) const = default;
  static TemplateStructure L1T3();
};

struct DependencyDescriptor {
  bool start_of_frame = true;
  bool end_of_frame = true;
  uint8_t template_id = 0;    // 6 bits on the wire
  uint16_t frame_number = 0;  // wraps at 2^16
  std::optional<TemplateStructure> structure;  // key frames only

  std::vector<uint8_t> Serialize() const;
  // Same bytes, written over `out` (reusing its capacity).
  void SerializeInto(std::vector<uint8_t>& out) const;
  static std::optional<DependencyDescriptor> Parse(
      std::span<const uint8_t> data);

  bool operator==(const DependencyDescriptor&) const = default;
};

// Fast wire-level extraction of the mandatory fields, mirroring what the
// switch pipeline parses without decoding the full extension.
struct DdMandatory {
  bool start_of_frame;
  bool end_of_frame;
  uint8_t template_id;
  uint16_t frame_number;
  bool has_extended;  // structure present (needs control-plane analysis)
};
std::optional<DdMandatory> PeekMandatory(std::span<const uint8_t> data);

// Generates the L1T3 template-id sequence of Fig. 9: key frames use
// template 0; then the repeating 4-frame cycle TL0(1), TL2(3), TL1(2),
// TL2(4).
class L1T3Pattern {
 public:
  // Returns the template id for the next frame; pass `key_frame` to restart
  // the group at a key frame.
  uint8_t NextTemplateId(bool key_frame);
  // Position within the 4-frame cycle after the last emitted frame (0..3).
  int phase() const { return phase_; }
  void Reset();

  // Frame-number distance to the frame this one references (0 = key frame).
  // TL0 references 4 back, TL1 2 back, TL2 1 back.
  static int DependencyDistance(uint8_t template_id, bool key_frame);

 private:
  int phase_ = 0;
  bool started_ = false;
};

}  // namespace scallop::av1
