// WebRTC-style receive pipeline: packet buffer with loss detection (NACK),
// frame assembly, and a dependency-aware SVC decoder model implementing the
// failure semantics the paper measured:
//   - a sequence gap looks like network loss -> retransmission requests;
//   - a duplicate/incorrectly rewritten sequence number breaks decoder
//     state -> freeze until the next key frame (paper §6.2).
// The per-packet state is contiguous: a seq-indexed ring for the duplicate
// window and sorted flat vectors (append fast path) for the packet buffer,
// pending frames and decode history, so an in-order packet allocates
// nothing once the containers have grown.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_set>
#include <vector>

#include "av1/dependency_descriptor.hpp"
#include "rtp/rtp_packet.hpp"
#include "util/seqnum.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace scallop::media {

// Accumulates per-second values; used for fps / bitrate time series in the
// Fig. 14 and Fig. 23/24 plots. Samples arrive in (virtually) monotone
// time order, so the store is a sorted vector with an O(1) append/update
// fast path on the newest second — this runs once per received packet.
class PerSecondSeries {
 public:
  void Add(util::TimeUs t, double value) {
    int64_t second = t / 1'000'000;
    if (!by_second_.empty() && by_second_.back().first == second) {
      by_second_.back().second += value;
      return;
    }
    if (by_second_.empty() || second > by_second_.back().first) {
      by_second_.emplace_back(second, value);
      return;
    }
    AddOutOfOrder(second, value);
  }
  // (second, sum-in-that-second); seconds with no samples yield 0.
  std::vector<std::pair<int64_t, double>> Series() const;
  double SumInSecond(int64_t second) const;

 private:
  void AddOutOfOrder(int64_t second, double value);

  std::vector<std::pair<int64_t, double>> by_second_;  // sorted by second
};

struct VideoReceiverConfig {
  uint32_t clock_rate = 90'000;
  uint8_t dd_extension_id = av1::kDdExtensionId;
  // A missing packet is only NACKed after this long (tolerates the
  // micro-reordering of packetization bursts, as real jitter buffers do).
  util::DurationUs nack_initial_delay = util::Millis(15);
  util::DurationUs nack_retry_interval = util::Millis(100);
  int max_nack_retries = 4;
  // A missing packet is abandoned (treated as unrecoverable) this long
  // after first detection.
  util::DurationUs loss_abandon_timeout = util::Millis(450);
  // Decoder stalled this long -> send PLI (rate limited).
  util::DurationUs freeze_pli_threshold = util::Millis(500);
  util::DurationUs pli_min_interval = util::Seconds(1);
};

struct VideoReceiverStats {
  uint64_t packets_received = 0;
  uint64_t bytes_received = 0;
  uint64_t duplicate_packets = 0;
  uint64_t conflicting_duplicates = 0;  // same seq, different content
  uint64_t nacks_sent = 0;
  uint64_t nacked_packets = 0;  // total sequence numbers requested
  uint64_t plis_sent = 0;
  uint64_t recovered_packets = 0;   // arrived after being NACKed
  uint64_t abandoned_packets = 0;   // never recovered
  uint64_t frames_completed = 0;
  uint64_t frames_decoded = 0;
  uint64_t key_frames_decoded = 0;
  uint64_t frames_undecodable = 0;  // dropped: missing dependency/broken
  uint64_t decoder_breaks = 0;      // duplicate-seq induced state breaks
  double total_freeze_ms = 0.0;
};

class VideoReceiver {
 public:
  using SendNackFn =
      std::function<void(const std::vector<uint16_t>& seqs)>;
  using SendPliFn = std::function<void()>;

  VideoReceiver(const VideoReceiverConfig& cfg, SendNackFn send_nack,
                SendPliFn send_pli);

  void OnPacket(const rtp::RtpPacket& pkt, util::TimeUs arrival);
  // Drives NACK retries, loss abandonment and freeze detection; call every
  // few tens of milliseconds.
  void OnTick(util::TimeUs now);

  const VideoReceiverStats& stats() const { return stats_; }
  const util::JitterEstimator& jitter() const { return jitter_; }
  const PerSecondSeries& decoded_fps_series() const { return fps_series_; }
  const PerSecondSeries& received_bytes_series() const { return bytes_series_; }
  // Received bytes per second broken down by template id (Fig. 24).
  const PerSecondSeries& template_bytes_series(uint8_t template_id) const;
  bool frozen(util::TimeUs now) const;
  // fps decoded over the trailing window (default 1 s).
  double RecentFps(util::TimeUs now, util::DurationUs window = util::Seconds(1)) const;

 private:
  struct BufferedPacket {
    int64_t frame_number;  // unwrapped
    uint8_t template_id;
    bool start_of_frame;
    bool end_of_frame;
    bool key_frame;
    size_t size;
  };
  struct MissingPacket {
    util::TimeUs first_detected;
    util::TimeUs last_nack;
    int retries = 0;
  };
  struct PendingFrame {
    int64_t start_seq = -1;
    int64_t end_seq = -1;
    uint8_t template_id = 0;
    bool key_frame = false;
    size_t packets_have = 0;
    size_t bytes = 0;
    bool failed = false;
  };
  // One duplicate-window entry: the low 32 bits of the unwrapped seq and
  // frame number (live keys never span 2^32), and the template id.
  struct SeenSlot {
    uint32_t seq = 0;
    uint32_t frame = 0;
    uint8_t template_id = kFreeSlot;
  };
  static constexpr uint8_t kFreeSlot = 0xff;  // template ids are 6 bits
  // A seq leaves the duplicate window when a later non-duplicate packet
  // is more than this far ahead of it.
  static constexpr int64_t kSeenWindow = 4096;
  struct BufferedSeq {
    int64_t seq;
    int64_t frame_number;
  };

  // The duplicate-window slot holding `seq`, or nullptr.
  const SeenSlot* FindSeen(int64_t seq) const;
  void RememberSeen(int64_t seq, int64_t frame, uint8_t template_id);
  void GrowSeen(int64_t lo, int64_t hi);
  void DetectGaps(int64_t unwrapped_seq, util::TimeUs now);
  void AssembleFrame(int64_t seq, const BufferedPacket& info);
  bool FrameComplete(const PendingFrame& f) const;
  void TryDecode(util::TimeUs now);
  void DecodeFrame(int64_t frame_number, const PendingFrame& f,
                   util::TimeUs now);

  VideoReceiverConfig cfg_;
  SendNackFn send_nack_;
  SendPliFn send_pli_;

  util::SeqUnwrapper seq_unwrap_;
  util::SeqUnwrapper frame_unwrap_;
  int64_t highest_seq_ = -1;

  // Received seqs -> frame number, sorted by seq; in-order packets append.
  // An entry leaves only when its frame decodes, so the packets of failed
  // and undecodable frames stay: OnTick bounds an abandoned seq's frame
  // range by its nearest buffered neighbours.
  std::vector<BufferedSeq> buffer_;
  // Duplicate window: (frame, template) per received seq, indexed by
  // seq & (size - 1). Every live key lies in [seen_lo_, seen_max_], a span
  // no wider than the power-of-two capacity, so live keys never share a
  // slot; a slot not marked free holds a live key. It grows on demand (a short leg
  // stays small) and never shrinks. A key leaves only when a later
  // non-duplicate packet is more than kSeenWindow ahead of it, so a very
  // late packet re-enters the window and stays detectable as a duplicate
  // until the next newer packet.
  std::vector<SeenSlot> seen_;
  int64_t seen_lo_ = 0;    // lower bound of the live keys
  int64_t seen_max_ = -1;  // highest key ever inserted
  std::map<int64_t, MissingPacket> missing_;
  std::unordered_set<int64_t> abandoned_;
  // Frames being assembled, sorted by frame number; new frames append.
  std::vector<std::pair<int64_t, PendingFrame>> pending_frames_;
  // Decoded frame numbers, sorted; each decode drops those more than 64
  // below it (enough for the L1T3 dependency check).
  std::vector<int64_t> decoded_frames_;
  int64_t max_seen_frame_ = -1;
  int64_t last_decoded_frame_ = -1;

  bool decoder_broken_ = false;
  bool waiting_for_key_frame_ = false;
  util::TimeUs last_decode_time_ = 0;
  util::TimeUs last_pli_time_ = -10'000'000;
  util::TimeUs freeze_accounted_until_ = 0;
  util::TimeUs first_packet_time_ = -1;  // <0: nothing received yet

  VideoReceiverStats stats_;
  util::JitterEstimator jitter_;
  PerSecondSeries fps_series_;
  PerSecondSeries bytes_series_;
  // Indexed directly by template id (6 bits on the wire): this is touched
  // once per video packet, and a flat array beats a map lookup.
  std::array<PerSecondSeries, 64> template_bytes_;
  // (frame, decode time) of the 256 highest decoded frames, sorted.
  std::vector<std::pair<int64_t, util::TimeUs>> decode_times_;
};

// Audio receive statistics (no NACK/PLI for audio).
class AudioReceiver {
 public:
  explicit AudioReceiver(uint32_t clock_rate = 48'000) : jitter_(clock_rate) {}

  void OnPacket(const rtp::RtpPacket& pkt, util::TimeUs arrival);

  uint64_t packets_received() const { return packets_; }
  uint64_t bytes_received() const { return bytes_; }
  uint64_t gaps_detected() const { return gaps_; }
  const util::JitterEstimator& jitter() const { return jitter_; }

 private:
  util::SeqUnwrapper unwrap_;
  int64_t highest_seq_ = -1;
  uint64_t packets_ = 0;
  uint64_t bytes_ = 0;
  uint64_t gaps_ = 0;
  util::JitterEstimator jitter_;
};

}  // namespace scallop::media
