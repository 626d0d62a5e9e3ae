// Receiver-side bandwidth estimator facade: feeds packets through
// InterArrival -> Trendline -> AIMD, measures the incoming rate over a
// sliding window, and decides when a REMB should be emitted (periodic, or
// immediately on a significant decrease) — the paper's §5.2 mode.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bwe/aimd.hpp"
#include "bwe/inter_arrival.hpp"
#include "bwe/trendline.hpp"
#include "util/time.hpp"

namespace scallop::bwe {

// Sliding-window incoming bitrate. Samples wait in a power-of-two ring in
// arrival order (like sim::Link's flights); it grows when full and never
// shrinks, so a steady stream adds and expires samples without allocating.
class RateWindow {
 public:
  explicit RateWindow(util::DurationUs window = util::Millis(500))
      : window_(window) {}

  void Add(util::TimeUs t, size_t bytes) {
    if (first_add_ < 0) first_add_ = t;
    if (count_ == ring_.size()) Grow();
    ring_[(head_ + count_++) & (ring_.size() - 1)] = Sample{t, bytes};
    window_sum_ += bytes;
  }
  uint64_t RateBps(util::TimeUs now) const;

 private:
  struct Sample {
    util::TimeUs t = 0;
    size_t bytes = 0;
  };
  void Grow();

  util::DurationUs window_;
  util::TimeUs first_add_ = -1;
  // ring_[head_] is the oldest of count_ samples; RateBps expires samples
  // older than the window from the head.
  mutable std::vector<Sample> ring_;
  mutable size_t head_ = 0;
  mutable size_t count_ = 0;
  // Running sum of the ring's bytes, so the per-packet rate query is O(1)
  // instead of a window walk.
  mutable size_t window_sum_ = 0;
};

struct EstimatorConfig {
  AimdConfig aimd;
  TrendlineConfig trendline;
  uint64_t start_bitrate_bps = 1'000'000;
  util::DurationUs remb_interval = util::Seconds(1);
  // Immediate REMB when the estimate falls below this fraction of the last
  // value sent.
  double decrease_trigger = 0.97;
};

class ReceiverBandwidthEstimator {
 public:
  explicit ReceiverBandwidthEstimator(const EstimatorConfig& cfg = {});

  // `send_time` comes from the abs-send-time extension.
  void OnPacket(util::TimeUs arrival, util::TimeUs send_time, size_t bytes);

  // Returns a bitrate if a REMB message should be sent now.
  std::optional<uint64_t> MaybeRemb(util::TimeUs now);

  uint64_t estimate() const { return aimd_.estimate(); }
  uint64_t incoming_rate_bps(util::TimeUs now) const {
    return rate_.RateBps(now);
  }
  BandwidthUsage detector_state() const { return trendline_.State(); }

 private:
  EstimatorConfig cfg_;
  InterArrival inter_arrival_;
  TrendlineEstimator trendline_;
  AimdRateControl aimd_;
  RateWindow rate_;
  util::TimeUs last_remb_ = 0;
  uint64_t last_remb_value_ = 0;
};

}  // namespace scallop::bwe
