#include "bwe/estimator.hpp"

namespace scallop::bwe {

uint64_t RateWindow::RateBps(util::TimeUs now) const {
  while (count_ > 0 && ring_[head_].t < now - window_) {
    window_sum_ -= ring_[head_].bytes;
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
  }
  if (count_ == 0) return 0;
  size_t total = window_sum_;
  // Before the window has filled once, normalize by the elapsed time so the
  // rate is not underestimated at stream start (that would wrongly cap the
  // AIMD estimate).
  util::DurationUs effective = window_;
  if (first_add_ >= 0 && now - first_add_ < window_) {
    effective = std::max<util::DurationUs>(now - first_add_, util::Millis(10));
  }
  return static_cast<uint64_t>(static_cast<double>(total) * 8.0 /
                               util::ToSeconds(effective));
}

void RateWindow::Grow() {
  std::vector<Sample> grown(ring_.empty() ? 64 : 2 * ring_.size());
  for (size_t i = 0; i < count_; ++i) {
    grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
  }
  ring_ = std::move(grown);
  head_ = 0;
}

ReceiverBandwidthEstimator::ReceiverBandwidthEstimator(
    const EstimatorConfig& cfg)
    : cfg_(cfg),
      trendline_(cfg.trendline),
      aimd_(cfg.aimd, cfg.start_bitrate_bps) {}

void ReceiverBandwidthEstimator::OnPacket(util::TimeUs arrival,
                                          util::TimeUs send_time,
                                          size_t bytes) {
  rate_.Add(arrival, bytes);
  auto deltas = inter_arrival_.OnPacket(send_time, arrival, bytes);
  if (deltas.has_value()) {
    trendline_.Update(deltas->arrival_delta_ms, deltas->send_delta_ms,
                      arrival);
    aimd_.Update(trendline_.State(), rate_.RateBps(arrival), arrival);
  }
}

std::optional<uint64_t> ReceiverBandwidthEstimator::MaybeRemb(
    util::TimeUs now) {
  uint64_t est = aimd_.estimate();
  bool periodic = now - last_remb_ >= cfg_.remb_interval;
  bool decreased =
      last_remb_value_ > 0 &&
      static_cast<double>(est) <
          cfg_.decrease_trigger * static_cast<double>(last_remb_value_);
  if (!periodic && !decreased) return std::nullopt;
  last_remb_ = now;
  last_remb_value_ = est;
  return est;
}

}  // namespace scallop::bwe
