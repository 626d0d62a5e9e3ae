// Outside-in observation of a running scenario: a media tap that bins
// one-way packet latency, and a leg tracker that polls the runner's
// public peer/receiver state between scheduler steps. Everything the
// benchmark keeps per run is bounded: fixed-bucket histograms and one
// record per (receiver, sender, overlap) leg.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "util/time.hpp"

namespace confbench {

// Median of `v`; NaN when empty.
double Median(std::vector<double> v);

// Log-spaced fixed-bucket histogram in ms: 0.5% bucket width from 1 us
// to about 1000 s. Quantiles interpolate linearly inside the bucket by
// rank. Trivially copyable, so results cross process boundaries as bytes.
class Histogram {
 public:
  static constexpr size_t kBuckets = 4160;

  void Add(double ms);
  void Merge(const Histogram& other);
  uint64_t count() const { return total_ + overflow_; }
  // Returns +infinity when the quantile falls above the top bucket and NaN
  // when the histogram is empty.
  double Quantile(double q) const;
  bool operator==(const Histogram& other) const = default;

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t total_ = 0;
  uint64_t overflow_ = 0;
};

// What one run of one scenario instance delivered, in sim time. Pooled
// across instances with Merge; deterministic for a given spec.
struct Modeled {
  Histogram latency_ms;     // media packets arriving inside the window
  // Join-to-first-frame of every leg that decoded. Legs that never did
  // are failures (zero_frame_legs), not latency samples.
  Histogram join_ms;
  uint64_t legs_judged = 0;
  uint64_t legs_failed = 0;
  uint64_t zero_frame_legs = 0;
  uint64_t rewrite_violation_legs = 0;  // decoder breaks or conflicting dups
  uint64_t starved_peers = 0;  // receivers with at least one zero-frame leg
  uint64_t legs_unjudged = 0;  // overlap too short to judge
  uint64_t joins = 0;          // participant (re)joins observed
  uint64_t frames_in_window = 0;  // runner timeline, includes retired legs
  double window_sim_s = 0.0;
  double freeze_ms_in_window = 0.0;
  double stream_ms_in_window = 0.0;
  uint64_t nacks_sent = 0;      // NACK messages sent inside the window
  uint64_t nacked_packets = 0;  // sequence numbers they requested
  uint64_t recovered_packets = 0;

  void Merge(const Modeled& other);
  bool operator==(const Modeled& other) const = default;
  // One-line summary of the counts behind the shares.
  std::string Describe() const;
};

// Media tap: install `Fn()` as PeerConfig::media_tap before the runner is
// built. Bins latency for packets arriving at or after the window start.
class LatencyTap {
 public:
  explicit LatencyTap(double window_start_s);
  std::function<void(uint32_t, scallop::util::TimeUs, scallop::util::TimeUs)>
  Fn();
  const Histogram& histogram() const { return *hist_; }

 private:
  scallop::util::TimeUs window_start_;
  std::shared_ptr<Histogram> hist_;
};

// Polls every expected (receiver, sender) leg of a running scenario. A
// leg is an overlap: it starts at the later of the two joins and ends
// when either side leaves. Join times come from the spec's schedule when
// a scheduled join falls inside the poll interval, else the interval's
// midpoint; first-decode times are exact (recovered from the receiver's
// trailing decode history).
class LegTracker {
 public:
  LegTracker(scallop::harness::ScenarioRunner& runner, double window_start_s);
  ~LegTracker();
  LegTracker(const LegTracker&) = delete;
  LegTracker& operator=(const LegTracker&) = delete;

  // Call after every scheduler step (at most 20 ms of sim time apart).
  void Poll();
  // Closes every open leg and returns the leg-derived fields (all but
  // latency_ms, frames_in_window and window_sim_s).
  Modeled Finish();

 private:
  struct State;
  std::unique_ptr<State> st_;
};

}  // namespace confbench
