#include "sim/link.hpp"

#include <algorithm>
#include <cmath>

namespace scallop::sim {

Link::Link(Scheduler& sched, LinkConfig cfg, uint64_t seed)
    : sched_(sched), cfg_(cfg), rng_(seed) {}

void Link::Send(net::PacketPtr pkt, DeliverFn deliver,
                util::TimeUs depart_at) {
  ++stats_.sent_packets;
  stats_.sent_bytes += pkt->wire_size();

  if (rng_.Bernoulli(cfg_.loss_rate)) {
    ++stats_.lost_packets;
    return;
  }

  util::TimeUs now = sched_.now();
  if (depart_at > now) now = depart_at;
  util::TimeUs tx_end;
  if (cfg_.rate_bps > 0.0) {
    // Backlog relative to the (possibly deferred) departure time.
    util::TimeUs backlog = busy_until_ - now;
    size_t queued =
        backlog <= 0 ? 0
                     : static_cast<size_t>(static_cast<double>(backlog) *
                                           cfg_.rate_bps / 8e6);
    if (queued + pkt->wire_size() > cfg_.queue_bytes) {
      ++stats_.dropped_packets;
      return;
    }
    double tx_us = static_cast<double>(pkt->wire_size()) * 8e6 / cfg_.rate_bps;
    util::TimeUs tx_start = std::max(now, busy_until_);
    tx_end = tx_start + static_cast<util::TimeUs>(tx_us);
    busy_until_ = tx_end;
  } else {
    tx_end = now;
  }

  util::DurationUs extra = 0;
  if (cfg_.jitter_stddev > 0) {
    extra += static_cast<util::DurationUs>(std::abs(
        rng_.Normal(0.0, static_cast<double>(cfg_.jitter_stddev))));
  }
  if (cfg_.reorder_rate > 0.0 && rng_.Bernoulli(cfg_.reorder_rate)) {
    extra += cfg_.reorder_delay;
  }

  // Never before now: tx_end >= now and both delays are non-negative.
  util::TimeUs arrival = tx_end + cfg_.prop_delay + extra;
  const uint64_t seq = sched_.ReserveSeq();
  if (count_ == ring_.size()) Grow();
  // Insert from the tail: the new flight has the newest seq, so it goes
  // behind every flight arriving no later than it (O(1) when in order).
  size_t pos = count_++;
  for (; pos > 0 && FlightAt(pos - 1).arrival > arrival; --pos) {
    FlightAt(pos) = std::move(FlightAt(pos - 1));
  }
  Flight& f = FlightAt(pos);
  f.arrival = arrival;
  f.seq = seq;
  f.armed = false;
  f.pkt = std::move(pkt);
  f.deliver = std::move(deliver);
  if (pos == 0) ArmHead();
}

void Link::ArmHead() {
  Flight& head = ring_[head_];
  head.armed = true;
  sched_.Arm(head.arrival, head.seq, this);
}

void Link::Grow() {
  std::vector<Flight> grown(ring_.empty() ? 16 : 2 * ring_.size());
  for (size_t i = 0; i < count_; ++i) grown[i] = std::move(FlightAt(i));
  ring_ = std::move(grown);
  head_ = 0;
}

void Link::OnEvent(uint32_t /*tag*/) {
  Flight& f = ring_[head_];
  net::PacketPtr pkt = std::move(f.pkt);
  DeliverFn deliver = std::move(f.deliver);
  const util::TimeUs arrival = f.arrival;
  head_ = (head_ + 1) & (ring_.size() - 1);
  // Arm the next head before delivering: `deliver` may send on this link.
  if (--count_ > 0 && !ring_[head_].armed) ArmHead();
  ++stats_.delivered_packets;
  stats_.delivered_bytes += pkt->wire_size();
  pkt->arrival = arrival;
  deliver(std::move(pkt));
}

}  // namespace scallop::sim
