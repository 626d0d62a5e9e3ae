// Unidirectional link with serialization rate, propagation delay, random
// jitter, iid loss, reordering, and a drop-tail queue. Capacity and loss can
// change at runtime (used to emulate congested downlinks in Fig. 14).
//
// In-flight packets wait in a ring sorted by (arrival, seq), where seq is
// the scheduler sequence number reserved when Send accepted the packet.
// The link is a Scheduler::EventSource: the ring's head is always armed in
// the scheduler's heap with its own key, so deliveries fire in the same
// global (when, seq) order as one At event per packet would, while the
// link itself adds no per-packet closure and, once the ring has grown, no
// allocation.
//
// A packet's shape is fixed when Send accepts it: rate, delays, loss and
// reordering are read then, even for a deferred `depart_at`. Network
// relies on that to hand a packet to a receiver's downlink one pure-delay
// uplink hop early (see network.hpp), so a runtime knob change applies to
// packets handed to the link after it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "util/random.hpp"
#include "util/time.hpp"

namespace scallop::sim {

struct LinkConfig {
  double rate_bps = 0.0;               // 0 = infinite capacity
  util::DurationUs prop_delay = 0;     // one-way propagation
  util::DurationUs jitter_stddev = 0;  // extra random delay (half-normal)
  double loss_rate = 0.0;              // iid drop probability
  double reorder_rate = 0.0;           // probability of extra reorder delay
  util::DurationUs reorder_delay = util::Millis(5);
  size_t queue_bytes = 256 * 1024;     // drop-tail queue bound
};

struct LinkStats {
  uint64_t sent_packets = 0;
  uint64_t delivered_packets = 0;
  uint64_t lost_packets = 0;      // random loss
  uint64_t dropped_packets = 0;   // queue overflow
  uint64_t sent_bytes = 0;
  uint64_t delivered_bytes = 0;
};

class Link : private Scheduler::EventSource {
 public:
  using DeliverFn = std::function<void(net::PacketPtr)>;

  Link(Scheduler& sched, LinkConfig cfg, uint64_t seed);
  // The scheduler's heap holds the link's address while packets are in
  // flight.
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Enqueues the packet; on delivery calls `deliver` at the arrival time.
  // `depart_at` (if ahead of now) defers the start of serialization — the
  // switch uses it to model its fixed pipeline latency without paying a
  // scheduler event per packet just to delay the hand-off.
  void Send(net::PacketPtr pkt, DeliverFn deliver,
            util::TimeUs depart_at = -1);

  // Runtime knobs (take effect for packets sent after the change).
  void set_rate_bps(double bps) { cfg_.rate_bps = bps; }
  void set_loss_rate(double p) { cfg_.loss_rate = p; }
  void set_reorder_rate(double p) { cfg_.reorder_rate = p; }
  void set_prop_delay(util::DurationUs d) { cfg_.prop_delay = d; }
  void set_jitter_stddev(util::DurationUs j) { cfg_.jitter_stddev = j; }

  const LinkConfig& config() const { return cfg_; }
  const LinkStats& stats() const { return stats_; }

  // True when the link only delays: no rate, jitter, loss or reordering.
  // Such a link draws no random numbers and delivers every packet at
  // departure + prop_delay, in send order.
  bool pure_delay() const {
    return cfg_.rate_bps <= 0.0 && cfg_.jitter_stddev <= 0 &&
           cfg_.loss_rate <= 0.0 && cfg_.reorder_rate <= 0.0;
  }
  // Counts a packet as sent and delivered without carrying it: Network
  // folds a pure-delay uplink into the next hop this way.
  void CountCrossing(size_t wire_bytes) {
    ++stats_.sent_packets;
    ++stats_.delivered_packets;
    stats_.sent_bytes += wire_bytes;
    stats_.delivered_bytes += wire_bytes;
  }

 private:
  struct Flight {
    util::TimeUs arrival = 0;
    uint64_t seq = 0;
    bool armed = false;  // already armed in the scheduler's heap
    net::PacketPtr pkt;
    DeliverFn deliver;
  };

  // Delivers the head flight (Scheduler::EventSource).
  void OnEvent(uint32_t tag) override;
  Flight& FlightAt(size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }
  void ArmHead();
  void Grow();

  Scheduler& sched_;
  LinkConfig cfg_;
  util::Rng rng_;
  util::TimeUs busy_until_ = 0;
  LinkStats stats_;
  // Sorted by (arrival, seq) from head_. Capacity is a power of two. A
  // flight is armed once: when it first becomes the head. A later send
  // that sorts ahead of it (jitter, reordering, a cut propagation delay,
  // an earlier depart_at) becomes the new armed head, and the displaced
  // flight's entry stays valid — it carries that flight's exact key, and
  // the scheduler can only fire it once everything before it has fired.
  std::vector<Flight> ring_;
  size_t head_ = 0;
  size_t count_ = 0;
};

}  // namespace scallop::sim
