#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "net/packet.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "util/random.hpp"

namespace scallop::sim {
namespace {

using net::Endpoint;
using net::Ipv4;

TEST(Scheduler, OrdersByTime) {
  Scheduler s;
  std::vector<int> order;
  s.At(300, [&] { order.push_back(3); });
  s.At(100, [&] { order.push_back(1); });
  s.At(200, [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 300);
}

TEST(Scheduler, FifoAmongEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  s.At(100, [&] { order.push_back(1); });
  s.At(100, [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, RunUntilStopsAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.At(100, [&] { ++fired; });
  s.At(500, [&] { ++fired; });
  EXPECT_EQ(s.RunUntil(250), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 250);
  s.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  int fired = 0;
  uint64_t id = s.At(100, [&] { ++fired; });
  s.Cancel(id);
  s.RunAll();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, EventsScheduleEvents) {
  Scheduler s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) s.After(10, chain);
  };
  s.After(10, chain);
  s.RunAll();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), 50);
}

TEST(Scheduler, CancelOfFiredIdIsNoOpAndKeepsPendingExact) {
  // Regression: Cancel() on an already-fired id used to be recorded as a
  // live cancellation forever, so pending() under-reported and empty()
  // could report true while real events remained.
  Scheduler s;
  int fired = 0;
  uint64_t done = s.At(100, [&] { ++fired; });
  s.RunAll();
  s.Cancel(done);  // documented no-op
  s.Cancel(done);  // twice, for good measure
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
  s.At(200, [&] { ++fired; });
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.pending(), 1u);
  s.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, DoubleCancelCountsOnce) {
  Scheduler s;
  int fired = 0;
  uint64_t id = s.At(100, [&] { ++fired; });
  s.At(100, [&] { ++fired; });
  s.Cancel(id);
  s.Cancel(id);
  EXPECT_EQ(s.pending(), 1u);
  s.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, StaleCancelCannotHitRescheduledEvent) {
  // A cancelled (or fired) id must never cancel a later event that
  // happens to reuse its internal storage.
  Scheduler s;
  int fired = 0;
  uint64_t a = s.At(100, [&] { ++fired; });
  s.Cancel(a);
  s.RunAll();  // drains the cancelled entry, recycling its slot
  uint64_t b = s.At(200, [&] { ++fired; });
  EXPECT_NE(a, b);
  s.Cancel(a);  // stale: must not touch b
  EXPECT_EQ(s.pending(), 1u);
  s.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, PendingStaysExactUnderCancelHeavyChurn) {
  Scheduler s;
  int fired = 0;
  std::vector<uint64_t> ids;
  for (int round = 0; round < 10; ++round) {
    ids.clear();
    for (int i = 0; i < 100; ++i) {
      ids.push_back(s.After(1 + (i % 4), [&] { ++fired; }));
    }
    EXPECT_EQ(s.pending(), 100u);
    for (int i = 0; i < 100; i += 2) s.Cancel(ids[i]);
    EXPECT_EQ(s.pending(), 50u);
    s.RunAll();
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_TRUE(s.empty());
    for (uint64_t id : ids) s.Cancel(id);  // all fired or cancelled: no-ops
    EXPECT_EQ(s.pending(), 0u);
  }
  EXPECT_EQ(fired, 500);
}

TEST(PeriodicTaskTest, RepeatsUntilFalse) {
  Scheduler s;
  int runs = 0;
  PeriodicTask task(s, 100, [&] { return ++runs < 3; });
  s.RunAll();
  EXPECT_EQ(runs, 3);
}

TEST(PeriodicTaskTest, DestroyFromOwnCallbackIsSafe) {
  // Regression: the armed event captured `this` and could outlive a task
  // destroyed inside its own callback.
  Scheduler s;
  int runs = 0;
  std::unique_ptr<PeriodicTask> task;
  task = std::make_unique<PeriodicTask>(s, 100, [&] {
    ++runs;
    task.reset();  // destroys the task while its callback is running
    return true;   // and still asks to re-arm
  });
  s.RunAll();
  EXPECT_EQ(runs, 1);
}

TEST(PeriodicTaskTest, CancelInsideCallbackStopsRearm) {
  // Regression: fn_ returning true used to re-arm even when Cancel() was
  // called inside the callback (after the entry check), leaving an armed
  // event the destructor no longer cancelled — a dangling `this` capture.
  Scheduler s;
  int runs = 0;
  {
    PeriodicTask task(s, 100, [&] {
      ++runs;
      task.Cancel();
      return true;
    });
    s.RunUntil(250);  // fires once at t=100
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(s.empty());  // no zombie re-armed event
  }
  s.RunAll();  // would fire (and use-after-free) a leaked re-arm
  EXPECT_EQ(runs, 1);
}

TEST(PeriodicTaskTest, CancelFromNestedEventStopsRearm) {
  // A Cancel issued by another event that runs inside the task's own
  // callback window must stick even though the task's entry check had
  // already passed.
  Scheduler s;
  int runs = 0;
  PeriodicTask task(s, 100, [&] {
    ++runs;
    // Simulates a nested RunUntil: work done inside the callback cancels
    // the task before it returns true.
    s.RunUntil(s.now());  // drains same-time events (none) — keeps shape
    task.Cancel();
    return true;
  });
  s.RunAll();
  EXPECT_EQ(runs, 1);
}

net::PacketPtr MakeTestPacket(size_t size = 1000) {
  return net::MakePacket(Endpoint{Ipv4(10, 0, 0, 1), 1000},
                         Endpoint{Ipv4(10, 0, 0, 2), 2000},
                         std::vector<uint8_t>(size, 0));
}

TEST(LinkTest, PropagationDelayOnly) {
  Scheduler s;
  Link link(s, LinkConfig{.rate_bps = 0, .prop_delay = util::Millis(10)}, 1);
  util::TimeUs arrival = -1;
  link.Send(MakeTestPacket(), [&](net::PacketPtr p) { arrival = p->arrival; });
  s.RunAll();
  EXPECT_EQ(arrival, util::Millis(10));
}

TEST(LinkTest, SerializationDelay) {
  Scheduler s;
  // 1 Mbit/s: a 1028-byte packet (1000 + 28 header) takes 8224 us.
  Link link(s, LinkConfig{.rate_bps = 1e6}, 1);
  util::TimeUs arrival = -1;
  link.Send(MakeTestPacket(1000),
            [&](net::PacketPtr p) { arrival = p->arrival; });
  s.RunAll();
  EXPECT_EQ(arrival, 8224);
}

TEST(LinkTest, QueueingDelaysBackToBackPackets) {
  Scheduler s;
  Link link(s, LinkConfig{.rate_bps = 1e6}, 1);
  std::vector<util::TimeUs> arrivals;
  for (int i = 0; i < 3; ++i) {
    link.Send(MakeTestPacket(1000),
              [&](net::PacketPtr p) { arrivals.push_back(p->arrival); });
  }
  s.RunAll();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 8224);
  EXPECT_EQ(arrivals[1], 2 * 8224);
  EXPECT_EQ(arrivals[2], 3 * 8224);
}

TEST(LinkTest, LossRateDropsApproximatelyP) {
  Scheduler s;
  Link link(s, LinkConfig{.rate_bps = 0, .loss_rate = 0.2}, 7);
  int delivered = 0;
  for (int i = 0; i < 10000; ++i) {
    link.Send(MakeTestPacket(100), [&](net::PacketPtr) { ++delivered; });
  }
  s.RunAll();
  EXPECT_NEAR(delivered / 10000.0, 0.8, 0.02);
  EXPECT_EQ(link.stats().lost_packets + link.stats().delivered_packets,
            link.stats().sent_packets);
}

TEST(LinkTest, RuntimeJitterKnob) {
  // Jitter is settable at runtime like the other link knobs (scenario
  // harness LinkEvents use this to degrade a link mid-run).
  Scheduler s;
  Link link(s, LinkConfig{.rate_bps = 0, .prop_delay = util::Millis(10)}, 1);
  // Without jitter every packet arrives exactly one propagation later.
  util::TimeUs arrival = -1;
  link.Send(MakeTestPacket(), [&](net::PacketPtr p) { arrival = p->arrival; });
  s.RunAll();
  EXPECT_EQ(arrival, util::Millis(10));

  link.set_jitter_stddev(util::Millis(2));
  EXPECT_EQ(link.config().jitter_stddev, util::Millis(2));
  int jittered = 0;
  util::TimeUs base = s.now();
  for (int i = 0; i < 32; ++i) {
    link.Send(MakeTestPacket(), [&, base](net::PacketPtr p) {
      if (p->arrival - base > util::Millis(10)) ++jittered;
    });
  }
  s.RunAll();
  // Half-normal extra delay: a good fraction of packets arrive late.
  EXPECT_GT(jittered, 8);
}

TEST(LinkTest, QueueOverflowDrops) {
  Scheduler s;
  Link link(s, LinkConfig{.rate_bps = 1e6, .queue_bytes = 3000}, 1);
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    link.Send(MakeTestPacket(1000), [&](net::PacketPtr) { ++delivered; });
  }
  s.RunAll();
  EXPECT_LT(delivered, 10);
  EXPECT_GT(link.stats().dropped_packets, 0u);
}

TEST(LinkTest, RuntimeRateChangeTakesEffect) {
  Scheduler s;
  Link link(s, LinkConfig{.rate_bps = 1e6}, 1);
  link.set_rate_bps(2e6);
  util::TimeUs arrival = -1;
  link.Send(MakeTestPacket(1000),
            [&](net::PacketPtr p) { arrival = p->arrival; });
  s.RunAll();
  EXPECT_EQ(arrival, 4112);
}

// RunUntil/RunAll return one per executed event, whichever way it entered:
// every delivery of an equal-time burst counts, as do At events and
// deliveries sent from inside a delivery; a cancelled event counts zero.
TEST(LinkTest, RunCountsEveryDeliveryOfABurst) {
  Scheduler s;
  Link link(s, LinkConfig{.prop_delay = util::Millis(1)}, 1);
  constexpr size_t kBurst = 10;
  size_t delivered = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    link.Send(MakeTestPacket(), [&](net::PacketPtr) { ++delivered; });
  }
  s.At(util::Millis(1), [] {});
  s.Cancel(s.At(util::Millis(1), [] {}));
  EXPECT_EQ(s.RunUntil(util::Millis(1)), kBurst + 1);
  EXPECT_EQ(delivered, kBurst);

  link.Send(MakeTestPacket(), [&](net::PacketPtr) {
    ++delivered;
    link.Send(MakeTestPacket(), [&](net::PacketPtr) { ++delivered; });
  });
  EXPECT_EQ(s.RunAll(), 2u);
  EXPECT_EQ(delivered, kBurst + 2);
}

// Links fire their deliveries in the scheduler's global (when, seq) order:
// by arrival time, and among equal times by the order of the Send calls,
// interleaved with At events by the order they were scheduled. The links
// below reorder on purpose — jitter, a reorder knob, a propagation delay
// cut mid-run and non-monotone deferred departures — and every event
// lands on a 1 ms grid, so equal-time ties are common.
TEST(LinkOrdering, RandomizedDeliveriesFollowArrivalThenSendOrder) {
  Scheduler s;
  util::Rng rng(11);
  std::vector<std::unique_ptr<Link>> links;
  links.push_back(std::make_unique<Link>(
      s, LinkConfig{.rate_bps = 0, .prop_delay = util::Millis(20)}, 1));
  links.push_back(std::make_unique<Link>(
      s,
      LinkConfig{.rate_bps = 0,
                 .prop_delay = util::Millis(3),
                 .reorder_rate = 0.3,
                 .reorder_delay = util::Millis(4)},
      2));
  links.push_back(std::make_unique<Link>(
      s,
      LinkConfig{.rate_bps = 0,
                 .prop_delay = util::Millis(2),
                 .jitter_stddev = util::Millis(3),
                 .loss_rate = 0.05},
      3));
  links.push_back(std::make_unique<Link>(
      s, LinkConfig{.rate_bps = 8e6, .prop_delay = util::Millis(1)}, 4));
  links.push_back(std::make_unique<Link>(s, LinkConfig{.rate_bps = 0}, 5));

  struct Fired {
    util::TimeUs when;
    uint64_t order;
    bool operator<(const Fired& o) const {
      return when != o.when ? when < o.when : order < o.order;
    }
  };
  std::vector<Fired> fired;
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  auto grid = [&](int64_t max_ms) {
    return util::Millis(rng.UniformInt(0, max_ms));
  };
  std::function<void(int)> send = [&](int hops) {
    Link& link = *links[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(links.size()) - 1))];
    const uint64_t order = submitted++;
    util::TimeUs depart =
        rng.Bernoulli(0.3) ? s.now() + grid(6) : util::TimeUs{-1};
    link.Send(
        MakeTestPacket(200),
        [&, order, hops](net::PacketPtr p) {
          fired.push_back(Fired{p->arrival, order});
          // Forward some deliveries on: sends from inside a delivery.
          if (hops > 0 && rng.Bernoulli(0.5)) send(hops - 1);
        },
        depart);
    ++accepted;
  };
  std::function<void()> tick = [&] {
    const uint64_t order = submitted++;
    const util::TimeUs when = s.now() + grid(4);
    s.At(when, [&, order, when] {
      fired.push_back(Fired{when, order});
      int n = static_cast<int>(rng.UniformInt(0, 3));
      for (int i = 0; i < n; ++i) send(2);
      if (s.now() < util::Millis(3000)) tick();
    });
  };
  for (int i = 0; i < 4; ++i) tick();
  // The propagation delay drop lets later packets overtake in-flight ones.
  s.At(util::Millis(1500), [&, order = submitted++] {
    fired.push_back(Fired{util::Millis(1500), order});
    links[0]->set_prop_delay(util::Millis(1));
  });
  s.RunAll();

  ASSERT_GT(fired.size(), 2000u);
  // The workload really does tie and reorder.
  size_t ties = 0;
  size_t overtakes = 0;
  for (size_t i = 1; i < fired.size(); ++i) {
    if (fired[i].when == fired[i - 1].when) ++ties;
    if (fired[i].order < fired[i - 1].order) ++overtakes;
  }
  EXPECT_GT(ties, 200u);
  EXPECT_GT(overtakes, 200u);
  for (size_t i = 1; i < fired.size(); ++i) {
    ASSERT_TRUE(fired[i - 1] < fired[i])
        << "event " << i << " at " << fired[i].when << " (submitted #"
        << fired[i].order << ") fired after " << fired[i - 1].when
        << " (#" << fired[i - 1].order << ")";
  }
  uint64_t delivered = 0;
  uint64_t lost = 0;
  uint64_t sent = 0;
  for (const auto& link : links) {
    delivered += link->stats().delivered_packets;
    lost += link->stats().lost_packets + link->stats().dropped_packets;
    sent += link->stats().sent_packets;
  }
  EXPECT_EQ(sent, accepted);
  EXPECT_EQ(delivered + lost, sent);
  EXPECT_GT(lost, 0u);
  EXPECT_TRUE(s.empty());
}

class Sink : public Host {
 public:
  void OnPacket(net::PacketPtr pkt) override { received.push_back(std::move(pkt)); }
  std::vector<net::PacketPtr> received;
};

TEST(NetworkTest, RoutesBetweenHosts) {
  Scheduler s;
  Network net(s, 99);
  Sink a, b;
  LinkConfig fast{.rate_bps = 0, .prop_delay = util::Millis(5)};
  net.Attach(Ipv4(10, 0, 0, 1), &a, fast, fast);
  net.Attach(Ipv4(10, 0, 0, 2), &b, fast, fast);

  net.Send(MakeTestPacket());
  s.RunAll();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0]->arrival, util::Millis(10));  // up + down
  EXPECT_TRUE(a.received.empty());
}

TEST(NetworkTest, UnknownDestinationBlackholed) {
  Scheduler s;
  Network net(s, 99);
  Sink a;
  net.Attach(Ipv4(10, 0, 0, 1), &a, {}, {});
  net.Send(MakeTestPacket());  // dst 10.0.0.2 not attached
  s.RunAll();
  EXPECT_EQ(net.blackholed(), 1u);
}

TEST(NetworkTest, DownlinkCapacityShapesTraffic) {
  Scheduler s;
  Network net(s, 99);
  Sink a, b;
  net.Attach(Ipv4(10, 0, 0, 1), &a, {}, {});
  net.Attach(Ipv4(10, 0, 0, 2), &b, {},
             LinkConfig{.rate_bps = 1e6});
  for (int i = 0; i < 5; ++i) net.Send(MakeTestPacket(1000));
  s.RunAll();
  ASSERT_EQ(b.received.size(), 5u);
  // Spaced by the serialization time of the bottleneck downlink.
  EXPECT_EQ(b.received[4]->arrival - b.received[3]->arrival, 8224);
}

TEST(NetworkTest, ConnectReshapesPairLinkWithPacketsInFlight) {
  Scheduler s;
  Network net(s, 99);
  Sink a, b;
  const Ipv4 ia(10, 0, 0, 1), ib(10, 0, 0, 2);
  net.Attach(ia, &a, {}, {});
  net.Attach(ib, &b, {}, {});
  LinkConfig slow{.rate_bps = 0, .prop_delay = util::Millis(20)};
  net.Connect(ia, ib, slow, slow);
  net.SetRoute(ia, ib, {ia, ib});
  Link* before = net.pair_link(ia, ib);
  ASSERT_NE(before, nullptr);
  std::vector<util::TimeUs> sent_at;
  for (int i = 0; i < 10; ++i) {
    s.At(util::Millis(i), [&] {
      sent_at.push_back(s.now());
      net.Send(MakeTestPacket(100));
    });
  }
  // At 5 ms (after that instant's send) the backbone drops to 2 ms: the
  // packets sent later overtake the six still in flight on the old delay.
  s.At(util::Millis(5), [&] {
    LinkConfig fast{.rate_bps = 0, .prop_delay = util::Millis(2)};
    net.Connect(ia, ib, fast, fast);
  });
  s.RunAll();
  EXPECT_EQ(net.pair_link(ia, ib), before);  // reshaped in place
  ASSERT_EQ(b.received.size(), 10u);
  std::vector<util::TimeUs> arrivals;
  for (const auto& p : b.received) arrivals.push_back(p->arrival);
  EXPECT_EQ(arrivals,
            (std::vector<util::TimeUs>{
                util::Millis(8), util::Millis(9), util::Millis(10),
                util::Millis(11), util::Millis(20), util::Millis(21),
                util::Millis(22), util::Millis(23), util::Millis(24),
                util::Millis(25)}));
  EXPECT_EQ(before->stats().sent_packets, 10u);
  EXPECT_EQ(before->stats().delivered_packets, 10u);
  EXPECT_TRUE(a.received.empty());
}

// Replacing a route does not re-route packets already riding the old one:
// each finishes the path it started on.
TEST(NetworkTest, SetRouteKeepsPacketsOnTheirPath) {
  Scheduler s;
  Network net(s, 99);
  Sink a, b, c;
  const Ipv4 ia(10, 0, 0, 1), ib(10, 0, 0, 3), ic(10, 0, 0, 2);
  net.Attach(ia, &a, {}, {});
  net.Attach(ib, &b, {}, {});
  net.Attach(ic, &c, {}, {});
  LinkConfig hop{.rate_bps = 0, .prop_delay = util::Millis(10)};
  net.Connect(ia, ib, hop, hop);
  net.Connect(ib, ic, hop, hop);
  net.Connect(ia, ic, LinkConfig{.rate_bps = 0, .prop_delay = util::Millis(3)},
              hop);
  net.SetRoute(ia, ic, {ia, ib, ic});
  for (int i = 0; i < 6; ++i) {
    s.At(util::Millis(i), [&] { net.Send(MakeTestPacket(100)); });
  }
  // At 3 ms (after that instant's send) the route goes direct, while four
  // packets are still on the a->b hop; the route is replaced again before
  // any of them reaches b.
  s.At(util::Millis(3), [&] { net.SetRoute(ia, ic, {ia, ic}); });
  s.At(util::Millis(6), [&] { net.SetRoute(ia, ic, {ia, ic}); });
  s.At(util::Millis(7), [&] { net.Send(MakeTestPacket(100)); });
  s.RunAll();
  ASSERT_EQ(c.received.size(), 7u);
  std::vector<util::TimeUs> arrivals;
  for (const auto& p : c.received) arrivals.push_back(p->arrival);
  EXPECT_EQ(arrivals, (std::vector<util::TimeUs>{
                          util::Millis(7), util::Millis(8), util::Millis(10),
                          util::Millis(20), util::Millis(21), util::Millis(22),
                          util::Millis(23)}));
  EXPECT_EQ(net.pair_link(ia, ib)->stats().delivered_packets, 4u);
  EXPECT_EQ(net.pair_link(ib, ic)->stats().delivered_packets, 4u);
  EXPECT_EQ(net.pair_link(ia, ic)->stats().delivered_packets, 3u);
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.blackholed(), 0u);
}

// Randomized bursts from two hosts with pure-delay uplinks (an SFU's
// datacenter link) into one jittered, lossy, rate-limited downlink with a
// small queue arrive exactly as they do through an explicit uplink ->
// downlink chain of Links built with the network's seeds: the same
// packets, in the same order, at the same times, with the same drops.
TEST(NetworkTest, PureDelayUplinkMatchesExplicitTwoLinkChain) {
  const LinkConfig sfu_up{.rate_bps = 0, .prop_delay = util::Millis(1)};
  const LinkConfig shaped{.rate_bps = 4e6,
                          .prop_delay = util::Millis(5),
                          .jitter_stddev = 300,
                          .loss_rate = 0.02,
                          .reorder_rate = 0.05,
                          .reorder_delay = util::Millis(2),
                          .queue_bytes = 12 * 1024};
  constexpr uint64_t kSeed = 77;
  constexpr util::DurationUs kPipeline = 2;
  const Ipv4 src_a(10, 0, 0, 1), src_b(10, 0, 0, 3), dst(10, 0, 0, 2);

  struct Burst {
    util::TimeUs at;
    bool from_b;
    size_t packets;
    size_t size;
  };
  std::vector<Burst> plan;
  util::Rng rng(5);
  for (util::TimeUs t = 0; t < util::Millis(2000);
       t += 100 * rng.UniformInt(1, 60)) {
    plan.push_back(Burst{t, rng.Bernoulli(0.5),
                         static_cast<size_t>(rng.UniformInt(1, 12)),
                         static_cast<size_t>(rng.UniformInt(60, 1200))});
  }
  struct Arrival {
    util::TimeUs when;
    uint32_t id;
    bool operator==(const Arrival&) const = default;
  };
  auto make = [&](const Burst& b, uint32_t id) {
    auto pkt = net::MakePacket(Endpoint{b.from_b ? src_b : src_a, 1000},
                               Endpoint{dst, 2000},
                               std::vector<uint8_t>(b.size, 0));
    pkt->ingress_port = id;  // tags the packet
    return pkt;
  };

  // Through the network: hosts attached in order a, b, dst, so the link
  // seeds are kSeed + 1..6 and dst's downlink draws from kSeed + 6.
  std::vector<Arrival> via_network;
  LinkStats network_down;
  uint64_t network_up_delivered = 0;
  {
    Scheduler s;
    Network net(s, kSeed);
    Sink a, b;
    struct Recorder : Host {
      std::vector<Arrival>* out;
      void OnPacket(net::PacketPtr p) override {
        out->push_back(Arrival{p->arrival, p->ingress_port});
      }
    } sink;
    sink.out = &via_network;
    net.Attach(src_a, &a, sfu_up, sfu_up);
    net.Attach(src_b, &b, sfu_up, sfu_up);
    net.Attach(dst, &sink, shaped, shaped);
    uint32_t id = 0;
    for (const Burst& burst : plan) {
      s.At(burst.at, [&, burst, first = id] {
        for (size_t i = 0; i < burst.packets; ++i) {
          net.Send(make(burst, first + static_cast<uint32_t>(i)),
                   s.now() + kPipeline);
        }
      });
      id += static_cast<uint32_t>(burst.packets);
    }
    s.RunAll();
    network_down = net.downlink(dst)->stats();
    network_up_delivered = net.uplink(src_a)->stats().delivered_packets +
                           net.uplink(src_b)->stats().delivered_packets;
  }

  // Through an explicit chain of Links with the same configs and seeds.
  std::vector<Arrival> via_chain;
  LinkStats chain_down;
  {
    Scheduler s;
    Link up_a(s, sfu_up, kSeed + 1);
    Link up_b(s, sfu_up, kSeed + 3);
    Link down(s, shaped, kSeed + 6);
    uint32_t id = 0;
    for (const Burst& burst : plan) {
      s.At(burst.at, [&, burst, first = id] {
        for (size_t i = 0; i < burst.packets; ++i) {
          (burst.from_b ? up_b : up_a)
              .Send(make(burst, first + static_cast<uint32_t>(i)),
                    [&](net::PacketPtr p) {
                      down.Send(std::move(p), [&](net::PacketPtr q) {
                        via_chain.push_back(Arrival{q->arrival, q->ingress_port});
                      });
                    },
                    s.now() + kPipeline);
        }
      });
      id += static_cast<uint32_t>(burst.packets);
    }
    s.RunAll();
    chain_down = down.stats();
  }

  ASSERT_GT(via_chain.size(), 1000u);
  EXPECT_GT(chain_down.lost_packets, 0u);
  EXPECT_GT(chain_down.dropped_packets, 0u);
  EXPECT_TRUE(via_network == via_chain);
  EXPECT_EQ(network_down.sent_packets, chain_down.sent_packets);
  EXPECT_EQ(network_down.lost_packets, chain_down.lost_packets);
  EXPECT_EQ(network_down.dropped_packets, chain_down.dropped_packets);
  EXPECT_EQ(network_down.delivered_bytes, chain_down.delivered_bytes);
  EXPECT_EQ(network_up_delivered, chain_down.sent_packets);
}

// A pure-delay uplink is folded into a shaped downlink: one scheduler
// event per delivered packet, and the uplink still counts the crossing.
// A pure-delay downlink keeps the two-hop path.
TEST(NetworkTest, PureDelayUplinkCostsNoEvent) {
  Scheduler s;
  Network net(s, 99);
  Sink a, b;
  const LinkConfig sfu_link{.rate_bps = 0, .prop_delay = util::Millis(1)};
  net.Attach(Ipv4(10, 0, 0, 1), &a, sfu_link, sfu_link);
  net.Attach(Ipv4(10, 0, 0, 2), &b, {},
             LinkConfig{.rate_bps = 1e6, .prop_delay = util::Millis(5)});
  net.Send(MakeTestPacket(1000), util::TimeUs{2});
  EXPECT_EQ(s.RunAll(), 1u);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0]->sent_at, 2);
  EXPECT_EQ(b.received[0]->arrival, 2 + util::Millis(1) + 8224 +
                                        util::Millis(5));
  const Link* up = net.uplink(Ipv4(10, 0, 0, 1));
  EXPECT_EQ(up->stats().sent_packets, 1u);
  EXPECT_EQ(up->stats().delivered_packets, 1u);
  EXPECT_EQ(up->stats().delivered_bytes, 1028u);

  // Back to the SFU over its own pure-delay downlink: two events.
  net.Send(net::MakePacket(Endpoint{Ipv4(10, 0, 0, 2), 2000},
                           Endpoint{Ipv4(10, 0, 0, 1), 1000},
                           std::vector<uint8_t>(100, 0)));
  EXPECT_EQ(s.RunAll(), 2u);
  EXPECT_EQ(a.received.size(), 1u);
}

// Hand-off rule: a link change applies to packets handed to the link after
// it. A packet from a pure-delay uplink is handed to the receiver's
// downlink when it is sent, so a downlink rate cut made while the packet
// is still within the uplink's delay does not apply to it; a packet sent
// after the cut gets the new rate.
TEST(NetworkTest, DownlinkChangeAppliesToPacketsHandedOverAfterIt) {
  Scheduler s;
  Network net(s, 99);
  Sink a, b;
  net.Attach(Ipv4(10, 0, 0, 1), &a,
             LinkConfig{.rate_bps = 0, .prop_delay = util::Millis(1)}, {});
  net.Attach(Ipv4(10, 0, 0, 2), &b, {}, LinkConfig{.rate_bps = 1e6});
  net.Send(MakeTestPacket(1000));
  s.At(util::Millis(0.5), [&] {
    net.downlink(Ipv4(10, 0, 0, 2))->set_rate_bps(0.5e6);
    net.Send(MakeTestPacket(1000));
  });
  s.RunAll();
  ASSERT_EQ(b.received.size(), 2u);
  // Old rate: 1028 bytes at 1 Mb/s take 8224 us from the 1 ms core arrival.
  EXPECT_EQ(b.received[0]->arrival, util::Millis(1) + 8224);
  // New rate, queued behind the first packet: 16448 us more.
  EXPECT_EQ(b.received[1]->arrival, util::Millis(1) + 8224 + 16448);
}

}  // namespace
}  // namespace scallop::sim
