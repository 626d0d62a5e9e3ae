// Federated control plane (fleet{N,R}): per-region controllers over a
// sharded meeting directory, peered east-west for directory lookups,
// cross-region border spans and controller-death shard adoption. The
// plane with R = 1 must answer exactly as its one FleetController does;
// everything federated is exercised at R > 1.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "testbed/fleet_testbed.hpp"
#include "testbed/testbed.hpp"

namespace scallop::harness {
namespace {

// Shared invariant check: delivery floor and gap-free rewriting (the same
// bar test_scenarios.cpp holds every backend to).
void ExpectHealthy(const ScenarioMetrics& m, uint64_t min_floor_frames) {
  EXPECT_GE(m.WorstDeliveryFloor(), min_floor_frames)
      << "a peer starved:\n"
      << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.RewriteViolations(), 0u) << "sequence rewriting broke:\n"
                                       << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.blackholed, 0u);
}

ScenarioSpec FederatedSpec(std::string name, int switches, int regions,
                           int meetings, int participants,
                           double duration_s) {
  ScenarioSpec spec = ScenarioSpec::Uniform(std::move(name), meetings,
                                            participants, duration_s);
  spec.WithBackend(testbed::BackendChoice::Fleet(switches, regions));
  return spec;
}

TEST(Federation, SpecValidationRejectsBadRegionCounts) {
  // R = 0 and R > N both leave some region without a switch (or the
  // switches without a controller) — rejected up front with the offending
  // shape in the message, not discovered mid-run.
  ScenarioSpec zero = FederatedSpec("fed-r0", 4, 0, 1, 2, 1.0);
  EXPECT_THROW({ ScenarioRunner r(zero); }, std::invalid_argument);
  ScenarioSpec over = FederatedSpec("fed-r5", 4, 5, 1, 2, 1.0);
  EXPECT_THROW({ ScenarioRunner r(over); }, std::invalid_argument);
  EXPECT_THROW(testbed::FleetTestbed({}, 4, 5), std::invalid_argument);

  // A controller-failure drill needs a federated fleet, an in-range
  // region, and heartbeats to detect the death with.
  ScenarioSpec mono = ScenarioSpec::Uniform("fed-mono", 1, 2, 1.0);
  mono.WithBackend(testbed::BackendChoice::Fleet(2))
      .WithControllerFailure(0.5);
  EXPECT_THROW({ ScenarioRunner r(mono); }, std::invalid_argument);
  ScenarioSpec badregion = FederatedSpec("fed-badregion", 4, 2, 1, 2, 1.0);
  badregion.WithControllerFailure(0.5, 7);
  EXPECT_THROW({ ScenarioRunner r(badregion); }, std::out_of_range);
  ScenarioSpec late = FederatedSpec("fed-late", 4, 2, 1, 2, 1.0);
  late.WithControllerFailure(5.0, 1);
  EXPECT_THROW({ ScenarioRunner r(late); }, std::invalid_argument);
}

// Every global view the plane answers must equal its sole controller's
// own answer: with one region, global and controller-local switch
// numbering coincide.
void ExpectPlaneMatchesSoleRegion(const core::FederatedControlPlane& fed,
                                  const std::vector<core::MeetingId>& meetings,
                                  const char* when) {
  SCOPED_TRACE(when);
  const core::FleetController& fc = fed.region(0);
  for (core::MeetingId m : meetings) {
    const core::MeetingPlacement p = fed.PlacementOf(m);
    const core::MeetingPlacement q = fc.PlacementOf(m);
    EXPECT_EQ(p.home, q.home);
    EXPECT_EQ(p.local_meeting, q.local_meeting);
    EXPECT_EQ(p.home_participants, q.home_participants);
    ASSERT_EQ(p.spans.size(), q.spans.size());
    for (size_t i = 0; i < p.spans.size(); ++i) {
      EXPECT_EQ(p.spans[i].switch_index, q.spans[i].switch_index);
      EXPECT_EQ(p.spans[i].local_meeting, q.spans[i].local_meeting);
      EXPECT_EQ(p.spans[i].parent, q.spans[i].parent);
      EXPECT_EQ(p.spans[i].participants, q.spans[i].participants);
    }
    const std::vector<core::MeetingRelay> r = fed.RelaysOf(m);
    const std::vector<core::MeetingRelay> s = fc.RelaysOf(m);
    ASSERT_EQ(r.size(), s.size());
    for (size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(r[i].origin, s[i].origin);
      EXPECT_EQ(r[i].upstream, s[i].upstream);
      EXPECT_EQ(r[i].downstream, s[i].downstream);
      EXPECT_EQ(r[i].upstream_sender, s[i].upstream_sender);
      EXPECT_EQ(r[i].relay_receiver, s[i].relay_receiver);
      EXPECT_EQ(r[i].relay_sender, s[i].relay_sender);
      EXPECT_EQ(r[i].backbone_path, s[i].backbone_path);
      EXPECT_EQ(r[i].load_bps, s[i].load_bps);
    }
  }
  for (size_t i = 0; i < fed.switch_count(); ++i) {
    EXPECT_EQ(fed.LoadOf(i), fc.LoadOf(i));
    EXPECT_EQ(fed.MeetingsOn(i), fc.MeetingsOn(i));
    for (size_t j = i + 1; j < fed.switch_count(); ++j) {
      EXPECT_EQ(fed.LinkLoad(i, j), fc.topology().LoadOf(i, j));
    }
  }
  const core::FleetStats a = fed.TotalFleetStats();
  const core::FleetStats& b = fc.stats();
  EXPECT_EQ(a.meetings_placed, b.meetings_placed);
  EXPECT_EQ(a.placements_rebalanced, b.placements_rebalanced);
  EXPECT_EQ(a.rebalance_migrations, b.rebalance_migrations);
  EXPECT_EQ(a.heartbeats_seen, b.heartbeats_seen);
  EXPECT_EQ(a.heartbeats_missed, b.heartbeats_missed);
  EXPECT_EQ(a.load_reports_seen, b.load_reports_seen);
  EXPECT_EQ(a.switches_failed, b.switches_failed);
  EXPECT_EQ(a.relay_spans_installed, b.relay_spans_installed);
  EXPECT_EQ(a.relay_spans_removed, b.relay_spans_removed);
  EXPECT_EQ(a.relay_replans, b.relay_replans);
  EXPECT_EQ(a.secondary_trees_installed, b.secondary_trees_installed);
  EXPECT_EQ(a.secondary_trees_removed, b.secondary_trees_removed);
  EXPECT_EQ(a.tree_flips, b.tree_flips);
  EXPECT_EQ(a.hitless_migrations, b.hitless_migrations);
}

TEST(Federation, SingleRegionPlaneAnswersAsItsController) {
  // fleet{N} is fleet{N,1}: one region behind the plane. Cascaded
  // meetings over a declared backbone, a capacity cut that forces a
  // replan, and the rebalancer give every global view something to map.
  EXPECT_EQ(testbed::BackendChoice::Fleet(3, 1).Label(), "fleet{3}");
  ScenarioSpec spec = FederatedSpec("fed-one-region", 3, 1, 3, 4, 6.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(2))
      .WithControlPlane(0.002, 0.0)
      .WithInterSwitchLink(0, 1, 0.002, 40e6)
      .WithInterSwitchLink(1, 2, 0.002, 40e6)
      .WithInterSwitchLinkEvent(3.0, 0, 1, 1.0)
      .WithRebalance(1.0, 2);
  ScenarioRunner runner(spec);
  const core::FederatedControlPlane& fed = runner.fleet().federation();
  ASSERT_EQ(fed.regions(), 1u);
  const std::vector<core::MeetingId> meetings = {
      runner.meeting_id(0), runner.meeting_id(1), runner.meeting_id(2)};
  size_t relays_seen = 0;
  for (double t : {0.5, 1.5, 2.9, 3.2, 4.5}) {
    runner.RunUntil(t);
    ExpectPlaneMatchesSoleRegion(fed, meetings,
                                 ("t=" + std::to_string(t)).c_str());
    for (core::MeetingId m : meetings) relays_seen += fed.RelaysOf(m).size();
  }
  const ScenarioMetrics& m = runner.Run();
  ExpectPlaneMatchesSoleRegion(fed, meetings, "end");
  EXPECT_GT(relays_seen, 0u) << "no meeting ever cascaded";
  EXPECT_GT(fed.TotalFleetStats().relay_replans, 0u)
      << "the capacity cut forced no replan";
  EXPECT_EQ(m.ToCsv().find("federation,"), std::string::npos);

  // The plane's CreateMeeting is CreateMeetingIn with no region preference.
  testbed::FleetTestbed any({}, 3, 1);
  testbed::FleetTestbed pinned({}, 3, 1);
  for (int i = 0; i < 4; ++i) {
    const core::MeetingId a = any.federation().CreateMeeting();
    const core::MeetingId b = pinned.federation().CreateMeetingIn(SIZE_MAX);
    EXPECT_EQ(a, b);
    EXPECT_EQ(any.federation().PlacementOf(a).home,
              pinned.federation().PlacementOf(b).home);
  }
}

TEST(Federation, DeterministicCsvUnderEastWestImpairment) {
  // Same spec, same seed, twice — with east-west latency AND loss in
  // play. Every federated code path (announcements, lookups, heartbeats)
  // draws from seeded per-pair conduits, so the CSV must be identical.
  ScenarioSpec spec = FederatedSpec("fed-det", 4, 2, 2, 3, 6.0);
  spec.WithControlPlane(0.002, 0.01);
  ScenarioRunner a(spec);
  ScenarioRunner b(spec);
  const ScenarioMetrics& ma = a.Run();
  const std::string csv_a = ma.ToCsv();
  const std::string csv_b = b.Run().ToCsv();
  EXPECT_EQ(csv_a, csv_b);

  // The federation is actually alive: the CSV gained its section and the
  // east-west plane carried heartbeats + meeting announcements.
  EXPECT_NE(csv_a.find("federation,regions,"), std::string::npos);
  EXPECT_TRUE(ma.federation.configured);
  EXPECT_EQ(ma.federation.regions, 2);
  EXPECT_GT(ma.federation.messages_sent, 0u);
  EXPECT_GT(ma.federation.controller_heartbeats_seen, 0u);
  EXPECT_GT(ma.federation.directory_announcements, 0u);
  EXPECT_GT(ma.federation.directory_lookups, 0u);
  // 1% iid loss over hundreds of heartbeats: some drops are expected.
  // Delivered + dropped can trail sent by whatever is still in flight at
  // collection time, but never exceed it.
  EXPECT_GT(ma.federation.messages_dropped, 0u);
  EXPECT_LE(ma.federation.messages_delivered + ma.federation.messages_dropped,
            ma.federation.messages_sent);
  ExpectHealthy(ma, 10);
}

TEST(Federation, BorderSpanCarriesCrossRegionOverflow) {
  // Cascade(1) fills each switch with one participant. Region A owns 2 of
  // the 4 switches, so a 4-party meeting overflows its region: the third
  // join has no local switch left, the border planner borrows the
  // least-loaded switch from region B, and the span rides the existing
  // relay-tree mechanics across the region boundary.
  ScenarioSpec spec = FederatedSpec("fed-border", 4, 2, 1, 4, 6.0);
  spec.WithControlPlane(0.001, 0.0);
  spec.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(1));
  ScenarioRunner r(spec);
  const ScenarioMetrics& m = r.Run();
  EXPECT_GE(m.federation.border_spans, 1u);

  // The placement really crosses regions: some span switch lives in a
  // different region than the home switch.
  auto& fed = r.fleet().federation();
  core::MeetingPlacement placement =
      fed.PlacementOf(r.meeting_id(0));
  ASSERT_TRUE(placement.valid());
  const size_t home_region = fed.RegionOfSwitch(placement.home);
  bool crossed = false;
  for (const core::RelaySpan& span : placement.spans) {
    if (fed.RegionOfSwitch(span.switch_index) != home_region) crossed = true;
  }
  EXPECT_TRUE(crossed);
  // Media actually flowed over the borrowed span's relays.
  EXPECT_GT(m.cascade.relay_packets, 0u);
  ExpectHealthy(m, 10);
}

TEST(Federation, ControllerDeathShardAdoption) {
  // fleet{6,2}: region 1's controller dies mid-run. Its switches keep
  // forwarding; region 0 notices via east-west heartbeat loss, adopts the
  // orphaned shard, and every meeting ends owned by a live controller
  // with zero starved peers.
  ScenarioSpec spec = FederatedSpec("fed-adopt", 6, 2, 4, 2, 8.0);
  spec.WithControlPlane(0.001, 0.0);
  spec.WithRebalance(1.0);
  spec.WithControllerFailure(2.0, 1);
  ScenarioRunner r(spec);
  const ScenarioMetrics& m = r.Run();

  EXPECT_EQ(m.federation.controllers_failed, 1u);
  EXPECT_EQ(m.federation.shards_adopted, 1u);
  EXPECT_GE(m.federation.meetings_adopted, 1u);
  // Adoption re-homes each taken-over meeting to the surviving
  // controller; the fleet-wide rebalance counter carries those moves.
  EXPECT_GE(m.counters.placements_rebalanced, m.federation.meetings_adopted);

  auto& fed = r.fleet().federation();
  EXPECT_FALSE(fed.RegionAlive(1));
  ASSERT_TRUE(fed.RegionAlive(0));
  std::set<size_t> owners;
  for (int mi = 0; mi < 4; ++mi) {
    const size_t owner = fed.OwnerRegionOf(r.meeting_id(mi));
    ASSERT_NE(owner, SIZE_MAX);
    EXPECT_TRUE(fed.RegionAlive(owner));
    owners.insert(owner);
  }
  EXPECT_EQ(owners, std::set<size_t>{0});
  // No peer starved across the takeover.
  ExpectHealthy(m, 10);
  for (const auto& p : m.peers) EXPECT_TRUE(p.present_at_end);
}

TEST(Federation, JoinBeforeAdoptionAdoptsTheDeadShardOnDemand) {
  // A join that reaches a dead region's meeting 50 ms after the kill —
  // long before east-west heartbeat loss declares the death — must not
  // abort the run: the plane adopts the shard on demand through the same
  // adopter the detector would pick, and the later detection neither
  // adopts again nor counts a second adoption. Covers both dying regions
  // and every meeting, so half the points join a meeting the dead region
  // owns.
  for (int region = 0; region < 2; ++region) {
    for (int meeting = 0; meeting < 4; ++meeting) {
      SCOPED_TRACE("region " + std::to_string(region) + ", meeting " +
                   std::to_string(meeting));
      ScenarioSpec spec = ScenarioSpec::Uniform("fed-join-dead", 4, 2, 4.0);
      spec.WithBackend(testbed::BackendChoice::Fleet(6, 2))
          .WithControlPlane(0.001, 0)
          .WithControllerFailure(2.0, region)
          .WithJoin(meeting, 1, 2.05);
      ScenarioRunner r(spec);
      const ScenarioMetrics& m = r.Run();
      EXPECT_GE(m.WorstDeliveryFloor(), 20u) << m.Summary();
      EXPECT_EQ(m.federation.controllers_failed, 1u);
      EXPECT_EQ(m.federation.shards_adopted, 1u);
    }
  }
}

}  // namespace
}  // namespace scallop::harness

namespace scallop::core {
namespace {

// Regression: AddSwitch used to arm the heartbeat failure detector only
// for the *first* switch's channel. With heartbeats disabled there (a
// perfectly valid channel config), a later switch with heartbeats enabled
// was never watched — its death went undetected forever. Arming is now
// explicit and idempotent per channel.
TEST(Federation, DetectorArmsPerChannelNotJustFirst) {
  sim::Scheduler sched;
  sim::Network net(sched, 99);
  switchsim::Switch sw1(sched, net, {.address = net::Ipv4(100, 64, 0, 1)});
  switchsim::Switch sw2(sched, net, {.address = net::Ipv4(100, 64, 0, 2)});
  DataPlaneProgram dp1(sw1, {}), dp2(sw2, {});
  AgentConfig ac1, ac2;
  ac1.sfu_ip = sw1.address();
  ac2.sfu_ip = sw2.address();
  SwitchAgent agent1(sched, dp1, ac1), agent2(sched, dp2, ac2);
  ControlChannelConfig cc1, cc2;
  cc1.seed = 7;
  cc1.heartbeat_interval = 0;  // first channel: heartbeats off
  cc2.seed = 8;
  cc2.heartbeat_interval = util::Millis(50);
  ControlChannel ch1(sched, agent1, cc1), ch2(sched, agent2, cc2);
  sim::LinkConfig dc{.rate_bps = 0, .prop_delay = util::Millis(1)};
  net.Attach(sw1.address(), &sw1, dc, dc);
  net.Attach(sw2.address(), &sw2, dc, dc);

  FleetController fleet;
  fleet.AddSwitch(ch1, sw1.address());
  fleet.AddSwitch(ch2, sw2.address());
  // Re-arming for an already-covered cadence is a no-op, not a duplicate
  // detector.
  fleet.ArmFailureDetector(ch2);

  sched.RunUntil(util::Seconds(1.0));
  EXPECT_TRUE(fleet.IsAlive(0));
  EXPECT_TRUE(fleet.IsAlive(1));

  // Kill switch 2's control link: its heartbeats stop and the detector —
  // armed by the *second* AddSwitch — must declare it dead. Switch 1,
  // with heartbeats configured off, is exempt from detection.
  ch2.set_link_up(false);
  sched.RunUntil(util::Seconds(2.0));
  EXPECT_TRUE(fleet.IsAlive(0));
  EXPECT_FALSE(fleet.IsAlive(1));
  EXPECT_GE(fleet.stats().switches_failed, 1u);
}

}  // namespace
}  // namespace scallop::core
