#include "harness/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace scallop::harness {

namespace {

// The testbed's default client access shape, so scenario runs stay in
// lockstep with direct-testbed runs if those defaults are ever retuned.
sim::LinkConfig DefaultAccess() {
  return testbed::TestbedConfig{}.client_uplink;
}

}  // namespace

LinkProfile LinkProfile::Default() {
  return LinkProfile{"default", DefaultAccess(), DefaultAccess()};
}

LinkProfile LinkProfile::Lossy(double down_loss, double up_loss) {
  LinkProfile p = Default();
  p.name = "lossy";
  p.down.loss_rate = down_loss;
  p.up.loss_rate = up_loss;
  return p;
}

LinkProfile LinkProfile::Constrained(double down_bps) {
  LinkProfile p = Default();
  p.name = "constrained";
  p.down.rate_bps = down_bps;
  return p;
}

LinkProfile LinkProfile::Asymmetric(double up_bps, double down_bps) {
  LinkProfile p = Default();
  p.name = "asymmetric";
  p.up.rate_bps = up_bps;
  p.down.rate_bps = down_bps;
  return p;
}

LinkProfile LinkProfile::HighLatency(util::DurationUs one_way) {
  LinkProfile p = Default();
  p.name = "high-latency";
  p.up.prop_delay = one_way;
  p.down.prop_delay = one_way;
  return p;
}

ScenarioSpec ScenarioSpec::Uniform(std::string name, int meetings,
                                   int participants, double duration_s,
                                   uint64_t seed) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.seed = seed;
  spec.duration_s = duration_s;
  spec.meetings.resize(static_cast<size_t>(meetings));
  for (auto& m : spec.meetings) {
    m.participants.resize(static_cast<size_t>(participants));
  }
  return spec;
}

ScenarioSpec& ScenarioSpec::WithLink(int meeting, int participant,
                                     LinkProfile profile) {
  meetings.at(static_cast<size_t>(meeting))
      .participants.at(static_cast<size_t>(participant))
      .link = std::move(profile);
  return *this;
}

ScenarioSpec& ScenarioSpec::WithJoin(int meeting, int participant,
                                     double join_at_s) {
  meetings.at(static_cast<size_t>(meeting))
      .participants.at(static_cast<size_t>(participant))
      .join_at_s = join_at_s;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithLeave(int meeting, int participant,
                                      double leave_at_s, double rejoin_at_s) {
  auto& p = meetings.at(static_cast<size_t>(meeting))
                .participants.at(static_cast<size_t>(participant));
  p.leave_at_s = leave_at_s;
  p.rejoin_at_s = rejoin_at_s;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithLinkEvent(LinkEvent ev) {
  link_events.push_back(ev);
  return *this;
}

ScenarioSpec& ScenarioSpec::WithFailover(double at_s) {
  failover_at_s = at_s;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithBackend(testbed::BackendChoice choice) {
  backend = choice;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithControllerFailure(double at_s, int region) {
  controller_failure_at_s = at_s;
  controller_failure_region = region;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithControlPlane(double latency_s, double loss,
                                             double heartbeat_s,
                                             double load_report_s) {
  control_latency_s = latency_s;
  control_loss = loss;
  control_heartbeat_s = heartbeat_s;
  control_load_report_s = load_report_s;
  control_plane_configured = true;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithRebalance(double interval_s,
                                          int imbalance_threshold) {
  rebalance_interval_s = interval_s;
  rebalance_threshold = imbalance_threshold;
  control_plane_configured = true;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithPlacementPolicy(
    core::PlacementPolicyConfig policy) {
  placement_policy = policy;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithInterSwitchLink(int a, int b,
                                                double latency_s,
                                                double capacity_bps) {
  if (a < 0 || b < 0 || a == b) {
    throw std::invalid_argument(
        "ScenarioSpec: inter-switch link needs two distinct switch indices");
  }
  inter_switch_links.push_back(core::InterSwitchLinkSpec{
      static_cast<size_t>(a), static_cast<size_t>(b), latency_s,
      capacity_bps});
  return *this;
}

ScenarioSpec& ScenarioSpec::WithInterSwitchLinkEvent(double at_s, int a,
                                                     int b,
                                                     double capacity_bps) {
  topology_events.push_back(TopologyEvent{at_s, a, b, capacity_bps});
  return *this;
}

ScenarioSpec& ScenarioSpec::WithRoam(int meeting, int participant,
                                     double at_s, int new_region) {
  roams.push_back(RoamEvent{at_s, meeting, participant, new_region});
  return *this;
}

ScenarioSpec& ScenarioSpec::WithMeetingRegion(int meeting, int region) {
  meetings.at(static_cast<size_t>(meeting)).region = region;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithSwitchCapacity(int switch_index,
                                               double capacity_class) {
  switch_capacities.emplace_back(switch_index, capacity_class);
  return *this;
}

ScenarioSpec& ScenarioSpec::WithCorrelatedFailure(
    double at_s, std::vector<std::pair<int, int>> links) {
  correlated_failures.push_back(
      CorrelatedFailureEvent{at_s, std::move(links)});
  return *this;
}

ScenarioSpec& ScenarioSpec::WithRedundantTrees(int dedup_window) {
  redundant_trees = true;
  redundancy_dedup_window = dedup_window;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithHitlessMigration() {
  hitless_migration = true;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithTrace(size_t ring_capacity) {
  trace_enabled = true;
  trace_ring = ring_capacity;
  return *this;
}

namespace {

// Every validation message leads with the spec it rejects; `detail`
// starts with ": " or " ".
template <typename E>
[[noreturn]] void Reject(const ScenarioSpec& spec, const std::string& detail) {
  throw E("ScenarioSpec '" + spec.name + "'" + detail);
}

bool IsFleet(const ScenarioSpec& spec) {
  return spec.backend.kind == testbed::BackendChoice::Kind::kFleet;
}

bool IsFederated(const ScenarioSpec& spec) {
  return IsFleet(spec) && spec.backend.fleet_regions >= 2;
}

std::string FleetLabel(const ScenarioSpec& spec) {
  return "fleet{" + std::to_string(spec.backend.fleet_switches) + "," +
         std::to_string(spec.backend.fleet_regions) + "}";
}

void RequireFleet(const ScenarioSpec& spec, const char* what) {
  if (!IsFleet(spec)) {
    Reject<std::invalid_argument>(
        spec, std::string(": ") + what + " — pick a fleet backend");
  }
}

void RequireFederated(const ScenarioSpec& spec, const std::string& what) {
  if (!IsFederated(spec)) {
    Reject<std::invalid_argument>(
        spec, ": " + what + " needs a federated fleet{N,R>=2} backend");
  }
}

void RequireRegion(const ScenarioSpec& spec, int region,
                   const std::string& what) {
  if (region < 0 || region >= spec.backend.fleet_regions) {
    Reject<std::out_of_range>(spec, what + " region " +
                                        std::to_string(region) +
                                        ", outside " + FleetLabel(spec));
  }
}

// Whether (a, b) is a backbone link WithInterSwitchLink declared, in
// either direction: the fleet cannot reshape or lose a link it never
// had, and a typo'd pair failing silently would make a drill test less
// than it claims.
bool DeclaredLink(const ScenarioSpec& spec, int a, int b) {
  return std::any_of(spec.inter_switch_links.begin(),
                     spec.inter_switch_links.end(),
                     [a, b](const core::InterSwitchLinkSpec& l) {
                       const int la = static_cast<int>(l.a);
                       const int lb = static_cast<int>(l.b);
                       return (la == a && lb == b) || (la == b && lb == a);
                     });
}

void RequireInGrid(const ScenarioSpec& spec, int meeting, int participant,
                   const std::string& what) {
  const bool inside =
      meeting >= 0 && static_cast<size_t>(meeting) < spec.meetings.size() &&
      participant >= 0 &&
      static_cast<size_t>(participant) <
          spec.meetings[static_cast<size_t>(meeting)].participants.size();
  if (!inside) {
    Reject<std::out_of_range>(
        spec, what + " targets (meeting=" + std::to_string(meeting) +
                  ", participant=" + std::to_string(participant) +
                  ") outside the spec grid");
  }
}

std::string At(const char* what, double at_s) {
  return std::string(" ").append(what).append(" at ") +
         std::to_string(at_s) + "s";
}

}  // namespace

void ValidateSpec(const ScenarioSpec& spec) {
  const int switches = spec.backend.fleet_switches;
  if (IsFleet(spec) &&
      (spec.backend.fleet_regions < 1 ||
       spec.backend.fleet_regions > switches)) {
    Reject<std::invalid_argument>(
        spec, ": " + FleetLabel(spec) +
                  " needs 1 <= regions <= switches — every region must own "
                  "at least one switch");
  }

  if (!spec.inter_switch_links.empty() || !spec.topology_events.empty()) {
    RequireFleet(spec, "inter-switch links model a fleet backbone");
  }
  for (const auto& l : spec.inter_switch_links) {
    if (static_cast<int>(l.a) >= switches ||
        static_cast<int>(l.b) >= switches) {
      Reject<std::out_of_range>(
          spec, " inter-switch link (" + std::to_string(l.a) + ", " +
                    std::to_string(l.b) + ") names a switch outside the fleet");
    }
  }
  for (const TopologyEvent& ev : spec.topology_events) {
    if (!DeclaredLink(spec, ev.a, ev.b)) {
      Reject<std::out_of_range>(
          spec, At("topology event", ev.at_s) + " reshapes link (" +
                    std::to_string(ev.a) + ", " + std::to_string(ev.b) +
                    "), which WithInterSwitchLink never declared");
    }
  }
  for (const CorrelatedFailureEvent& ev : spec.correlated_failures) {
    if (ev.links.empty()) {
      Reject<std::invalid_argument>(
          spec, At("correlated failure", ev.at_s) + " cuts no links");
    }
    for (const auto& [a, b] : ev.links) {
      if (!DeclaredLink(spec, a, b)) {
        Reject<std::out_of_range>(
            spec, At("correlated failure", ev.at_s) + " cuts link (" +
                      std::to_string(a) + ", " + std::to_string(b) +
                      "), which WithInterSwitchLink never declared");
      }
    }
  }

  // Heterogeneous capacities shape fleet load accounting; on any other
  // backend they would silently do nothing.
  if (!spec.switch_capacities.empty()) {
    RequireFleet(spec, "switch capacity classes shape fleet load accounting");
  }
  for (const auto& [sw, cls] : spec.switch_capacities) {
    if (sw < 0 || sw >= switches) {
      Reject<std::out_of_range>(
          spec, ": switch capacity for switch " + std::to_string(sw) +
                    " is outside fleet{" + std::to_string(switches) + "}");
    }
    if (cls <= 0.0) {
      Reject<std::invalid_argument>(spec, ": switch " + std::to_string(sw) +
                                              " needs a positive capacity "
                                              "class");
    }
  }

  // Roams and region-pinned meetings only mean anything when there are
  // regions to roam between.
  for (size_t mi = 0; mi < spec.meetings.size(); ++mi) {
    const int region = spec.meetings[mi].region;
    if (region < 0) continue;
    const std::string what = "meeting " + std::to_string(mi) + " pins";
    RequireFederated(spec, what + " region " + std::to_string(region) +
                               ", which");
    RequireRegion(spec, region, ": " + what);
  }
  for (const RoamEvent& ev : spec.roams) {
    RequireFederated(spec, "a roam re-homes a participant onto another "
                           "region's ingress — it");
    RequireRegion(spec, ev.new_region, At("roam", ev.at_s) + " targets");
    RequireInGrid(spec, ev.meeting, ev.participant,
                  At("roam", ev.at_s));
    if (ev.at_s >= spec.duration_s) {
      Reject<std::invalid_argument>(
          spec, At("roam", ev.at_s) +
                    " falls after the scenario ends — it would test nothing");
    }
  }

  // Redundant trees plan standby chains over link-disjoint backbone
  // paths and hitless migration re-roots inter-switch span trees — both
  // are fleet-controller moves; on any other backend they would silently
  // protect nothing.
  if (spec.redundant_trees || spec.hitless_migration) {
    RequireFleet(spec, "redundant trees / hitless migration re-plan "
                       "inter-switch relays");
  }
  if (spec.redundant_trees && spec.inter_switch_links.empty()) {
    Reject<std::invalid_argument>(
        spec, ": redundant trees need a declared backbone to plan link-"
              "disjoint paths over — the implicit full mesh has no links to "
              "be disjoint from (WithInterSwitchLink)");
  }
  if (spec.redundant_trees && spec.redundancy_dedup_window <= 0) {
    Reject<std::invalid_argument>(
        spec, ": the dedup window must be positive — merge switches cannot "
              "eliminate duplicates they are not allowed to remember");
  }

  // LinkEvent is aggregate-initialized, so a typo'd index would otherwise
  // surface as an uncaught std::out_of_range deep inside a scheduled
  // lambda mid-run.
  for (size_t i = 0; i < spec.link_events.size(); ++i) {
    const LinkEvent& ev = spec.link_events[i];
    RequireInGrid(spec, ev.meeting, ev.participant,
                  " link_events[" + std::to_string(i) + "]");
  }

  // Heartbeat loss drives both failure detectors; the runner hands the
  // control plane this same microsecond-rounded interval.
  const double hb_s = util::ToSeconds(util::Seconds(spec.control_heartbeat_s));
  // Fleet failover: the blackout must outlast worst-case detection — the
  // last in-flight heartbeat lands `latency` after the link dies, death
  // needs 3 more silent intervals plus `latency`, and the detector only
  // looks every interval. A shorter blackout would revive the victim
  // before it was ever declared dead and the drill would test nothing.
  if (spec.failover_at_s >= 0.0 && IsFleet(spec)) {
    if (hb_s <= 0.0) {
      Reject<std::invalid_argument>(
          spec, ": a fleet failover needs a positive heartbeat interval — "
                "with heartbeats disabled the dead switch is never detected");
    }
    const double detect_s = 4.0 * hb_s + 2.0 * spec.control_latency_s;
    if (spec.failover_blackout_s <= detect_s) {
      Reject<std::invalid_argument>(
          spec, ": failover_blackout_s (" +
                    std::to_string(spec.failover_blackout_s) +
                    ") must exceed the worst-case heartbeat-miss detection "
                    "time (" +
                    std::to_string(detect_s) +
                    " s = 4 heartbeat intervals + 2 x control latency)");
    }
  }

  // A controller failure drill needs a peer controller to notice the death
  // (east-west heartbeats) and adopt the shard, and runtime after the kill.
  if (spec.controller_failure_at_s >= 0.0) {
    RequireFederated(spec, "a controller failure (a peer adopts its shard)");
    RequireRegion(spec, spec.controller_failure_region,
                  ": controller failure");
    if (hb_s <= 0.0) {
      Reject<std::invalid_argument>(
          spec, ": a controller failure needs a positive heartbeat interval "
                "— peers detect the death by east-west heartbeat loss");
    }
    if (spec.controller_failure_at_s >= spec.duration_s) {
      Reject<std::invalid_argument>(
          spec, ": controller_failure_at_s falls after the scenario ends — "
                "the drill would test nothing");
    }
  }
}

int ScenarioSpec::TotalParticipants() const {
  int n = 0;
  for (const auto& m : meetings) n += static_cast<int>(m.participants.size());
  return n;
}

}  // namespace scallop::harness
