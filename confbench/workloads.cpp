#include "workloads.hpp"

#include "harness/workload.hpp"

namespace confbench {

namespace sh = scallop::harness;
namespace st = scallop::testbed;

namespace {

// Shared encoder shape: the fleet-scale bench's 700 kb/s start and a 4 s
// key-frame interval, on the default 20 Mb/s access links.
void EncoderShape(sh::ScenarioSpec& spec) {
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = scallop::util::Seconds(4);
  spec.sample_interval_s = 1.0;
}

// fleet{12}, 36 meetings x 6 peers, everyone joining at t=0, inline
// lossless control: the per-packet media path with the control plane idle.
sh::ScenarioSpec FleetSteady(uint64_t seed, double duration_s) {
  sh::ScenarioSpec spec =
      sh::ScenarioSpec::Uniform("fleet-steady", 36, 6, duration_s, seed);
  EncoderShape(spec);
  spec.WithBackend(st::BackendChoice::Fleet(12));
  return spec;
}

// One switch, 3 meetings x 16 peers: fan-out 15 per ingress packet and
// RTCP through the agent growing as n^2; downlinks saturate.
sh::ScenarioSpec LargeMeeting(uint64_t seed, double duration_s) {
  sh::ScenarioSpec spec =
      sh::ScenarioSpec::Uniform("large-meeting", 3, 16, duration_s, seed);
  EncoderShape(spec);
  spec.WithBackend(st::BackendChoice::Scallop());
  return spec;
}

// The planet-day shape: fleet{6,2}, diurnal joins with churn, a flash
// crowd, follow-the-sun, roamers, a ring backbone with relay trees, a
// lossy slow control channel, the rebalancer, a controller death and a
// correlated cut of a loaded ring link.
sh::ScenarioSpec ChurnFederated(uint64_t seed, double duration_s) {
  sh::WorkloadSpec w;
  w.name = "churn-federated";
  w.seed = seed;
  w.duration_s = duration_s;
  w.sample_interval_s = 1.0;
  using scallop::core::PlacementPolicyConfig;
  w.WithBackend(st::BackendChoice::Fleet(6, 2))
      .WithGrid(12, 5)
      .WithDiurnal(6.0, 12.0, 0.5, 0.4)
      .WithFlashCrowd(1, 10)
      .WithFollowTheSun()
      .WithRoaming(4)
      .WithPlacementPolicy(PlacementPolicyConfig::TopologyAware(4))
      .WithControlPlane(0.005, 0.01)
      .WithCorrelatedFailure(0.55, {{0, 1}});
  for (int i = 0; i < 6; ++i) w.WithBackboneLink(i, (i + 1) % 6, 0.002, 40e6);
  sh::ScenarioSpec spec = w.Compile();
  EncoderShape(spec);
  spec.WithRebalance(1.0);
  spec.WithControllerFailure(0.7 * duration_s, 1);
  return spec;
}

constexpr Workload kWorkloads[] = {
    {"fleet-steady", 3.0, 6.0, 1, FleetSteady},
    {"large-meeting", 2.0, 5.0, 12, LargeMeeting},
    {"churn-federated", 2.0, 10.0, 16, ChurnFederated},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const Workload& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

}  // namespace confbench
