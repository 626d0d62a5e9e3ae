// The benchmark's three workloads. Each is a pure function of the seed:
// the same seed always compiles the same ScenarioSpec, so every modeled
// (sim-time) metric is deterministic per seed and only host-time metrics
// vary between runs. Why each workload exists, and which layer it
// bypasses, is recorded in confbench/README.md.
#pragma once

#include <cstdint>
#include <string>

#include "harness/scenario.hpp"

namespace confbench {

struct Workload {
  const char* name;
  // Sim-seconds excluded from the measured window: joins, the bitrate
  // ramp and the working-set fill. The window runs from here to the
  // scenario's end; both edges fall on timeline samples.
  double window_start_s;
  double duration_s;
  // Independent scenario instances per run (scenario seeds 16*seed + i),
  // pooled so that seed-to-seed variation averages out.
  int instances;
  scallop::harness::ScenarioSpec (*build)(uint64_t seed, double duration_s);
};

// nullptr when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);
// "fleet-steady, large-meeting, churn-federated" for usage messages.
std::string WorkloadNames();

}  // namespace confbench
