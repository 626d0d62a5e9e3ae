// The single-switch substrates: the full Scallop stack (one switch, data
// plane, agent, southbound channel and controller) and the software-SFU
// baseline. Both implement testbed::Backend (backend.hpp), which owns the
// shared scaffolding — config, scheduler, network, peers, meeting list —
// so the ScenarioRunner and benches drive them interchangeably; the
// multi-switch FleetTestbed lives in fleet_testbed.hpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "sfu/software_sfu.hpp"
#include "testbed/backend.hpp"

namespace scallop::testbed {

class ScallopTestbed : public Backend {
 public:
  explicit ScallopTestbed(const TestbedConfig& cfg = {});

  core::MeetingId CreateMeeting() override;

  switchsim::Switch& sw() { return *node_.sw; }
  core::DataPlaneProgram& dataplane() { return *node_.dp; }
  core::SwitchAgent& agent() { return *node_.agent; }
  core::ControlChannel& channel() { return *node_.channel; }
  core::Controller& controller() { return *controller_; }

  // testbed::Backend
  std::string Name() const override { return "scallop"; }
  core::SignalingServer& signaling() override { return *controller_; }
  // Single-switch failover: the one switch's forwarding state is lost, so
  // every meeting is affected and recovery re-signals onto the restarted
  // switch (the standby role in a one-switch deployment).
  std::vector<core::MeetingId> FailoverBegin() override { return meetings_; }
  BackendCounters counters() const override;
  ControlPlaneCounters control_counters() const override;
  std::string TreeDesignOf(core::MeetingId meeting) const override;

 private:
  SwitchNode node_;
  std::unique_ptr<core::Controller> controller_;
};

class SoftwareTestbed : public Backend {
 public:
  explicit SoftwareTestbed(const TestbedConfig& cfg = {});

  core::MeetingId CreateMeeting() override;

  sfu::SoftwareSfu& sfu() { return *sfu_; }

  // testbed::Backend
  std::string Name() const override { return "software"; }
  core::SignalingServer& signaling() override { return *sfu_; }
  // Process restart: all meetings lose their forwarding state.
  std::vector<core::MeetingId> FailoverBegin() override { return meetings_; }
  BackendCounters counters() const override;

 private:
  std::unique_ptr<sfu::SoftwareSfu> sfu_;
};

}  // namespace scallop::testbed
