// Multi-switch testbed: N Scallop switches (each built by
// Backend::MakeSwitchNode: its own data plane, switch agent, southbound
// ControlChannel and SFU IP on datacenter links) under a
// FederatedControlPlane of R per-region controllers — the paper's
// Appendix A deployment shape, sharded. R = 1 (the default) is one
// controller running the same federated code; R > 1 slices the switches
// across regions peered over an east-west message plane (directory
// lookups, border-span negotiation, controller heartbeats + shard
// adoption). Failover here means a real standby driven by telemetry loss:
// FailoverBegin takes the victim's control link down, the owning region's
// heartbeat-miss detector declares it dead and migrates its meetings to a
// live switch, so recovering peers re-signal to the standby's SFU IP
// instead of the restarted victim. With cfg.rebalance.enabled every
// region additionally runs the load-driven background rebalancer over the
// northbound SwitchLoadReports.
#pragma once

#include <memory>
#include <vector>

#include "core/federation.hpp"
#include "core/fleet.hpp"
#include "testbed/backend.hpp"

namespace scallop::testbed {

class FleetTestbed : public Backend {
 public:
  // Switch i gets SFU IP cfg.sfu_ip + i (last octet) and the config's
  // datacenter link shapes; the i-th slice of n_switches / n_regions
  // switches answers to region i's controller.
  explicit FleetTestbed(const TestbedConfig& cfg = {}, int n_switches = 2,
                        int n_regions = 1);

  core::MeetingId CreateMeeting() override;
  core::MeetingId CreateMeetingInRegion(int region) override;

  // Region 0's controller — the whole fleet when n_regions == 1.
  core::FleetController& fleet() { return federation_->region(0); }
  core::FederatedControlPlane& federation() { return *federation_; }
  switchsim::Switch& sw(size_t i) { return *nodes_[i].sw; }
  core::DataPlaneProgram& dataplane(size_t i) { return *nodes_[i].dp; }
  core::SwitchAgent& agent(size_t i) { return *nodes_[i].agent; }
  core::ControlChannel& channel(size_t i) { return *nodes_[i].channel; }

  // testbed::Backend
  std::string Name() const override;
  core::SignalingServer& signaling() override { return *federation_; }
  core::SignalingServer& RegionIngress(size_t r) override {
    return federation_->ingress(r);
  }
  TopologySnapshot topology_snapshot() const override;
  void SetInterSwitchLinkCapacity(size_t a, size_t b,
                                  double capacity_bps) override;
  std::vector<core::MeetingId> FailoverBegin() override;
  void FailoverEnd() override;
  void SetMeetingMovedCallback(
      std::function<void(core::MeetingId, size_t, size_t)> cb) override;
  void SetMeetingMovedHitlessCallback(
      std::function<void(core::MeetingId, size_t, size_t)> cb) override;
  RedundancyCounters redundancy_counters() const override;
  BackendCounters counters() const override;
  ControlPlaneCounters control_counters() const override;
  CascadeCounters cascade_counters() const override;
  FederationCounters federation_counters() const override;
  void FailController(size_t region) override;
  std::string TreeDesignOf(core::MeetingId meeting) const override;
  size_t switch_count() const override { return nodes_.size(); }
  core::MeetingPlacement PlacementOf(core::MeetingId meeting) const override {
    return federation_->PlacementOf(meeting);
  }
  std::vector<core::ParticipantId> SenderAliasesOf(
      core::MeetingId meeting, core::ParticipantId participant) const override;
  std::vector<SwitchStatus> SwitchBreakdown() const override;

 private:
  std::vector<SwitchNode> nodes_;
  std::unique_ptr<core::FederatedControlPlane> federation_;
  size_t failed_switch_ = SIZE_MAX;
};

}  // namespace scallop::testbed
