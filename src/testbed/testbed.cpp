#include "testbed/testbed.hpp"

#include "core/types.hpp"

namespace scallop::testbed {

ScallopTestbed::ScallopTestbed(const TestbedConfig& cfg)
    : Backend(cfg), node_(MakeSwitchNode(0, cfg_.sfu_ip)) {
  controller_ = std::make_unique<core::Controller>(*node_.channel, cfg_.sfu_ip);
}

core::MeetingId ScallopTestbed::CreateMeeting() {
  core::MeetingId id = controller_->CreateMeeting();
  meetings_.push_back(id);
  return id;
}

BackendCounters ScallopTestbed::counters() const {
  BackendCounters c;
  AccumulateSwitchNode(c, node_);
  return c;
}

ControlPlaneCounters ScallopTestbed::control_counters() const {
  ControlPlaneCounters c;
  AccumulateChannel(c, node_.channel->stats());
  return c;
}

std::string ScallopTestbed::TreeDesignOf(core::MeetingId meeting) const {
  auto design = node_.agent->tree_manager().CurrentDesign(meeting);
  return design.has_value() ? core::TreeDesignName(*design) : "none";
}

SoftwareTestbed::SoftwareTestbed(const TestbedConfig& cfg) : Backend(cfg) {
  sfu::SoftwareSfuConfig sfu_cfg = cfg_.software;
  sfu_cfg.address = cfg_.sfu_ip;
  sfu_ = std::make_unique<sfu::SoftwareSfu>(sched_, network_, sfu_cfg);
  network_.Attach(cfg_.sfu_ip, sfu_.get(), cfg_.sfu_uplink,
                  cfg_.sfu_downlink);
}

core::MeetingId SoftwareTestbed::CreateMeeting() {
  core::MeetingId id = sfu_->CreateMeeting();
  meetings_.push_back(id);
  return id;
}

BackendCounters SoftwareTestbed::counters() const {
  BackendCounters c;
  // The software SFU has no switch pipeline, trees or rewriter; its
  // forwarding totals map onto the switch columns and everything else
  // stays zero (it forwards exact copies, §3).
  const auto& s = sfu_->stats();
  c.switch_packets_in = s.packets_in;
  c.switch_packets_out = s.packets_out;
  c.switch_replicas = s.packets_out;
  return c;
}

}  // namespace scallop::testbed
