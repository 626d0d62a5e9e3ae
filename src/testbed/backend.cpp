#include "testbed/backend.hpp"

#include <stdexcept>

#include "testbed/fleet_testbed.hpp"
#include "testbed/testbed.hpp"

namespace scallop::testbed {

std::string BackendChoice::Label() const {
  switch (kind) {
    case Kind::kScallop:
      return "scallop";
    case Kind::kFleet:
      return fleet_regions > 1
                 ? "fleet{" + std::to_string(fleet_switches) + "," +
                       std::to_string(fleet_regions) + "}"
                 : "fleet{" + std::to_string(fleet_switches) + "}";
    case Kind::kSoftware:
      return "software";
  }
  return "unknown";
}

Backend::Backend(const TestbedConfig& cfg)
    : cfg_(cfg), network_(sched_, cfg_.seed) {}

client::Peer& Backend::AddPeer() {
  return AddPeer(cfg_.client_uplink, cfg_.client_downlink);
}

client::Peer& Backend::AddPeer(const sim::LinkConfig& up,
                               const sim::LinkConfig& down) {
  return AddPeer(cfg_.peer, up, down);
}

client::Peer& Backend::AddPeer(const client::PeerConfig& base,
                               const sim::LinkConfig& up,
                               const sim::LinkConfig& down) {
  client::PeerConfig pc = base;
  pc.address = net::Ipv4(10, 0, static_cast<uint8_t>(next_host_ >> 8),
                         static_cast<uint8_t>(next_host_ & 0xff));
  pc.seed = cfg_.seed * 1000 + static_cast<uint64_t>(next_host_);
  ++next_host_;
  auto peer = std::make_unique<client::Peer>(sched_, network_, pc);
  network_.Attach(pc.address, peer.get(), up, down);
  peers_.push_back(std::move(peer));
  return *peers_.back();
}

void Backend::RunFor(double seconds) {
  sched_.RunUntil(sched_.now() + util::Seconds(seconds));
}

void Backend::RunUntil(double t_s) { sched_.RunUntil(util::Seconds(t_s)); }

Backend::SwitchNode Backend::MakeSwitchNode(size_t index, net::Ipv4 ip) {
  SwitchNode node;
  node.ip = ip;
  switchsim::SwitchConfig sw_cfg;
  sw_cfg.address = ip;
  node.sw = std::make_unique<switchsim::Switch>(sched_, network_, sw_cfg);
  node.dp = std::make_unique<core::DataPlaneProgram>(*node.sw, cfg_.dataplane);
  core::AgentConfig agent_cfg = cfg_.agent;
  agent_cfg.sfu_ip = ip;
  node.agent = std::make_unique<core::SwitchAgent>(sched_, *node.dp, agent_cfg);
  core::ControlChannelConfig ctrl_cfg = cfg_.control;
  ctrl_cfg.seed = cfg_.seed * 1'000'003 + 17 + index * 7919;
  node.channel =
      std::make_unique<core::ControlChannel>(sched_, *node.agent, ctrl_cfg);
  if (cfg_.trace != nullptr) node.channel->EnableTrace(cfg_.trace, index);
  network_.Attach(ip, node.sw.get(), cfg_.sfu_uplink, cfg_.sfu_downlink);
  return node;
}

void Backend::AccumulateSwitchNode(BackendCounters& c, const SwitchNode& node) {
  const auto& sw_stats = node.sw->stats();
  c.switch_packets_in += sw_stats.packets_in;
  c.switch_packets_out += sw_stats.packets_out;
  c.switch_replicas += sw_stats.replicas;
  const auto& dp_stats = node.dp->stats();
  c.seq_rewritten += dp_stats.seq_rewritten;
  c.seq_dropped += dp_stats.seq_dropped;
  c.svc_suppressed += dp_stats.svc_suppressed;
  c.remb_filtered += dp_stats.remb_filtered;
  c.remb_forwarded += dp_stats.remb_forwarded;
  const auto& agent_stats = node.agent->stats();
  c.dt_changes += agent_stats.dt_changes;
  c.filter_flips += agent_stats.filter_flips;
  c.agent_cpu_packets += agent_stats.cpu_packets;
  const auto& tree_stats = node.agent->tree_manager().stats();
  c.trees_built += tree_stats.trees_built;
  c.tree_migrations += tree_stats.migrations;
}

void Backend::AccumulateChannel(ControlPlaneCounters& c,
                                const core::ControlChannelStats& s) {
  c.commands_sent += s.commands_sent;
  c.commands_applied += s.commands_applied;
  c.commands_dropped += s.commands_dropped;
  c.commands_retransmitted += s.commands_retransmitted;
  c.events_sent += s.events_sent;
  c.events_delivered += s.events_delivered;
  c.events_dropped += s.events_dropped;
}

std::unique_ptr<Backend> MakeBackend(const BackendChoice& choice,
                                     const TestbedConfig& cfg) {
  switch (choice.kind) {
    case BackendChoice::Kind::kScallop:
      return std::make_unique<ScallopTestbed>(cfg);
    case BackendChoice::Kind::kFleet:
      return std::make_unique<FleetTestbed>(cfg, choice.fleet_switches,
                                            choice.fleet_regions);
    case BackendChoice::Kind::kSoftware:
      return std::make_unique<SoftwareTestbed>(cfg);
  }
  throw std::invalid_argument("MakeBackend: unknown backend kind");
}

}  // namespace scallop::testbed
