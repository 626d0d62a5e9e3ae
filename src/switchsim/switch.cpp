#include "switchsim/switch.hpp"

namespace scallop::switchsim {

Switch::Switch(sim::Scheduler& sched, sim::Network& network,
               const SwitchConfig& cfg)
    : sched_(sched), network_(network), cfg_(cfg) {}

void Switch::OnPacket(net::PacketPtr pkt) {
  ++stats_.packets_in;
  stats_.bytes_in += pkt->wire_size();
  if (ingress_tap_) ingress_tap_(*pkt);
  if (program_ == nullptr) {
    ++stats_.packets_dropped;
    return;
  }

  PacketMetadata meta;
  program_->Ingress(*pkt, meta);

  if (meta.copy_to_cpu && cpu_handler_) {
    ++stats_.packets_to_cpu;
    cpu_handler_(net::ClonePacket(*pkt));
  }
  if (meta.drop) {
    ++stats_.packets_dropped;
    return;
  }

  if (meta.unicast) {
    auto copy = net::ClonePacket(*pkt);
    if (program_->Egress(*copy, meta, Replica{0, meta.unicast_port})) {
      Emit(std::move(copy));
    } else {
      ++stats_.packets_dropped;
    }
    return;
  }

  if (meta.mgid != 0) {
    pre_.ReplicateInto(meta.mgid, meta.l1_xid, meta.rid, meta.l2_xid,
                       replica_scratch_);
    bool any = false;
    for (const Replica& rep : replica_scratch_) {
      auto copy = net::ClonePacket(*pkt);
      if (program_->Egress(*copy, meta, rep)) {
        ++stats_.replicas;
        Emit(std::move(copy));
        any = true;
      }
    }
    if (!any) ++stats_.packets_dropped;
    return;
  }

  // No action selected: drop (default deny, like an empty table miss).
  ++stats_.packets_dropped;
}

void Switch::InjectFromCpu(net::PacketPtr pkt) {
  Emit(std::move(pkt));
}

void Switch::Emit(net::PacketPtr pkt) {
  ++stats_.packets_out;
  stats_.bytes_out += pkt->wire_size();
  resources_.AccountEgress(pkt->wire_size());
  // The pipeline traversal delay is modeled as a deferred departure on the
  // first link hop instead of a scheduler event: emits reach the network
  // in pipeline order either way, and this keeps the fan-out burst free of
  // per-replica event-queue traffic. Every emit departs at now + the same
  // latency, so departures follow call order, which Network's fold of the
  // pure-delay uplink relies on (see network.hpp).
  network_.Send(std::move(pkt), sched_.now() + cfg_.pipeline_latency);
}

}  // namespace scallop::switchsim
