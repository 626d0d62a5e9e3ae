// Star-topology network: every host owns an uplink and a downlink to a
// lossless core, matching the paper's per-participant uplink/downlink
// terminology. The SFU (switch or software server) attaches like any host
// but typically with datacenter-grade links.
//
// On top of the star, Connect() installs dedicated point-to-point links
// between attached hosts (the modeled inter-switch backbone) and
// SetRoute() pins a (src, dst) flow onto a chain of those links — so
// relay traffic between fleet switches crosses the declared backbone,
// hop by hop, instead of the ideal star core. Without routes, behaviour
// is byte-identical to the plain star.
//
// Folded uplinks. When the source's uplink is a pure delay (no rate,
// jitter, loss or reordering — an SFU's datacenter link) and the
// destination's downlink is not, Send skips the uplink's event: it counts
// the packet in the uplink's stats and hands it straight to the downlink
// with depart_at = sent_at + prop_delay, the time it would have reached
// the core. One scheduler event per delivered copy instead of two.
// Precondition for this to match the two-hop path exactly: the pure-delay
// sources feeding one downlink share a propagation delay and depart in
// call order (the switch departs every emit at now + pipeline latency,
// the software SFU at now). Then the downlink sees the same Send
// sequence, arithmetic and random draws; only the delivery's tie-break
// sequence number is taken at hand-off instead of at core arrival.
// Hand-off rule: a runtime change to a link applies to packets handed to
// that link after the change. A folded packet is handed to the downlink
// when the SFU sends it, so a downlink change made up to one uplink delay
// (plus the switch's pipeline latency) later does not shape it.
// A pure-delay destination downlink (SFU to SFU over the star) keeps the
// two-hop path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/link.hpp"
#include "sim/scheduler.hpp"

namespace scallop::sim {

// Anything that can receive packets from the network.
class Host {
 public:
  virtual ~Host() = default;
  virtual void OnPacket(net::PacketPtr pkt) = 0;
};

class Network {
 public:
  Network(Scheduler& sched, uint64_t seed) : sched_(sched), seed_(seed) {}

  // Registers `host` under `addr` with dedicated uplink/downlink.
  void Attach(net::Ipv4 addr, Host* host, const LinkConfig& uplink,
              const LinkConfig& downlink);

  // Sends using the src host's uplink (folded when it is a pure delay, see
  // above) and dst host's downlink — unless a route is installed for
  // (src, dst), in which case the packet traverses the route's pair links
  // instead. Packets to unknown destinations (or hitting a route hop with
  // no pair link) are counted and dropped (like a routing blackhole).
  // `depart_at` (if ahead of now) defers the first hop's serialization
  // start — see Link::Send.
  void Send(net::PacketPtr pkt, util::TimeUs depart_at = -1);

  // ---- backbone modeling --------------------------------------------------
  // Installs a dedicated bidirectional link pair between two hosts
  // (`ab` shapes a->b traffic, `ba` the reverse). Re-connecting an
  // existing pair reshapes the live links in place (rate, delay, jitter,
  // loss, reordering — the runtime knobs), preserving their stats, RNG
  // streams and any in-flight packets.
  void Connect(net::Ipv4 a, net::Ipv4 b, const LinkConfig& ab,
               const LinkConfig& ba);
  // The directed pair link from `from` to `to`; nullptr when absent.
  Link* pair_link(net::Ipv4 from, net::Ipv4 to);
  const Link* pair_link(net::Ipv4 from, net::Ipv4 to) const;
  // Pins (src, dst) traffic onto `path` (inclusive host sequence,
  // src first); each consecutive pair must be Connect()ed. The final hop
  // delivers straight to the destination host — the pair links model the
  // whole switch-to-switch path.
  void SetRoute(net::Ipv4 src, net::Ipv4 dst, std::vector<net::Ipv4> path);

  Link* uplink(net::Ipv4 addr);
  Link* downlink(net::Ipv4 addr);

  uint64_t blackholed() const { return blackholed_; }

 private:
  struct Attachment {
    Host* host;
    std::unique_ptr<Link> up;
    std::unique_ptr<Link> down;
  };
  using PairKey = std::pair<net::Ipv4, net::Ipv4>;  // directed (from, to)

  // Last hop of the star: dst's downlink, then dst itself.
  void SendDown(const Attachment& dst, net::PacketPtr pkt,
                util::TimeUs depart_at = -1);
  // `path` indexes paths_; a hop's closure captures (this, path, hop), 16
  // trivially copyable bytes, so it fits std::function's inline buffer.
  void SendAlongRoute(net::PacketPtr pkt, uint32_t path, uint32_t hop,
                      util::TimeUs depart_at = -1);

  Scheduler& sched_;
  uint64_t seed_;
  uint64_t next_link_seed_ = 1;
  std::unordered_map<net::Ipv4, Attachment> hosts_;
  std::map<PairKey, std::unique_ptr<Link>> pair_links_;
  // Every path ever installed, append-only: a packet riding a replaced
  // route still finds its path by index.
  std::vector<std::vector<net::Ipv4>> paths_;
  std::map<PairKey, uint32_t> routes_;  // (src, dst) -> index into paths_
  uint64_t blackholed_ = 0;
};

}  // namespace scallop::sim
