// UDP datagram model: IP/UDP headers are carried as structured fields (the
// switch rewrites them like a real pipeline would); the payload is real
// wire-format bytes (RTP/RTCP/STUN) produced by the protocol modules,
// shared copy-on-write between a packet and its clones.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "util/time.hpp"

namespace scallop::net {

// Sizes modeled for byte accounting (Ethernet + IPv4 + UDP).
constexpr size_t kEthHeaderBytes = 14;
constexpr size_t kIpv4HeaderBytes = 20;
constexpr size_t kUdpHeaderBytes = 8;
constexpr size_t kL3L4Overhead = kIpv4HeaderBytes + kUdpHeaderBytes;

// Copy-on-write handle to a pooled payload buffer. Copies of a handle
// share one buffer, so a switch replica, the unicast copy and the CPU copy
// of an ingress packet all read the bytes the sender wrote, as the
// hardware's replication engine multicasts one packet buffer. Reads go
// through the const accessors; the one write access, Mutable(), first gives
// this handle a buffer of its own when another handle shares it. The
// refcount is not atomic: the simulation is single-threaded, as the packet
// pool already assumes.
class Payload {
 public:
  Payload() = default;
  Payload(const Payload& other) noexcept : buf_(other.buf_) {
    if (buf_ != nullptr) ++buf_->refs;
  }
  Payload(Payload&& other) noexcept
      : buf_(std::exchange(other.buf_, nullptr)) {}
  Payload& operator=(const Payload& other) noexcept {
    Buffer* buf = other.buf_;  // read first: `other` may be *this
    if (buf != nullptr) ++buf->refs;
    Reset();
    buf_ = buf;
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      Reset();
      buf_ = std::exchange(other.buf_, nullptr);
    }
    return *this;
  }
  ~Payload() { Reset(); }

  // Drops this handle's reference (the handle reads empty afterwards); the
  // last reference returns the buffer to its pool.
  void Reset() noexcept {
    if (buf_ != nullptr && --buf_->refs == 0) Recycle(buf_);
    buf_ = nullptr;
  }

  const std::vector<uint8_t>& bytes() const {
    return buf_ != nullptr ? buf_->bytes : Empty();
  }
  operator const std::vector<uint8_t>&() const { return bytes(); }
  size_t size() const { return bytes().size(); }
  bool empty() const { return bytes().empty(); }
  const uint8_t* data() const { return bytes().data(); }
  const uint8_t& operator[](size_t i) const { return bytes()[i]; }
  auto begin() const { return bytes().begin(); }
  auto end() const { return bytes().end(); }

  // The only write access. Copies the bytes into a buffer of this handle's
  // own first when another handle shares them; an empty handle gets a
  // fresh, empty buffer.
  std::vector<uint8_t>& Mutable();

 private:
  struct Buffer {
    uint32_t refs = 0;
    std::vector<uint8_t> bytes;
  };
  static const std::vector<uint8_t>& Empty();
  static void Recycle(Buffer* buf);

  Buffer* buf_ = nullptr;
};

struct Packet {
  Endpoint src;
  Endpoint dst;
  Payload payload;

  // Metadata stamped by the simulator (not on the wire).
  util::TimeUs sent_at = 0;
  util::TimeUs arrival = 0;
  uint32_t ingress_port = 0;  // switch ingress port, set by switchsim

  size_t payload_size() const { return payload.size(); }
  // Total bytes on the wire including L3/L4 headers (no Ethernet).
  size_t wire_size() const { return payload.size() + kL3L4Overhead; }

  std::span<const uint8_t> payload_span() const { return payload.bytes(); }
};

using PacketPtr = std::shared_ptr<Packet>;

// Draws a Packet from a process-wide freelist (simulation is
// single-threaded); a released packet drops its payload reference before
// it returns there, so idle packets pin no bytes.
PacketPtr AcquirePacket();

inline PacketPtr MakePacket(Endpoint src, Endpoint dst,
                            std::vector<uint8_t> payload) {
  PacketPtr p = AcquirePacket();
  p->src = src;
  p->dst = dst;
  // Keep whichever allocation is larger in the pooled buffer: take the
  // caller's by swap, or copy a small payload into the pooled capacity.
  std::vector<uint8_t>& bytes = p->payload.Mutable();
  if (payload.capacity() >= bytes.capacity()) {
    bytes.swap(payload);
  } else {
    bytes.assign(payload.begin(), payload.end());
  }
  return p;
}

// Copies the headers and metadata; the payload is shared with `p` until
// either side writes through Payload::Mutable(). Replication in the switch
// clones the ingress packet once per receiver and rewrites only headers.
PacketPtr ClonePacket(const Packet& p);

}  // namespace scallop::net
