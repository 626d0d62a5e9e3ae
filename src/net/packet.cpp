#include "net/packet.hpp"

#include <vector>

namespace scallop::net {
namespace {

// Idle objects of one type, kept process-wide for reuse (the simulation is
// single-threaded). Each freelist is intentionally leaked: packets may be
// destroyed during static teardown (e.g. a test fixture member), after a
// function-local static freelist would already be gone.
template <typename T>
std::vector<T*>& Idle() {
  static auto* idle = new std::vector<T*>();
  return *idle;
}

// Bounds each freelist. Idle packets hold no payload (a released packet
// drops its reference first), so their list stays near 1 MB; idle payload
// buffers keep their capacity, at most the largest payload written into
// them (~1.2 KB of video), so that list stays near 20 MB.
constexpr size_t kMaxIdle = 16384;

template <typename T>
T* TakeIdle() {
  std::vector<T*>& idle = Idle<T>();
  if (idle.empty()) return nullptr;
  T* p = idle.back();
  idle.pop_back();
  return p;
}

// False when the freelist is full and the caller must free `p` itself.
template <typename T>
bool KeepIdle(T* p) {
  std::vector<T*>& idle = Idle<T>();
  if (idle.size() >= kMaxIdle) return false;
  idle.push_back(p);
  return true;
}

struct PoolDeleter {
  void operator()(Packet* p) const {
    p->payload.Reset();
    if (!KeepIdle(p)) delete p;
  }
};

// Allocates the shared_ptr control blocks of pooled packets from a
// freelist of their own, so handing out a packet allocates nothing once
// the freelists are warm.
template <typename T>
struct ControlBlockAllocator {
  using value_type = T;
  ControlBlockAllocator() = default;
  template <typename U>
  ControlBlockAllocator(const ControlBlockAllocator<U>&) {}

  T* allocate(size_t n) {
    T* p = n == 1 ? TakeIdle<T>() : nullptr;
    return p != nullptr ? p : std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, size_t n) {
    if (n != 1 || !KeepIdle(p)) std::allocator<T>().deallocate(p, n);
  }
  template <typename U>
  bool operator==(const ControlBlockAllocator<U>&) const {
    return true;
  }
};

}  // namespace

const std::vector<uint8_t>& Payload::Empty() {
  // Leaked like the freelists: released packets may still be read during
  // static teardown.
  static const auto* empty = new std::vector<uint8_t>();
  return *empty;
}

void Payload::Recycle(Buffer* buf) {
  if (!KeepIdle(buf)) delete buf;
}

std::vector<uint8_t>& Payload::Mutable() {
  if (buf_ != nullptr && buf_->refs == 1) return buf_->bytes;
  Buffer* own = TakeIdle<Buffer>();
  if (own == nullptr) own = new Buffer();
  own->refs = 1;
  if (buf_ != nullptr) {
    // Shared: this handle takes a copy and leaves the others theirs.
    own->bytes.assign(buf_->bytes.begin(), buf_->bytes.end());
    --buf_->refs;
  } else {
    own->bytes.clear();
  }
  buf_ = own;
  return own->bytes;
}

PacketPtr AcquirePacket() {
  Packet* p = TakeIdle<Packet>();
  if (p == nullptr) p = new Packet();
  p->sent_at = 0;
  p->arrival = 0;
  p->ingress_port = 0;
  return PacketPtr(p, PoolDeleter{}, ControlBlockAllocator<Packet>{});
}

PacketPtr ClonePacket(const Packet& p) {
  PacketPtr q = AcquirePacket();
  // Copy-assignment shares the payload buffer: no payload bytes move.
  *q = p;
  return q;
}

}  // namespace scallop::net
