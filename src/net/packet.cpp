#include "net/packet.hpp"

#include <vector>

namespace scallop::net {
namespace {

// Freelist of Packet objects. Recycled packets keep their payload vector's
// capacity, so a steady-state simulation stops paying a payload allocation
// per replicated copy. The pool is intentionally leaked: packets may be
// destroyed during static teardown (e.g. a test fixture member), after a
// function-local static pool would already be gone.
class PacketPool {
 public:
  Packet* Get() {
    if (free_.empty()) return new Packet();
    Packet* p = free_.back();
    free_.pop_back();
    return p;
  }
  void Put(Packet* p) {
    if (free_.size() >= kMaxFree) {
      delete p;
      return;
    }
    free_.push_back(p);
  }

 private:
  // Bounds idle memory: 16k ~1.2 KB payloads ≈ 20 MB worst case.
  static constexpr size_t kMaxFree = 16384;
  std::vector<Packet*> free_;
};

PacketPool& Pool() {
  static PacketPool* pool = new PacketPool();
  return *pool;
}

struct PoolDeleter {
  void operator()(Packet* p) const { Pool().Put(p); }
};

// Allocates the shared_ptr control blocks of pooled packets from a
// freelist of its own, so handing out a packet allocates nothing once the
// pools are warm. Leaked like the packet pool, for the same reason.
template <typename T>
struct ControlBlockAllocator {
  using value_type = T;
  ControlBlockAllocator() = default;
  template <typename U>
  ControlBlockAllocator(const ControlBlockAllocator<U>&) {}

  T* allocate(size_t n) {
    std::vector<T*>& free = Free();
    if (n != 1 || free.empty()) return std::allocator<T>().allocate(n);
    T* p = free.back();
    free.pop_back();
    return p;
  }
  void deallocate(T* p, size_t n) {
    std::vector<T*>& free = Free();
    if (n != 1 || free.size() >= kMaxFreeBlocks) {
      std::allocator<T>().deallocate(p, n);
      return;
    }
    free.push_back(p);
  }
  template <typename U>
  bool operator==(const ControlBlockAllocator<U>&) const {
    return true;
  }

 private:
  static constexpr size_t kMaxFreeBlocks = 16384;
  static std::vector<T*>& Free() {
    static auto* free = new std::vector<T*>();
    return *free;
  }
};

}  // namespace

PacketPtr AcquirePacket() {
  Packet* p = Pool().Get();
  p->sent_at = 0;
  p->arrival = 0;
  p->ingress_port = 0;
  return PacketPtr(p, PoolDeleter{}, ControlBlockAllocator<Packet>{});
}

PacketPtr ClonePacket(const Packet& p) {
  PacketPtr q = AcquirePacket();
  // Copy-assignment reuses the recycled payload buffer's capacity.
  *q = p;
  return q;
}

}  // namespace scallop::net
