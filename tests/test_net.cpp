// Packet model: copy-on-write payload sharing between a packet and its
// clones, and what a released packet leaves behind in the pool.
#include <gtest/gtest.h>

#include "net/packet.hpp"

namespace scallop::net {
namespace {

const Endpoint kSrc{Ipv4(10, 0, 0, 1), 5000};
const Endpoint kDst{Ipv4(10, 0, 0, 2), 6000};

TEST(PayloadTest, CloneSharesBytesUntilTheUnsharingWrite) {
  PacketPtr original = MakePacket(kSrc, kDst, {1, 2, 3, 4});
  PacketPtr clone = ClonePacket(*original);
  clone->dst = kSrc;
  EXPECT_EQ(clone->payload.data(), original->payload.data());
  EXPECT_EQ(original->dst, kDst);

  clone->payload.Mutable()[1] = 9;
  EXPECT_NE(clone->payload.data(), original->payload.data());
  EXPECT_EQ(original->payload.bytes(), (std::vector<uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(clone->payload.bytes(), (std::vector<uint8_t>{1, 9, 3, 4}));

  // Unshared now: a further write stays in the clone's own buffer.
  const uint8_t* own = clone->payload.data();
  clone->payload.Mutable()[2] = 8;
  EXPECT_EQ(clone->payload.data(), own);
  EXPECT_EQ(original->payload[2], 3);
}

TEST(PayloadTest, SoleOwnerWritesInPlace) {
  PacketPtr pkt = MakePacket(kSrc, kDst, {1, 2, 3});
  const uint8_t* bytes = pkt->payload.data();
  pkt->payload.Mutable()[0] = 7;
  EXPECT_EQ(pkt->payload.data(), bytes);
  EXPECT_EQ(pkt->payload[0], 7);
}

TEST(PayloadTest, ReleasedPacketDropsItsBufferReference) {
  PacketPtr original = MakePacket(kSrc, kDst, {1, 2, 3});
  const uint8_t* bytes = original->payload.data();
  ClonePacket(*original).reset();
  // The released clone holds no reference: the original is the sole owner
  // again and writes in place.
  original->payload.Mutable()[0] = 5;
  EXPECT_EQ(original->payload.data(), bytes);

  // A packet drawn from the pool starts empty, whatever its previous
  // occupant carried.
  for (int i = 0; i < 4; ++i) {
    PacketPtr fresh = AcquirePacket();
    EXPECT_TRUE(fresh->payload.empty());
    EXPECT_EQ(fresh->wire_size(), kL3L4Overhead);
  }
}

TEST(PayloadTest, ReadsSeeTheFullBytes) {
  PacketPtr pkt = MakePacket(kSrc, kDst, {0x80, 96, 0, 1});
  const std::vector<uint8_t>& bytes = pkt->payload;
  EXPECT_EQ(bytes.size(), 4u);
  EXPECT_EQ(pkt->payload_span().size(), 4u);
  EXPECT_EQ(std::vector<uint8_t>(pkt->payload.begin(), pkt->payload.end()),
            bytes);
  EXPECT_EQ(pkt->wire_size(), 4u + kL3L4Overhead);

  Payload empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.begin(), empty.end());
}

TEST(PayloadTest, HandleCopiesAndMovesKeepOneBuffer) {
  Payload a;
  a.Mutable() = {1, 2, 3};
  Payload b = a;
  Payload c;
  c = b;
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(c.data(), a.data());
  Payload d = std::move(c);
  EXPECT_TRUE(c.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(d.data(), a.data());
  c = c;  // self-assignment keeps the (empty) state
  d = d;
  EXPECT_EQ(d.data(), a.data());
  a.Reset();
  b.Reset();
  // d is the last handle: it writes in place.
  const uint8_t* bytes = d.data();
  d.Mutable()[0] = 4;
  EXPECT_EQ(d.data(), bytes);
  EXPECT_EQ(d.bytes(), (std::vector<uint8_t>{4, 2, 3}));
}

}  // namespace
}  // namespace scallop::net
