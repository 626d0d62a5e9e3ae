#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/random.hpp"
#include "util/seqnum.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace scallop::util {
namespace {

TEST(Bytes, RoundTripIntegers) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0x1234);
  w.WriteU24(0xABCDEF);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  auto buf = std::move(w).Take();
  ASSERT_EQ(buf.size(), 1u + 2 + 3 + 4 + 8);

  ByteReader r(buf);
  EXPECT_EQ(r.ReadU8(), 0xAB);
  EXPECT_EQ(r.ReadU16(), 0x1234);
  EXPECT_EQ(r.ReadU24(), 0xABCDEFu);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Bytes, NetworkByteOrder) {
  ByteWriter w;
  w.WriteU16(0x0102);
  auto buf = std::move(w).Take();
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
}

TEST(Bytes, ReaderUnderrunMarksBroken) {
  std::vector<uint8_t> buf{1, 2};
  ByteReader r(buf);
  EXPECT_EQ(r.ReadU32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, PatchU16) {
  ByteWriter w;
  w.WriteU32(0);
  w.PatchU16(1, 0xBEEF);
  auto buf = std::move(w).Take();
  EXPECT_EQ(buf[1], 0xBE);
  EXPECT_EQ(buf[2], 0xEF);
}

TEST(Bytes, HexDump) {
  std::vector<uint8_t> buf{0x00, 0xff, 0x1a};
  EXPECT_EQ(ToHex(buf), "00ff1a");
}

// TrailingRunBytes round-trips any byte string exactly, whatever its
// tail looks like.
TEST(Bytes, TrailingRunRoundTrips) {
  const std::vector<std::vector<uint8_t>> cases = {
      {},                               // empty
      {7},                              // one byte
      {1, 2, 3, 4},                     // no run longer than one byte
      std::vector<uint8_t>(300, 0xAB),  // all one byte
      {0x80, 96, 0, 5, 5, 5, 5},        // header ends in the fill byte
      {5, 5, 1, 5, 5},                  // the fill byte also inside
      {0, 0, 9, 0},                     // a zero fill
  };
  TrailingRunBytes stored;
  std::vector<uint8_t> restored = {42, 42};  // overwritten, not appended to
  for (const auto& bytes : cases) {
    stored.Assign(bytes);
    EXPECT_EQ(stored.size(), bytes.size());
    stored.RestoreInto(restored);
    EXPECT_EQ(restored, bytes) << ToHex(bytes);
  }
}

TEST(Bytes, TrailingRunKeepsOnlyTheHead) {
  std::vector<uint8_t> bytes = {0x80, 96, 0, 1, 2};
  bytes.insert(bytes.end(), 1200, 0x11);
  TrailingRunBytes stored;
  stored.Assign(bytes);
  EXPECT_EQ(stored.head, (std::vector<uint8_t>{0x80, 96, 0, 1, 2}));
  EXPECT_EQ(stored.run, 1200u);
  EXPECT_EQ(stored.fill, 0x11);

  // A header whose last byte equals the fill byte folds into the run.
  stored.Assign(std::vector<uint8_t>{9, 3, 3, 3});
  EXPECT_EQ(stored.head, (std::vector<uint8_t>{9}));
  EXPECT_EQ(stored.run, 3u);

  stored.Assign(std::vector<uint8_t>(64, 0));
  EXPECT_TRUE(stored.head.empty());
  EXPECT_EQ(stored.run, 64u);
  EXPECT_EQ(stored.fill, 0);

  // Every run length across the word-sized steps, after heads of every
  // alignment.
  std::vector<uint8_t> restored;
  for (size_t head = 1; head <= 9; ++head) {
    for (size_t run = 1; run <= 25; ++run) {
      std::vector<uint8_t> in(head, 0x10);
      in.back() = 0x20;
      in.insert(in.end(), run, 0x30);
      stored.Assign(in);
      EXPECT_EQ(stored.head.size(), head);
      EXPECT_EQ(stored.run, run);
      stored.RestoreInto(restored);
      EXPECT_EQ(restored, in);
    }
  }
}

TEST(SeqNum, NewerAcrossWrap) {
  EXPECT_TRUE(SeqNewer(1, 0xffff));
  EXPECT_TRUE(SeqNewer(100, 50));
  EXPECT_FALSE(SeqNewer(50, 100));
  EXPECT_FALSE(SeqNewer(5, 5));
}

TEST(SeqNum, DiffSigned) {
  EXPECT_EQ(SeqDiff(10, 5), 5);
  EXPECT_EQ(SeqDiff(5, 10), -5);
  EXPECT_EQ(SeqDiff(2, 0xfffe), 4);
  EXPECT_EQ(SeqDiff(0xfffe, 2), -4);
}

TEST(SeqNum, UnwrapperMonotonic) {
  SeqUnwrapper u;
  EXPECT_EQ(u.Unwrap(65530), 65530);
  EXPECT_EQ(u.Unwrap(65535), 65535);
  EXPECT_EQ(u.Unwrap(3), 65539);      // wrapped
  EXPECT_EQ(u.Unwrap(65534), 65534);  // reordered old packet
  EXPECT_EQ(u.Unwrap(4), 65540);
}

TEST(Time, Conversions) {
  EXPECT_EQ(Seconds(1.5), 1'500'000);
  EXPECT_EQ(Millis(2.5), 2'500);
  EXPECT_DOUBLE_EQ(ToSeconds(250'000), 0.25);
  EXPECT_EQ(ToRtpTimestamp90k(1'000'000), 90'000u);
}

TEST(Time, NtpFormat) {
  uint64_t ntp = ToNtp(1'500'000);  // 1.5 s
  EXPECT_EQ(ntp >> 32, 1u);
  // Fraction is 0.5 * 2^32.
  EXPECT_NEAR(static_cast<double>(ntp & 0xffffffff), 0.5 * 4294967296.0, 2.0);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.1);
  EXPECT_FALSE(e.has_value());
  e.Add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  e.Add(20.0);
  EXPECT_NEAR(e.value(), 11.0, 1e-9);
}

TEST(RunningStats, MeanVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-9);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_NEAR(s.Median(), 50.5, 0.01);
  EXPECT_NEAR(s.Percentile(99), 99.01, 0.1);
  EXPECT_EQ(s.Min(), 1.0);
  EXPECT_EQ(s.Max(), 100.0);
  EXPECT_NEAR(s.CdfAt(50.0), 0.5, 0.01);
}

TEST(SampleSet, CdfPointsMonotonic) {
  SampleSet s;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) s.Add(rng.NextDouble());
  auto points = s.CdfPoints(50);
  ASSERT_EQ(points.size(), 50u);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].first, points[i - 1].first);
    EXPECT_GE(points[i].second, points[i - 1].second);
  }
  EXPECT_NEAR(points.back().second, 1.0, 1e-9);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(9.5);
  h.Add(-5.0);   // clamps to first bucket
  h.Add(100.0);  // clamps to last bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(9), 2);
}

TEST(Jitter, ConstantSpacingIsZero) {
  JitterEstimator j(90'000);
  // Packets 20 ms apart in both domains: no jitter.
  for (int i = 0; i < 50; ++i) {
    j.OnPacket(static_cast<uint32_t>(i * 1800), i * 20'000);
  }
  EXPECT_NEAR(j.JitterMs(), 0.0, 1e-6);
}

TEST(Jitter, VariableDelayAccumulates) {
  JitterEstimator j(90'000);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    TimeUs arrival = i * 20'000 + static_cast<TimeUs>(rng.Uniform(0, 10'000));
    j.OnPacket(static_cast<uint32_t>(i * 1800), arrival);
  }
  EXPECT_GT(j.JitterMs(), 1.0);
  EXPECT_LT(j.JitterMs(), 10.0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    int64_t n = rng.UniformInt(3, 7);
    EXPECT_GE(n, 3);
    EXPECT_LE(n, 7);
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(2);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(6);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.Exponential(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);
}

TEST(Rng, PoissonMean) {
  Rng rng(8);
  RunningStats small, large;
  for (int i = 0; i < 20000; ++i) {
    small.Add(static_cast<double>(rng.Poisson(3.0)));
    large.Add(static_cast<double>(rng.Poisson(100.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 0.5);
}

}  // namespace
}  // namespace scallop::util
