// Pins the machine-readable bench contract (BENCH_<area>.json schema,
// round-trip, env-var routing) and the scheduler guarantees the perf
// campaign leans on: pending() stays exact under cancel-heavy churn, and
// EventSource events stay observationally identical to At events — same
// FIFO order among equal times, interleaved with At events by the shared
// sequence counter.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "perf_report.hpp"
#include "sim/scheduler.hpp"

namespace scallop {
namespace {

// ---- BENCH_<area>.json contract -------------------------------------------

TEST(PerfReport, JsonCarriesPinnedSchema) {
  bench::PerfReport report("scheduler");
  report.AddMetric("events_per_sec", 1.5e6, "events/s");
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\": \"scallop-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"area\": \"scheduler\""), std::string::npos);
}

TEST(PerfReport, RoundTripPreservesMetricsAndParams) {
  bench::PerfReport report("fleet_scale");
  report.AddMetric("sim_s_per_wall_s", 1.6789, "sim-s/wall-s");
  report.AddMetric("wall_seconds", 2.5, "s", /*higher_is_better=*/false);
  report.AddParam("peers", 216);
  report.AddParam("sim_seconds", 3);

  auto parsed = bench::PerfReport::Parse(report.ToJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->area(), "fleet_scale");
  ASSERT_EQ(parsed->metrics().size(), 2u);
  const bench::PerfMetric* m = parsed->FindMetric("sim_s_per_wall_s");
  ASSERT_NE(m, nullptr);
  EXPECT_NEAR(m->value, 1.6789, 1e-9);
  EXPECT_EQ(m->unit, "sim-s/wall-s");
  EXPECT_TRUE(m->higher_is_better);
  const bench::PerfMetric* w = parsed->FindMetric("wall_seconds");
  ASSERT_NE(w, nullptr);
  EXPECT_FALSE(w->higher_is_better);
  ASSERT_EQ(parsed->params().size(), 2u);
  EXPECT_EQ(parsed->params()[0].name, "peers");
  EXPECT_NEAR(parsed->params()[0].value, 216.0, 1e-9);
}

TEST(PerfReport, ParseRejectsMalformedInput) {
  EXPECT_FALSE(bench::PerfReport::Parse("").has_value());
  EXPECT_FALSE(bench::PerfReport::Parse("not json at all").has_value());
  EXPECT_FALSE(
      bench::PerfReport::Parse("{\"schema\": \"other-v9\"}").has_value());
}

TEST(PerfReport, WriteJsonHonorsBenchDirEnv) {
  std::string dir = ::testing::TempDir();
  // TempDir may end with '/', WriteJson joins with '/': tolerate both.
  while (!dir.empty() && dir.back() == '/') dir.pop_back();
  ASSERT_EQ(setenv("SCALLOP_BENCH_DIR", dir.c_str(), 1), 0);
  bench::PerfReport report("unit_test_area");
  report.AddMetric("m", 42.0, "u");
  std::string path = report.WriteJson();
  unsetenv("SCALLOP_BENCH_DIR");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path, dir + "/BENCH_unit_test_area.json");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  auto parsed = bench::PerfReport::Parse(contents.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->area(), "unit_test_area");
  std::remove(path.c_str());
}

// ---- scheduler invariants the fast paths must uphold -----------------------

// A closure-carrying Scheduler::EventSource built the way Link is: Submit
// reserves the event's sequence number at once, but only the source's
// earliest pending event is armed, when it first becomes the front; a
// displaced front keeps its still-exact entry.
class ClosureSource : private sim::Scheduler::EventSource {
 public:
  explicit ClosureSource(sim::Scheduler& s) : sched_(s) {}
  // The scheduler's heap holds the source's address.
  ClosureSource(const ClosureSource&) = delete;
  ClosureSource& operator=(const ClosureSource&) = delete;

  void Submit(util::TimeUs when, std::function<void()> fn) {
    EXPECT_GE(when, sched_.now()) << "sources must not aim at the past";
    Pending p{when, sched_.ReserveSeq(), false, std::move(fn)};
    auto pos = pending_.begin();
    while (pos != pending_.end() && pos->when <= when) ++pos;
    pos = pending_.insert(pos, std::move(p));
    if (pos == pending_.begin()) ArmFront();
  }

 private:
  struct Pending {
    util::TimeUs when;
    uint64_t seq;
    bool armed;
    std::function<void()> fn;
  };

  void ArmFront() {
    pending_.front().armed = true;
    sched_.Arm(pending_.front().when, pending_.front().seq, this);
  }
  void OnEvent(uint32_t /*tag*/) override {
    std::function<void()> fn = std::move(pending_.front().fn);
    pending_.erase(pending_.begin());
    // Arm the next front before running: `fn` may submit more.
    if (!pending_.empty() && !pending_.front().armed) ArmFront();
    fn();
  }

  sim::Scheduler& sched_;
  std::vector<Pending> pending_;  // sorted by (when, seq)
};

// pending() is computed from three moving parts (heap size, cancelled
// tombstones, reserved events their source has not armed yet). Churn all
// of them against a simple reference count. Deterministic xorshift so the
// interleaving is reproducible.
TEST(SchedulerInvariants, PendingExactUnderCancelHeavyChurn) {
  sim::Scheduler s;
  ClosureSource source(s);
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  std::vector<uint64_t> live_ids;
  std::vector<uint64_t> dead_ids;  // cancelled or obviously stale
  size_t expected_pending = 0;
  size_t expected_fires = 0;
  size_t fired = 0;

  for (int op = 0; op < 5000; ++op) {
    switch (next() % 4) {
      case 0:  // cancellable event
        live_ids.push_back(
            s.At(static_cast<util::TimeUs>(next() % 1000), [&] { ++fired; }));
        ++expected_pending;
        ++expected_fires;
        break;
      case 1:  // source (uncancellable) event, armed only if it leads
        source.Submit(static_cast<util::TimeUs>(next() % 1000),
                      [&] { ++fired; });
        ++expected_pending;
        ++expected_fires;
        break;
      case 2:  // cancel a live id
        if (!live_ids.empty()) {
          size_t i = next() % live_ids.size();
          s.Cancel(live_ids[i]);
          dead_ids.push_back(live_ids[i]);
          live_ids[i] = live_ids.back();
          live_ids.pop_back();
          --expected_pending;
          --expected_fires;
        }
        break;
      case 3:  // double-cancel: must be a no-op on the counts
        if (!dead_ids.empty()) s.Cancel(dead_ids[next() % dead_ids.size()]);
        break;
    }
    ASSERT_EQ(s.pending(), expected_pending) << "after op " << op;
    ASSERT_EQ(s.empty(), expected_pending == 0);
  }

  EXPECT_EQ(s.RunAll(), expected_fires);
  EXPECT_EQ(fired, expected_fires);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.empty());

  // Cancelling long-fired ids after the run is still a no-op.
  for (uint64_t id : live_ids) s.Cancel(id);
  EXPECT_EQ(s.pending(), 0u);
}

// Source events promise At's ordering: among events with equal
// timestamps, submission order wins — even when At and source submissions
// interleave, because both draw from the one sequence counter.
TEST(SchedulerInvariants, SourceEventsKeepFifoAmongEqualTimes) {
  sim::Scheduler s;
  ClosureSource source(s);
  std::vector<int> order;
  s.At(100, [&] { order.push_back(0); });
  source.Submit(100, [&] { order.push_back(1); });
  s.At(100, [&] { order.push_back(2); });
  source.Submit(100, [&] { order.push_back(3); });
  source.Submit(100, [&] { order.push_back(4); });
  s.At(100, [&] { order.push_back(5); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(s.now(), 100);
}

// Same promise across distinct timestamps: the merged At/source stream
// runs in global (when, submission) order regardless of which side each
// event entered through, including same-time reentrant submissions from
// inside a running source event.
TEST(SchedulerInvariants, SourceAndAtEventsMergeInTimeOrder) {
  sim::Scheduler s;
  ClosureSource source(s);
  std::vector<int> order;
  source.Submit(300, [&] { order.push_back(5); });
  s.At(100, [&] { order.push_back(1); });
  source.Submit(200, [&] {
    order.push_back(3);
    // Reentrant: a source event submitting more work at its own
    // timestamp still runs after everything already submitted for that
    // timestamp (its sequence number is newer).
    source.Submit(200, [&] { order.push_back(4); });
    source.Submit(400, [&] { order.push_back(6); });
  });
  source.Submit(100, [&] { order.push_back(2); });
  s.At(50, [&] { order.push_back(0); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(s.now(), 400);
}

TEST(SchedulerInvariants, AtClampsPastTimesToNow) {
  sim::Scheduler s;
  std::vector<int> order;
  s.At(100, [&] {
    // now() == 100; an event aimed at the past must not rewind.
    s.At(10, [&] { order.push_back(1); });
    order.push_back(0);
  });
  s.At(100, [&] { order.push_back(2); });
  s.RunAll();
  // The clamped event keeps its (newer) submission order at t=100.
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(s.now(), 100);
}

TEST(SchedulerInvariants, RunUntilLeavesFutureSourceEventsPending) {
  sim::Scheduler s;
  ClosureSource source(s);
  int fired = 0;
  source.Submit(500, [&] { ++fired; });
  source.Submit(600, [&] { ++fired; });
  s.RunUntil(250);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_EQ(s.now(), 250);
  s.RunAll();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.pending(), 0u);
}

}  // namespace
}  // namespace scallop
