// Scheduler hot-path benchmark -> BENCH_scheduler.json. Two workloads:
//
//   events_per_sec       cancel-heavy: the shape PeriodicTask and the link
//                        layer actually generate — schedule a burst, cancel
//                        half of it before it fires, and (like every
//                        re-armed timer) also cancel a few ids that have
//                        already fired. This is the workload the O(n)
//                        cancelled-list scan melts under.
//   raw_events_per_sec   pure schedule+dispatch throughput, no cancels.
//
// Both golden CSVs depend on FIFO-among-equal-times, so the bench also
// sanity-checks ordering on the way (cheaply, via a running counter).
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "perf_report.hpp"
#include "sim/scheduler.hpp"

namespace {

using scallop::bench::PerfReport;
using scallop::bench::WallTimer;
using scallop::sim::Scheduler;

// Schedules `per_round` events per round at a handful of distinct times,
// cancels every other one before it fires, and cancels `stale_cancels`
// already-fired ids (the PeriodicTask destructor pattern). Returns
// events scheduled per wall second.
double CancelHeavy(int rounds, int per_round, int stale_cancels,
                   uint64_t* fired_total) {
  Scheduler s;
  uint64_t fired = 0;
  std::vector<uint64_t> ids(per_round);
  std::vector<uint64_t> old_ids;
  WallTimer timer;
  for (int r = 0; r < rounds; ++r) {
    scallop::util::TimeUs base = s.now();
    for (int i = 0; i < per_round; ++i) {
      // 16 distinct timestamps per round: bursts of equal-time events,
      // like a link delivering a frame's packets.
      ids[i] = s.At(base + 1 + (i & 15), [&fired] { ++fired; });
    }
    for (int i = 0; i < per_round; i += 2) s.Cancel(ids[i]);
    // Cancel ids that fired in an earlier round — documented no-op.
    for (int i = 0; i < stale_cancels && i < (int)old_ids.size(); ++i) {
      s.Cancel(old_ids[i]);
    }
    s.RunAll();
    old_ids.assign(ids.begin() + 1, ids.end());  // odd ids: all fired
  }
  double secs = timer.Seconds();
  *fired_total = fired;
  return static_cast<double>(rounds) * per_round / secs;
}

// Pure throughput: schedule a burst, drain, repeat. Verifies FIFO among
// equal times with a running sequence check.
double RawThroughput(int rounds, int per_round, bool* fifo_ok) {
  Scheduler s;
  uint64_t next_expected = 0;
  bool ok = true;
  WallTimer timer;
  for (int r = 0; r < rounds; ++r) {
    scallop::util::TimeUs base = s.now();
    for (int i = 0; i < per_round; ++i) {
      uint64_t seq = static_cast<uint64_t>(r) * per_round + i;
      s.At(base + 1 + (i & 7), [&next_expected, &ok, seq, i] {
        // Within one timestamp bucket insertion order is i-order, and
        // buckets fire in time order, so globally seq is only required to
        // be increasing within a bucket; the cheap invariant: a later
        // same-time insert never fires before an earlier one.
        if (seq < next_expected && (seq & 7) == (next_expected & 7)) {
          ok = false;
        }
        next_expected = seq;
        (void)i;
      });
    }
    s.RunAll();
  }
  double secs = timer.Seconds();
  *fifo_ok = ok;
  return static_cast<double>(rounds) * per_round / secs;
}

}  // namespace

int main() {
  using namespace scallop;
  bench::Header("Perf: scheduler event throughput");

  const bool full = bench::FullScale();
  const int rounds = full ? 60 : 20;
  const int per_round = 10'000;
  const int stale_cancels = 256;
  // Each metric is the median of this many timed passes.
  const int passes = 5;

  // Half the events are cancelled before firing.
  const uint64_t expected = static_cast<uint64_t>(rounds) * per_round / 2;
  bool fired_ok = true;
  double cancel_heavy = bench::MedianOfPasses(passes, [&] {
    uint64_t fired = 0;
    double rate = CancelHeavy(rounds, per_round, stale_cancels, &fired);
    if (fired != expected) {
      std::printf("FAIL: cancel-heavy fired %llu events, expected %llu\n",
                  static_cast<unsigned long long>(fired),
                  static_cast<unsigned long long>(expected));
      fired_ok = false;
    }
    return rate;
  });
  if (!fired_ok) return 1;

  bool fifo_ok = true;
  double raw = bench::MedianOfPasses(passes, [&] {
    bool pass_ok = true;
    double rate = RawThroughput(rounds, 50'000, &pass_ok);
    fifo_ok = fifo_ok && pass_ok;
    return rate;
  });
  if (!fifo_ok) {
    std::printf("FAIL: FIFO-among-equal-times violated\n");
    return 1;
  }

  std::printf("cancel-heavy: %.3g events/s   raw: %.3g events/s\n",
              cancel_heavy, raw);

  PerfReport report("scheduler");
  report.AddMetric("events_per_sec", cancel_heavy, "events/s");
  report.AddMetric("raw_events_per_sec", raw, "events/s");
  report.AddParam("rounds", rounds);
  report.AddParam("events_per_round", per_round);
  report.AddParam("stale_cancels_per_round", stale_cancels);
  report.WriteJson();
  return 0;
}
