// Machine-readable bench results: every perf bench emits one
// BENCH_<area>.json so the repo carries a pinned perf trajectory instead
// of scrolled-away stdout. The schema is deliberately flat and
// line-oriented so the regression gate (bench_check) can parse it without
// a JSON library:
//
//   {
//     "schema": "scallop-bench-v1",
//     "area": "scheduler",
//     "metrics": [
//       {"name": "events_per_sec", "value": 1.23456e+06,
//        "unit": "events/s", "higher_is_better": true},
//       ...
//     ],
//     "params": [
//       {"name": "peers", "value": 240},
//       ...
//     ]
//   }
//
// Everything except metric values is deterministic for a given bench
// binary (pinned by tests/test_perf_report.cpp); values are wall-clock
// throughputs and vary run to run. `higher_is_better` metrics are gated
// by bench_check against the committed baselines in bench/baselines/
// (fail on a >40% drop); informational metrics set it to false.
#pragma once

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

namespace scallop::bench {

struct PerfMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool higher_is_better = true;
};

struct PerfParam {
  std::string name;
  double value = 0.0;
};

class PerfReport {
 public:
  explicit PerfReport(std::string area) : area_(std::move(area)) {}

  void AddMetric(const std::string& name, double value,
                 const std::string& unit, bool higher_is_better = true);
  void AddParam(const std::string& name, double value);

  const std::string& area() const { return area_; }
  const std::vector<PerfMetric>& metrics() const { return metrics_; }
  const std::vector<PerfParam>& params() const { return params_; }
  const PerfMetric* FindMetric(const std::string& name) const;

  std::string ToJson() const;

  // Writes BENCH_<area>.json into $SCALLOP_BENCH_DIR (falling back to the
  // working directory) and returns the path ("" on write failure).
  std::string WriteJson() const;

  // Parses a report serialized by ToJson(); nullopt on malformed input.
  static std::optional<PerfReport> Parse(const std::string& json);

 private:
  std::string area_;
  std::vector<PerfMetric> metrics_;
  std::vector<PerfParam> params_;
};

// Monotonic wall-clock stopwatch for throughput metrics.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Calls `pass` (one timed pass returning a rate) `passes` times and
// returns the median rate: one pass slowed by a busy shared host does not
// set the reported value.
template <typename Pass>
double MedianOfPasses(int passes, Pass&& pass) {
  std::vector<double> rates;
  for (int i = 0; i < passes; ++i) rates.push_back(pass());
  std::sort(rates.begin(), rates.end());
  const size_t n = rates.size();
  return n % 2 == 1 ? rates[n / 2] : (rates[n / 2 - 1] + rates[n / 2]) / 2;
}

}  // namespace scallop::bench
