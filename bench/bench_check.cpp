// Perf regression gate: compares freshly emitted BENCH_*.json reports
// against the committed baselines in bench/baselines/ and fails (exit 1)
// when any higher-is-better metric dropped by more than the threshold
// (default 40%). Informational metrics (higher_is_better=false) are
// printed but never gated — they include raw wall times that CI runner
// noise would otherwise flap on.
//
//   bench_check <baseline_dir> <fresh_dir> [max_drop_fraction]
//
// Outside the scheduler area, a metric's ratio is scaled by the host-speed
// canary (baseline / fresh raw_events_per_sec, see perf_report.hpp) before
// it is gated, so a slower host neither fails nor lowers the bar. Both
// the raw and the normalised ratio are printed.
//
// Every baseline report must have a fresh counterpart, every gated
// baseline metric must exist in the fresh report — a silently vanished
// bench leg is itself a regression — and both sides must carry a canary.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "perf_report.hpp"

namespace fs = std::filesystem;
using scallop::bench::GateRatio;
using scallop::bench::PerfReport;

namespace {

std::optional<PerfReport> Load(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return PerfReport::Parse(buf.str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: bench_check <baseline_dir> <fresh_dir> "
                 "[max_drop_fraction]\n");
    return 2;
  }
  const fs::path baseline_dir = argv[1];
  const fs::path fresh_dir = argv[2];
  const double max_drop = argc > 3 ? std::strtod(argv[3], nullptr) : 0.40;

  std::vector<fs::path> baselines;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(baseline_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      baselines.push_back(entry.path());
    }
  }
  if (ec || baselines.empty()) {
    std::fprintf(stderr, "bench_check: no BENCH_*.json baselines in %s\n",
                 baseline_dir.string().c_str());
    return 2;
  }
  std::sort(baselines.begin(), baselines.end());

  // Every offending metric is remembered and recapped after the full
  // sweep: a perf-gate failure must be diagnosable from the tail of the
  // CI log in one read, not by scanning thousands of interleaved ok/info
  // rows for the FAIL lines.
  std::vector<std::string> failures;
  char line[256];

  // Without both canaries nothing can be normalised: that fails the gate,
  // and the raw ratios are still printed and gated.
  auto canary_in = [](const fs::path& dir) -> std::optional<double> {
    auto report = Load(dir / (std::string("BENCH_") +
                              scallop::bench::kCanaryArea + ".json"));
    return report ? scallop::bench::CanaryOf(*report) : std::nullopt;
  };
  const std::optional<double> base_canary = canary_in(baseline_dir);
  const std::optional<double> fresh_canary = canary_in(fresh_dir);
  if (base_canary && fresh_canary) {
    std::printf("canary %s %s: fresh %.4g vs baseline %.4g (%.2fx host)\n",
                scallop::bench::kCanaryArea, scallop::bench::kCanaryMetric,
                *fresh_canary, *base_canary, *fresh_canary / *base_canary);
  } else {
    std::snprintf(line, sizeof(line), "canary %s %s missing from %s",
                  scallop::bench::kCanaryArea, scallop::bench::kCanaryMetric,
                  base_canary ? "fresh" : "baseline");
    std::printf("FAIL %s\n", line);
    failures.emplace_back(line);
  }
  const double base_scale = base_canary.value_or(1.0);
  const double fresh_scale = fresh_canary.value_or(1.0);
  for (const auto& base_path : baselines) {
    auto baseline = Load(base_path);
    if (!baseline) {
      std::printf("FAIL %s: unparsable baseline\n",
                  base_path.filename().string().c_str());
      failures.push_back(base_path.filename().string() +
                         ": unparsable baseline");
      continue;
    }
    auto fresh = Load(fresh_dir / base_path.filename());
    if (!fresh) {
      std::printf("FAIL %s: fresh report missing (bench leg vanished?)\n",
                  base_path.filename().string().c_str());
      failures.push_back(base_path.filename().string() +
                         ": fresh report missing");
      continue;
    }
    for (const auto& m : baseline->metrics()) {
      const auto* f = fresh->FindMetric(m.name);
      if (!m.higher_is_better) {
        if (f != nullptr) {
          std::printf("info %-12s %-28s %12.4g (baseline %.4g)\n",
                      baseline->area().c_str(), m.name.c_str(), f->value,
                      m.value);
        }
        continue;
      }
      if (f == nullptr) {
        std::printf("FAIL %-12s %-28s missing from fresh report\n",
                    baseline->area().c_str(), m.name.c_str());
        std::snprintf(line, sizeof(line), "%-12s %-28s missing from fresh",
                      baseline->area().c_str(), m.name.c_str());
        failures.emplace_back(line);
        continue;
      }
      const GateRatio ratio = scallop::bench::RatioAgainstBaseline(
          baseline->area(), m.value, f->value, base_scale, fresh_scale);
      const bool pass = ratio.Passes(max_drop);
      std::printf("%s %-12s %-28s %12.4g vs %12.4g  (raw %.2fx, norm %.2fx)\n",
                  pass ? "ok  " : "FAIL", baseline->area().c_str(),
                  m.name.c_str(), f->value, m.value, ratio.raw,
                  ratio.normalised);
      if (!pass) {
        std::snprintf(line, sizeof(line),
                      "%-12s %-28s baseline %.4g fresh %.4g raw %.2fx "
                      "norm %.2fx",
                      baseline->area().c_str(), m.name.c_str(), m.value,
                      f->value, ratio.raw, ratio.normalised);
        failures.emplace_back(line);
      }
    }
  }

  if (!failures.empty()) {
    std::printf("bench_check: %zu failure(s) against the %.0f%% drop "
                "threshold:\n",
                failures.size(), max_drop * 100.0);
    for (const auto& f : failures) std::printf("  FAIL %s\n", f.c_str());
    return 1;
  }
  std::printf("bench_check: all gated metrics within threshold\n");
  return 0;
}
