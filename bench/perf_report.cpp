#include "perf_report.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace scallop::bench {
namespace {

// Emits doubles with enough digits to round-trip, but prints integral
// values without a trailing ".000000" so params stay readable.
std::string FormatNumber(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v > -1e15 && v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

// Pulls the value of `"key": <tok>` out of a single JSON line. Supports
// exactly the output of ToJson(); not a general parser.
bool ExtractField(const std::string& line, const std::string& key,
                  std::string* out) {
  std::string needle = "\"" + key + "\": ";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  size_t end;
  if (pos < line.size() && line[pos] == '"') {
    ++pos;
    end = line.find('"', pos);
    if (end == std::string::npos) return false;
  } else {
    end = line.find_first_of(",}", pos);
    if (end == std::string::npos) return false;
  }
  *out = line.substr(pos, end - pos);
  return true;
}

}  // namespace

void PerfReport::AddMetric(const std::string& name, double value,
                           const std::string& unit, bool higher_is_better) {
  metrics_.push_back(PerfMetric{name, value, unit, higher_is_better});
}

void PerfReport::AddParam(const std::string& name, double value) {
  params_.push_back(PerfParam{name, value});
}

const PerfMetric* PerfReport::FindMetric(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::optional<double> CanaryOf(const PerfReport& report) {
  if (report.area() != kCanaryArea) return std::nullopt;
  const PerfMetric* m = report.FindMetric(kCanaryMetric);
  if (m == nullptr || !(m->value > 0.0)) return std::nullopt;
  return m->value;
}

GateRatio RatioAgainstBaseline(const std::string& area, double baseline,
                               double fresh, double baseline_canary,
                               double fresh_canary) {
  GateRatio r;
  r.raw = baseline > 0.0 ? fresh / baseline : 1.0;
  r.normalised =
      area == kCanaryArea ? r.raw : r.raw * baseline_canary / fresh_canary;
  return r;
}

std::string PerfReport::ToJson() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"scallop-bench-v1\",\n";
  out << "  \"area\": \"" << area_ << "\",\n";
  out << "  \"metrics\": [\n";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    out << "    {\"name\": \"" << m.name << "\", \"value\": "
        << FormatNumber(m.value) << ", \"unit\": \"" << m.unit
        << "\", \"higher_is_better\": " << (m.higher_is_better ? "true" : "false")
        << "}" << (i + 1 < metrics_.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"params\": [\n";
  for (size_t i = 0; i < params_.size(); ++i) {
    out << "    {\"name\": \"" << params_[i].name << "\", \"value\": "
        << FormatNumber(params_[i].value) << "}"
        << (i + 1 < params_.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

std::string PerfReport::WriteJson() const {
  const char* dir = std::getenv("SCALLOP_BENCH_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0')
                         ? std::string(dir) + "/BENCH_" + area_ + ".json"
                         : "BENCH_" + area_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perf_report: cannot write %s\n", path.c_str());
    return "";
  }
  out << ToJson();
  std::printf("wrote %s\n", path.c_str());
  return path;
}

std::optional<PerfReport> PerfReport::Parse(const std::string& json) {
  std::istringstream in(json);
  std::string line;
  std::optional<PerfReport> report;
  bool in_metrics = false;
  bool in_params = false;
  bool saw_schema = false;
  while (std::getline(in, line)) {
    std::string value;
    if (ExtractField(line, "schema", &value)) {
      if (value != "scallop-bench-v1") return std::nullopt;
      saw_schema = true;
    } else if (ExtractField(line, "area", &value)) {
      report.emplace(value);
    } else if (line.find("\"metrics\"") != std::string::npos) {
      in_metrics = true;
      in_params = false;
    } else if (line.find("\"params\"") != std::string::npos) {
      in_params = true;
      in_metrics = false;
    } else if (ExtractField(line, "name", &value)) {
      if (!report) return std::nullopt;
      std::string value_str;
      if (!ExtractField(line, "value", &value_str)) return std::nullopt;
      double num = std::strtod(value_str.c_str(), nullptr);
      if (in_metrics) {
        std::string unit, hib;
        if (!ExtractField(line, "unit", &unit)) return std::nullopt;
        if (!ExtractField(line, "higher_is_better", &hib)) return std::nullopt;
        report->AddMetric(value, num, unit, hib == "true");
      } else if (in_params) {
        report->AddParam(value, num);
      }
    }
  }
  if (!report || !saw_schema) return std::nullopt;
  return report;
}

}  // namespace scallop::bench
