// Unified counter registry: one walkable name -> value view over the
// counter families a run reports. harness::ScenarioMetrics::RegisterInto
// fills it under "<csv section>.<csv column>" keys; the CSV's single-row
// sections, Summary() and the Chrome trace export all render from those
// entries, so no renderer names a counter itself.
//
// Entries keep insertion order so every rendered view is deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace scallop::obs {

class StatsRegistry {
 public:
  // Registers or overwrites a counter. Insertion order is preserved;
  // re-setting an existing name updates it in place.
  void Set(const std::string& name, uint64_t value);

  // Returns the value, or 0 when the name was never registered.
  uint64_t Get(const std::string& name) const;

  const std::vector<std::pair<std::string, uint64_t>>& entries() const {
    return entries_;
  }

  // One "name=value" line per entry, in registration order.
  std::string ToText() const;

 private:
  std::vector<std::pair<std::string, uint64_t>> entries_;
};

}  // namespace scallop::obs
