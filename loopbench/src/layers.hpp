// Per-layer metrics of one fleet loop, derived from its trace spans and
// the runtime's own outcome records (README.md, "Per-layer metrics").
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet.hpp"
#include "trace.hpp"

namespace lb {

/// Samples per metric; a run reports each metric's median.
class Series {
 public:
  void add(const std::string& name, double v, const std::string& unit) {
    Samples& s = s_[name];
    s.unit = unit;
    s.values.push_back(v);
  }
  /// Adds every metric's median to `report`.
  void report_medians(Report& report) const;

 private:
  struct Samples {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, Samples> s_;
};

/// Adds one traced loop's per-layer samples to `out`. `threads` holds
/// the loop's spans, one list per recording thread.
void add_loop_layers(const LoopRun& run,
                     const std::vector<std::vector<Span>>& threads,
                     Series& out);

}  // namespace lb
