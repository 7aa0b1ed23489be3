// The run shape shared by the three loop workloads: several sessions,
// each timing its set-up, discarding warm-up loops, then timing loops
// back to back for its share of the run; every loop's output is checked.
#pragma once

#include <memory>
#include <string>

#include "common.hpp"
#include "fleet.hpp"
#include "layers.hpp"

namespace lb {

class LoopWorkload {
 public:
  virtual ~LoopWorkload() = default;
  virtual std::string name() const = 0;
  virtual FleetConfig fleet() const = 0;
  /// Sessions per run, each a fresh set-up (median reported as setup_s).
  virtual int sessions() const = 0;
  /// Loops discarded before timing in the first session (later sessions
  /// discard one); checked all the same.
  virtual int warmup() const = 0;
  /// Builds the loop's inputs; timed as part of every set-up.
  virtual void construct() = 0;
  /// The loop every run() serves (valid after construct()).
  virtual LoopSpec spec() = 0;
  /// Untimed preparation of one loop (clearing result buffers).
  virtual void before_loop() {}
  /// Checks one loop's output; false (with `why`) counts it as failed.
  virtual bool check(const LoopRun& run, std::string& why) = 0;
  /// Run-level per-layer metrics that need no loop (single-thread
  /// baselines, scheduler plan cost); returns seq_loop_s.
  virtual double run_layers(Report& report) = 0;
};

void drive(LoopWorkload& w, const Args& args, Report& report);

}  // namespace lb
