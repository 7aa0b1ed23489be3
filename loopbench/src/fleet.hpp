// A resident master + worker-thread fleet over a real transport.
//
// Fleet opens the master endpoint on the calling thread, starts one
// thread per worker that connects its own endpoint (TCP loopback, as
// lss_master's default, or shm rings), and completes the handshake.
// run() then drives one loop: the calling thread runs rt::run_master
// while every worker runs rt::run_worker_loop (or the masterless worker
// loop) on its endpoint; the endpoints stay open between loops, so
// set-up is paid once per fleet and every timed loop sees the same
// connections.
#pragma once

#include <atomic>
#include <barrier>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "decorators.hpp"
#include "lss/api/desc.hpp"
#include "lss/cluster/load.hpp"
#include "lss/mp/transport.hpp"
#include "lss/rt/master.hpp"
#include "lss/rt/worker.hpp"
#include "lss/workload/workload.hpp"

namespace lb {

struct FleetConfig {
  std::string transport = "tcp";  ///< "tcp" | "shm"
  int workers = 3;
  /// Wrap every endpoint (and masterless counter) in a tracing
  /// decorator; spans are recorded only while the Tracer is enabled.
  bool traced = false;
};

/// One loop: what the master schedules and what each worker is.
struct LoopSpec {
  lss::SchedulerDesc scheduler;
  std::shared_ptr<lss::Workload> workload;  ///< shared by every worker
  /// Per worker id (empty = 1.0 / dedicated / 1.0).
  std::vector<double> speeds;
  std::vector<lss::cluster::LoadScript> loads;
  std::vector<double> acps;
  bool masterless = false;
  std::function<void(lss::Range, lss::mp::PayloadWriter&)> result_into;
  OnResult on_result;
};

struct LoopRun {
  lss::rt::MasterOutcome master;
  std::vector<lss::rt::WorkerLoopResult> workers;  ///< by worker id
  std::vector<double> finish_s;  ///< worker loop end, since loop start
  double wall_s = 0.0;           ///< loop start to the last worker's end
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Runs one loop to completion. Throws when a worker failed.
  LoopRun run(const LoopSpec& spec);

 private:
  void worker_main(int slot);

  FleetConfig cfg_;
  std::unique_ptr<lss::mp::Transport> master_;
  std::unique_ptr<TracedTransport> traced_master_;
  std::string endpoint_;  ///< tcp port or shm segment name
  std::barrier<> start_;
  std::barrier<> done_;
  // Written by the calling thread before start_, read by workers after.
  const LoopSpec* spec_ = nullptr;
  std::string counter_name_;
  bool exit_ = false;
  // Written by worker w before done_, read by the caller after.
  std::vector<lss::rt::WorkerLoopResult> results_;
  std::vector<Clock::time_point> finished_;
  std::vector<std::string> errors_;
  std::vector<std::thread> threads_;  // last: joined before the above die
};

}  // namespace lb
