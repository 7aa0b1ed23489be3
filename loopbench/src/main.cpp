// loopbench: the repository's end-to-end benchmark (README.md here).
//
//   loopbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--fault none|corrupt|drop] [--out-dir DIR]
//             [--sha GIT_SHA]
//
// Prints host and run facts, then one JSON line as the last line of
// standard output: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exits 0 only when every checked operation was correct.
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <iostream>
#include <string>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using lb::MetricDef;

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},    {"loop_wall_s", "s"}, {"job_latency_p50_ms", "ms"},
    {"jobs_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"workload.execute_s", "s"},
    {"workload.ns_per_pixel", "ns"},
    {"workload.seq_loop_s", "s"},
    {"workload.escape_iters", "count"},
    {"workload.construct_s", "s"},
    {"sched.chunks", "count"},
    {"sched.replans", "count"},
    {"sched.plan_ns_per_chunk", "ns"},
    {"rt.master_busy_s", "s"},
    {"rt.master_msgs_per_chunk", "msgs/chunk"},
    {"rt.overhead_us_per_chunk", "us"},
    {"rt.worker_com_s", "s"},
    {"rt.worker_wait_s", "s"},
    {"rt.worker_comp_s", "s"},
    {"rt.stalls", "count"},
    {"rt.stall_s", "s"},
    {"rt.imbalance", "ratio"},
    {"rt.speedup", "ratio"},
    {"rt.claim_ns", "ns"},
    {"rt.claims_per_chunk", "claims/chunk"},
    {"mp.frames_per_chunk", "frames/chunk"},
    {"mp.bytes_per_chunk", "B/chunk"},
    {"mp.send_us_p50", "us"},
    {"mp.recv_block_s", "s"},
    {"mp.pool_parked", "count"},
    {"job_latency_p99_ms", "ms"},
    {"svc.admit_ms_p50", "ms"},
    {"svc.queued_ms_p50", "ms"},
    {"svc.queued_ms_p99", "ms"},
    {"svc.active_ms_p50", "ms"},
    {"svc.backlog_max", "count"},
    {"svc.gen_lag_ms_p99", "ms"},
    {"svc.chunks_per_job", "chunks/job"},
    {"proc.cpu_s", "s"},
    {"proc.ctx_switches", "count"},
    {"obs.trace_overhead", "ratio"},
    {"obs.spans_dropped", "count"},
};

int usage(const std::string& why) {
  std::cerr << "loopbench: " << why
            << "\nusage: loopbench --workload mandel_hetero|chunks_mediated|"
               "chunks_masterless|svc_open [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--fault none|corrupt|drop] "
               "[--out-dir DIR] [--sha SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  lb::Args args;
  std::string sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") args.workload = value();
      else if (a == "--seed") args.seed = std::stoull(value());
      else if (a == "--seconds") args.seconds = std::stod(value());
      else if (a == "--trace") args.trace = value() == "1";
      else if (a == "--smoke") args.smoke = true;
      else if (a == "--fault") args.fault = value();
      else if (a == "--out-dir") args.out_dir = value();
      else if (a == "--sha") sha = value();
      else return usage("unknown argument " + a);
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (args.seconds <= 0) return usage("--seconds must be positive");

  // The fleets run three worker threads beside the master (svc_open:
  // two pool workers, the service and the generator): four in all.
  const int cores = lb::online_cores();
  if (cores < 4)
    return usage("needs 4 online cores for its 4 threads, found " +
                 std::to_string(cores));

  // A fixed mmap threshold: blocks of 128 KiB and up are mapped and
  // unmapped with their data, so peak_rss_mb follows what the run keeps
  // live, not how glibc's adaptive threshold happened to move.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  lb::install_shm_cleanup();
  // Watchdog: a hung loop must not outlive the caller's deadline.
  // SIGALRM ends the process through the shm cleanup handler.
  alarm(static_cast<unsigned>(2 * args.seconds + 60));

  std::cout << "loopbench: workload=" << args.workload << " seed=" << args.seed
            << " trace=" << args.trace << " sha=" << sha << " cores=" << cores
            << " cpu=\"" << lb::cpu_model() << "\"" << std::endl;
  if (args.trace) {
    ::mkdir(args.out_dir.c_str(), 0755);
    // Spans per thread per traced loop; the chunk loops record a few
    // per iteration, the service a few per pool message.
    lb::Tracer::instance().set_capacity(args.workload == "mandel_hetero"
                                            ? (1u << 16)
                                            : (1u << 21));
  }

  lb::Report report;
  try {
    if (args.workload == "mandel_hetero")
      lb::run_mandel_hetero(args, report);
    else if (args.workload == "chunks_mediated")
      lb::run_chunks(args, report, false);
    else if (args.workload == "chunks_masterless")
      lb::run_chunks(args, report, true);
    else if (args.workload == "svc_open")
      lb::run_svc_open(args, report);
    else
      return usage("unknown workload '" + args.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "loopbench: " << args.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }
  const std::string err =
      report.conform(args.trace ? kPerLayer : kEndToEnd, args.trace);
  if (!err.empty()) {
    std::cerr << "loopbench: metric set is wrong:" << err << '\n';
    return 1;
  }
  std::cout << report.json() << std::endl;
  return report.failed() == 0 ? 0 : 1;
}
