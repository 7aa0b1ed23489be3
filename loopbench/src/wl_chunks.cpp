// chunks_mediated / chunks_masterless: `ss` (one iteration per chunk)
// over seeded irregular iterations of sub-microsecond cost, on three
// worker threads over shm rings. The kernel does almost nothing, so a
// loop's wall time is the per-chunk scheduling overhead: the run_master
// reactor, codecs and mp frames when mediated; the shared ticket
// counter, janitor and batched reports when masterless.
#include <cmath>

#include "loop_runner.hpp"
#include "lss/api/scheduler.hpp"
#include "lss/workload/synthetic.hpp"
#include "workloads.hpp"

namespace lb {

namespace {

class ChunksWorkload final : public LoopWorkload {
 public:
  ChunksWorkload(const Args& args, bool masterless)
      : masterless_(masterless),
        seed_(args.seed),
        iterations_(args.smoke ? 20000 : kIterations),
        smoke_(args.smoke) {}

  std::string name() const override {
    return masterless_ ? "chunks_masterless" : "chunks_mediated";
  }
  FleetConfig fleet() const override { return {"shm", kWorkers, false}; }
  int sessions() const override { return smoke_ ? 2 : 6; }
  int warmup() const override { return smoke_ ? 1 : 3; }

  void construct() override { workload_ = make(); }

  LoopSpec spec() override {
    LoopSpec s;
    s.scheduler = lss::SchedulerDesc("ss");
    s.workload = workload_;
    s.masterless = masterless_;
    return s;
  }

  bool check(const LoopRun& run, std::string& why) override {
    if (run.master.completed_iterations == iterations_) return true;
    why = "master acknowledged " +
          std::to_string(run.master.completed_iterations) + " of " +
          std::to_string(iterations_) + " iterations";
    return false;
  }

  double run_layers(Report& report) override {
    std::vector<double> construct_s, seq_s, plan_ns;
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto w = make();
      construct_s.push_back(seconds_between(t0, Clock::now()));
    }
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point t0 = Clock::now();
      for (lss::Index k = 0; k < iterations_; ++k) workload_->execute(k);
      seq_s.push_back(seconds_between(t0, Clock::now()));

      const Clock::time_point p0 = Clock::now();
      lss::Scheduler sched = lss::make_scheduler("ss", iterations_, kWorkers);
      long long chunks = 0;
      for (int pe = 0; !sched.done(); pe = (pe + 1) % kWorkers)
        chunks += sched.next(pe).size() > 0;
      plan_ns.push_back(seconds_between(p0, Clock::now()) * 1e9 /
                        static_cast<double>(chunks));
    }
    // The default execute() spins ceil(cost) basic operations.
    double ops = 0.0;
    for (lss::Index k = 0; k < iterations_; ++k)
      ops += std::ceil(workload_->cost(k));
    const double seq = median(seq_s);
    report.metric("workload.ns_per_pixel", 0.0, "ns");
    report.metric("workload.seq_loop_s", seq, "s");
    report.metric("workload.escape_iters", ops, "count");
    report.metric("workload.construct_s", median(construct_s), "s");
    report.metric("sched.plan_ns_per_chunk", median(plan_ns), "ns");
    return seq;
  }

 private:
  static constexpr int kWorkers = 3;
  static constexpr lss::Index kIterations = 300000;

  std::shared_ptr<lss::Workload> make() const {
    // Log-normal costs exp(1 + 0.5 N(0,1)): a few ns each.
    return std::make_shared<lss::IrregularWorkload>(iterations_, 1.0, 0.5,
                                                    seed_);
  }

  bool masterless_;
  std::uint64_t seed_;
  lss::Index iterations_;
  bool smoke_;
  std::shared_ptr<lss::Workload> workload_;
};

}  // namespace

void run_chunks(const Args& args, Report& report, bool masterless) {
  ChunksWorkload w(args, masterless);
  drive(w, args, report);
}

}  // namespace lb
