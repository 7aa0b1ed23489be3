#include "loop_runner.hpp"

#include <iostream>

#include "lss/mp/buffer_pool.hpp"

namespace lb {

namespace {

/// Checks that the union of the workers' executed ranges covers
/// [0, total) exactly once.
bool covered_once(const LoopRun& run, long long total, std::string& why) {
  std::vector<unsigned char> seen(static_cast<std::size_t>(total), 0);
  for (const auto& w : run.workers)
    for (const lss::Range& r : w.executed)
      for (lss::Index i = r.begin; i < r.end; ++i) {
        if (i < 0 || i >= total || seen[static_cast<std::size_t>(i)]++ != 0) {
          why = "iteration " + std::to_string(i) + " executed twice or out of range";
          return false;
        }
      }
  for (long long i = 0; i < total; ++i)
    if (seen[static_cast<std::size_t>(i)] == 0) {
      why = "iteration " + std::to_string(i) + " never executed";
      return false;
    }
  return true;
}

/// Back-to-back loop throughput: the median over blocks of 8
/// consecutive loops of loops / Σ their walls.
double loops_per_s(const std::vector<double>& walls) {
  constexpr std::size_t kBlock = 8;
  std::vector<double> rates;
  for (std::size_t i = 0; i + kBlock <= walls.size(); i += kBlock) {
    double sum = 0.0;
    for (std::size_t k = i; k < i + kBlock; ++k) sum += walls[k];
    rates.push_back(static_cast<double>(kBlock) / sum);
  }
  if (rates.empty()) return 1.0 / median(walls);
  return median(rates);
}

}  // namespace

void drive(LoopWorkload& w, const Args& args, Report& report) {
  Tracer& tracer = Tracer::instance();
  FleetConfig fc = w.fleet();
  fc.traced = args.trace;
  const Fault fault = fault_from_string(args.fault);
  std::atomic<bool> armed{fault != Fault::None};

  // The run is split into sessions, each with a fresh workload and
  // fleet (new threads, endpoints and shm segments): its set-up is
  // timed, its warm-up loops are discarded, and it times loops for its
  // share of the run. Pooling the loops of several sessions averages
  // out what one placement of threads and memory happens to cost.
  std::vector<double> setup_s, walls, traced_walls, session_medians;
  Series layers;
  std::vector<std::vector<Span>> last;  // spans of the last traced loop
  double cpu_s = 0.0, ctx = 0.0;
  const Clock::time_point start = Clock::now();
  const int sessions = w.sessions();
  for (int session = 0; session < sessions; ++session) {
    const Clock::time_point t0 = Clock::now();
    w.construct();
    Fleet fleet(fc);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    LoopSpec spec = w.spec();
    spec.on_result = inject(std::move(spec.on_result), fault, armed);
    if (args.trace) spec.workload = std::make_shared<TracedWorkload>(spec.workload);
    const long long total = spec.workload->size();

    const auto one_loop = [&](bool traced) {
      w.before_loop();
      tracer.set_enabled(traced);
      LoopRun run = fleet.run(spec);
      tracer.set_enabled(false);
      if (!run.workers.empty()) inject(run.workers.front().executed, fault, armed);
      std::string why;
      bool ok = run.master.exactly_once();
      if (!ok) why = "master acknowledged the loop other than exactly once";
      if (ok) ok = covered_once(run, total, why);
      if (ok) ok = w.check(run, why);
      report.check(ok, w.name() + ": " + why);
      return run;
    };

    // The process warms up once (pools, page tables, caches); a later
    // session only needs its fresh fleet's first loop discarded.
    for (int i = 0; i < (session == 0 ? w.warmup() : 1); ++i) one_loop(false);
    const std::size_t first = walls.size();
    // The traced run alternates traced and untraced loops so
    // obs.trace_overhead compares like with like.
    const double until = args.seconds * (session + 1) / sessions;
    for (int i = 0;; ++i) {
      const bool traced = args.trace && i % 2 == 1;
      const Usage u0 = Usage::now();
      const LoopRun run = one_loop(traced);
      const Usage u1 = Usage::now();
      if (traced) {
        last = tracer.collect();
        add_loop_layers(run, last, layers);
        traced_walls.push_back(run.wall_s);
      } else {
        walls.push_back(run.wall_s);
        cpu_s += u1.cpu_s - u0.cpu_s;
        ctx += u1.ctx_switches - u0.ctx_switches;
      }
      if (i >= 1 && seconds_between(start, Clock::now()) >= until) break;
    }
    session_medians.push_back(median(std::vector<double>(
        walls.begin() + static_cast<std::ptrdiff_t>(first), walls.end())));
  }
  const double elapsed = seconds_between(start, Clock::now());
  const double wall = median(walls);

  if (!args.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("loop_wall_s", wall, "s");
    report.metric("job_latency_p50_ms", wall * 1e3, "ms");
    report.metric("jobs_per_s", loops_per_s(walls), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    std::cout << "loops timed: " << walls.size() << " in " << elapsed
              << " s over " << sessions << " sessions; loop wall quartiles "
              << quantile(walls, 0.25) << ' ' << wall << ' '
              << quantile(walls, 0.75) << " max " << quantile(walls, 1.0)
              << "; session medians";
    for (double m : session_medians) std::cout << ' ' << m;
    std::cout << "; set-up median " << median(setup_s) << '\n';
    return;
  }

  layers.report_medians(report);
  const double seq = w.run_layers(report);
  const double n = static_cast<double>(walls.size());
  report.metric("rt.speedup", seq / wall, "ratio");
  report.metric("mp.pool_parked",
                static_cast<double>(lss::mp::BufferPool::global().parked()),
                "count");
  report.metric("proc.cpu_s", cpu_s / n, "s");
  report.metric("proc.ctx_switches", ctx / n, "count");
  report.metric("job_latency_p99_ms", quantile(walls, 0.99) * 1e3, "ms");
  report.metric("obs.trace_overhead", median(traced_walls) / wall, "ratio");
  report.metric("obs.spans_dropped", static_cast<double>(tracer.dropped()),
                "count");
  Fold fold;
  std::vector<Span> sample;
  for (const auto& t : last) {
    fold.add(t);
    sample.insert(sample.end(), t.begin(), t.end());
  }
  const std::string path = args.out_dir + "/trace-" + w.name() + "-seed" +
                           std::to_string(args.seed) + ".json";
  if (write_trace(path, fold, sample, 100000, tracer.dropped()))
    std::cout << "trace of the last traced loop: " << path << '\n';
  std::cout << "loops: " << walls.size() << " untraced, "
            << traced_walls.size() << " traced\n";
}

}  // namespace lb
