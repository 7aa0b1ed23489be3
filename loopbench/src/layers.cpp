#include "layers.hpp"

#include <algorithm>

namespace lb {

void Series::report_medians(Report& report) const {
  for (const auto& [name, samples] : s_)
    report.metric(name, median(samples.values), samples.unit);
}

namespace {

/// Σ chunks the workers executed in `run`.
long long executed_chunks(const LoopRun& run) {
  long long n = 0;
  for (const auto& w : run.workers) n += static_cast<long long>(w.chunks);
  return n;
}

}  // namespace

void add_loop_layers(const LoopRun& run,
                     const std::vector<std::vector<Span>>& threads,
                     Series& out) {
  Fold fold;
  std::vector<double> send_ns, claim_ns;
  for (const auto& spans : threads) {
    fold.add(spans);
    for (const Span& s : spans) {
      if (s.name == Name::Send || s.name == Name::SendV)
        send_ns.push_back(s.dur_ns);
      else if (s.name == Name::FetchAdd)
        claim_ns.push_back(s.dur_ns);
    }
  }
  const auto sum = [&](Role role, std::initializer_list<Name> names) {
    SpanTotals t;
    for (Name n : names) {
      const SpanTotals& x = fold.at(role, n);
      t.count += x.count;
      t.total_s += x.total_s;
      t.arg_sum += x.arg_sum;
    }
    return t;
  };
  const auto sum_all = [&](std::initializer_list<Name> names) {
    SpanTotals t;
    for (Name n : names) {
      const SpanTotals x = fold.all(n);
      t.count += x.count;
      t.total_s += x.total_s;
      t.arg_sum += x.arg_sum;
    }
    return t;
  };

  const double chunks = std::max(1.0, static_cast<double>(executed_chunks(run)));
  const double p = static_cast<double>(run.workers.size());
  const double execute_s = fold.all(Name::Execute).total_s;
  const SpanTotals sends = sum_all({Name::Send, Name::SendV});
  const SpanTotals blocked =
      sum_all({Name::Recv, Name::RecvFor, Name::DrainEmpty});
  const SpanTotals master_blocked =
      sum(Role::Master, {Name::Recv, Name::RecvFor, Name::DrainEmpty});

  double wait_s = 0, comp_s = 0, stall_s = 0, stalls = 0;
  for (const auto& w : run.workers) {
    wait_s += w.times.t_wait;
    comp_s += w.times.t_comp;
    stalls += static_cast<double>(w.idle_gaps.size());
    for (double g : w.idle_gaps) stall_s += g;
  }
  const auto [lo, hi] =
      std::minmax_element(run.finish_s.begin(), run.finish_s.end());

  out.add("workload.execute_s", execute_s, "s");
  out.add("sched.chunks", chunks, "count");
  out.add("sched.replans", run.master.replans, "count");
  out.add("rt.master_busy_s",
          fold.at(Role::Master, Name::RunMaster).total_s - master_blocked.total_s, "s");
  out.add("rt.master_msgs_per_chunk",
          static_cast<double>(run.master.messages) / chunks, "msgs/chunk");
  out.add("rt.overhead_us_per_chunk",
          (p * run.wall_s - execute_s) / chunks * 1e6, "us");
  out.add("rt.worker_com_s",
          sum(Role::Worker, {Name::Send, Name::SendV}).total_s, "s");
  out.add("rt.worker_wait_s", wait_s, "s");
  out.add("rt.worker_comp_s", comp_s, "s");
  out.add("rt.stalls", stalls, "count");
  out.add("rt.stall_s", stall_s, "s");
  out.add("rt.imbalance", run.wall_s > 0 ? (*hi - *lo) / run.wall_s : 0.0, "ratio");
  out.add("rt.claim_ns", median(claim_ns), "ns");
  out.add("rt.claims_per_chunk",
          static_cast<double>(fold.all(Name::FetchAdd).count) / chunks, "claims/chunk");
  out.add("mp.frames_per_chunk", static_cast<double>(sends.count) / chunks, "frames/chunk");
  out.add("mp.bytes_per_chunk", sends.arg_sum / chunks, "B/chunk");
  out.add("mp.send_us_p50", median(send_ns) * 1e-3, "us");
  out.add("mp.recv_block_s", blocked.total_s, "s");
}

}  // namespace lb
