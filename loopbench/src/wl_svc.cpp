// svc_open: a resident svc::Service with a pool of two workers, its
// tenant transport TCP loopback as in lss_serve, driven by one generator
// thread holding two tenant connections (four threads in all).
//
// Phase A is an open loop: seeded Poisson arrivals at a fixed rate of
// about half the pool's capacity, each job timed from its due time to
// its result. The generator speaks the svc/protocol codecs directly, so
// it never blocks on one job. Phase B is a closed loop that saturates
// the pool: each tenant keeps a bounded number of jobs outstanding,
// below the service's max_queued.
//
// The seeded job mix: small kernel=auto Mandelbrot jobs under tss,
// irregular jobs under masterless css, and dtss jobs planned for
// heterogeneous speeds, each at one of two priorities.
#include <array>
#include <deque>
#include <exception>
#include <iostream>
#include <thread>
#include <unordered_map>

#include "decorators.hpp"
#include "lss/api/scheduler.hpp"
#include "lss/mp/buffer_pool.hpp"
#include "lss/mp/message.hpp"
#include "lss/mp/tcp.hpp"
#include "lss/rt/job.hpp"
#include "lss/support/prng.hpp"
#include "lss/svc/protocol.hpp"
#include "lss/svc/service.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace lb {

namespace {

constexpr int kTenants = 2;
constexpr int kPoolWorkers = 2;
/// Phase A arrival rate, jobs/s: a third of the closed-loop capacity
/// phase B measured (about 530 jobs/s on a 4-core Xeon) when it was
/// set. Half of it was not stable there: a host stall of tens of ms
/// built a backlog that the service's admission, which scans the whole
/// queue per job, did not work off again.
constexpr double kArrivalRate = 160.0;
/// Jobs per run second: phase A's count (never under 1152, so the p99
/// has ten samples beyond it) and phase B's, which together last about
/// the run's seconds at that capacity. Counts, not durations, bound the
/// phases so every run holds the same number of jobs in memory.
constexpr int kPhaseAJobsPerSecond = 50;
constexpr int kPhaseBJobsPerSecond = 300;
constexpr int kPhaseBBlocks = 8;
constexpr int kSessions = 4;  // divides both block counts
/// Phase A's medians are medians of this many consecutive blocks of
/// whole decks (see Mix).
constexpr int kPhaseABlocks = 8;
constexpr int kTenantWindow = 4;   // phase B: outstanding jobs per tenant
constexpr auto kNap = std::chrono::microseconds(50);  // idle generator
/// Submit-queue bound. Far above what the open loop's rate needs, so a
/// host hiccup shows as queueing latency rather than QueueFull refusals.
constexpr int kMaxQueued = 1024;

lss::mp::TcpOptions tcp_options() {
  lss::mp::TcpOptions o;
  o.heartbeat_period = std::chrono::milliseconds(0);
  o.liveness_timeout = std::chrono::milliseconds(0);
  return o;
}

struct Job {
  std::string json;
  lss::Index size = 0;  ///< iterations of the job's loop
  int tenant = 0;       ///< generator connection 0 or 1
  int kind = 0;         ///< Mandelbrot, irregular or peaked
  bool phase_a = false;  ///< counted in the phase A statistics
  Clock::time_point due{}, sent{}, admitted{}, done{};
  std::int64_t id = -1;
  bool finished = false;
  bool ok = false;
  std::string why;
  double t_queued = 0.0, t_active = 0.0;
  double chunks = 0.0;
};

/// The seeded job mix, dealt from shuffled decks of kDeck jobs that
/// hold every (kind, priority) pair equally often: the seed changes the
/// order and the inputs, never the proportions, so a median over whole
/// decks does not move with the seed's luck.
class Mix {
 public:
  static constexpr int kKinds = 3;
  static constexpr int kDeck = kKinds * 2 * 4;

  Mix(std::uint64_t seed, bool smoke) : rng_(seed), smoke_(smoke) {}

  Job next() {
    if (deck_.empty()) {
      for (int c = 0; c < kDeck; ++c) deck_.push_back(c % (kKinds * 2));
      for (std::size_t i = deck_.size() - 1; i > 0; --i)
        std::swap(deck_[i], deck_[static_cast<std::size_t>(
                                rng_.next_int(0, static_cast<std::int64_t>(i)))]);
    }
    const int card = deck_.back();
    deck_.pop_back();
    lss::rt::JobSpec spec;
    spec.priority = card / kKinds;
    Job j;
    j.kind = card % kKinds;
    // Each kind takes a few ms: long enough that thread wake-ups do not
    // decide a job's time. Few iterations of real weight each: the
    // service keeps every finished job's loop in memory, so many small
    // iterations would measure that growth instead of scheduling.
    switch (j.kind) {
      case 0:
        spec.scheduler = lss::SchedulerDesc("tss");
        spec.relative_speeds = {1.0, 1.0};
        j.size = smoke_ ? 32 : 64;
        spec.workload = "mandelbrot:width=" + std::to_string(j.size) +
                        ",height=128,max_iter=1600,kernel=auto";
        break;
      case 1:
        spec.scheduler = lss::SchedulerDesc("css:k=64");
        spec.relative_speeds = {1.0, 1.0};
        spec.masterless = true;
        j.size = smoke_ ? 256 : 512;
        spec.workload = "irregular:n=" + std::to_string(j.size) +
                        ",mu=8.4,sigma=1,seed=" +
                        std::to_string(rng_.next_int(1, 1 << 30));
        break;
      default:
        spec.scheduler = lss::SchedulerDesc("dtss");
        spec.relative_speeds = {1.0, 0.5};
        j.size = smoke_ ? 256 : 512;
        spec.workload = "peaked:n=" + std::to_string(j.size) +
                        ",base=3200,amplitude=24000,center=" +
                        std::to_string(0.2 + 0.6 * rng_.next_double()) +
                        ",width=0.1";
        break;
    }
    j.tenant = static_cast<int>(rng_.next_int(0, kTenants - 1));
    j.json = spec.to_json();
    return j;
  }

  double next_gap_s() { return rng_.next_exponential(1.0 / kArrivalRate); }

 private:
  lss::Xoshiro256 rng_;
  bool smoke_;
  std::vector<int> deck_;
};

/// The generator's side of both tenant connections.
class Generator {
 public:
  Generator(std::array<lss::mp::Transport*, kTenants> t,
            std::array<int, kTenants> rank)
      : t_(t), rank_(rank) {}

  /// Self-test hook: drops one chunk from the first result's record.
  Fault fault = Fault::None;
  std::atomic<bool> armed{false};

  std::vector<Job> jobs;
  std::function<void(std::size_t)> on_done;
  std::size_t outstanding = 0;

  void submit(std::size_t idx) {
    Job& j = jobs[idx];
    lss::mp::PayloadWriter w;
    w.put_string(j.json);
    j.sent = Clock::now();
    t_[j.tenant]->send(rank_[j.tenant], 0, lss::svc::kTagJobSubmit, w.take());
    awaiting_verdict_[j.tenant].push_back(idx);
    ++outstanding;
  }

  /// Handles everything queued on both connections. The generator
  /// polls, napping briefly when nothing came: a TCP endpoint waits in
  /// whole milliseconds, and a blocking wait on one connection would
  /// delay results arriving on the other. Returns whether anything came.
  bool pump() {
    bool any = false;
    for (int k = 0; k < kTenants; ++k) {
      t_[k]->drain_into(rank_[k], ready_, 0);
      for (lss::mp::Message& m : ready_) handle(k, m);
      any = any || !ready_.empty();
    }
    return any;
  }

  /// pump(), then a nap of at most kNap (never past `until`) when
  /// nothing came, so an idle generator leaves its core to the others.
  void pump_or_nap(Clock::time_point until = Clock::time_point::max()) {
    if (pump()) return;
    const Clock::time_point wake = std::min(until, Clock::now() + kNap);
    if (wake > Clock::now()) std::this_thread::sleep_until(wake);
  }

  void bye() {
    for (int k = 0; k < kTenants; ++k)
      t_[k]->send(rank_[k], 0, lss::svc::kTagSvcBye, {});
  }

 private:
  void finish(std::size_t idx) {
    jobs[idx].finished = true;
    --outstanding;
    if (on_done) on_done(idx);
  }

  void handle(int k, const lss::mp::Message& m) {
    Tracer& tracer = Tracer::instance();
    const Clock::time_point now = Clock::now();
    if (m.tag == lss::svc::kTagJobStatus) {
      const std::size_t idx = awaiting_verdict_[k].front();
      awaiting_verdict_[k].pop_front();
      Job& j = jobs[idx];
      j.admitted = now;
      tracer.record(Name::Submit, tracer.ns_of(j.sent), tracer.ns_of(now));
      const lss::svc::JobStatusMsg st = lss::svc::decode_status(m.payload);
      if (!st.ok()) {
        j.why = "rejected: " + st.message;
        finish(idx);
        return;
      }
      j.id = st.job_id;
      by_id_[st.job_id] = idx;
    } else if (m.tag == lss::svc::kTagJobResult) {
      lss::svc::JobResultMsg r = lss::svc::decode_result(m.payload);
      inject(r.executed, fault, armed);
      const auto it = by_id_.find(r.job_id);
      if (it == by_id_.end()) return;
      const std::size_t idx = it->second;
      by_id_.erase(it);
      Job& j = jobs[idx];
      j.done = now;
      tracer.record(Name::Result, tracer.ns_of(j.due), tracer.ns_of(now));
      j.t_queued = r.t_queued;
      j.t_active = r.t_active;
      j.chunks = static_cast<double>(r.chunks);
      j.ok = check(j, r);
      finish(idx);
    }
  }

  static bool check(Job& j, const lss::svc::JobResultMsg& r) {
    if (r.state != lss::svc::JobState::Done) {
      j.why = "job ended " + lss::svc::to_string(r.state);
      return false;
    }
    if (!r.exactly_once || r.iterations != j.size) {
      j.why = "job not covered exactly once";
      return false;
    }
    std::vector<unsigned char> seen(static_cast<std::size_t>(j.size), 0);
    for (const lss::Range& c : r.executed)
      for (lss::Index i = c.begin; i < c.end; ++i)
        if (i < 0 || i >= j.size || seen[static_cast<std::size_t>(i)]++) {
          j.why = "job chunk list overlaps or overruns";
          return false;
        }
    for (unsigned char s : seen)
      if (s == 0) {
        j.why = "job chunk list misses an iteration";
        return false;
      }
    return true;
  }

  std::array<lss::mp::Transport*, kTenants> t_;
  std::array<int, kTenants> rank_;
  std::deque<std::size_t> awaiting_verdict_[kTenants];
  std::unordered_map<std::int64_t, std::size_t> by_id_;
  std::vector<lss::mp::Message> ready_;
};

/// One service session: the calling thread serves, a generator thread
/// connects two tenants and runs `body`. Returns the set-up time, from
/// opening the tenant transport to the first reply of the live service.
double session(bool traced, Fault fault,
               const std::function<void(Generator&)>& body) {
  const Clock::time_point t0 = Clock::now();
  lss::mp::TcpMasterTransport master(0, kTenants, tcp_options());
  const std::uint16_t port = master.port();
  double setup_s = 0.0;
  std::exception_ptr error;
  std::thread gen([&] {
    try {
      Tracer::instance().bind(Role::Tenant);
      // The first tenant asks for the status of an unknown id before the
      // second connects, so the query is already queued when the
      // service starts: its answer, which the service's first pass
      // gives, marks it live without racing the idle poll.
      lss::mp::TcpWorkerTransport a("127.0.0.1", port, tcp_options());
      // The generator's empty polls are not spans (see Generator::pump).
      TracedTransport ta(a, false);
      lss::svc::JobStatusMsg q;
      q.job_id = 0;
      a.send(a.rank(), 0, lss::svc::kTagJobStatus, lss::svc::encode_status(q));
      lss::mp::TcpWorkerTransport b("127.0.0.1", port, tcp_options());
      TracedTransport tb(b, false);
      std::array<lss::mp::Transport*, kTenants> t{&a, &b};
      if (traced) t = {&ta, &tb};
      (void)a.recv(a.rank(), 0, lss::svc::kTagJobStatus);
      setup_s = seconds_between(t0, Clock::now());
      Generator g(t, {a.rank(), b.rank()});
      g.fault = fault;
      g.armed = fault != Fault::None;
      body(g);
      g.bye();
    } catch (...) {
      error = std::current_exception();
    }
  });
  try {
    master.accept_workers();
    // Only the tenants' endpoints are traced: the service polls its
    // tenant transport on every pass of its reactor, over a million
    // times a second under load, far more spans than a run can keep.
    lss::svc::ServiceConfig cfg;
    cfg.num_workers = kPoolWorkers;
    cfg.max_queued = kMaxQueued;
    lss::svc::Service service(cfg);
    service.run(master, kTenants);
  } catch (...) {
    if (!error) error = std::current_exception();
  }
  gen.join();
  if (error) std::rethrow_exception(error);
  return setup_s;
}

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

void run_svc_open(const Args& args, Report& report) {
  Tracer& tracer = Tracer::instance();
  // The phases run in several sessions, each a fresh service and fresh
  // connections, and their jobs are pooled: one session's placement of
  // threads does not decide the run. Set-up takes well under a
  // millisecond, so more set-ups than sessions are timed.
  const int sessions = args.smoke ? 1 : kSessions;
  const int setups = args.smoke ? 2 : 31;
  // Phase A per session: warm-up decks, then whole-deck blocks.
  const int block_decks =
      args.smoke ? 1
                 : std::max(6, static_cast<int>(kPhaseAJobsPerSecond * args.seconds /
                                                (Mix::kDeck * kPhaseABlocks)));
  const int warmup = (args.smoke ? 1 : 2) * Mix::kDeck;
  const int phase_a_jobs =
      warmup + kPhaseABlocks / sessions * block_decks * Mix::kDeck;
  const int b_blocks = (args.smoke ? 2 : kPhaseBBlocks) / sessions;
  const std::size_t block_jobs = static_cast<std::size_t>(
      args.smoke ? 100 : kPhaseBJobsPerSecond * args.seconds / kPhaseBBlocks);
  std::vector<double> setup_s;
  for (int i = 0; i < setups - sessions; ++i)
    setup_s.push_back(session(false, Fault::None, [](Generator&) {}));

  Mix mix(args.seed, args.smoke);
  std::vector<double> lat_ms, queued_ms, active_ms, admit_ms, lag_ms, chunks;
  std::size_t backlog_max = 0;
  std::vector<double> rates, traced_rates;
  double cpu = 0.0, ctx = 0.0, untraced_jobs = 0.0;
  // Traced run: phase A's spans (the tenants' endpoints, submits and
  // results) of every session.
  Fold fold;
  std::vector<double> send_ns;
  std::vector<Span> sample;  // the last session's phase A

  for (int s = 0; s < sessions; ++s) {
    std::uint64_t a_from = 0, a_to = 0;  // phase A, tracer clock
    const Fault fault = s == 0 ? fault_from_string(args.fault) : Fault::None;
    setup_s.push_back(session(args.trace, fault, [&](Generator& g) {
      // Phase A: open loop. Arrivals are laid out before the phase
      // starts; the first decks warm the service up and are left out
      // of the statistics (checked all the same).
      std::vector<double> due_s;
      double t = 0.0;
      for (int i = 0; i < phase_a_jobs; ++i) {
        g.jobs.push_back(mix.next());
        g.jobs.back().phase_a = i >= warmup;
        t += mix.next_gap_s();
        due_s.push_back(t);
      }
      const Clock::time_point a0 = Clock::now() + std::chrono::milliseconds(1);
      for (int i = 0; i < phase_a_jobs; ++i)
        g.jobs[static_cast<std::size_t>(i)].due =
            a0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(due_s[static_cast<std::size_t>(i)]));
      std::size_t done_a = 0;
      g.on_done = [&](std::size_t) { ++done_a; };
      tracer.set_enabled(args.trace);
      a_from = tracer.now_ns();
      std::size_t next = 0;
      while (done_a < g.jobs.size()) {
        const Clock::time_point now = Clock::now();
        while (next < g.jobs.size() && g.jobs[next].due <= now) g.submit(next++);
        backlog_max = std::max(backlog_max, g.outstanding);
        g.pump_or_nap(next < g.jobs.size() ? g.jobs[next].due
                                           : Clock::time_point::max());
      }
      a_to = tracer.now_ns();

      // Phase B: closed loop, each tenant keeps kTenantWindow jobs
      // outstanding, timed in blocks of block_jobs completions;
      // jobs_per_s is the median block rate. The traced run alternates
      // traced and untraced blocks, so obs.trace_overhead compares the
      // same load.
      std::size_t completed = 0;
      bool open = true;
      const auto add = [&](int tenant) {
        Job j = mix.next();
        j.tenant = tenant;
        j.due = Clock::now();
        g.jobs.push_back(std::move(j));
        g.submit(g.jobs.size() - 1);
      };
      g.on_done = [&](std::size_t idx) {
        ++completed;
        if (open) add(g.jobs[idx].tenant);
      };
      for (int k = 0; k < kTenants; ++k)
        for (int i = 0; i < kTenantWindow; ++i) add(k);
      for (int b = 0; b < b_blocks; ++b) {
        const bool traced = args.trace && b % 2 == 1;
        tracer.set_enabled(traced);
        const Clock::time_point b0 = Clock::now();
        const Usage u0 = Usage::now();
        const std::size_t c0 = completed;
        while (completed - c0 < block_jobs) g.pump_or_nap();
        const Usage u1 = Usage::now();
        const double n = static_cast<double>(completed - c0);
        (traced ? traced_rates : rates)
            .push_back(n / seconds_between(b0, Clock::now()));
        if (!traced) {
          cpu += u1.cpu_s - u0.cpu_s;
          ctx += u1.ctx_switches - u0.ctx_switches;
          untraced_jobs += n;
        }
      }
      open = false;
      tracer.set_enabled(false);
      while (g.outstanding > 0) g.pump_or_nap();

      for (Job& j : g.jobs) {
        report.check(j.ok, "svc_open: " + j.why);
        if (!j.phase_a || !j.ok) continue;
        lat_ms.push_back(ms(j.done - j.due));
        admit_ms.push_back(ms(j.admitted - j.sent));
        lag_ms.push_back(ms(j.sent - j.due));
        queued_ms.push_back(j.t_queued * 1e3);
        active_ms.push_back(j.t_active * 1e3);
        chunks.push_back(j.chunks);
      }
    }));
    if (!args.trace) continue;
    sample.clear();
    for (const auto& thread : tracer.collect()) {
      std::vector<Span> in_a;
      for (const Span& sp : thread)
        if (sp.start_ns >= a_from && sp.start_ns < a_to) in_a.push_back(sp);
      fold.add(in_a);
      for (const Span& sp : in_a)
        if (sp.name == Name::Send || sp.name == Name::SendV)
          send_ns.push_back(sp.dur_ns);
      sample.insert(sample.end(), in_a.begin(), in_a.end());
    }
  }
  const double rate_b = median(rates);
  std::cout << "svc_open: phase A " << lat_ms.size() << " jobs at "
            << kArrivalRate << "/s, backlog max " << backlog_max
            << "; phase B " << rate_b << " jobs/s\n";

  if (!args.trace) {
    report.metric("setup_s", median(setup_s), "s");
    // A job's time to solution where it is steadiest to measure: in the
    // saturated closed loop, by Little's law, the jobs each tenant keeps
    // outstanding over the throughput. (The phase A median of t_active,
    // svc.active_ms_p50, moved by 20-28% between runs of one commit.)
    report.metric("loop_wall_s", kTenants * kTenantWindow / rate_b, "s");
    report.metric("job_latency_p50_ms", block_median(lat_ms, kPhaseABlocks),
                  "ms");
    report.metric("jobs_per_s", rate_b, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Per-layer.
  double total_chunks = 0.0;
  for (double c : chunks) total_chunks += c;
  total_chunks = std::max(total_chunks, 1.0);
  const SpanTotals sends = [&] {
    SpanTotals t = fold.all(Name::Send);
    const SpanTotals v = fold.all(Name::SendV);
    t.count += v.count;
    t.arg_sum += v.arg_sum;
    return t;
  }();
  const double blocked = fold.all(Name::Recv).total_s +
                         fold.all(Name::RecvFor).total_s +
                         fold.all(Name::DrainEmpty).total_s;

  std::vector<double> plan_ns;
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point p0 = Clock::now();
    lss::Scheduler sched = lss::make_scheduler("tss", 64, kTenants);
    long long n = 0;
    for (int pe = 0; !sched.done(); pe = (pe + 1) % kTenants)
      n += sched.next(pe).size() > 0;
    plan_ns.push_back(seconds_between(p0, Clock::now()) * 1e9 /
                      static_cast<double>(n));
  }

  report.metric("sched.chunks", median(chunks), "count");
  report.metric("sched.plan_ns_per_chunk", median(plan_ns), "ns");
  report.metric("mp.frames_per_chunk", static_cast<double>(sends.count) / total_chunks,
                "frames/chunk");
  report.metric("mp.bytes_per_chunk", sends.arg_sum / total_chunks, "B/chunk");
  report.metric("mp.send_us_p50", median(send_ns) * 1e-3, "us");
  report.metric("mp.recv_block_s", blocked, "s");
  report.metric("mp.pool_parked",
                static_cast<double>(lss::mp::BufferPool::global().parked()),
                "count");
  report.metric("job_latency_p99_ms", quantile(lat_ms, 0.99), "ms");
  report.metric("svc.admit_ms_p50", median(admit_ms), "ms");
  report.metric("svc.queued_ms_p50", median(queued_ms), "ms");
  report.metric("svc.queued_ms_p99", quantile(queued_ms, 0.99), "ms");
  report.metric("svc.active_ms_p50", median(active_ms), "ms");
  report.metric("svc.backlog_max", static_cast<double>(backlog_max), "count");
  report.metric("svc.gen_lag_ms_p99", quantile(lag_ms, 0.99), "ms");
  report.metric("svc.chunks_per_job", median(chunks), "chunks/job");
  report.metric("proc.cpu_s", cpu / std::max(untraced_jobs, 1.0), "s");
  report.metric("proc.ctx_switches", ctx / std::max(untraced_jobs, 1.0), "count");
  report.metric("obs.trace_overhead", rate_b / median(traced_rates), "ratio");
  report.metric("obs.spans_dropped", static_cast<double>(tracer.dropped()),
                "count");
  const std::string path =
      args.out_dir + "/trace-svc_open-seed" + std::to_string(args.seed) + ".json";
  if (write_trace(path, fold, sample, 100000, tracer.dropped()))
    std::cout << "trace of phase A: " << path << '\n';
}

}  // namespace lb
