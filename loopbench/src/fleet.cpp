#include "fleet.hpp"

#include <stdexcept>

#include "lss/mp/shm_transport.hpp"
#include "lss/mp/tcp.hpp"
#include "lss/rt/counter.hpp"

namespace lb {

namespace {

// Fault detection stays off (the run_threaded default: threads do not
// die), so endpoints need no heartbeat thread and the fleet runs
// exactly one thread per PE. A hung loop is caught by the process
// watchdog instead (main.cpp).
lss::mp::TcpOptions tcp_options() {
  lss::mp::TcpOptions o;
  o.heartbeat_period = std::chrono::milliseconds(0);
  o.liveness_timeout = std::chrono::milliseconds(0);
  return o;
}

lss::mp::ShmOptions shm_options() {
  lss::mp::ShmOptions o;
  o.heartbeat_period = std::chrono::milliseconds(0);
  o.liveness_timeout = std::chrono::milliseconds(0);
  return o;
}

template <typename T>
T at_or(const std::vector<T>& v, std::size_t i, T fallback) {
  return i < v.size() ? v[i] : fallback;
}

}  // namespace

Fleet::Fleet(FleetConfig config)
    : cfg_(std::move(config)),
      start_(cfg_.workers + 1),
      done_(cfg_.workers + 1),
      results_(static_cast<std::size_t>(cfg_.workers)),
      finished_(static_cast<std::size_t>(cfg_.workers)),
      errors_(static_cast<std::size_t>(cfg_.workers)) {
  Tracer::instance().bind(Role::Master);
  std::function<void()> accept;
  if (cfg_.transport == "shm") {
    auto t = std::make_unique<lss::mp::ShmMasterTransport>(
        shm_name("ring"), cfg_.workers, shm_options());
    endpoint_ = t->name();
    accept = [raw = t.get()] { raw->accept_workers(); };
    master_ = std::move(t);
  } else if (cfg_.transport == "tcp") {
    auto t = std::make_unique<lss::mp::TcpMasterTransport>(0, cfg_.workers,
                                                           tcp_options());
    endpoint_ = std::to_string(t->port());
    accept = [raw = t.get()] { raw->accept_workers(); };
    master_ = std::move(t);
  } else {
    throw std::invalid_argument("unknown transport " + cfg_.transport);
  }
  if (cfg_.traced) traced_master_ = std::make_unique<TracedTransport>(*master_);
  for (int s = 0; s < cfg_.workers; ++s)
    threads_.emplace_back([this, s] { worker_main(s); });
  try {
    accept();
  } catch (...) {
    exit_ = true;
    start_.arrive_and_wait();
    for (std::thread& t : threads_) t.join();
    throw;
  }
}

Fleet::~Fleet() {
  exit_ = true;
  start_.arrive_and_wait();
  for (std::thread& t : threads_) t.join();
}

void Fleet::worker_main(int slot) {
  Tracer::instance().bind(Role::Worker);
  const auto ss = static_cast<std::size_t>(slot);
  std::unique_ptr<lss::mp::Transport> endpoint;
  int rank = 0;
  try {
    if (cfg_.transport == "shm") {
      auto t = std::make_unique<lss::mp::ShmWorkerTransport>(endpoint_,
                                                             shm_options());
      rank = t->rank();
      endpoint = std::move(t);
    } else {
      auto t = std::make_unique<lss::mp::TcpWorkerTransport>(
          "127.0.0.1", static_cast<std::uint16_t>(std::stoi(endpoint_)),
          tcp_options());
      rank = t->rank();
      endpoint = std::move(t);
    }
  } catch (const std::exception& e) {
    errors_[ss] = std::string("connect: ") + e.what();
  }
  std::unique_ptr<TracedTransport> traced;
  if (endpoint && cfg_.traced) traced = std::make_unique<TracedTransport>(*endpoint);
  lss::mp::Transport* t = traced ? traced.get() : endpoint.get();

  for (;;) {
    start_.arrive_and_wait();
    if (exit_) break;
    if (t != nullptr) {
      const LoopSpec& spec = *spec_;
      const int w = rank - 1;
      const auto sw = static_cast<std::size_t>(w);
      lss::rt::WorkerLoopConfig wc;
      wc.worker = w;
      wc.acp = at_or(spec.acps, sw, 1.0);
      wc.relative_speed = at_or(spec.speeds, sw, 1.0);
      wc.load = at_or(spec.loads, sw, lss::cluster::LoadScript{});
      wc.workload = spec.workload;
      wc.result_into = spec.result_into;
      try {
        Scope span(Name::RunWorkerLoop);
        if (spec.masterless) {
          lss::rt::MasterlessWorkerConfig mwc;
          mwc.loop = wc;
          mwc.scheduler = spec.scheduler;
          mwc.total = spec.workload->size();
          mwc.num_workers = cfg_.workers;
          std::shared_ptr<lss::rt::TicketCounter> counter =
              lss::rt::ShmTicketCounter::attach(counter_name_);
          if (cfg_.traced)
            counter = std::make_shared<TracedCounter>(std::move(counter));
          mwc.counter = std::move(counter);
          results_[sw] = lss::rt::run_masterless_worker(*t, mwc);
        } else {
          results_[sw] = lss::rt::run_worker_loop(*t, wc);
        }
      } catch (const std::exception& e) {
        errors_[ss] = e.what();
      }
      finished_[sw] = Clock::now();
    }
    done_.arrive_and_wait();
  }
}

LoopRun Fleet::run(const LoopSpec& spec) {
  for (const std::string& e : errors_)
    if (!e.empty()) throw std::runtime_error("worker failed: " + e);
  lss::rt::MasterConfig mc;
  mc.scheduler = spec.scheduler;
  mc.total = spec.workload->size();
  mc.num_workers = cfg_.workers;
  mc.on_result = spec.on_result;
  if (spec.masterless) {
    // A fresh cursor per loop: the counter is monotone and knows
    // nothing about plans.
    std::shared_ptr<lss::rt::ShmTicketCounter> counter =
        lss::rt::ShmTicketCounter::create(shm_name("ctr"));
    counter_name_ = counter->name();
    mc.masterless = true;
    mc.counter = std::move(counter);
  }
  spec_ = &spec;
  lss::mp::Transport& t =
      traced_master_ ? *traced_master_ : *master_;

  LoopRun out;
  const Clock::time_point t0 = Clock::now();
  start_.arrive_and_wait();
  {
    Scope span(Name::RunMaster);
    out.master = lss::rt::run_master(t, mc);
  }
  done_.arrive_and_wait();

  out.workers = std::move(results_);
  results_.assign(static_cast<std::size_t>(cfg_.workers), {});
  for (const Clock::time_point& f : finished_) {
    out.finish_s.push_back(seconds_between(t0, f));
    out.wall_s = std::max(out.wall_s, out.finish_s.back());
  }
  spec_ = nullptr;
  for (const std::string& e : errors_)
    if (!e.empty()) throw std::runtime_error("worker failed: " + e);
  return out;
}

}  // namespace lb
