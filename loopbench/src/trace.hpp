// In-memory span recorder for the traced run (README.md, "Reading the
// traced run").
//
// The decorators in decorators.hpp open a Scope around every call they
// forward into a layer of the program. A span is recorded into the
// calling thread's own buffer, which is reserved up front and never
// grows, so recording costs two clock reads and a store. When a buffer
// is full the span is counted as dropped instead (obs.spans_dropped,
// which the benchmark requires to be 0).
//
// Buffers are read only while every recording thread is parked (between
// loops, behind the fleet's barrier), so collect() needs no lock against
// the recorders themselves.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lb {

/// Who recorded a span: the side of the conversation its thread plays.
enum class Role : std::uint8_t { Master, Worker, Tenant, Other };

/// Span names; the layer each belongs to is layer_of(name).
enum class Name : std::uint16_t {
  Execute,        // workload: Workload::execute
  Send,           // mp: Transport::send
  SendV,          // mp: Transport::sendv
  Recv,           // mp: Transport::recv (blocking)
  RecvFor,        // mp: Transport::recv_for (bounded wait)
  TryRecv,        // mp: Transport::try_recv
  Drain,          // mp: Transport::drain_into that returned messages
  DrainEmpty,     // mp: Transport::drain_into that found nothing
  FetchAdd,       // rt: TicketCounter::fetch_add
  RunMaster,      // rt: run_master
  RunWorkerLoop,  // rt: run_worker_loop / run_masterless_worker
  Submit,         // svc: job submit -> admission verdict
  Result,         // svc: job due time -> terminal result
  kCount
};

const char* to_string(Name n);
const char* to_string(Role r);
const char* layer_of(Name n);

struct Span {
  std::uint64_t start_ns = 0;  ///< since the tracer's epoch
  std::uint32_t dur_ns = 0;
  std::uint32_t arg = 0;       ///< bytes sent, messages drained, ...
  Name name = Name::Execute;
  std::uint16_t depth = 0;     ///< nesting depth within its thread
  Role role = Role::Other;
};

struct SpanBuffer {
  Role role = Role::Other;
  std::vector<Span> spans;  ///< capacity fixed at registration
  std::uint64_t dropped = 0;
  std::uint16_t depth = 0;
  bool in_use = false;  ///< held by a live thread (guarded by Tracer::mu_)
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  static Tracer& instance();

  /// Spans per thread buffer; set before the first span is recorded.
  void set_capacity(std::size_t spans) { capacity_ = spans; }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Names the role of the calling thread's spans.
  void bind(Role role);

  /// The calling thread's buffer: on first use it takes a buffer a
  /// finished thread gave back, or registers a new one.
  SpanBuffer& local();
  /// Gives a finished thread's buffer back (its spans stay collectable).
  void release(SpanBuffer& buf);

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }
  std::uint64_t ns_of(Clock::time_point t) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count());
  }

  /// Records a span whose bounds were taken elsewhere (a generator
  /// timing a job from its due time to its result).
  void record(Name name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint32_t arg = 0);

  /// Moves every recorded span out, one list per thread in completion
  /// order, and empties the buffers. Callers guarantee no thread is
  /// recording.
  std::vector<std::vector<Span>> collect();
  std::uint64_t dropped() const;

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
  std::size_t capacity_ = 1u << 16;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;  // guards buffers_ and their in_use flags
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Times one forwarded call; inert when tracing is off.
class Scope {
 public:
  explicit Scope(Name name) : name_(name) {
    Tracer& t = Tracer::instance();
    if (!t.enabled()) return;
    buf_ = &t.local();
    depth_ = buf_->depth++;
    start_ = t.now_ns();
  }
  ~Scope() {
    if (buf_ == nullptr) return;
    const std::uint64_t end = Tracer::instance().now_ns();
    --buf_->depth;
    if (buf_->spans.size() == buf_->spans.capacity()) {
      ++buf_->dropped;
      return;
    }
    buf_->spans.push_back(Span{start_, static_cast<std::uint32_t>(end - start_),
                               arg_, name_, depth_, buf_->role});
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_name(Name name) { name_ = name; }
  /// Records nothing for this scope.
  void cancel() {
    if (buf_ != nullptr) --buf_->depth;
    buf_ = nullptr;
  }
  void set_arg(std::uint64_t arg) {
    arg_ = static_cast<std::uint32_t>(arg > 0xffffffffu ? 0xffffffffu : arg);
  }

 private:
  SpanBuffer* buf_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint32_t arg_ = 0;
  Name name_;
  std::uint16_t depth_ = 0;
};

/// Per-name totals over a set of spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< Σ duration
  double self_s = 0.0;   ///< Σ duration minus nested child spans
  double arg_sum = 0.0;
};

/// Folds spans into totals per (role, name); self time subtracts the
/// child spans each span encloses on its own thread.
class Fold {
 public:
  /// `spans`: one thread's spans in completion order.
  void add(const std::vector<Span>& spans);
  const SpanTotals& at(Role role, Name name) const;
  /// Sum over every role.
  SpanTotals all(Name name) const;

 private:
  static constexpr int kRoles = 4;
  static constexpr int kNames = static_cast<int>(Name::kCount);
  SpanTotals t_[kRoles][kNames] = {};
};

/// Writes a per-(role, name) summary plus up to `max_spans` raw spans
/// as JSON; returns false when the file cannot be written.
bool write_trace(const std::string& path, const Fold& fold,
                 const std::vector<Span>& sample, std::size_t max_spans,
                 std::uint64_t dropped);

}  // namespace lb
