// Benchmark-side decorators around the program's public layer
// interfaces. The traced run wraps every call into a layer with a
// trace Scope; the program itself is unchanged and its own obs tracer
// stays off.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lss/mp/transport.hpp"
#include "lss/rt/counter.hpp"
#include "lss/support/types.hpp"
#include "lss/workload/workload.hpp"
#include "trace.hpp"

namespace lb {

/// Times every Workload::execute.
class TracedWorkload final : public lss::Workload {
 public:
  explicit TracedWorkload(std::shared_ptr<lss::Workload> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  lss::Index size() const override { return inner_->size(); }
  double cost(lss::Index i) const override { return inner_->cost(i); }
  void execute(lss::Index i) override {
    Scope s(Name::Execute);
    inner_->execute(i);
  }

 private:
  std::shared_ptr<lss::Workload> inner_;
};

/// Iteration k runs iteration perm[k] of the base — the paper's sampled
/// reordering, executed for real. (lss::sampled()'s PermutedWorkload
/// only spins in proportion to cost and never runs the base kernel.)
class ReorderedWorkload final : public lss::Workload {
 public:
  ReorderedWorkload(std::shared_ptr<lss::Workload> base,
                    std::vector<lss::Index> perm)
      : base_(std::move(base)), perm_(std::move(perm)) {}
  std::string name() const override { return base_->name() + "+sampled"; }
  lss::Index size() const override {
    return static_cast<lss::Index>(perm_.size());
  }
  double cost(lss::Index k) const override {
    return base_->cost(perm_[static_cast<std::size_t>(k)]);
  }
  void execute(lss::Index k) override {
    base_->execute(perm_[static_cast<std::size_t>(k)]);
  }

 private:
  std::shared_ptr<lss::Workload> base_;
  std::vector<lss::Index> perm_;
};

/// Times every call into an mp::Transport. peer_protocol and the other
/// queries forward untouched, so negotiation is unchanged. A drain that
/// finds nothing is a DrainEmpty span (time spent polling), unless
/// `empty_drains` is false: then it is not recorded at all, for a
/// caller that polls without pause.
class TracedTransport final : public lss::mp::Transport {
 public:
  explicit TracedTransport(lss::mp::Transport& inner, bool empty_drains = true)
      : inner_(inner), empty_drains_(empty_drains) {}

  int size() const override { return inner_.size(); }
  std::string kind() const override { return inner_.kind(); }
  void send(int from, int to, int tag, lss::mp::Buffer payload) override;
  void sendv(int from, int to, int tag,
             std::span<const std::span<const std::byte>> parts) override;
  lss::mp::Message recv(int rank, int source, int tag) override;
  std::optional<lss::mp::Message> recv_for(
      int rank, std::chrono::steady_clock::duration timeout, int source,
      int tag) override;
  std::optional<lss::mp::Message> try_recv(int rank, int source,
                                           int tag) override;
  void drain_into(int rank, std::vector<lss::mp::Message>& out, int source,
                  int tag) override;
  int peer_protocol(int rank) const override {
    return inner_.peer_protocol(rank);
  }
  bool probe(int rank, int source, int tag) const override {
    return inner_.probe(rank, source, tag);
  }
  bool peer_alive(int rank) const override { return inner_.peer_alive(rank); }
  void close_peer(int rank) override { inner_.close_peer(rank); }

 private:
  lss::mp::Transport& inner_;
  bool empty_drains_;
};

/// Times every TicketCounter::fetch_add.
class TracedCounter final : public lss::rt::TicketCounter {
 public:
  explicit TracedCounter(std::shared_ptr<lss::rt::TicketCounter> inner)
      : inner_(std::move(inner)) {}
  std::optional<std::uint64_t> fetch_add(std::uint64_t n) override {
    Scope s(Name::FetchAdd);
    return inner_->fetch_add(n);
  }
  std::uint64_t load() const override { return inner_->load(); }
  void kill() override { inner_->kill(); }
  std::string kind() const override { return inner_->kind(); }

 private:
  std::shared_ptr<lss::rt::TicketCounter> inner_;
};

/// Faults the benchmark's own tests inject to prove that a wrong or
/// missing result is counted as a failure, not read as a faster run.
enum class Fault { None, Corrupt, Drop };
Fault fault_from_string(const std::string& s);

using OnResult = std::function<void(int worker, lss::Range chunk,
                                    std::span<const std::byte> result)>;

/// Wraps a master's result callback: Corrupt flips one byte of the
/// first result blob it sees, Drop swallows the first chunk's result.
/// Fires once per `armed` flag.
OnResult inject(OnResult inner, Fault fault, std::atomic<bool>& armed);

/// Drop removes the first executed range from a worker's record, as if
/// the chunk had never run (Corrupt has no result bytes to flip here).
void inject(std::vector<lss::Range>& executed, Fault fault,
            std::atomic<bool>& armed);

}  // namespace lb
