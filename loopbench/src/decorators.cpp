#include "decorators.hpp"

#include <stdexcept>

namespace lb {

namespace {

std::size_t total_bytes(std::span<const std::span<const std::byte>> parts) {
  std::size_t n = 0;
  for (const auto& p : parts) n += p.size();
  return n;
}

}  // namespace

void TracedTransport::send(int from, int to, int tag,
                           lss::mp::Buffer payload) {
  Scope s(Name::Send);
  s.set_arg(payload.size());
  inner_.send(from, to, tag, std::move(payload));
}

void TracedTransport::sendv(
    int from, int to, int tag,
    std::span<const std::span<const std::byte>> parts) {
  Scope s(Name::SendV);
  s.set_arg(total_bytes(parts));
  inner_.sendv(from, to, tag, parts);
}

lss::mp::Message TracedTransport::recv(int rank, int source, int tag) {
  Scope s(Name::Recv);
  return inner_.recv(rank, source, tag);
}

std::optional<lss::mp::Message> TracedTransport::recv_for(
    int rank, std::chrono::steady_clock::duration timeout, int source,
    int tag) {
  Scope s(Name::RecvFor);
  return inner_.recv_for(rank, timeout, source, tag);
}

std::optional<lss::mp::Message> TracedTransport::try_recv(int rank,
                                                          int source,
                                                          int tag) {
  Scope s(Name::TryRecv);
  return inner_.try_recv(rank, source, tag);
}

void TracedTransport::drain_into(int rank, std::vector<lss::mp::Message>& out,
                                 int source, int tag) {
  Scope s(Name::Drain);
  inner_.drain_into(rank, out, source, tag);
  if (out.empty()) {
    s.set_name(Name::DrainEmpty);
    if (!empty_drains_) s.cancel();
  }
  s.set_arg(out.size());
}

Fault fault_from_string(const std::string& s) {
  if (s.empty() || s == "none") return Fault::None;
  if (s == "corrupt") return Fault::Corrupt;
  if (s == "drop") return Fault::Drop;
  throw std::invalid_argument("unknown fault '" + s +
                              "' (want none|corrupt|drop)");
}

OnResult inject(OnResult inner, Fault fault, std::atomic<bool>& armed) {
  if (fault == Fault::None) return inner;
  return [inner = std::move(inner), fault, &armed](
             int worker, lss::Range chunk, std::span<const std::byte> blob) {
    if (!armed.exchange(false)) return inner(worker, chunk, blob);
    if (fault == Fault::Drop) return;
    std::vector<std::byte> copy(blob.begin(), blob.end());
    if (!copy.empty()) copy[copy.size() / 2] ^= std::byte{0x5a};
    inner(worker, chunk, copy);
  };
}

void inject(std::vector<lss::Range>& executed, Fault fault,
            std::atomic<bool>& armed) {
  if (fault != Fault::Drop || executed.empty()) return;
  if (armed.exchange(false)) executed.erase(executed.begin());
}

}  // namespace lb
