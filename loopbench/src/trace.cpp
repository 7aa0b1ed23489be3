#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace lb {

namespace {

// The calling thread's buffer, given back when the thread ends: the
// benchmark starts fresh worker threads per session, and reusing their
// buffers keeps the traced run's memory flat.
struct LocalBuffer {
  SpanBuffer* buf = nullptr;
  ~LocalBuffer() {
    if (buf != nullptr) Tracer::instance().release(*buf);
  }
};
thread_local LocalBuffer t_local;

constexpr const char* kNames[] = {
    "execute",  "send",       "sendv",     "recv",       "recv_for",
    "try_recv", "drain",      "drain_empty", "fetch_add", "run_master",
    "run_worker_loop", "submit", "result"};
static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
              static_cast<std::size_t>(Name::kCount));

}  // namespace

const char* to_string(Name n) { return kNames[static_cast<int>(n)]; }

const char* to_string(Role r) {
  switch (r) {
    case Role::Master:
      return "master";
    case Role::Worker:
      return "worker";
    case Role::Tenant:
      return "tenant";
    case Role::Other:
      break;
  }
  return "other";
}

const char* layer_of(Name n) {
  switch (n) {
    case Name::Execute:
      return "workload";
    case Name::FetchAdd:
    case Name::RunMaster:
    case Name::RunWorkerLoop:
      return "rt";
    case Name::Submit:
    case Name::Result:
      return "svc";
    default:
      return "mp";
  }
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

SpanBuffer& Tracer::local() {
  if (t_local.buf == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& b : buffers_)
      if (!b->in_use) {
        t_local.buf = b.get();
        break;
      }
    if (t_local.buf == nullptr) {
      buffers_.push_back(std::make_unique<SpanBuffer>());
      buffers_.back()->spans.reserve(capacity_);
      t_local.buf = buffers_.back().get();
    }
    t_local.buf->in_use = true;
    t_local.buf->role = Role::Other;
    t_local.buf->depth = 0;
  }
  return *t_local.buf;
}

void Tracer::release(SpanBuffer& buf) {
  std::lock_guard<std::mutex> lock(mu_);
  buf.in_use = false;
}

void Tracer::bind(Role role) { local().role = role; }

void Tracer::record(Name name, std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint32_t arg) {
  if (!enabled()) return;
  SpanBuffer& buf = local();
  if (buf.spans.size() == buf.spans.capacity()) {
    ++buf.dropped;
    return;
  }
  const std::uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
  buf.spans.push_back(Span{start_ns,
                           static_cast<std::uint32_t>(std::min<std::uint64_t>(
                               dur, 0xffffffffu)),
                           arg, name, buf.depth, buf.role});
}

std::vector<std::vector<Span>> Tracer::collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<Span>> out;
  out.reserve(buffers_.size());
  for (auto& buf : buffers_) {
    out.emplace_back(buf->spans.begin(), buf->spans.end());
    buf->spans.clear();  // capacity kept: no reallocation while recording
  }
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& buf : buffers_) n += buf->dropped;
  return n;
}

void Fold::add(const std::vector<Span>& spans) {
  // Spans arrive in completion order, so a span's children all precede
  // it; child_ns[d] accumulates the time of finished depth-d spans until
  // their parent (depth d-1) closes and claims it.
  constexpr int kMaxDepth = 16;
  double child_ns[kMaxDepth + 1] = {};
  for (const Span& s : spans) {
    const int d = std::min<int>(s.depth, kMaxDepth - 1);
    SpanTotals& t =
        t_[static_cast<int>(s.role)][static_cast<int>(s.name)];
    ++t.count;
    t.total_s += s.dur_ns * 1e-9;
    t.self_s += (s.dur_ns - child_ns[d + 1]) * 1e-9;
    t.arg_sum += s.arg;
    child_ns[d + 1] = 0.0;
    child_ns[d] += s.dur_ns;
  }
}

const SpanTotals& Fold::at(Role role, Name name) const {
  return t_[static_cast<int>(role)][static_cast<int>(name)];
}

SpanTotals Fold::all(Name name) const {
  SpanTotals sum;
  for (int r = 0; r < kRoles; ++r) {
    const SpanTotals& t = t_[r][static_cast<int>(name)];
    sum.count += t.count;
    sum.total_s += t.total_s;
    sum.self_s += t.self_s;
    sum.arg_sum += t.arg_sum;
  }
  return sum;
}

bool write_trace(const std::string& path, const Fold& fold,
                 const std::vector<Span>& sample, std::size_t max_spans,
                 std::uint64_t dropped) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"spans_dropped\":" << dropped << ",\"summary\":[";
  bool first = true;
  for (int r = 0; r < 4; ++r)
    for (int n = 0; n < static_cast<int>(Name::kCount); ++n) {
      const SpanTotals& t = fold.at(static_cast<Role>(r), static_cast<Name>(n));
      if (t.count == 0) continue;
      os << (first ? "" : ",") << "\n {\"role\":\""
         << to_string(static_cast<Role>(r)) << "\",\"layer\":\""
         << layer_of(static_cast<Name>(n)) << "\",\"name\":\""
         << to_string(static_cast<Name>(n)) << "\",\"count\":" << t.count
         << ",\"total_s\":" << t.total_s << ",\"self_s\":" << t.self_s
         << ",\"arg_sum\":" << t.arg_sum << "}";
      first = false;
    }
  const std::size_t n = std::min(max_spans, sample.size());
  os << "\n],\"spans_in_last_loop\":" << sample.size()
     << ",\"spans_written\":" << n << ",\"spans\":[";
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = sample[i];
    os << (i ? "," : "") << "\n [\"" << to_string(s.role) << "\",\""
       << to_string(s.name) << "\"," << s.depth << ',' << s.start_ns << ','
       << s.dur_ns << ',' << s.arg << ']';
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace lb
