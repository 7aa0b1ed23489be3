#include "common.hpp"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

namespace lb {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string Report::conform(const std::vector<MetricDef>& defs,
                            bool zero_missing) {
  std::vector<Metric> ordered;
  std::string error;
  for (const MetricDef& d : defs) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Metric& m) { return m.name == d.name; });
    if (it == metrics_.end()) {
      if (zero_missing)
        ordered.push_back({d.name, 0.0, d.unit});
      else
        error += std::string(" missing ") + d.name;
      continue;
    }
    if (it->unit != d.unit)
      error += " " + it->name + " has unit " + it->unit + ", not " + d.unit;
    ordered.push_back(*it);
  }
  for (const Metric& m : metrics_)
    if (std::none_of(defs.begin(), defs.end(),
                     [&](const MetricDef& d) { return m.name == d.name; }))
      error += " unlisted " + m.name;
  metrics_ = std::move(ordered);
  return error;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  // A handful of reasons is enough to debug; the count says the rest.
  if (complaints_++ < 5) std::cerr << "loopbench: FAILED " << what << '\n';
}

std::string Report::json() const {
  std::ostringstream os;
  os.precision(17);
  bool finite = true;
  for (const Metric& m : metrics_) finite = finite && std::isfinite(m.value);
  os << "{\"correct\": " << (failed_ == 0 && finite ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double block_median(const std::vector<double>& v, int blocks, double q) {
  const std::size_t n = v.size();
  const std::size_t b = std::max<std::size_t>(1, std::min<std::size_t>(blocks, n));
  std::vector<double> per_block;
  for (std::size_t i = 0; i < b; ++i)
    per_block.push_back(quantile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(i * n / b),
                            v.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / b)),
        q));
  return median(per_block);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ------------------------------------------------------------ shm hygiene

namespace {

// Names handed out recently. Segments live at most one loop or one
// fleet, so a ring far larger than the number alive at once suffices.
constexpr std::size_t kSlots = 1024;
constexpr std::size_t kNameLen = 64;
char g_names[kSlots][kNameLen];
std::atomic<std::size_t> g_next{0};

void unlink_all() {
  const std::size_t n = std::min(g_next.load(), kSlots);
  for (std::size_t i = 0; i < n; ++i)
    if (g_names[i][0] != '\0') shm_unlink(g_names[i]);
}

extern "C" void on_fatal_signal(int sig) {
  static const char kMsg[] = "loopbench: fatal signal, shm segments unlinked\n";
  (void)!write(STDERR_FILENO, kMsg, sizeof kMsg - 1);
  unlink_all();  // shm_unlink and write are async-signal-safe
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

std::string shm_name(const char* tag) {
  static std::atomic<unsigned> seq{0};
  char buf[kNameLen];
  std::snprintf(buf, sizeof buf, "/lssbench-%ld-%s-%u",
                static_cast<long>(getpid()), tag, seq.fetch_add(1));
  const std::size_t slot = g_next.fetch_add(1) % kSlots;
  std::memcpy(g_names[slot], buf, kNameLen);
  return buf;
}

void install_shm_cleanup() {
  std::atexit(unlink_all);
  for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGALRM, SIGABRT, SIGSEGV, SIGBUS,
                  SIGFPE, SIGILL})
    std::signal(sig, on_fatal_signal);
}

int online_cores() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

}  // namespace lb
