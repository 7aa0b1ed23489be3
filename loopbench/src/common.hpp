// Shared plumbing of the benchmark: command-line arguments, the result
// report, order statistics, process usage, and shm-name hygiene.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measuring time of one run
  bool trace = false;     ///< per-layer run instead of end-to-end
  bool smoke = false;     ///< seconds-scale sizes for the self-tests
  std::string fault;      ///< none | corrupt | drop (self-tests only)
  std::string out_dir = ".bench_out";
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metrics and the correctness tally of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Orders the metrics as `defs` lists them and checks each unit.
  /// A metric the workload did not emit is added as 0 when
  /// `zero_missing` (a per-layer metric with no meaning on it), and is
  /// returned as an error otherwise; so is one `defs` does not list.
  std::string conform(const std::vector<MetricDef>& defs, bool zero_missing);
  /// One operation (a loop or a job) was checked; `ok` false counts it
  /// as failed.
  void check(bool ok, const std::string& what = {});
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  /// The single-line JSON result the benchmark prints last.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  int complaints_ = 0;
};

double median(std::vector<double> v);
/// Median over `blocks` consecutive blocks of `v` of each block's
/// quantile q: a stall of the host spoils one block, not the result.
double block_median(const std::vector<double>& v, int blocks, double q = 0.5);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Process CPU (user + sys) and context switches so far.
struct Usage {
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
  static Usage now();
};
double peak_rss_mb();

/// A fresh POSIX shm name owned by this process ("/lssbench-<pid>-<n>").
/// Every name handed out is unlinked again at exit and from the
/// handlers for fatal signals, so an aborted run leaks no segment.
std::string shm_name(const char* tag);
void install_shm_cleanup();

/// Host facts recorded with every result.
int online_cores();
std::string cpu_model();

}  // namespace lb
