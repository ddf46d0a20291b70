// Measurement helpers shared by the end-to-end benchmark's workloads:
// clocks, host context, percentiles, the open-loop arrival schedule and
// the result line. The parsers, percentiles, schedule, name rule and result
// line are covered by `optinter_e2e --selftest`.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// Monotonic wall clock, seconds.
double NowSec();
/// CPU time (user + sys) of the whole process, all threads, seconds.
double ProcessCpuSec();
/// CPU time of the calling thread, seconds.
double ThreadCpuSec();
/// Peak resident set (VmHWM) of this process, MiB.
double PeakRssMb();

/// Aggregate "cpu" line of /proc/stat, in jiffies.
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t steal = 0;
};
/// Parses the aggregate "cpu " line of /proc/stat text.
bool ParseProcStat(const std::string& text, CpuJiffies* out);
/// Reads /proc/stat; all-zero when unavailable.
CpuJiffies ReadProcStat();
/// Steal share of all CPU time between two samples, in percent.
double StealPct(const CpuJiffies& before, const CpuJiffies& after);

/// Nearest-rank quantile (q in [0, 1]) of unsorted samples; 0 when empty.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// The highest percentile a sample supports: the largest of 50, 90, 99,
/// 99.9 and 99.99 with at least ten samples beyond it.
struct Tail {
  double pct = 0;    // 0 when fewer than 20 samples (not even the median)
  double value = 0;  // the sample at that percentile
  size_t count = 0;  // samples it was taken from
};
Tail HighestSupportedPercentile(const std::vector<double>& samples);

/// Seeded Poisson arrival schedule for an open-loop load generator.
/// Next() returns intended send times (seconds from the schedule's start)
/// that depend only on the seed and the rate, never on when the generator
/// actually managed to send: a stalled generator sends late, and each
/// request's latency is still measured from its intended time.
class PoissonSchedule {
 public:
  PoissonSchedule(uint64_t seed, double rate_per_s, double start_s = 0);
  double Next();

 private:
  uint64_t state_;
  double rate_;
  double t_;
};
/// How late a send was against its schedule, microseconds (>= 0).
double LatenessUs(double intended_s, double actual_s);
/// Latency the user saw for a request due at `intended_s` and answered
/// at `done_s`, microseconds. Counts the time a late send spent waiting.
double OpenLoopLatencyUs(double intended_s, double done_s);

/// True for names made of [A-Za-z0-9_.-] that start with a letter or
/// digit and have at most 64 characters.
bool ValidMetricName(const std::string& name);

/// The benchmark's result: an ordered set of named, unit-tagged values
/// printed as the single JSON line the driver reads.
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  /// Marks the run incorrect and records why (printed to stderr).
  void Fail(const std::string& why);

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ToJson() const;
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::vector<std::pair<double, std::string>> values_;
};

/// Runs the helper self-tests; returns the number of failures.
int SelfTest();

}  // namespace e2e
