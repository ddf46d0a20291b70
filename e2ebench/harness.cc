#include "harness.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace e2e {

namespace {

double ClockSec(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// splitmix64: a tiny, fully specified generator, so the arrival schedule
// is identical on every platform and standard library.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// 1-based nearest rank of quantile q among n samples. The epsilon keeps
// q * n from rounding up past an exact rank (0.999 * 10000 > 9990).
size_t NearestRank(double q, size_t n) {
  return static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
}

}  // namespace

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSec() { return ClockSec(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSec() { return ClockSec(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    unsigned long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lu kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

bool ParseProcStat(const std::string& text, CpuJiffies* out) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu ", 0) != 0) continue;
    std::istringstream fields(line.substr(4));
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already included in user/nice, so it is not summed.
    uint64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    size_t n = 0;
    while (n < 8 && (fields >> v[n])) ++n;
    if (n < 4) return false;
    out->total = 0;
    for (size_t i = 0; i < n; ++i) out->total += v[i];
    out->steal = n > 7 ? v[7] : 0;
    return true;
  }
  return false;
}

CpuJiffies ReadProcStat() {
  std::ifstream in("/proc/stat");
  std::stringstream text;
  text << in.rdbuf();
  CpuJiffies j;
  if (!ParseProcStat(text.str(), &j)) return CpuJiffies{};
  return j;
}

double StealPct(const CpuJiffies& before, const CpuJiffies& after) {
  if (after.total <= before.total || after.steal < before.steal) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const size_t n = samples.size();
  size_t rank = NearestRank(q, n);
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

Tail HighestSupportedPercentile(const std::vector<double>& samples) {
  Tail tail;
  tail.count = samples.size();
  for (double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly beyond the nearest-rank percentile.
    if (samples.size() - NearestRank(pct / 100.0, samples.size()) < 10) break;
    tail.pct = pct;
  }
  if (tail.pct > 0) tail.value = Quantile(samples, tail.pct / 100.0);
  return tail;
}

PoissonSchedule::PoissonSchedule(uint64_t seed, double rate_per_s,
                                 double start_s)
    : state_(seed ^ 0x6f70656e6c6f6f70ULL), rate_(rate_per_s), t_(start_s) {}

double PoissonSchedule::Next() {
  // Inverse-CDF exponential gap from 53 uniform bits; u in (0, 1].
  const double u =
      static_cast<double>((SplitMix64(&state_) >> 11) + 1) * 0x1.0p-53;
  t_ += -std::log(u) / rate_;
  return t_;
}

double LatenessUs(double intended_s, double actual_s) {
  return std::max(0.0, (actual_s - intended_s) * 1e6);
}

double OpenLoopLatencyUs(double intended_s, double done_s) {
  return (done_s - intended_s) * 1e6;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      values_[i] = {value, unit};
      return;
    }
  }
  names_.push_back(name);
  values_.emplace_back(value, unit);
}

bool Result::Has(const std::string& name) const {
  return std::find(names_.begin(), names_.end(), name) != names_.end();
}

double Result::Get(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return values_[i].first;
  }
  return 0.0;
}

void Result::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "e2e: check failed: %s\n", why.c_str());
}

std::string Result::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < names_.size(); ++i) {
    double v = values_[i].first;
    if (!std::isfinite(v)) v = 0.0;  // JSON has no NaN; the run is failed
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + names_[i] + "\": {\"value\": " + buf + ", \"unit\": \"" +
           values_[i].second + "\"}";
  }
  out += "}}";
  return out;
}

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
    }
  };

  // Percentiles: 1..1000 supports p99 (10 beyond) but not p99.9 (1 beyond).
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(1001 - i);
  expect(Quantile(xs, 0.5) == 500, "median of 1..1000 is 500");
  expect(Quantile(xs, 0.9) == 900, "p90 of 1..1000 is 900");
  Tail t = HighestSupportedPercentile(xs);
  expect(t.pct == 99.0 && t.value == 990 && t.count == 1000,
         "1000 samples support p99 = 990");
  xs.resize(100);  // values 1000..901: p90 has exactly 10 beyond it
  t = HighestSupportedPercentile(xs);
  expect(t.pct == 90.0 && t.value == 990 && t.count == 100,
         "100 samples support p90");
  xs.resize(19);
  t = HighestSupportedPercentile(xs);
  expect(t.pct == 0.0 && t.count == 19, "19 samples support no percentile");
  xs.assign(10000, 1.0);
  expect(HighestSupportedPercentile(xs).pct == 99.9,
         "10000 samples support p99.9");

  // Poisson schedule: same seed, same times; different seed, different
  // times; mean gap near 1/rate; times strictly increase.
  PoissonSchedule a(42, 1000.0), b(42, 1000.0), c(43, 1000.0);
  bool same = true, differs = false, increasing = true;
  double prev = 0, last = 0;
  const int kArrivals = 20000;
  for (int i = 0; i < kArrivals; ++i) {
    const double ta = a.Next(), tb = b.Next(), tc = c.Next();
    same = same && ta == tb;
    differs = differs || ta != tc;
    increasing = increasing && ta > prev;
    prev = last = ta;
  }
  expect(same, "Poisson schedule repeats for one seed");
  expect(differs, "Poisson schedule changes with the seed");
  expect(increasing, "Poisson times increase");
  expect(std::fabs(last / kArrivals - 1e-3) < 5e-5,
         "Poisson mean gap is 1/rate");
  // Lateness: a generator stalled 3 ms sends late, and the latency of that
  // request still counts from its intended time.
  PoissonSchedule s(7, 500.0, 1.0);
  const double due = s.Next();
  const double sent = due + 0.003, done = sent + 0.0002;
  expect(std::fabs(LatenessUs(due, sent) - 3000.0) < 1e-6,
         "lateness measured against the schedule");
  expect(LatenessUs(due, due - 0.001) == 0.0, "early sends are not late");
  expect(std::fabs(OpenLoopLatencyUs(due, done) - 3200.0) < 1e-6,
         "open-loop latency counts the late send");
  PoissonSchedule s2(7, 500.0, 1.0);
  expect(s2.Next() == due, "a late send does not shift the schedule");

  // Steal parser on a canned /proc/stat.
  const std::string stat0 =
      "cpu  100 0 50 800 10 0 0 40 0 0\n"
      "cpu0 50 0 25 400 5 0 0 20 0 0\n";
  const std::string stat1 =
      "cpu  160 0 70 900 10 0 0 60 5 0\n"
      "cpu0 80 0 35 450 5 0 0 30 2 0\n";
  CpuJiffies j0, j1;
  expect(ParseProcStat(stat0, &j0) && ParseProcStat(stat1, &j1),
         "parse /proc/stat");
  expect(j0.total == 1000 && j0.steal == 40, "aggregate cpu line totals");
  // delta: total 200 (60+20+100+20), steal 20 -> 10%.
  expect(std::fabs(StealPct(j0, j1) - 10.0) < 1e-9, "steal share 10%");
  expect(!ParseProcStat("intr 1 2 3\n", &j0), "reject text without cpu line");

  // Metric-name rule.
  expect(ValidMetricName("train.fwdbwd_us.t4"), "dotted name is valid");
  expect(ValidMetricName("p50_us"), "plain name is valid");
  expect(!ValidMetricName("bad name"), "space is invalid");
  expect(!ValidMetricName(".hidden"), "leading dot is invalid");
  expect(!ValidMetricName(std::string(65, 'a')), "65 chars is invalid");

  // Result line.
  Result r;
  r.attempted = 3;
  r.Set("x", 1.5, "ms");
  r.Set("x", 2.25, "ms");
  expect(r.ToJson() ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"x\": {\"value\": 2.25, \"unit\": \"ms\"}}}",
         "result JSON line");
  return failures;
}

}  // namespace e2e
