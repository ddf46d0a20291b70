// optinter_e2e: runs one benchmark workload and prints its result as the
// last line of standard output. run.py builds and invokes it:
//
//   optinter_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --work_dir <dir>
//   optinter_e2e --selftest        (helper tests and metric-name checks)
//   optinter_e2e --list-metrics    (every metric name, one per line)

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "common/thread_pool.h"
#include "obs/registry.h"
#include "tensor/dispatch.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: optinter_e2e --workload <search_retrain|"
               "serve_open> --seed <n> --seconds <s> --trace <0|1> "
               "--work_dir <dir>\n"
               "       optinter_e2e --selftest | --list-metrics\n");
  return 2;
}

bool IsRelease() {
#ifdef NDEBUG
  return std::string(E2E_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

int SelfTest() {
  int failures = e2e::SelfTest();
  std::set<std::string> seen;
  for (const auto* list : {&e2e::EndToEndMetrics(), &e2e::PerLayerMetrics()}) {
    for (const e2e::MetricDef& m : *list) {
      if (!e2e::ValidMetricName(m.name) || !seen.insert(m.name).second) {
        std::fprintf(stderr, "selftest FAILED: metric name '%s'\n", m.name);
        ++failures;
      }
    }
  }
  std::printf("selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig cfg;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return SelfTest();
    if (flag == "--list-metrics") {
      for (const auto& m : e2e::EndToEndMetrics()) {
        std::printf("e2e %s %s\n", m.name, m.unit);
      }
      for (const auto& m : e2e::PerLayerMetrics()) {
        std::printf("layer %s %s\n", m.name, m.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--work_dir") {
      cfg.work_dir = value;
    } else {
      return Usage();
    }
  }
  const size_t threads = e2e::WorkloadThreads(cfg.workload);
  if (threads == 0 || !have_trace || cfg.seconds <= 0 || cfg.work_dir.empty()) {
    return Usage();
  }
  if (!IsRelease()) {
    std::fprintf(stderr, "optinter_e2e: refusing a %s build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n", E2E_BUILD_TYPE);
    return 3;
  }
  if (optinter::ThreadPool::Global().num_threads() != threads ||
      optinter::obs::Enabled()) {
    std::fprintf(stderr, "optinter_e2e: %s needs OPTINTER_THREADS=%zu and "
                         "OPTINTER_OBS=0 in the environment\n",
                 cfg.workload.c_str(), threads);
    return 3;
  }

  std::printf("# context workload=%s seed=%llu seconds=%g trace=%d "
              "pool_threads=%zu simd=%s build=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, threads,
              optinter::ActiveKernelBackend(), E2E_BUILD_TYPE);
  e2e::Result result;
  if (!e2e::RunWorkload(cfg, &result)) {
    std::fprintf(stderr, "optinter_e2e: %s set-up failed\n",
                 cfg.workload.c_str());
    return 1;
  }
  std::printf("# host nproc=%g steal_pct=%.3f\n", result.Get("host.nproc"),
              result.Get("host.steal_pct"));

  // Print exactly the mode's metric list, in order. A metric the workload
  // did not fill is a harness bug: the run fails.
  e2e::Result printed;
  printed.correct = result.correct;
  printed.attempted = result.attempted;
  printed.failed = result.failed;
  const auto& list =
      cfg.trace ? e2e::PerLayerMetrics() : e2e::EndToEndMetrics();
  for (const e2e::MetricDef& m : list) {
    if (!result.Has(m.name)) {
      printed.Fail(std::string("metric not measured: ") + m.name);
    }
    printed.Set(m.name, result.Get(m.name), m.unit);
  }
  if (printed.attempted == 0) printed.Fail("no operation attempted");
  std::printf("%s\n", printed.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
