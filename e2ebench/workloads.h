// The benchmark's workloads and the per-layer probes they share.
// README.md explains why each workload exists and which end-to-end metric
// each layer metric should move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "harness.h"
#include "models/hyperparams.h"
#include "models/interaction.h"

namespace e2e {

struct MetricDef {
  const char* name;
  const char* unit;
};
/// Printed by every untraced run, in this order.
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed by every traced run; every workload measures every layer.
const std::vector<MetricDef>& PerLayerMetrics();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for shards and checkpoints; removed afterwards.
  std::string work_dir;
};

/// Kernel pool size a workload runs at; 0 for an unknown workload (see
/// README.md for why every workload runs at 1).
size_t WorkloadThreads(const std::string& workload);
/// Runs one workload into `out`. False when set-up itself failed (no
/// result is printed then).
bool RunWorkload(const RunConfig& config, Result* out);

/// Per-layer probes (layers.cc): each times calls into one module's public
/// functions on the workload's own data and model shapes, writing the
/// matching PerLayerMetrics entries. `rows` and `test` are training- and
/// test-split rows of `data`.
struct ProbeInput {
  const optinter::EncodedDataset* data = nullptr;
  std::vector<size_t> rows, test;
  optinter::HyperParams hp;
  optinter::Architecture arch;
  /// Pool size to restore after the 1/2/4-thread sweep.
  size_t threads = 1;
  /// Mean step wall of the workload's pipelined trainer (0 = none); the
  /// phase probe divides its serial phase sum by it for train.overlap.
  double pipelined_step_us = 0;
  std::string work_dir;
};
void ProbeTrainPhases(const ProbeInput& in, Result* out);

/// What one search + re-train job's layers cost, measured on freshly built
/// models at the current pool size.
struct JobLayers {
  double build_ms = 0;        // building the supernet and the frozen model
  double search_step_us = 0;  // one supernet train step
  double search_eval_s = 0;   // one supernet pass over the test split
  double step_us = 0;         // one frozen-model train step
  double eval_s = 0;          // one frozen-model pass over the test split
};
JobLayers MeasureJobLayers(const ProbeInput& in);
/// Sets core.build_ms, core.search_step_us and core.search_eval_s.
void ProbeSearchModel(const ProbeInput& in, Result* out);
void ProbeKernels(const ProbeInput& in, Result* out);
void ProbeEmbedding(const ProbeInput& in, Result* out);
void ProbeIo(const ProbeInput& in, Result* out);

}  // namespace e2e
