// The benchmark's workloads. Each makes its inputs from the seed, times its
// job with the program's own spans off, checks every output it times, and
// fills the end-to-end metrics; with tracing on it also fills the
// per-layer metrics by timing calls into each module from outside.

#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "core/fixed_arch_model.h"
#include "core/pipeline.h"
#include "data/stream_encode.h"
#include "data/stream_reader.h"
#include "io/serialize.h"
#include "metrics/metrics.h"
#include "obs/registry.h"
#include "serve/quantized_model.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "synth/generator.h"
#include "synth/prepare.h"
#include "synth/profiles.h"
#include "train/stream_trainer.h"
#include "train/trainer.h"

using namespace optinter;

namespace e2e {

namespace {

// ---------------------------------------------------------------------
// Workload sizes. Each job is small enough that a run repeats it many
// times and reports medians, which is what keeps run-to-run spread low
// on a shared host.

constexpr int kSetupReps = 5;

// search_retrain: criteo_like at 1/4 of the profile's rows.
constexpr double kSearchRowsScale = 0.25;
constexpr size_t kSearchEpochs = 1;
constexpr size_t kRetrainEpochs = 2;

// The streamed data path, probed in traced runs: small shards, with a
// resident bound below the shard count so the reader's LRU evicts during
// the epoch.
constexpr size_t kStreamRowsPerShard = 2048;
constexpr size_t kStreamHashBuckets = 1 << 14;
constexpr size_t kStreamMaxResident = 4;
constexpr size_t kStreamWindowBlocks = 2;

// Serving: a criteo_like model warm-trained for two epochs per checkpoint
// generation; its test split is scored repeatedly for eval_rows_per_s.
constexpr double kServeRowsScale = 0.25;
constexpr int kWarmSteps = 40;
constexpr double kEvalBurstS = 0.3;
// serve_open: nominal Poisson rate, the latency limit a rung's p90 and an
// answer must meet, and the hot-swap interval.
constexpr double kNominalRps = 8000;
constexpr double kLatencyLimitUs = 2000;
constexpr double kSwapIntervalS = 0.5;
constexpr double kSpinWindowS = 2e-3;
constexpr double kServeWarmS = 1.0;
constexpr double kLatencyWindowS = 0.5;
constexpr double kRungWindowS = 0.25;
// The rate ladder doubles from half the nominal rate. Its first four rungs
// always run (their quantiles are per-layer metrics); it goes on doubling
// until a rate does not keep up, then bisects (geometrically) between the
// last rate that kept up and the first that did not.
constexpr double kLadderStart = 0.5 * kNominalRps;
constexpr size_t kLadderFixedRungs = 4;
constexpr size_t kLadderMaxDoublings = 8;  // up to 128 x 4000/s
constexpr size_t kLadderBisections = 4;    // brackets a 2x gap to 4.4%
constexpr int kRungAttempts = 2;
// At this many outstanding requests the generator holds its next send
// until answers drain the backlog: that keeps the queue below the
// batcher's max_pending (4096), so the server never rejects. A held send
// goes late and its latency still counts from its due time, so a stall
// shows in the latencies without ending the phase; a phase that falls
// kMaxLateS behind its schedule has exceeded the server's capacity and
// stops.
constexpr size_t kBacklogCap = 4000;
constexpr double kMaxLateS = 0.25;
constexpr double kRungMaxRequests = 100000;
// Traced runs: the short open loop and batch-1 loop that measure the
// serving layers on workloads whose own job does not serve.
constexpr double kProbeWarmS = 0.2, kProbeMainS = 1.0, kProbeRungS = 0.25;
constexpr size_t kProbeB1Calls = 20000;
// A traced run fails when its layers explain less than this share of the
// workload's timed job; search_retrain takes the median over this many
// rounds of layers-then-job.
constexpr double kMinCoverage = 0.9;
constexpr int kCoverageRounds = 5;

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},         {"rows_per_s", "1/s"},
    {"cpu_us_per_row", "us"}, {"eval_rows_per_s", "1/s"},
    {"p50_us", "us"},         {"p90_us", "us"},
    {"goodput_rps", "1/s"},   {"test_auc", "auc"},
    {"peak_rss_mb", "MiB"},   {"ok_frac", "ratio"},
};

const std::vector<MetricDef> kPerLayer = {
    {"host.steal_pct", "%"},
    {"host.nproc", "count"},
    {"loadgen.late_p99_us", "us"},
    {"loadgen.backlog_max", "count"},
    {"synth.gen_s", "s"},
    {"data.encode_rows_per_s", "1/s"},
    {"data.next_wait_us", "us"},
    {"data.fill_us", "us"},
    {"data.shards", "count"},
    {"data.resident_max", "count"},
    {"data.collision_frac", "ratio"},
    {"train.prepare_us.t1", "us"},
    {"train.prepare_us.t2", "us"},
    {"train.prepare_us.t4", "us"},
    {"train.fwdbwd_us.t1", "us"},
    {"train.fwdbwd_us.t2", "us"},
    {"train.fwdbwd_us.t4", "us"},
    {"train.apply_us.t1", "us"},
    {"train.apply_us.t2", "us"},
    {"train.apply_us.t4", "us"},
    {"train.prepare_cpu_us.t4", "us"},
    {"train.fwdbwd_cpu_us.t4", "us"},
    {"train.apply_cpu_us.t4", "us"},
    {"train.overlap", "ratio"},
    {"core.search_s", "s"},
    {"core.retrain_s", "s"},
    {"core.epochs", "count"},
    {"core.search_step_us", "us"},
    {"core.search_eval_s", "s"},
    {"core.build_ms", "ms"},
    {"tensor.gemm_nn_us.t1", "us"},
    {"tensor.gemm_nn_us.t4", "us"},
    {"tensor.gemm_tn_us.t1", "us"},
    {"tensor.gemm_tn_us.t4", "us"},
    {"tensor.gemm_nn_gflops.t1", "GFLOP/s"},
    {"tensor.gemm_nn_gflops.t4", "GFLOP/s"},
    {"tensor.gemm_tn_gflops.t1", "GFLOP/s"},
    {"tensor.gemm_tn_gflops.t4", "GFLOP/s"},
    {"nn.mlp_fwd_us", "us"},
    {"nn.mlp_bwd_us", "us"},
    {"nn.mlp_fwd_us.b1", "us"},
    {"models.gather_us", "us"},
    {"models.scatter_us", "us"},
    {"nn.sparse_adam_us", "us"},
    {"metrics.eval_s", "s"},
    {"metrics.auc_ms", "ms"},
    {"io.save_ms", "ms"},
    {"io.load_ms", "ms"},
    {"io.ckpt_mb", "MiB"},
    {"serve.submit_us", "us"},
    {"serve.wait_us", "us"},
    {"serve.batch_mean", "rows"},
    {"serve.batch_fill", "ratio"},
    {"serve.flushes", "count"},
    {"serve.flush_cpu_us", "us"},
    {"serve.swap_ms", "ms"},
    {"serve.swaps", "count"},
    {"serve.p99_us", "us"},
    {"serve.p999_us", "us"},
    {"serve.tail_samples", "count"},
    {"serve.p50_us.r1", "us"},
    {"serve.p50_us.r2", "us"},
    {"serve.p50_us.r3", "us"},
    {"serve.p50_us.r4", "us"},
    {"serve.p90_us.r1", "us"},
    {"serve.p90_us.r2", "us"},
    {"serve.p90_us.r3", "us"},
    {"serve.p90_us.r4", "us"},
    {"serve.quantize_ms", "ms"},
    {"serve.int8_bytes_per_row", "B"},
    {"serve.b1_fp32_us", "us"},
    {"serve.p99_us.b1", "us"},
    {"obs.overhead_pct", "%"},
    {"trace.coverage", "ratio"},
};

// ---------------------------------------------------------------------
// Shared pieces.

// The dataset is the profile's own, generated from the profile's seed: a
// generator seed per run would also move which pairs carry signal, and
// with it test_auc and the searched architecture's cost, from seed to
// seed. The benchmark seed drives the run's other random choices instead:
// model initialization, shuffles, arrival times and request order.
SynthConfig ProfileConfig(const std::string& profile) {
  return GetProfile(profile).value();
}

HyperParams ProfileHyperParams(const std::string& profile, uint64_t seed) {
  HyperParams hp = DefaultHyperParams(profile);
  hp.seed = seed * 0x9e3779b97f4a7c15ULL + 1;
  hp.early_stop_patience = 0;  // fixed epoch count: same work every seed
  return hp;
}

// Mixed assignment: memorized, factorized and naive pairs in one model.
Architecture MixedArch(size_t num_pairs) {
  Architecture arch(num_pairs, InterMethod::kNaive);
  for (size_t p = 0; p < num_pairs; ++p) {
    if (p % 5 == 0) arch[p] = InterMethod::kMemorize;
    if (p % 5 == 1 || p % 5 == 2) arch[p] = InterMethod::kFactorize;
  }
  return arch;
}

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// Batch scores of `model` over `rows` through the re-entrant Predict;
// `ctx` keeps its workspaces between calls.
void ScoreRows(const CtrModel& model, const EncodedDataset& data,
               const std::vector<size_t>& rows, ForwardContext* ctx,
               std::vector<float>* probs) {
  Batch b;
  b.data = &data;
  b.rows = rows.data();
  b.size = rows.size();
  model.Predict(b, probs, ctx);
}

std::vector<float> OfflineScores(const CtrModel& model,
                                 const EncodedDataset& data,
                                 const std::vector<size_t>& rows) {
  ForwardContext ctx;
  std::vector<float> probs;
  ScoreRows(model, data, rows, &ctx, &probs);
  return probs;
}

std::vector<float> Labels(const EncodedDataset& data,
                          const std::vector<size_t>& rows) {
  std::vector<float> labels;
  labels.reserve(rows.size());
  for (size_t r : rows) labels.push_back(data.label(r));
  return labels;
}

bool MakeEmptyDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return std::filesystem::create_directories(dir, ec);
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// trace.coverage: the workload's timed job as predicted from its per-layer
// figures, over the job as measured. Below kMinCoverage the layers miss
// part of the job, and the traced run fails.
void SetCoverage(double coverage, Result* out) {
  out->Set("trace.coverage", coverage, "ratio");
  if (!(coverage >= kMinCoverage)) {
    out->Fail("trace.coverage " + std::to_string(coverage) + " below " +
              std::to_string(kMinCoverage));
  }
}

// Host context around the timed section.
struct HostSample {
  CpuJiffies stat;
  void Begin() { stat = ReadProcStat(); }
  void End(Result* out) const {
    out->Set("host.steal_pct", StealPct(stat, ReadProcStat()), "%");
    out->Set("host.nproc",
             static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)), "count");
  }
};

// One diagnostic line per training job on stderr.
void PrintJob(size_t index, double wall_s, double rows, double cpu_s,
              double auc, const CpuJiffies& stat_before) {
  std::fprintf(stderr,
               "# job %zu wall=%.3fs rows/s=%.0f cpu_us/row=%.2f auc=%.6f "
               "steal=%.1f%%\n",
               index, wall_s, rows / wall_s, cpu_s * 1e6 / rows, auc,
               StealPct(stat_before, ReadProcStat()));
}

void SetTrainingLatency(const std::vector<double>& job_wall_s, Result* out) {
  std::vector<double> us;
  for (double s : job_wall_s) us.push_back(s * 1e6);
  out->Set("p50_us", Quantile(us, 0.5), "us");
  out->Set("p90_us", Quantile(us, 0.9), "us");
}

// ---------------------------------------------------------------------
// The search + re-train job.

struct SearchJob {
  double wall_s = 0, cpu_s = 0, rows = 0;
  double search_s = 0, retrain_s = 0, eval_s = 0;
  double eval_rows = 0, eval_pass_s = 0;
  double retrain_step_us = 0;
  size_t epochs = 0;
  double auc = 0;
  bool ok = false;
  Architecture arch;
};

// The paper's job, composed exactly as RunOptInter composes it (search,
// freeze, re-train from scratch) and then scored on the test split.
SearchJob RunSearchJob(const EncodedDataset& data, const Splits& splits,
                       const HyperParams& hp) {
  SearchOptions sopts;
  sopts.search_epochs = hp.search_epochs;
  TrainOptions topts;
  topts.epochs = hp.epochs;
  topts.batch_size = hp.batch_size;
  topts.seed = hp.seed;
  topts.patience = hp.early_stop_patience;
  // The search runs with the profile's default seed, so every run searches
  // its way to the same architecture: a seeded search also changed how many
  // pairs are memorized, and with it the re-train's cost, from seed to seed.
  HyperParams search_hp = hp;
  search_hp.seed = HyperParams().seed;
  SearchJob job;
  const double t0 = NowSec(), c0 = ProcessCpuSec();
  SearchResult search = RunSearchStage(data, splits, search_hp, sopts);
  const double t1 = NowSec();
  FixedArchModel model(data, search.arch, hp, "OptInter");
  TrainSummary retrain = TrainModel(&model, data, splits, topts);
  const double t2 = NowSec();
  const EvalMetrics test = EvaluateModel(&model, data, splits.test);
  const double t3 = NowSec();
  job.cpu_s = ProcessCpuSec() - c0;
  job.wall_s = t3 - t0;
  job.search_s = t1 - t0;
  job.retrain_s = t2 - t1;
  job.eval_s = t3 - t2;
  job.epochs = search.telemetry.epochs.size() + retrain.epochs_run;
  job.rows = static_cast<double>(job.epochs * splits.train.size());
  const size_t steps_per_epoch =
      (splits.train.size() + hp.batch_size - 1) / hp.batch_size;
  job.retrain_step_us = retrain.telemetry.train_seconds_total * 1e6 /
                        static_cast<double>(retrain.epochs_run *
                                            steps_per_epoch);
  // Scoring throughput over every pass the job makes: the trainer's
  // per-epoch validation passes and the final test pass.
  job.eval_rows = static_cast<double>(retrain.epochs_run * splits.val.size() +
                                      splits.test.size());
  job.eval_pass_s = retrain.telemetry.eval_seconds_total + job.eval_s;
  job.auc = test.auc;
  job.arch = search.arch;
  // The trainer's own final test pass and ours must agree bit for bit.
  job.ok = std::isfinite(test.auc) && test.auc > 0.5 &&
           test.auc == retrain.final_test.auc &&
           search.telemetry.epochs.size() == hp.search_epochs &&
           retrain.epochs_run == hp.epochs;
  return job;
}

// ---------------------------------------------------------------------
// The streamed data path.

StreamTrainOptions StreamOptions(const HyperParams& hp) {
  StreamTrainOptions o;
  o.epochs = hp.epochs;
  o.batch_size = hp.batch_size;
  o.seed = hp.seed;
  o.patience = hp.early_stop_patience;
  o.order = StreamingBatcher::Order::kWindowShuffle;
  o.window_blocks = kStreamWindowBlocks;
  return o;
}

StreamEncodeOptions EncodeOptions(const HyperParams& hp) {
  StreamEncodeOptions e;
  e.hashed = true;
  e.build_cross = true;
  e.rows_per_shard = kStreamRowsPerShard;
  e.hash_buckets = kStreamHashBuckets;
  e.fit_fraction = StreamOptions(hp).train_frac;
  return e;
}

double CollisionFrac(const StreamEncodeStats& stats) {
  const HashEncodeStats& c = stats.cat_hash;
  const HashEncodeStats& x = stats.cross_hash;
  const double rows = static_cast<double>(c.hashed_rows + c.hot_rows +
                                          x.hashed_rows + x.hot_rows);
  return rows > 0 ? static_cast<double>(c.collision_rows + x.collision_rows) /
                        rows
                  : 0;
}

// One serial epoch through the streamed data path (StreamingBatcher::Next
// timed, then the three train phases of an all-memorize model), then
// StreamingReader::FillBatch on its own.
void StreamReplayEpoch(const std::string& dir, const HyperParams& hp,
                         Result* out) {
  auto reader = StreamingReader::Open(
      dir, {.max_resident_shards = kStreamMaxResident});
  if (!reader.ok()) {
    out->Fail("replay: " + reader.status().ToString());
    return;
  }
  StreamingReader& r = **reader;
  auto model = FixedArchModel::MakeOptInterM(r.meta(), hp);
  const StreamTrainOptions opts = StreamOptions(hp);
  StreamingBatcher::Options bopts;
  bopts.batch_size = hp.batch_size;
  bopts.order = opts.order;
  bopts.seed = hp.seed;
  bopts.prefetch_batches = opts.prefetch_batches;
  bopts.window_blocks = opts.window_blocks;
  const size_t train_end =
      static_cast<size_t>(opts.train_frac * r.num_rows());
  StreamingBatcher batcher(&r, 0, train_end, bopts);
  batcher.StartEpoch();
  PreparedBatch prep;
  std::vector<double> next_us;
  size_t resident_max = 0;
  for (;;) {
    const double t0 = NowSec();
    const Batch b = batcher.Next();
    const double t1 = NowSec();
    if (b.size == 0) break;
    next_us.push_back((t1 - t0) * 1e6);
    resident_max = std::max(resident_max, r.resident_shards());
    model->PrepareBatch(b, &prep);
    model->ForwardBackward(prep);
    model->ApplyGrads();
  }
  if (!batcher.status().ok()) {
    out->Fail("replay: " + batcher.status().ToString());
  }
  out->Set("data.next_wait_us", Median(next_us), "us");
  out->Set("data.resident_max", static_cast<double>(resident_max), "count");
  out->Set("data.shards", static_cast<double>(r.manifest().shards.size()),
           "count");

  EncodedDataset dst;
  std::vector<size_t> rows(hp.batch_size);
  std::vector<double> fill_us;
  for (size_t k = 0; k < 40; ++k) {
    const size_t base =
        (k * 7919 * hp.batch_size) % (train_end - rows.size());
    std::iota(rows.begin(), rows.end(), base);
    const double t0 = NowSec();
    if (!r.FillBatch(rows.data(), rows.size(), &dst).ok()) {
      out->Fail("replay: FillBatch");
      break;
    }
    fill_us.push_back((NowSec() - t0) * 1e6);
  }
  out->Set("data.fill_us", Median(fill_us), "us");
}

// ---------------------------------------------------------------------
// Serving pieces.

// Two warm-trained checkpoint generations of one model over `data`, the
// offline scores every served answer is checked against, and the
// requests (one per test row).
struct ServeSetup {
  const EncodedDataset* data = nullptr;
  std::vector<size_t> test;
  HyperParams hp;
  Architecture arch;
  std::string ckpt[2];
  std::vector<float> scores[2];
  std::vector<serve::PredictRequest> requests;
  std::shared_ptr<const CtrModel> model_a;  // generation 0, as loaded
};

std::unique_ptr<CtrModel> MakeServeModel(const ServeSetup& s) {
  return std::make_unique<FixedArchModel>(*s.data, s.arch, s.hp,
                                          "serve-live");
}

bool BuildServeSetup(const EncodedDataset& data, const Splits& splits,
                     const HyperParams& hp, const Architecture& arch,
                     const std::string& work_dir, ServeSetup* s) {
  s->data = &data;
  s->test = splits.test;
  s->hp = hp;
  s->arch = arch;
  FixedArchModel warm(data, arch, hp, "serve-warm");
  const size_t bs = hp.batch_size;
  const size_t nb = std::max<size_t>(1, splits.train.size() / bs);
  size_t step = 0;
  for (int gen = 0; gen < 2; ++gen) {
    for (int i = 0; i < kWarmSteps; ++i, ++step) {
      Batch b;
      b.data = &data;
      b.rows = splits.train.data() + (step % nb) * bs;
      b.size = std::min(bs, splits.train.size());
      warm.TrainStep(b);
    }
    s->ckpt[gen] = work_dir + "/gen" + std::to_string(gen) + ".ckpt";
    if (!SaveModel(&warm, s->ckpt[gen]).ok()) return false;
    // Score what a server would load, not the in-memory trainer.
    std::unique_ptr<CtrModel> loaded = MakeServeModel(*s);
    if (!LoadModel(loaded.get(), s->ckpt[gen]).ok()) return false;
    s->scores[gen] = OfflineScores(*loaded, data, s->test);
    if (gen == 0) s->model_a = std::move(loaded);
  }
  s->requests.clear();
  for (size_t r : s->test) {
    s->requests.push_back(serve::RequestFromRow(data, r));
  }
  return true;
}

// Batch-scoring passes over the test split, taken in short bursts spread
// over the run: host slowdowns last seconds, so one block of passes would
// measure whichever slowdown it landed in. Throughput comes from the
// fastest tenth of the passes: on a shared host the passes of one run
// ranged from 13 to 23 ms with what the neighbours did, and the median
// moved with the share of slow passes, by up to 30% between runs.
class EvalSampler {
 public:
  EvalSampler(const CtrModel& model, const ServeSetup& s)
      : model_(model), s_(s) {}
  void Burst() {
    const double start = NowSec();
    do {
      const double t0 = NowSec();
      ScoreRows(model_, *s_.data, s_.test, &ctx_, &probs_);
      walls_.push_back(NowSec() - t0);
    } while (NowSec() - start < kEvalBurstS);
  }
  double MedianPassSeconds() const { return Median(walls_); }
  double RowsPerSec() const {
    return static_cast<double>(s_.test.size()) / Quantile(walls_, 0.1);
  }

 private:
  const CtrModel& model_;
  const ServeSetup& s_;
  ForwardContext ctx_;
  std::vector<float> probs_;
  std::vector<double> walls_;
};

struct OpenPhase {
  double rate = 0;
  size_t sent = 0, answered = 0, failed = 0;
  std::vector<double> latency_us, late_us, submit_us, wait_us;
  std::vector<double> due_s;  // intended send time of each latency sample
  double start_s = 0, wall_s = 0;
  double server_cpu_s = 0;
  size_t backlog_max = 0;
  size_t backlog_end = 0;
  bool saturated = false;  // stopped kMaxLateS behind schedule
};

// Median over windows of `window_s` of each window's latency quantile: a
// host hiccup that stalls one window does not move it, a slower server
// moves every window.
double WindowedQuantile(const OpenPhase& ph, double q, double window_s) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < ph.latency_us.size(); ++i) {
    const size_t w = static_cast<size_t>(ph.due_s[i] / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(ph.latency_us[i]);
  }
  std::vector<double> per_window;
  for (const auto& w : windows) {
    if (w.size() >= 100) per_window.push_back(Quantile(w, q));
  }
  return per_window.empty() ? Quantile(ph.latency_us, q) : Median(per_window);
}

// One open-loop phase: a generator thread sends Poisson arrivals at
// `rate` for `seconds` (holding sends at kBacklogCap outstanding, and
// stopping kMaxLateS behind schedule); a collector thread waits for each
// answer in send order and checks it against both deployed generations'
// offline scores.
OpenPhase RunOpenPhase(serve::PredictServer* server, const ServeSetup& s,
                       double rate, double seconds, uint64_t seed) {
  OpenPhase ph;
  ph.rate = rate;
  std::vector<double> due;
  PoissonSchedule schedule(seed, rate);
  for (double t = schedule.Next(); t < seconds; t = schedule.Next()) {
    due.push_back(t);
  }
  const size_t n = due.size();
  struct Rec {
    double sent = 0, submitted = 0;
    size_t row = 0;
    bool rejected = false;
    std::future<float> answer;
  };
  std::vector<Rec> recs(n);
  std::atomic<size_t> published{0}, answered{0};
  std::atomic<bool> sending{true};
  double gen_cpu = 0, col_cpu = 0;
  const size_t rows = s.requests.size();
  const size_t row0 = static_cast<size_t>(seed % rows);

  const double c0 = ProcessCpuSec();
  const double start = NowSec() + 0.002;
  std::thread generator([&] {
    const double cpu0 = ThreadCpuSec();
    size_t i = 0;
    for (; i < n; ++i) {
      const double when = start + due[i];
      while (i - answered.load(std::memory_order_relaxed) >= kBacklogCap) {
        if (NowSec() - when > kMaxLateS) {
          ph.saturated = true;
          break;
        }
      }
      if (ph.saturated) break;
      for (double now = NowSec(); now < when; now = NowSec()) {
        // Timer wake-ups on a shared VM overshoot by up to a millisecond,
        // so only long gaps sleep; the last stretch spins.
        if (when - now > kSpinWindowS) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(when - now - kSpinWindowS));
        }
      }
      Rec& r = recs[i];
      r.row = (row0 + i) % rows;
      r.sent = NowSec();
      auto fut = server->Submit(s.requests[r.row]);
      r.submitted = NowSec();
      if (fut.ok()) {
        r.answer = std::move(fut).value();
      } else {
        r.rejected = true;
      }
      published.store(i + 1, std::memory_order_release);
      ph.backlog_max = std::max(
          ph.backlog_max, i + 1 - answered.load(std::memory_order_relaxed));
    }
    ph.sent = i;
    ph.backlog_end = i - answered.load(std::memory_order_relaxed);
    sending.store(false, std::memory_order_release);
    gen_cpu = ThreadCpuSec() - cpu0;
  });
  std::vector<double> done(n, 0.0);
  std::vector<char> good(n, 0);
  std::thread collector([&] {
    const double cpu0 = ThreadCpuSec();
    // The collector spins rather than parks: a parked thread's wake-up on
    // a shared VM can take longer than the request, and would be stamped
    // as server latency.
    auto next_published = [&](size_t i) {
      for (;;) {
        if (published.load(std::memory_order_acquire) > i) return true;
        if (!sending.load(std::memory_order_acquire)) {
          return published.load(std::memory_order_acquire) > i;
        }
      }
    };
    for (size_t i = 0; next_published(i); ++i) {
      Rec& r = recs[i];
      if (!r.rejected) {
        while (r.answer.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
        }
        done[i] = NowSec();
        const float score = r.answer.get();
        const size_t k = r.row;
        good[i] = SameBits(score, s.scores[0][k]) ||
                  SameBits(score, s.scores[1][k]);
      }
      answered.store(i + 1, std::memory_order_relaxed);
    }
    col_cpu = ThreadCpuSec() - cpu0;
  });
  generator.join();
  collector.join();
  ph.server_cpu_s = ProcessCpuSec() - c0 - gen_cpu - col_cpu;

  double last_done = start;
  ph.start_s = start;
  for (size_t i = 0; i < ph.sent; ++i) {
    const Rec& r = recs[i];
    ph.late_us.push_back(LatenessUs(start + due[i], r.sent));
    if (r.rejected || !good[i]) {
      ++ph.failed;
      continue;
    }
    ++ph.answered;
    last_done = std::max(last_done, done[i]);
    ph.latency_us.push_back(OpenLoopLatencyUs(start + due[i], done[i]));
    ph.due_s.push_back(due[i]);
    ph.submit_us.push_back((r.submitted - r.sent) * 1e6);
    ph.wait_us.push_back((done[i] - r.submitted) * 1e6);
  }
  ph.wall_s = last_done - start;
  std::fprintf(stderr,
               "# phase rate=%.0f sent=%zu failed=%zu p50=%.0fus p90=%.0fus "
               "windowed_p90=%.0fus p99=%.0fus late_p90=%.0fus "
               "backlog_end=%zu%s server_cpu_us/req=%.1f\n",
               rate, ph.sent, ph.failed, Quantile(ph.latency_us, 0.5),
               Quantile(ph.latency_us, 0.9),
               WindowedQuantile(ph, 0.9, kRungWindowS),
               Quantile(ph.latency_us, 0.99),
               Quantile(ph.late_us, 0.9), ph.backlog_end,
               ph.saturated ? " saturated" : "",
               ph.server_cpu_s * 1e6 / std::max<size_t>(1, ph.answered));
  return ph;
}

// A rung kept up when every request was sent and answered correctly, the
// backlog never reached kBacklogCap, and its (windowed) p90 is within the
// latency limit.
bool KeptUp(const OpenPhase& r) {
  return !r.saturated && r.failed == 0 && !r.latency_us.empty() &&
         WindowedQuantile(r, 0.9, kRungWindowS) <= kLatencyLimitUs;
}

struct ServeCounters {
  uint64_t requests = 0, flushes = 0;
  static ServeCounters Read() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    return {reg.GetCounter("serve.requests")->Value(),
            reg.GetCounter("serve.flushes")->Value()};
  }
};

// The open-loop schedule: warm-up, the nominal phase, then the rate
// ladder, against a PredictServer (default batcher options) serving
// generation 0 while a mostly-asleep thread hot-swaps between the two
// generations. `between` runs between phases, while the server is idle.
struct OpenLoopRun {
  OpenPhase warm, main;
  std::vector<OpenPhase> rungs;  // in the order run
  std::vector<size_t> first_attempt;  // index in `rungs` of each rate's first
  std::vector<double> swap_ms, swap_at_s;
  size_t swap_failures = 0;
  ServeCounters before, after_main;
  double peak_rss_main_mb = 0;  // VmHWM at the end of the nominal phase
  // Goodput: correct answers per second of the fastest rung that kept up
  // (its offered rate as the Poisson schedule realized it).
  double goodput_rps = 0, goodput_rate = 0;
  uint64_t attempted() const {
    uint64_t n = warm.sent + main.sent;
    for (const OpenPhase& r : rungs) n += r.sent;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = warm.failed + main.failed + swap_failures;
    for (const OpenPhase& r : rungs) n += r.failed;
    return n;
  }
  // Hot-swaps that ended inside the nominal phase.
  size_t SwapsInMain() const {
    return static_cast<size_t>(std::count_if(
        swap_at_s.begin(), swap_at_s.end(), [&](double t) {
          return t >= main.start_s && t <= main.start_s + main.wall_s;
        }));
  }
};

bool RunOpenLoop(const ServeSetup& s, double warm_s, double main_s,
                 double rung_s, uint64_t seed,
                 const std::function<void()>& between, OpenLoopRun* run) {
  serve::PredictServer server(*s.data);
  auto factory = [&] { return MakeServeModel(s); };
  if (!server.DeployCheckpoint(factory, s.ckpt[0]).ok()) return false;

  std::mutex swap_mu;
  std::condition_variable swap_cv;
  bool stop_swapping = false;
  std::thread swapper([&] {
    for (int k = 1;; ++k) {
      {
        std::unique_lock<std::mutex> lock(swap_mu);
        if (swap_cv.wait_for(lock,
                             std::chrono::duration<double>(kSwapIntervalS),
                             [&] { return stop_swapping; })) {
          return;
        }
      }
      const double t0 = NowSec();
      const bool ok = server.DeployCheckpoint(factory, s.ckpt[k % 2]).ok();
      const double t1 = NowSec();
      run->swap_ms.push_back((t1 - t0) * 1e3);
      run->swap_at_s.push_back(t1);
      if (!ok) ++run->swap_failures;
    }
  });
  // Warm-up with swaps running: workspaces, the batcher's buffers and the
  // first swaps' allocations grow here, untimed but checked.
  run->warm = RunOpenPhase(&server, s, kNominalRps, warm_s, seed + 99);
  between();
  run->before = ServeCounters::Read();
  run->main = RunOpenPhase(&server, s, kNominalRps, main_s, seed);
  run->after_main = ServeCounters::Read();
  run->peak_rss_main_mb = PeakRssMb();

  uint64_t rung_seed = seed + 2;
  // A rate that does not keep up gets a second rung: one host stall near
  // capacity leaves a backlog that outlasts the rung, and would otherwise
  // end the ladder early.
  auto rung = [&](double rate) {
    for (int attempt = 0; attempt < kRungAttempts; ++attempt) {
      between();
      if (attempt == 0) run->first_attempt.push_back(run->rungs.size());
      run->rungs.push_back(RunOpenPhase(
          &server, s, rate, std::min(rung_s, kRungMaxRequests / rate),
          rung_seed++));
      const OpenPhase& r = run->rungs.back();
      if (!KeptUp(r)) continue;
      if (rate > run->goodput_rate) {
        run->goodput_rate = rate;
        run->goodput_rps = static_cast<double>(r.answered) / r.wall_s;
      }
      return true;
    }
    return false;
  };
  // Double until a rate does not keep up (the first kLadderFixedRungs run
  // regardless), then bisect between the last rate below it that kept up
  // and that rate.
  double kept = 0, missed = 0;
  for (size_t k = 0; k < kLadderMaxDoublings; ++k) {
    if (missed > 0 && k >= kLadderFixedRungs) break;
    const double rate = kLadderStart * std::ldexp(1.0, static_cast<int>(k));
    if (rung(rate)) {
      if (missed == 0) kept = rate;
    } else if (missed == 0) {
      missed = rate;
    }
  }
  if (missed == 0) {
    std::fprintf(stderr, "# ladder: kept up at its top rate %.0f/s\n", kept);
  }
  for (size_t k = 0; k < kLadderBisections && kept > 0 && missed > 0; ++k) {
    const double rate = std::sqrt(kept * missed);
    (rung(rate) ? kept : missed) = rate;
  }
  between();
  {
    std::unique_lock<std::mutex> lock(swap_mu);
    stop_swapping = true;
  }
  swap_cv.notify_all();
  swapper.join();
  server.Drain();
  return true;
}

// Server CPU per flush of `rows` requests: rounds of `rows` Submits sent
// together to an idle PredictServer serving the model, each round waited
// out, timed as process CPU minus the calling thread's own (the same split
// cpu_us_per_row makes). Covers what a flush costs inside the server:
// the flusher's wake-ups, request assembly, the batched Predict and the
// answers' hand-off.
double FlushCpuUs(const ServeSetup& s, size_t rows) {
  serve::PredictServer server(*s.data);
  if (!server.Deploy(s.model_a).ok()) return 0;
  std::vector<double> us;
  std::vector<std::future<float>> answers;
  for (size_t round = 0; round < 220; ++round) {
    answers.clear();
    const double c0 = ProcessCpuSec(), t0 = ThreadCpuSec();
    for (size_t k = 0; k < rows; ++k) {
      auto fut =
          server.Submit(s.requests[(round * rows + k) % s.requests.size()]);
      if (!fut.ok()) return 0;
      answers.push_back(std::move(fut).value());
    }
    for (auto& a : answers) a.get();
    const double server_cpu =
        (ProcessCpuSec() - c0) - (ThreadCpuSec() - t0);
    if (round >= 20) us.push_back(server_cpu * 1e6);
  }
  server.Drain();
  return Median(us);
}

// FlushCpuUs at a mean batch size, interpolated between the two whole
// sizes around it (a flush's cost is close to linear in its rows).
double MeanFlushCpuUs(const ServeSetup& s, double batch_mean) {
  const size_t lo = std::max<size_t>(1, static_cast<size_t>(batch_mean));
  const double frac = std::max(0.0, batch_mean - static_cast<double>(lo));
  const double at_lo = FlushCpuUs(s, lo);
  return frac > 0 ? at_lo + frac * (FlushCpuUs(s, lo + 1) - at_lo) : at_lo;
}

void SetOpenLoopLayers(const OpenLoopRun& run, const ServeSetup& s,
                       Result* out) {
  const OpenPhase& m = run.main;
  std::vector<double> late = m.late_us;
  size_t backlog_max = m.backlog_max;
  for (const OpenPhase& r : run.rungs) {
    if (!KeptUp(r)) continue;  // past capacity: held at the cap, or stopped
    late.insert(late.end(), r.late_us.begin(), r.late_us.end());
    backlog_max = std::max(backlog_max, r.backlog_max);
  }
  out->Set("loadgen.late_p99_us", Quantile(late, 0.99), "us");
  out->Set("loadgen.backlog_max", static_cast<double>(backlog_max), "count");
  out->Set("serve.submit_us", Median(m.submit_us), "us");
  out->Set("serve.wait_us", Median(m.wait_us), "us");
  const double flushes =
      static_cast<double>(run.after_main.flushes - run.before.flushes);
  const double batch_mean =
      flushes > 0 ? static_cast<double>(run.after_main.requests -
                                        run.before.requests) /
                        flushes
                  : 0;
  out->Set("serve.flushes", flushes, "count");
  out->Set("serve.batch_mean", batch_mean, "rows");
  out->Set("serve.flush_cpu_us", MeanFlushCpuUs(s, batch_mean), "us");
  out->Set("serve.batch_fill",
           batch_mean / static_cast<double>(serve::ServeOptions().max_batch),
           "ratio");
  out->Set("serve.swap_ms", Median(run.swap_ms), "ms");
  out->Set("serve.swaps", static_cast<double>(run.swap_ms.size()), "count");
  out->Set("serve.p99_us", Quantile(m.latency_us, 0.99), "us");
  out->Set("serve.p999_us", Quantile(m.latency_us, 0.999), "us");
  out->Set("serve.tail_samples",
           static_cast<double>(HighestSupportedPercentile(m.latency_us).count),
           "count");
  for (size_t k = 0; k < kLadderFixedRungs; ++k) {
    const std::string r = ".r" + std::to_string(k + 1);
    const OpenPhase& rung = run.rungs[run.first_attempt[k]];
    out->Set("serve.p50_us" + r, Quantile(rung.latency_us, 0.5), "us");
    out->Set("serve.p90_us" + r, Quantile(rung.latency_us, 0.9), "us");
  }
}

// Quantile `q` of the call time of `calls` PredictNow calls over the test
// rows, after a tenth as many untimed; every answer must equal `expect`
// for its row bit for bit.
double PredictNowQuantile(serve::PredictServer* server, const ServeSetup& s,
                          const std::vector<float>& expect, size_t calls,
                          double q, Result* out) {
  std::vector<double> us;
  us.reserve(calls);
  size_t mismatches = 0;
  for (size_t i = 0; i < calls + calls / 10; ++i) {
    const size_t k = i % s.requests.size();
    const double t0 = NowSec();
    auto score = server->PredictNow(s.requests[k]);
    if (i >= calls / 10) us.push_back((NowSec() - t0) * 1e6);
    if (!score.ok() || !SameBits(*score, expect[k])) ++mismatches;
  }
  if (mismatches > 0) {
    out->Fail(std::to_string(mismatches) +
              " batch-1 scores differ from the model's batch scores");
  }
  return Quantile(us, q);
}

// The batch-1 serving layers: quantization, the int8 snapshot's size and
// tail at batch 1, and the fp32 model at batch 1 for comparison.
void SetBatch1Layers(const ServeSetup& s, Result* out) {
  std::vector<double> quantize_ms;
  std::shared_ptr<const CtrModel> int8;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = NowSec();
    if (!serve::QuantizeSnapshot(s.model_a, QuantMode::kInt8, &int8).ok()) {
      out->Fail("QuantizeSnapshot");
      return;
    }
    quantize_ms.push_back((NowSec() - t0) * 1e3);
  }
  out->Set("serve.quantize_ms", Median(quantize_ms), "ms");
  const auto* q =
      dynamic_cast<const serve::QuantizedFixedArchModel*>(int8.get());
  if (q != nullptr && q->EmbeddingRows() > 0) {
    out->Set("serve.int8_bytes_per_row",
             static_cast<double>(q->EmbeddingBytes()) /
                 static_cast<double>(q->EmbeddingRows()),
             "B");
  }
  serve::PredictServer server(*s.data);
  if (!server.Deploy(int8).ok()) {
    out->Fail("deploy int8 snapshot");
    return;
  }
  // The int8 activation scale is per row, so batch-1 answers must equal
  // the snapshot's own batch scores bit for bit.
  out->Set("serve.p99_us.b1",
           PredictNowQuantile(&server, s, OfflineScores(*int8, *s.data, s.test),
                              kProbeB1Calls, 0.99, out),
           "us");
  if (!server.Deploy(s.model_a).ok()) {
    out->Fail("deploy fp32 model");
    return;
  }
  out->Set("serve.b1_fp32_us",
           PredictNowQuantile(&server, s, s.scores[0], kProbeB1Calls, 0.5,
                              out),
           "us");
}

// ---------------------------------------------------------------------
// The traced run's layer suite. Every traced run measures every layer on
// the workload's own data and model shapes: the layers its job executes
// come from its own run (filled in before the suite runs), and the suite
// adds short probes for the rest, so no per-layer value is a placeholder.

struct SuiteInput {
  const SynthConfig* synth = nullptr;
  const EncodedDataset* data = nullptr;
  const Splits* splits = nullptr;
  HyperParams hp;
  Architecture arch;
  size_t threads = 1;
  std::string work_dir;
  uint64_t seed = 1;
  double pipelined_step_us = 0;  // 0: one pipelined epoch measures it
  const ServeSetup* serve = nullptr;  // null: built from `data`
};

void RunLayerSuite(const SuiteInput& in, Result* out) {
  double t0 = NowSec();
  const RawDataset raw = GenerateSynthetic(*in.synth);
  out->Set("synth.gen_s", NowSec() - t0, "s");

  // data: this workload's rows through the streamed path.
  {
    const std::string dir = in.work_dir + "/probe_shards";
    MaterializedRowSource source(&raw);
    t0 = NowSec();
    auto stats = MakeEmptyDir(dir)
                     ? StreamEncodeToShards(&source, dir, EncodeOptions(in.hp))
                     : optinter::Result<StreamEncodeStats>(
                           Status::IoError("cannot create " + dir));
    if (stats.ok()) {
      out->Set("data.encode_rows_per_s",
               static_cast<double>(raw.num_rows) / (NowSec() - t0), "1/s");
      out->Set("data.collision_frac", CollisionFrac(*stats), "ratio");
      StreamReplayEpoch(dir, in.hp, out);
    } else {
      out->Fail("probe encode: " + stats.status().ToString());
    }
    RemoveTree(dir);
  }

  // core: one search + re-train job on this workload's data.
  if (!out->Has("core.search_s")) {
    HyperParams hp = in.hp;
    hp.search_epochs = kSearchEpochs;
    hp.epochs = kRetrainEpochs;
    const SearchJob job = RunSearchJob(*in.data, *in.splits, hp);
    out->Set("core.search_s", job.search_s, "s");
    out->Set("core.retrain_s", job.retrain_s, "s");
    out->Set("core.epochs", static_cast<double>(job.epochs), "count");
  }

  // train, tensor, nn, models, io.
  ProbeInput probe;
  probe.data = in.data;
  probe.rows = in.splits->train;
  probe.test = in.splits->test;
  probe.hp = in.hp;
  probe.arch = in.arch;
  probe.threads = in.threads;
  probe.work_dir = in.work_dir;
  probe.pipelined_step_us = in.pipelined_step_us;
  if (probe.pipelined_step_us <= 0) {
    FixedArchModel model(*in.data, in.arch, in.hp, "probe");
    TrainOptions topts;
    topts.epochs = 1;
    topts.batch_size = in.hp.batch_size;
    topts.seed = in.hp.seed;
    topts.patience = 0;
    const TrainSummary s = TrainModel(&model, *in.data, *in.splits, topts);
    const size_t steps =
        (in.splits->train.size() + in.hp.batch_size - 1) / in.hp.batch_size;
    probe.pipelined_step_us =
        s.telemetry.train_seconds_total * 1e6 / static_cast<double>(steps);
  }
  ProbeTrainPhases(probe, out);
  if (!out->Has("core.search_step_us")) ProbeSearchModel(probe, out);
  ProbeKernels(probe, out);
  ProbeEmbedding(probe, out);
  ProbeIo(probe, out);

  // metrics: AUC of a test split's scores.
  {
    FixedArchModel model(*in.data, in.arch, in.hp, "probe");
    const std::vector<float> scores =
        OfflineScores(model, *in.data, in.splits->test);
    const std::vector<float> labels = Labels(*in.data, in.splits->test);
    t0 = NowSec();
    Auc(scores, labels);
    out->Set("metrics.auc_ms", (NowSec() - t0) * 1e3, "ms");
  }

  // serve: a short open loop on this workload's model, and batch 1.
  ServeSetup local;
  const ServeSetup* s = in.serve;
  if (s == nullptr) {
    if (!BuildServeSetup(*in.data, *in.splits, in.hp, in.arch, in.work_dir,
                         &local)) {
      out->Fail("probe serving set-up");
      return;
    }
    s = &local;
  }
  if (!out->Has("serve.wait_us")) {
    OpenLoopRun run;
    if (!RunOpenLoop(*s, kProbeWarmS, kProbeMainS, kProbeRungS, in.seed,
                     [] {}, &run) ||
        run.failed() > 0) {
      out->Fail("probe open loop: rejected or mis-scored answers");
    }
    SetOpenLoopLayers(run, *s, out);
  }
  SetBatch1Layers(*s, out);
}

// ---------------------------------------------------------------------
// search_retrain

bool RunSearchRetrain(const RunConfig& cfg, Result* out) {
  SynthConfig synth = ProfileConfig("criteo_like");
  ScaleRows(&synth, kSearchRowsScale);
  HyperParams hp = ProfileHyperParams("criteo_like", cfg.seed);
  hp.search_epochs = kSearchEpochs;
  hp.epochs = kRetrainEpochs;

  std::vector<double> setup_s;
  PreparedDataset p;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = NowSec();
    p = PrepareFromConfig(synth);
    setup_s.push_back(NowSec() - t0);
  }
  out->Set("setup_s", Median(setup_s), "s");

  HostSample host;
  host.Begin();
  std::vector<SearchJob> jobs;
  const double start = NowSec();
  while (jobs.size() < 3 || NowSec() - start < cfg.seconds) {
    const CpuJiffies stat = ReadProcStat();
    jobs.push_back(RunSearchJob(p.data, p.splits, hp));
    const SearchJob& j = jobs.back();
    PrintJob(jobs.size(), j.wall_s, j.rows, j.cpu_s, j.auc, stat);
  }
  host.End(out);

  std::vector<double> rate, cpu, wall, eval_rate, good_rate;
  for (const SearchJob& j : jobs) {
    ++out->attempted;
    const bool same = j.auc == jobs[0].auc && j.arch == jobs[0].arch;
    good_rate.push_back(j.ok && same ? j.rows / j.wall_s : 0.0);
    if (!j.ok || !same) {
      ++out->failed;
      out->Fail("search_retrain job output differs or is invalid");
      continue;
    }
    rate.push_back(j.rows / j.wall_s);
    cpu.push_back(j.cpu_s * 1e6 / j.rows);
    wall.push_back(j.wall_s);
    eval_rate.push_back(j.eval_rows / j.eval_pass_s);
  }
  out->Set("rows_per_s", Median(rate), "1/s");
  out->Set("cpu_us_per_row", Median(cpu), "us");
  // Like serve_open's, from the fastest tenth: a job's scoring passes last
  // about 0.1 s, and their speed follows what the host's neighbours do.
  out->Set("eval_rows_per_s", Quantile(eval_rate, 0.9), "1/s");
  SetTrainingLatency(wall, out);
  out->Set("goodput_rps", Median(good_rate), "1/s");
  out->Set("test_auc", jobs[0].auc, "auc");

  if (cfg.trace) {
    std::vector<double> search_s, retrain_s, eval_s, step_us;
    for (const SearchJob& j : jobs) {
      search_s.push_back(j.search_s);
      retrain_s.push_back(j.retrain_s);
      eval_s.push_back(j.eval_s);
      step_us.push_back(j.retrain_step_us);
    }
    out->Set("core.search_s", Median(search_s), "s");
    out->Set("core.retrain_s", Median(retrain_s), "s");
    out->Set("core.epochs", static_cast<double>(jobs[0].epochs), "count");
    out->Set("metrics.eval_s", Median(eval_s), "s");
    SuiteInput in;
    in.synth = &synth;
    in.data = &p.data;
    in.splits = &p.splits;
    in.hp = hp;
    in.arch = jobs[0].arch;
    in.threads = WorkloadThreads(cfg.workload);
    in.work_dir = cfg.work_dir;
    in.seed = cfg.seed;
    in.pipelined_step_us = Median(step_us);

    // Coverage rounds: the job's layers measured on fresh models, then one
    // more job right after them, so both see the same host. Each round
    // predicts its job from its layers: building the two models, a search
    // epoch of supernet steps and the re-train's epochs of frozen-model
    // steps, and the scoring passes scaled from one test pass by their rows
    // (the supernet's validation and test passes; the re-train's one per
    // epoch, one after restoring the best epoch, the trainer's test pass
    // and the job's own).
    ProbeInput probe;
    probe.data = &p.data;
    probe.rows = p.splits.train;
    probe.test = p.splits.test;
    probe.hp = hp;
    probe.arch = in.arch;
    probe.threads = in.threads;
    const double steps = std::ceil(static_cast<double>(p.splits.train.size()) /
                                   static_cast<double>(hp.batch_size));
    const double val = static_cast<double>(p.splits.val.size());
    const double test = static_cast<double>(p.splits.test.size());
    std::vector<double> coverage, build_ms, search_step_us, search_eval_s;
    for (int round = 0; round < kCoverageRounds; ++round) {
      const JobLayers l = MeasureJobLayers(probe);
      const SearchJob j = RunSearchJob(p.data, p.splits, hp);
      if (!j.ok || j.auc != jobs[0].auc || j.arch != jobs[0].arch) {
        out->Fail("coverage round: job output differs or is invalid");
      }
      const double predicted_s =
          1e-3 * l.build_ms +
          1e-6 * steps *
              (kSearchEpochs * l.search_step_us + kRetrainEpochs * l.step_us) +
          (val + test) / test * l.search_eval_s +
          ((kRetrainEpochs + 1) * val + 2 * test) / test * l.eval_s;
      coverage.push_back(predicted_s / j.wall_s);
      build_ms.push_back(l.build_ms);
      search_step_us.push_back(l.search_step_us);
      search_eval_s.push_back(l.search_eval_s);
      std::fprintf(stderr, "# coverage round %d: layers %.3fs, job %.3fs\n",
                   round, predicted_s, j.wall_s);
    }
    out->Set("core.build_ms", Median(build_ms), "ms");
    out->Set("core.search_step_us", Median(search_step_us), "us");
    out->Set("core.search_eval_s", Median(search_eval_s), "s");
    SetCoverage(Median(coverage), out);
    RunLayerSuite(in, out);
  }
  return true;
}

// ---------------------------------------------------------------------
// Serving workloads: criteo_like data and the mixed-arch model.

struct ServeWorkload {
  SynthConfig synth;
  PreparedDataset p;
  ServeSetup s;
};

bool SetUpServeWorkload(const RunConfig& cfg, ServeWorkload* w) {
  w->synth = ProfileConfig("criteo_like");
  ScaleRows(&w->synth, kServeRowsScale);
  w->p = PrepareFromConfig(w->synth);
  const HyperParams hp = ProfileHyperParams("criteo_like", cfg.seed);
  return BuildServeSetup(w->p.data, w->p.splits, hp,
                         MixedArch(w->p.data.num_pairs()), cfg.work_dir,
                         &w->s);
}

SuiteInput ServeSuiteInput(const RunConfig& cfg, const ServeWorkload& w) {
  SuiteInput in;
  in.synth = &w.synth;
  in.data = &w.p.data;
  in.splits = &w.p.splits;
  in.hp = w.s.hp;
  in.arch = w.s.arch;
  in.threads = WorkloadThreads(cfg.workload);
  in.work_dir = cfg.work_dir;
  in.seed = cfg.seed;
  in.serve = &w.s;
  return in;
}

// ---------------------------------------------------------------------
// serve_open

bool RunServeOpen(const RunConfig& cfg, Result* out) {
  std::vector<double> setup_s;
  ServeWorkload w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = NowSec();
    if (!SetUpServeWorkload(cfg, &w)) return false;
    setup_s.push_back(NowSec() - t0);
  }
  out->Set("setup_s", Median(setup_s), "s");
  const ServeSetup& s = w.s;

  // Nominal phase, then the ladder, with offline scoring bursts between.
  EvalSampler eval(*s.model_a, s);
  HostSample host;
  host.Begin();
  OpenLoopRun run;
  if (!RunOpenLoop(s, kServeWarmS, 0.5 * cfg.seconds, cfg.seconds / 36,
                   cfg.seed, [&] { eval.Burst(); }, &run)) {
    return false;
  }
  host.End(out);

  out->attempted = run.attempted();
  out->failed = run.failed();
  if (out->failed > 0) {
    out->Fail(std::to_string(out->failed) +
              " requests rejected, unanswered or mis-scored");
  }
  const OpenPhase& m = run.main;
  const double answered = static_cast<double>(m.answered);
  out->Set("rows_per_s", answered / m.wall_s, "1/s");
  out->Set("cpu_us_per_row", m.server_cpu_s * 1e6 / answered, "us");
  out->Set("p50_us", WindowedQuantile(m, 0.5, kLatencyWindowS), "us");
  out->Set("p90_us", WindowedQuantile(m, 0.9, kLatencyWindowS), "us");
  out->Set("goodput_rps", run.goodput_rps, "1/s");
  // The ladder's own request bookkeeping grows with how far it climbs, so
  // counting it would make a faster server read as a larger one.
  out->Set("peak_rss_mb", run.peak_rss_main_mb, "MiB");
  out->Set("test_auc", Auc(s.scores[0], Labels(*s.data, s.test)), "auc");
  out->Set("eval_rows_per_s", eval.RowsPerSec(), "1/s");

  if (cfg.trace) {
    out->Set("metrics.eval_s", eval.MedianPassSeconds(), "s");
    SetOpenLoopLayers(run, s, out);
    RunLayerSuite(ServeSuiteInput(cfg, w), out);
    // The server's CPU in the nominal phase from its layers: every flush
    // at the phase's mean batch, and every hot-swap that ended in it.
    const double predicted_s =
        1e-6 * out->Get("serve.flushes") * out->Get("serve.flush_cpu_us") +
        1e-3 * static_cast<double>(run.SwapsInMain()) *
            out->Get("serve.swap_ms");
    std::fprintf(stderr, "# coverage: layers %.3fs, server CPU %.3fs\n",
                 predicted_s, m.server_cpu_s);
    SetCoverage(predicted_s / m.server_cpu_s, out);
  }
  return true;
}

}  // namespace

const std::vector<MetricDef>& EndToEndMetrics() { return kEndToEnd; }
const std::vector<MetricDef>& PerLayerMetrics() { return kPerLayer; }

size_t WorkloadThreads(const std::string& workload) {
  return workload == "search_retrain" || workload == "serve_open" ? 1 : 0;
}

bool RunWorkload(const RunConfig& config, Result* out) {
  bool ok = false;
  if (config.workload == "search_retrain") ok = RunSearchRetrain(config, out);
  if (config.workload == "serve_open") ok = RunServeOpen(config, out);
  if (!ok) return false;
  if (!out->Has("peak_rss_mb")) out->Set("peak_rss_mb", PeakRssMb(), "MiB");
  out->Set("ok_frac",
           out->attempted > 0
               ? 1.0 - static_cast<double>(out->failed) /
                           static_cast<double>(out->attempted)
               : 0.0,
           "ratio");
  return true;
}

}  // namespace e2e
