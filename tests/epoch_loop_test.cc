// Reference-loop tests: TrainModel and RunSearchStage against a plain
// hand-written StartEpoch / Next / TrainStep loop.
//
// The pipelined-vs-serial and streamed-vs-in-RAM suites compare one entry
// point of the shared epoch loop with another, so a change inside that loop
// moves both sides at once. These tests pin the loop to the algorithm
// itself (paper Algorithms 1 and 2 written out in a dozen lines), bit for
// bit, at 1 and 4 threads.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/thread_pool.h"
#include "core/fixed_arch_model.h"
#include "core/pipeline.h"
#include "core/search_model.h"
#include "obs/search_dynamics.h"
#include "test_data.h"
#include "train/trainer.h"

namespace optinter {
namespace {

using testing::SharedTinyData;

constexpr size_t kThreadCounts[] = {1, 4};

struct PoolGuard {
  size_t saved = ThreadPool::Global().num_threads();
  ~PoolGuard() { ThreadPool::SetGlobalThreads(saved); }
};

HyperParams TinyHp() {
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 77;
  return hp;
}

Architecture MixedArch(size_t num_pairs) {
  Architecture arch(num_pairs, InterMethod::kNaive);
  arch[0] = InterMethod::kMemorize;
  arch[1] = InterMethod::kFactorize;
  arch[4] = InterMethod::kMemorize;
  arch[7] = InterMethod::kFactorize;
  return arch;
}

// Bitwise equality of two float buffers (NaN-safe, -0 vs +0 distinct).
bool SameBits(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void ExpectSameState(CtrModel* got, CtrModel* want) {
  std::vector<Tensor*> g;
  std::vector<Tensor*> w;
  got->CollectState(&g);
  want->CollectState(&w);
  ASSERT_EQ(g.size(), w.size());
  ASSERT_FALSE(w.empty());
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_TRUE(SameBits(*g[i], *w[i])) << "state tensor " << i;
  }
}

void ExpectSameMetrics(const EvalMetrics& got, const EvalMetrics& want) {
  EXPECT_EQ(got.auc, want.auc);
  EXPECT_EQ(got.logloss, want.logloss);
}

// ---------------------------------------------------------------------------
// TrainModel
// ---------------------------------------------------------------------------

// Algorithm 2 without a validation split: shuffle, step through every
// batch, repeat. Returns the per-epoch mean train losses.
std::vector<double> ReferenceTrain(CtrModel* model, const EncodedDataset& data,
                                   const std::vector<size_t>& train,
                                   const TrainOptions& options) {
  Batcher batcher(&data, train, options.batch_size, options.seed);
  std::vector<double> losses;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    batcher.StartEpoch();
    double loss_sum = 0.0;
    size_t batches = 0;
    for (;;) {
      Batch b = batcher.Next();
      if (b.size == 0) break;
      loss_sum += model->TrainStep(b);
      ++batches;
    }
    losses.push_back(loss_sum / static_cast<double>(batches));
  }
  return losses;
}

void CheckTrainModelMatchesReference(bool pipeline) {
  PoolGuard guard;
  const auto& p = SharedTinyData();
  Splits splits = p.splits;
  splits.val.clear();
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 256;
  options.seed = 41;
  options.patience = 0;
  options.pipeline = pipeline;
  const Architecture arch = MixedArch(p.data.num_pairs());

  ThreadPool::SetGlobalThreads(1);
  FixedArchModel ref(p.data, arch, TinyHp(), "reference");
  const std::vector<double> ref_losses =
      ReferenceTrain(&ref, p.data, splits.train, options);
  const EvalMetrics ref_test = EvaluateModel(&ref, p.data, splits.test);

  for (const size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    ThreadPool::SetGlobalThreads(threads);
    FixedArchModel model(p.data, arch, TinyHp(), "trained");
    ASSERT_TRUE(model.SupportsPhasedTrainStep());
    const TrainSummary s = TrainModel(&model, p.data, splits, options);
    EXPECT_EQ(s.epochs_run, options.epochs);
    EXPECT_EQ(s.epoch_train_losses, ref_losses);
    EXPECT_TRUE(s.epoch_val_aucs.empty());
    EXPECT_FALSE(s.telemetry.restored_best_snapshot);
    EXPECT_FALSE(s.telemetry.early_stopped);
    ExpectSameMetrics(s.final_test, ref_test);
    ExpectSameState(&model, &ref);
  }
}

TEST(ReferenceLoopTest, TrainModelPipelinedMatchesHandWrittenLoop) {
  CheckTrainModelMatchesReference(/*pipeline=*/true);
}

TEST(ReferenceLoopTest, TrainModelSerialMatchesHandWrittenLoop) {
  CheckTrainModelMatchesReference(/*pipeline=*/false);
}

// ---------------------------------------------------------------------------
// RunSearchStage
// ---------------------------------------------------------------------------

struct ReferenceSearch {
  Architecture arch;
  std::vector<FactorizeFn> fns;
  std::vector<double> losses;
  std::vector<float> temperatures;
  std::vector<std::vector<double>> alpha_entropy;  // per epoch, per pair
  std::vector<obs::AlphaFlipEvent> flips;
  EvalMetrics val;
  EvalMetrics test;
};

// Algorithm 1 written out: anneal τ linearly, step Θ (and α in joint
// mode) on every train batch, and in bi-level mode follow each step with
// an α step on the next validation batch, restarting the validation
// batcher when it runs out. Every `sample_every` steps the argmax
// architecture is diffed against the previous sample.
ReferenceSearch RunReferenceSearch(const testing::PreparedData& p,
                                   const HyperParams& hp,
                                   const SearchOptions& options) {
  SearchModel model(p.data, hp, options.mode, options.fns);
  Batcher train(&p.data, p.splits.train, hp.batch_size, hp.seed);
  Batcher arch_batches(&p.data, p.splits.val, hp.batch_size,
                       hp.seed ^ 0xa5c3ULL);
  arch_batches.StartEpoch();
  ReferenceSearch out;
  const size_t epochs = options.search_epochs;
  size_t step = 0;
  Architecture sampled;
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    const float frac = static_cast<float>(epoch) /
                       static_cast<float>(epochs - 1);
    model.SetTemperature(hp.gumbel_temp_start +
                         frac * (hp.gumbel_temp_end - hp.gumbel_temp_start));
    train.StartEpoch();
    double loss_sum = 0.0;
    size_t batches = 0;
    for (;;) {
      Batch b = train.Next();
      if (b.size == 0) break;
      loss_sum += model.TrainStep(b);
      ++batches;
      if (options.mode == UpdateMode::kBilevel) {
        Batch vb = arch_batches.Next();
        if (vb.size == 0) {
          arch_batches.StartEpoch();
          vb = arch_batches.Next();
        }
        model.ArchStep(vb);
      }
      ++step;
      if (options.alpha_sample_every > 0 &&
          step % options.alpha_sample_every == 0) {
        const Architecture cur = model.ExtractArchitecture();
        for (size_t q = 0; q < cur.size() && !sampled.empty(); ++q) {
          if (cur[q] == sampled[q]) continue;
          obs::AlphaFlipEvent ev;
          ev.epoch = epoch;
          ev.step = step;
          ev.pair = q;
          ev.from = static_cast<int>(sampled[q]);
          ev.to = static_cast<int>(cur[q]);
          out.flips.push_back(ev);
        }
        sampled = cur;
      }
    }
    out.losses.push_back(loss_sum / static_cast<double>(batches));
    out.temperatures.push_back(model.temperature());
    const Architecture arch = model.ExtractArchitecture();
    out.alpha_entropy.push_back(
        SnapshotSearchDynamics(model, epoch, {}, arch).alpha_entropy_per_pair);
  }
  out.arch = model.ExtractArchitecture(&out.fns);
  out.val = EvaluateModel(&model, p.data, p.splits.val);
  out.test = EvaluateModel(&model, p.data, p.splits.test);
  return out;
}

// RunSearchStage builds its model internally, so the final weights are
// compared through what they determine: the architecture, the per-epoch
// α entropies and the bitwise val/test metrics of the search model.
void CheckSearchMatchesReference(const SearchOptions& options) {
  PoolGuard guard;
  const auto& p = SharedTinyData();
  const HyperParams hp = TinyHp();
  ASSERT_GE(options.search_epochs, 2u);  // τ must actually anneal
  ASSERT_TRUE(options.anneal_temperature);

  ThreadPool::SetGlobalThreads(1);
  const ReferenceSearch ref = RunReferenceSearch(p, hp, options);
  ASSERT_NE(ref.temperatures.front(), ref.temperatures.back());

  for (const size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    ThreadPool::SetGlobalThreads(threads);
    const SearchResult r = RunSearchStage(p.data, p.splits, hp, options);
    EXPECT_EQ(r.arch, ref.arch);
    EXPECT_EQ(r.fns, ref.fns);
    ASSERT_EQ(r.telemetry.epochs.size(), ref.losses.size());
    ASSERT_EQ(r.dynamics.epochs.size(), ref.losses.size());
    for (size_t e = 0; e < ref.losses.size(); ++e) {
      EXPECT_EQ(r.telemetry.epochs[e].mean_train_loss, ref.losses[e]) << e;
      EXPECT_EQ(r.telemetry.epochs[e].eval_seconds, 0.0) << e;
      EXPECT_EQ(r.dynamics.epochs[e].temperature, ref.temperatures[e]) << e;
      EXPECT_EQ(r.dynamics.epochs[e].alpha_entropy_per_pair,
                ref.alpha_entropy[e])
          << e;
    }
    ASSERT_EQ(r.dynamics.flip_events.size(), ref.flips.size());
    for (size_t i = 0; i < ref.flips.size(); ++i) {
      const obs::AlphaFlipEvent& g = r.dynamics.flip_events[i];
      const obs::AlphaFlipEvent& w = ref.flips[i];
      EXPECT_EQ(g.epoch, w.epoch);
      EXPECT_EQ(g.step, w.step);
      EXPECT_EQ(g.pair, w.pair);
      EXPECT_EQ(g.from, w.from);
      EXPECT_EQ(g.to, w.to);
    }
    ExpectSameMetrics(r.search_val, ref.val);
    ExpectSameMetrics(r.search_test, ref.test);
  }
}

TEST(ReferenceLoopTest, JointPipelinedSearchMatchesHandWrittenLoop) {
  SearchOptions options;
  options.search_epochs = 3;
  options.mode = UpdateMode::kJoint;
  options.pipeline = true;
  options.alpha_sample_every = 2;
  CheckSearchMatchesReference(options);
}

TEST(ReferenceLoopTest, JointSerialSearchMatchesHandWrittenLoop) {
  SearchOptions options;
  options.search_epochs = 3;
  options.mode = UpdateMode::kJoint;
  options.pipeline = false;
  options.alpha_sample_every = 3;
  CheckSearchMatchesReference(options);
}

// The multi-operation search set F = {Hadamard, inner}: K = 4 candidates
// per pair through the same executor and interaction loops.
TEST(ReferenceLoopTest, MultiOpPipelinedSearchMatchesHandWrittenLoop) {
  SearchOptions options;
  options.search_epochs = 3;
  options.fns = {FactorizeFn::kHadamard, FactorizeFn::kInnerProduct};
  options.pipeline = true;
  options.alpha_sample_every = 2;
  CheckSearchMatchesReference(options);
}

TEST(ReferenceLoopTest, MultiOpSerialSearchMatchesHandWrittenLoop) {
  SearchOptions options;
  options.search_epochs = 3;
  options.fns = {FactorizeFn::kHadamard, FactorizeFn::kInnerProduct};
  options.pipeline = false;
  options.alpha_sample_every = 3;
  CheckSearchMatchesReference(options);
}

TEST(ReferenceLoopTest, BilevelSearchMatchesHandWrittenLoop) {
  SearchOptions options;
  options.search_epochs = 3;
  options.mode = UpdateMode::kBilevel;
  options.alpha_sample_every = 2;
  CheckSearchMatchesReference(options);
}

}  // namespace
}  // namespace optinter
