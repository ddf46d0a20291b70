// Tests for the multi-operation search-space extension: SearchModel with
// a factorization set F of more than one function.

#include <gtest/gtest.h>

#include "core/fixed_arch_model.h"
#include "core/search_model.h"
#include "test_data.h"
#include "train/trainer.h"

namespace optinter {
namespace {

using testing::HeadBatch;
using testing::SharedTinyData;

HyperParams TinyHp() {
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 55;
  return hp;
}

// The search set the multi-operation benchmark uses.
const std::vector<FactorizeFn> kMultiOpFns = {FactorizeFn::kHadamard,
                                               FactorizeFn::kInnerProduct};

SearchModel MultiOpModel(const HyperParams& hp) {
  return SearchModel(SharedTinyData().data, hp, UpdateMode::kJoint,
                     kMultiOpFns);
}

TEST(MultiOpSearchTest, DefaultHasFourCandidates) {
  const auto& p = SharedTinyData();
  SearchModel model = MultiOpModel(TinyHp());
  EXPECT_EQ(model.num_candidates(), 4u);
  EXPECT_EQ(model.alpha().value.cols(), 4u);
  EXPECT_EQ(model.alpha().value.rows(), p.data.num_pairs());
}

TEST(MultiOpSearchTest, TrainsAndExtracts) {
  const auto& p = SharedTinyData();
  SearchModel model = MultiOpModel(TinyHp());
  Batch b = HeadBatch(p, 256);
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 20; ++i) {
    const float loss = model.TrainStep(b);
    ASSERT_TRUE(std::isfinite(loss));
    if (i == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
  std::vector<FactorizeFn> fns;
  Architecture arch = model.ExtractArchitecture(&fns);
  EXPECT_EQ(arch.size(), p.data.num_pairs());
  EXPECT_EQ(fns.size(), p.data.num_pairs());
}

TEST(MultiOpSearchTest, PredictionsValid) {
  const auto& p = SharedTinyData();
  SearchModel model = MultiOpModel(TinyHp());
  Batch b = HeadBatch(p, 64);
  std::vector<float> probs;
  model.Predict(b, &probs);
  for (float q : probs) {
    EXPECT_GT(q, 0.0f);
    EXPECT_LT(q, 1.0f);
  }
}

TEST(MultiOpSearchTest, StateCoversEveryParameter) {
  SearchModel model = MultiOpModel(TinyHp());
  std::vector<Tensor*> state;
  model.CollectState(&state);
  size_t total = 0;
  for (Tensor* t : state) total += t->size();
  EXPECT_EQ(total, model.ParamCount());
}

TEST(MultiOpSearchTest, SingleFnReducesToThreeWay) {
  const auto& p = SharedTinyData();
  SearchModel model(p.data, TinyHp(), UpdateMode::kJoint,
                    {FactorizeFn::kHadamard});
  EXPECT_EQ(model.num_candidates(), 3u);
  std::vector<FactorizeFn> fns;
  model.ExtractArchitecture(&fns);
  for (size_t q = 0; q < fns.size(); ++q) {
    EXPECT_EQ(fns[q], FactorizeFn::kHadamard);
  }
}

TEST(MultiOpSearchTest, SearchedArchRetrainsWithPerPairFns) {
  const auto& p = SharedTinyData();
  HyperParams hp = TinyHp();
  SearchModel search = MultiOpModel(hp);
  Batch b = HeadBatch(p, 256);
  for (int i = 0; i < 30; ++i) search.TrainStep(b);
  std::vector<FactorizeFn> fns;
  Architecture arch = search.ExtractArchitecture(&fns);

  FixedArchModel model(p.data, arch, hp, "multi",
                       /*memorized_triples=*/{}, fns);
  TrainOptions topts;
  topts.epochs = 2;
  topts.batch_size = 256;
  topts.seed = hp.seed;
  topts.patience = 0;
  TrainSummary s = TrainModel(&model, p.data, p.splits, topts);
  EXPECT_GT(s.final_test.auc, 0.55);
}

TEST(FixedArchPerPairFnTest, MixedFnsChangeLayoutAndWidth) {
  const auto& p = SharedTinyData();
  HyperParams hp = TinyHp();
  Architecture arch = AllFactorize(p.data.num_pairs());
  std::vector<FactorizeFn> fns(p.data.num_pairs(),
                               FactorizeFn::kInnerProduct);
  fns[0] = FactorizeFn::kHadamard;
  FixedArchModel mixed(p.data, arch, hp, "mixed", {}, fns);
  FixedArchModel all_inner(
      p.data, arch, hp, "inner", {},
      std::vector<FactorizeFn>(p.data.num_pairs(),
                               FactorizeFn::kInnerProduct));
  // One Hadamard pair widens the MLP input by (s1 - 1) columns.
  const size_t first_hidden = hp.mlp_hidden.front();
  EXPECT_EQ(mixed.ParamCount() - all_inner.ParamCount(),
            (hp.embed_dim - 1) * first_hidden);

  Batch b = HeadBatch(p, 128);
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 20; ++i) {
    const float loss = mixed.TrainStep(b);
    ASSERT_TRUE(std::isfinite(loss));
    if (i == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace optinter
