// OptInter search-stage model (paper §II-C, Algorithm 1).
//
// Every categorical pair owns architecture logits a_(i,j) ∈ R^K over the
// candidates {memorize} ∪ F ∪ {naïve}, where F is a set of factorization
// functions: the paper's F = {Hadamard} (K = 3), or a larger set for the
// multi-operation extension of §II-C1. During training the discrete
// choice is relaxed with the Gumbel-softmax trick (Eq. 16–17):
//
//   p_k = softmax_k( (a_k + g_k) / τ ),  g_k ~ Gumbel(0,1) i.i.d.
//
// and the combination block outputs the p-weighted sum of the K
// candidate embeddings (Eq. 18), zero-padded to a common width
// d_b = max(s2, max_f width(f)) so the sum is well-typed (the naïve
// candidate is the zero vector, matching the paper's e^n).
//
// Model parameters Θ and architecture parameters α are optimized
// *jointly* by default (the paper's choice); the bi-level alternative
// (DARTS-style alternation, §III-E ablation) is supported via
// ArchStep() + UpdateMode::kBilevel.

#pragma once

#include <memory>
#include <vector>

#include "models/cross_embedding.h"
#include "models/feature_embedding.h"
#include "models/hyperparams.h"
#include "models/interaction.h"
#include "models/model.h"
#include "nn/mlp.h"

namespace optinter {

/// How Θ and α are updated during search.
enum class UpdateMode {
  /// One gradient step updates both Θ and α (paper Algorithm 1).
  kJoint,
  /// TrainStep updates Θ only; ArchStep (on validation batches) updates α
  /// only — the bi-level baseline of the §III-E ablation.
  kBilevel,
};

/// The differentiable search-stage model.
class SearchModel : public CtrModel {
 public:
  /// `fns` is the factorization set F; empty means {hp.factorize_fn}.
  SearchModel(const EncodedDataset& data, const HyperParams& hp,
              UpdateMode mode = UpdateMode::kJoint,
              std::vector<FactorizeFn> fns = {});

  std::string Name() const override {
    return mode_ == UpdateMode::kJoint ? "OptInter-search"
                                       : "OptInter-search-bilevel";
  }

  /// One step on a training batch. Joint mode updates Θ and α; bi-level
  /// mode updates Θ only. Implemented as exactly PrepareBatch +
  /// ForwardBackward + ApplyGrads, so the serial loop and the pipelined
  /// executor produce bit-identical training (including the Gumbel noise
  /// stream, which is consumed inside ForwardBackward in step order).
  float TrainStep(const Batch& batch) override;

  bool SupportsPhasedTrainStep() const override { return true; }
  void PrepareBatch(const Batch& batch, PreparedBatch* prep) const override;
  float ForwardBackward(const PreparedBatch& prep) override;
  void ApplyGrads() override;

  /// Bi-level only: one α-update step (typically on a validation batch).
  /// Reads embeddings through the const Gather and leaves every Θ
  /// parameter untouched.
  float ArchStep(const Batch& batch);

  /// Eval-time prediction: expectation under softmax(α/τ), no noise.
  void Predict(const Batch& batch, std::vector<float>* probs) override;

  /// Re-entrant prediction into a caller-owned context (same math as
  /// Predict above); safe to run concurrently on different batches.
  bool SupportsReentrantPredict() const override { return true; }
  void Predict(const Batch& batch, std::vector<float>* probs,
               ForwardContext* ctx) const override;

  size_t ParamCount() const override;
  void CollectState(std::vector<Tensor*>* out) override;

  /// Gumbel-softmax temperature (annealed by the search driver).
  void SetTemperature(float tau) {
    CHECK_GT(tau, 0.0f);
    tau_ = tau;
  }
  float temperature() const { return tau_; }

  /// Selected method per pair: argmax_k α_(i,j)^k (paper Eq. 19). When
  /// `fns` is non-null it receives each pair's chosen factorization
  /// function (F's first entry for pairs that do not factorize).
  Architecture ExtractArchitecture(
      std::vector<FactorizeFn>* fns = nullptr) const;

  /// Current selection probabilities softmax(α/τ) for pair `p`, in
  /// candidate order {memorize, F..., naïve}.
  std::vector<float> PairProbabilities(size_t p) const;

  /// Candidates per pair: K = |F| + 2.
  size_t num_candidates() const { return fns_.size() + 2; }

  /// Raw architecture logits (tests / diagnostics).
  const DenseParam& alpha() const { return alpha_; }
  DenseParam& mutable_alpha() { return alpha_; }

 private:
  /// softmax(α_p / τ) for pair `p`, written to out[0:K].
  void PairSoftmax(size_t p, float* out) const;

  /// Shared tail of the forward pass: assembles z from ctx->emb_out /
  /// ctx->cross_out, runs the MLP, fills ctx->logits. Touches only `ctx`.
  void AssembleForward(size_t b, const std::vector<float>& probs,
                       ForwardContext* ctx) const;

  /// Fills probs_cache_ with per-pair probabilities under fresh Gumbel
  /// noise.
  void SampleProbs();

  /// Forward from the embeddings already in ctx_, loss, and backward
  /// through the MLP and the interaction block: α's gradient is left
  /// accumulated, the embedding gradients land in demb_ / dcross_.
  float ComputeForwardBackward(size_t b, const float* labels);

  const EncodedDataset& data_;
  UpdateMode mode_;
  size_t s1_;
  size_t s2_;
  std::vector<FactorizeFn> fns_;  // F: candidates 1..|F|
  std::vector<size_t> fn_widths_;  // FactorizedWidth of each fn in F
  size_t fact_width_ = 0;  // widest fn in F
  size_t db_ = 0;  // candidate width max(fact_width_, s2)
  float tau_ = 1.0f;
  Rng rng_;
  FeatureEmbedding emb_;
  std::unique_ptr<CrossEmbedding> cross_emb_;  // all pairs
  std::unique_ptr<Mlp> mlp_;
  DenseParam alpha_;  // [P × K] logits, order {m, F..., n}
  Adam theta_opt_;
  Adam arch_opt_;

  std::vector<std::pair<size_t, size_t>> cat_pairs_;

  // Training-path caches: activations live in ctx_ so forward state has a
  // single home shared with the re-entrant Predict machinery. Gradient
  // tensors and reduction buffers are members so their heap capacity
  // persists across steps (steady-state zero-allocation contract,
  // DESIGN.md).
  ForwardContext ctx_;
  PreparedBatch own_prep_;  // used by the plain (serial) TrainStep
  std::vector<float> probs_cache_;  // [P × K] sampled probabilities
  std::vector<float> labels_;       // ArchStep's batch labels
  std::vector<float> dlogits_;
  Tensor dmlp_out_;
  Tensor dz_;
  Tensor demb_;
  Tensor dcross_;
  std::vector<double> dp_;
  std::vector<double> dp_partials_;
};

}  // namespace optinter
