// Train/val/test splits and shuffled mini-batch iteration.

#pragma once

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"

namespace optinter {

/// Row-index partition of a dataset.
struct Splits {
  std::vector<size_t> train;
  std::vector<size_t> val;
  std::vector<size_t> test;
};

/// Randomly shuffles row ids and splits them by the given fractions
/// (paper: 80% train+val / 20% test; we carve val out of the 80%).
/// CHECK-fails if the truncated train split would be empty (possible for
/// small num_rows even with train_frac > 0).
Splits MakeSplits(size_t num_rows, double train_frac, double val_frac,
                  Rng* rng);

/// A view over a contiguous run of (shuffled) row indices.
struct Batch {
  const EncodedDataset* data = nullptr;
  const size_t* rows = nullptr;
  size_t size = 0;

  size_t row(size_t k) const { return rows[k]; }
  float label(size_t k) const { return data->label(rows[k]); }
};

/// Keeps every positive row and a `keep_rate` fraction of negatives —
/// the standard CTR training trick for heavily imbalanced logs (paper's
/// iPinYou regime). Predicted probabilities on downsampled-trained
/// models must be recalibrated with RecalibrateProbability.
std::vector<size_t> DownsampleNegatives(const EncodedDataset& data,
                                        const std::vector<size_t>& rows,
                                        double keep_rate, Rng* rng);

/// Undoes negative downsampling in probability space:
/// p' = p / (p + (1 - p) / keep_rate).
float RecalibrateProbability(float p, double keep_rate);

/// Abstract mini-batch producer. Batcher (below, in-RAM) and
/// StreamingBatcher (stream_reader.h, out-of-core) implement it; the
/// pipeline executor and trainers consume it.
///
/// Contract: StartEpoch() begins an epoch; Next() yields batches until an
/// empty one (size == 0) ends the epoch. The most recent batch — its
/// row-id array and the dataset payload it points into — stays valid
/// until the following Next()/StartEpoch() call on the same source, after
/// which its backing buffers may be reused. (The pipeline executor
/// honours this: a batch's PrepareBatch copies everything it needs and is
/// always joined before the executor asks for the next batch.)
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  virtual void StartEpoch() = 0;
  /// Returns the next batch; Batch.size == 0 signals epoch end.
  virtual Batch Next() = 0;
  /// Rows per full epoch.
  virtual size_t num_rows() const = 0;
  /// Why the epoch ended: an empty batch ends it both at exhaustion and on
  /// a data error, and only this tells them apart. In-RAM sources never
  /// fail.
  virtual Status status() const { return Status::OK(); }
};

/// Yields shuffled mini-batches over a fixed index set, reshuffling each
/// epoch.
class Batcher : public BatchSource {
 public:
  Batcher(const EncodedDataset* data, std::vector<size_t> indices,
          size_t batch_size, uint64_t seed)
      : data_(data), indices_(std::move(indices)), batch_size_(batch_size),
        rng_(seed) {
    CHECK_GT(batch_size_, 0u);
  }

  /// Starts a new epoch (reshuffles).
  void StartEpoch() override {
    rng_.Shuffle(&indices_);
    cursor_ = 0;
  }

  /// Returns the next batch; Batch.size == 0 signals epoch end.
  Batch Next() override {
    Batch b;
    b.data = data_;
    if (cursor_ >= indices_.size()) return b;
    b.rows = indices_.data() + cursor_;
    b.size = std::min(batch_size_, indices_.size() - cursor_);
    cursor_ += b.size;
    return b;
  }

  size_t num_rows() const override { return indices_.size(); }

 private:
  const EncodedDataset* data_;
  std::vector<size_t> indices_;
  size_t batch_size_;
  Rng rng_;
  size_t cursor_ = 0;
};

}  // namespace optinter
