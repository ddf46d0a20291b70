#include "serve/request.h"

#include <cmath>

#include "common/string_util.h"

namespace optinter {
namespace serve {

PredictRequest RequestFromRow(const EncodedDataset& data, size_t row) {
  CHECK_LT(row, data.num_rows);
  PredictRequest req;
  req.cat_ids.resize(data.num_categorical());
  for (size_t f = 0; f < data.num_categorical(); ++f) {
    req.cat_ids[f] = data.cat(row, f);
  }
  req.cont_values.resize(data.num_continuous());
  for (size_t f = 0; f < data.num_continuous(); ++f) {
    req.cont_values[f] = data.cont(row, f);
  }
  if (data.has_cross()) {
    req.cross_ids.resize(data.num_pairs());
    for (size_t p = 0; p < data.num_pairs(); ++p) {
      req.cross_ids[p] = data.cross(row, p);
    }
  }
  if (data.has_triples()) {
    req.triple_ids.resize(data.num_triples());
    for (size_t t = 0; t < data.num_triples(); ++t) {
      req.triple_ids[t] = data.triple(row, t);
    }
  }
  return req;
}

RequestArena::RequestArena(const EncodedDataset& reference) {
  data_.schema = reference.schema;
  data_.cat_vocab_sizes = reference.cat_vocab_sizes;
  data_.cross_vocab_sizes = reference.cross_vocab_sizes;
  data_.triple_fields = reference.triple_fields;
  data_.triple_vocab_sizes = reference.triple_vocab_sizes;
  expect_cross_ = reference.has_cross();
  expect_triples_ = reference.has_triples();
}

void RequestArena::Clear() {
  data_.num_rows = 0;
  data_.cat_ids.clear();
  data_.cont_values.clear();
  data_.cross_ids.clear();
  data_.triple_ids.clear();
  data_.labels.clear();
  rows_.clear();
}

Status RequestArena::Append(const PredictRequest& request) {
  const size_t num_cat = data_.num_categorical();
  const size_t num_cont = data_.num_continuous();
  const size_t num_pairs = expect_cross_ ? data_.num_pairs() : 0;
  const size_t num_triples = expect_triples_ ? data_.num_triples() : 0;
  if (request.cat_ids.size() != num_cat) {
    return Status::Invalid(StrFormat(
        "request has %zu categorical ids, schema expects %zu",
        request.cat_ids.size(), num_cat));
  }
  if (request.cont_values.size() != num_cont) {
    return Status::Invalid(StrFormat(
        "request has %zu continuous values, schema expects %zu",
        request.cont_values.size(), num_cont));
  }
  if (request.cross_ids.size() != num_pairs) {
    return Status::Invalid(StrFormat(
        "request has %zu cross ids, deployed feature space expects %zu",
        request.cross_ids.size(), num_pairs));
  }
  if (request.triple_ids.size() != num_triples) {
    return Status::Invalid(StrFormat(
        "request has %zu triple ids, deployed feature space expects %zu",
        request.triple_ids.size(), num_triples));
  }
  // NaN or Inf would pass through the scaled inputs into the MLP.
  for (size_t f = 0; f < num_cont; ++f) {
    if (!std::isfinite(request.cont_values[f])) {
      return Status::Invalid(StrFormat(
          "continuous field %zu value %g is not finite", f,
          static_cast<double>(request.cont_values[f])));
    }
  }
  // Range-check every id against the deployed vocabularies so a stale or
  // mis-encoded request surfaces as a rejected request, not as a CHECK
  // abort inside an embedding lookup.
  for (size_t f = 0; f < num_cat; ++f) {
    const int32_t id = request.cat_ids[f];
    if (id < 0 || static_cast<size_t>(id) >= data_.cat_vocab_sizes[f]) {
      return Status::OutOfRange(StrFormat(
          "categorical field %zu id %d outside vocab [0, %zu)", f,
          static_cast<int>(id), data_.cat_vocab_sizes[f]));
    }
  }
  for (size_t p = 0; p < num_pairs; ++p) {
    const int32_t id = request.cross_ids[p];
    if (id < 0 || static_cast<size_t>(id) >= data_.cross_vocab_sizes[p]) {
      return Status::OutOfRange(StrFormat(
          "cross pair %zu id %d outside vocab [0, %zu)", p,
          static_cast<int>(id), data_.cross_vocab_sizes[p]));
    }
  }
  for (size_t t = 0; t < num_triples; ++t) {
    const int32_t id = request.triple_ids[t];
    if (id < 0 || static_cast<size_t>(id) >= data_.triple_vocab_sizes[t]) {
      return Status::OutOfRange(StrFormat(
          "triple %zu id %d outside vocab [0, %zu)", t,
          static_cast<int>(id), data_.triple_vocab_sizes[t]));
    }
  }

  data_.cat_ids.insert(data_.cat_ids.end(), request.cat_ids.begin(),
                       request.cat_ids.end());
  data_.cont_values.insert(data_.cont_values.end(),
                           request.cont_values.begin(),
                           request.cont_values.end());
  if (expect_cross_) {
    data_.cross_ids.insert(data_.cross_ids.end(), request.cross_ids.begin(),
                           request.cross_ids.end());
  }
  if (expect_triples_) {
    data_.triple_ids.insert(data_.triple_ids.end(),
                            request.triple_ids.begin(),
                            request.triple_ids.end());
  }
  data_.labels.push_back(0.0f);  // serving rows carry no label
  rows_.push_back(data_.num_rows);
  ++data_.num_rows;
  return Status::OK();
}

Batch RequestArena::MakeBatch() const {
  Batch b;
  b.data = &data_;
  b.rows = rows_.data();
  b.size = rows_.size();
  return b;
}

}  // namespace serve
}  // namespace optinter
