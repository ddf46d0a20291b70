// libsvm-format loader for one-hot-encoded CTR logs.
//
// CTR datasets are commonly distributed as libsvm lines over a global
// one-hot index space:
//
//   <label> <index>:<value> <index>:<value> ...
//
// with contiguous per-field index ranges (e.g. indices [0, 1000) are
// field 0's values, [1000, 1400) field 1's, ...). Given those ranges,
// each line maps back to one categorical value per field; continuous
// fields carry their value directly, which must be a finite float.

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace optinter {

/// One field of the libsvm index space.
struct LibsvmFieldSpec {
  std::string name;
  FieldType type = FieldType::kCategorical;
  /// First global index of this field (categorical fields only; the
  /// categorical value is `index - begin`). Continuous fields occupy a
  /// single index and take their value from the `:value` part.
  size_t begin = 0;
  /// One-past-last global index.
  size_t end = 0;
};

/// Options for LoadLibsvmDataset.
struct LibsvmOptions {
  /// Value assumed for a categorical field with no active index on a
  /// line (missing feature).
  int64_t missing_value = -1;
  size_t max_rows = 0;  // 0 = all
};

/// Loads `path` into a RawDataset laid out per `fields` (in order).
/// Field ranges must be disjoint and sorted by `begin`.
Result<RawDataset> LoadLibsvmDataset(const std::string& path,
                                     const std::vector<LibsvmFieldSpec>& fields,
                                     const LibsvmOptions& options = {});

}  // namespace optinter
