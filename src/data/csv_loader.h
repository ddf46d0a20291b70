// CSV → RawDataset loader, the bring-your-own-data entry point.
//
// The file must have a header row; schema fields are matched to columns
// by name. Categorical cells are mapped to stable 64-bit hashes of their
// string value (the downstream Vocab assigns dense ids and handles
// OOV/min-count exactly as for synthetic data); continuous cells are
// parsed as floats. Labels accept "0"/"1" or any numeric value
// (> 0.5 → positive).

#pragma once

#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace optinter {

/// Options for LoadCsvDataset.
struct CsvOptions {
  char delimiter = ',';
  /// Header name of the label column.
  std::string label_column = "label";
  /// Treat empty categorical cells as this sentinel value.
  std::string missing_token = "__missing__";
  /// Value used when a continuous cell is empty or unparseable. A cell
  /// that parses to NaN, Inf or beyond float range fails the load.
  float missing_value = 0.0f;
  /// Maximum rows to read (0 = all).
  size_t max_rows = 0;
};

/// Stable 64-bit FNV-1a hash used for categorical string values; exposed
/// for tests.
uint64_t HashCategorical(std::string_view value);

/// Loads rows from `path` into a RawDataset laid out per `schema`.
/// Columns present in the file but absent from the schema are ignored.
Result<RawDataset> LoadCsvDataset(const std::string& path,
                                  const DatasetSchema& schema,
                                  const CsvOptions& options = {});

}  // namespace optinter
