#include "data/csv_loader.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <fstream>

#include "common/string_util.h"

namespace optinter {

uint64_t HashCategorical(std::string_view value) {
  // FNV-1a, 64-bit.
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : value) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Result<RawDataset> LoadCsvDataset(const std::string& path,
                                  const DatasetSchema& schema,
                                  const CsvOptions& options) {
  if (schema.num_fields() == 0) {
    return Status::Invalid("schema has no fields");
  }
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");

  std::string line;
  if (!std::getline(in, line)) {
    return Status::Invalid("'" + path + "' is empty");
  }
  // Strip only the line ending, never delimiter-significant whitespace: a
  // whole-line Trim on a tab- or space-delimited file silently removes
  // leading/trailing EMPTY cells (Criteo-style TSV rows with missing last
  // fields), shifting or rejecting otherwise-valid rows. Individual cells
  // are still trimmed below.
  const auto header = Split(StripLineEnding(line), options.delimiter);

  auto column_of = [&](const std::string& name) -> int {
    for (size_t c = 0; c < header.size(); ++c) {
      if (Trim(header[c]) == name) return static_cast<int>(c);
    }
    return -1;
  };

  const int label_col = column_of(options.label_column);
  if (label_col < 0) {
    return Status::NotFound("label column '" + options.label_column +
                            "' not in header");
  }
  std::vector<int> field_cols(schema.num_fields());
  for (size_t f = 0; f < schema.num_fields(); ++f) {
    field_cols[f] = column_of(schema.field(f).name);
    if (field_cols[f] < 0) {
      return Status::NotFound("schema field '" + schema.field(f).name +
                              "' not in header");
    }
  }

  RawDataset raw;
  raw.schema = schema;
  const size_t num_cat = schema.num_categorical();
  const size_t num_cont = schema.num_continuous();

  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view stripped = StripLineEnding(line);
    // Skip blank separator lines: empty, or all-whitespace with no
    // delimiter in sight (a whitespace-delimited line consisting only of
    // delimiters is a row of empty cells, not a blank line).
    if (stripped.empty()) continue;
    if (stripped.find(options.delimiter) == std::string_view::npos &&
        Trim(stripped).empty()) {
      continue;
    }
    const auto cells = Split(stripped, options.delimiter);
    if (cells.size() != header.size()) {
      return Status::Invalid(StrFormat(
          "line %zu has %zu cells, header has %zu", line_number,
          cells.size(), header.size()));
    }

    // Label.
    {
      const std::string_view cell = Trim(cells[label_col]);
      char* end = nullptr;
      const std::string cell_str(cell);
      const double v = std::strtod(cell_str.c_str(), &end);
      if (end == cell_str.c_str()) {
        return Status::Invalid(StrFormat(
            "line %zu: unparseable label '%s'", line_number,
            cell_str.c_str()));
      }
      raw.labels.push_back(v > 0.5 ? 1.0f : 0.0f);
    }

    // Fields, in schema order partitioned into categorical / continuous.
    size_t cat_slot = 0;
    size_t cont_slot = 0;
    raw.cat_values.resize(raw.cat_values.size() + num_cat);
    raw.cont_values.resize(raw.cont_values.size() + num_cont);
    int64_t* cat_row = raw.cat_values.data() + raw.num_rows * num_cat;
    float* cont_row = raw.cont_values.data() + raw.num_rows * num_cont;
    for (size_t f = 0; f < schema.num_fields(); ++f) {
      const std::string cell(Trim(cells[field_cols[f]]));
      if (schema.field(f).type == FieldType::kCategorical) {
        const std::string& token =
            cell.empty() ? options.missing_token : cell;
        cat_row[cat_slot++] =
            static_cast<int64_t>(HashCategorical(token) >> 1);
      } else {
        float v = options.missing_value;
        if (!cell.empty()) {
          char* end = nullptr;
          const double parsed = std::strtod(cell.c_str(), &end);
          if (end != cell.c_str() && *end == '\0') {
            // strtod accepts nan/inf and overflows to inf; false for NaN.
            if (!(std::fabs(parsed) <= std::numeric_limits<float>::max())) {
              return Status::Invalid(StrFormat(
                  "line %zu: field '%s' value '%s' is not a finite float",
                  line_number, schema.field(f).name.c_str(), cell.c_str()));
            }
            v = static_cast<float>(parsed);
          }
        }
        cont_row[cont_slot++] = v;
      }
    }
    ++raw.num_rows;
    if (options.max_rows > 0 && raw.num_rows >= options.max_rows) break;
  }
  if (raw.num_rows == 0) {
    return Status::Invalid("'" + path + "' contains no data rows");
  }
  return raw;
}

}  // namespace optinter
