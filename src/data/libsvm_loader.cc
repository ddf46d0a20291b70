#include "data/libsvm_loader.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <fstream>

#include "common/string_util.h"

namespace optinter {

Result<RawDataset> LoadLibsvmDataset(
    const std::string& path, const std::vector<LibsvmFieldSpec>& fields,
    const LibsvmOptions& options) {
  if (fields.empty()) return Status::Invalid("no fields specified");
  for (size_t f = 0; f < fields.size(); ++f) {
    if (fields[f].begin >= fields[f].end) {
      return Status::Invalid("field '" + fields[f].name +
                             "' has an empty index range");
    }
    if (f > 0 && fields[f].begin < fields[f - 1].end) {
      return Status::Invalid("field ranges must be disjoint and sorted");
    }
  }
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");

  std::vector<FieldSpec> schema_fields;
  schema_fields.reserve(fields.size());
  for (const auto& f : fields) {
    schema_fields.push_back({f.name, f.type});
  }
  RawDataset raw;
  raw.schema = DatasetSchema(std::move(schema_fields));
  const size_t num_cat = raw.schema.num_categorical();
  const size_t num_cont = raw.schema.num_continuous();

  // Map a global index to its field position (linear scan: field counts
  // are small).
  auto field_of = [&](size_t index) -> int {
    for (size_t f = 0; f < fields.size(); ++f) {
      if (index >= fields[f].begin && index < fields[f].end) {
        return static_cast<int>(f);
      }
    }
    return -1;
  };
  // Position of each schema field within its type group.
  std::vector<size_t> slot_of(fields.size());
  {
    size_t cat_slot = 0, cont_slot = 0;
    for (size_t f = 0; f < fields.size(); ++f) {
      slot_of[f] = fields[f].type == FieldType::kCategorical ? cat_slot++
                                                             : cont_slot++;
    }
  }

  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    const auto tokens = Split(trimmed, ' ');
    if (tokens.empty()) continue;

    char* end = nullptr;
    const double label = std::strtod(tokens[0].c_str(), &end);
    // The whole token must parse: a partially-consumed label means an
    // unexpected delimiter glued the label to its features (e.g. a
    // tab-separated file split on ' ' yields one token "1\t5:2"), and the
    // old lenient parse silently dropped every feature on the line.
    if (end == tokens[0].c_str() || *end != '\0') {
      return Status::Invalid(
          StrFormat("line %zu: bad label '%s' (token not fully numeric; "
                    "tab-delimited file loaded as space-delimited?)",
                    line_number, tokens[0].c_str()));
    }
    raw.labels.push_back(label > 0.5 ? 1.0f : 0.0f);

    raw.cat_values.resize(raw.cat_values.size() + num_cat,
                          options.missing_value);
    raw.cont_values.resize(raw.cont_values.size() + num_cont, 0.0f);
    int64_t* cat_row = raw.cat_values.data() + raw.num_rows * num_cat;
    float* cont_row = raw.cont_values.data() + raw.num_rows * num_cont;

    for (size_t t = 1; t < tokens.size(); ++t) {
      if (tokens[t].empty()) continue;
      const size_t colon = tokens[t].find(':');
      if (colon == std::string::npos) {
        return Status::Invalid(StrFormat(
            "line %zu: token '%s' is not index:value", line_number,
            tokens[t].c_str()));
      }
      // Strict index:value parse — both halves must consume their span
      // exactly. strtoull on a non-numeric index returns 0 without error,
      // which previously aliased garbage tokens onto feature index 0.
      char* idx_end = nullptr;
      const size_t index = static_cast<size_t>(
          std::strtoull(tokens[t].c_str(), &idx_end, 10));
      if (idx_end != tokens[t].c_str() + colon) {
        return Status::Invalid(StrFormat(
            "line %zu: token '%s' has a non-numeric index", line_number,
            tokens[t].c_str()));
      }
      char* val_end = nullptr;
      const double value =
          std::strtod(tokens[t].c_str() + colon + 1, &val_end);
      if (val_end == tokens[t].c_str() + colon + 1 || *val_end != '\0') {
        return Status::Invalid(StrFormat(
            "line %zu: token '%s' has a non-numeric value", line_number,
            tokens[t].c_str()));
      }
      const int f = field_of(index);
      if (f < 0) {
        return Status::OutOfRange(StrFormat(
            "line %zu: index %zu outside every field range", line_number,
            index));
      }
      if (fields[f].type == FieldType::kCategorical) {
        cat_row[slot_of[f]] =
            static_cast<int64_t>(index - fields[f].begin);
      } else {
        // strtod accepts nan/inf and overflows to inf; false for NaN.
        if (!(std::fabs(value) <= std::numeric_limits<float>::max())) {
          return Status::Invalid(StrFormat(
              "line %zu: field '%s' value '%s' is not a finite float",
              line_number, fields[f].name.c_str(),
              tokens[t].c_str() + colon + 1));
        }
        cont_row[slot_of[f]] = static_cast<float>(value);
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
