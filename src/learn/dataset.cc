#include "learn/dataset.h"

namespace hyper::learn {

Result<FeatureEncoder> FeatureEncoder::Fit(
    const ColumnTable& table, const std::vector<std::string>& columns) {
  FeatureEncoder enc;
  enc.columns_ = columns;
  enc.dict_ = table.shared_dict();
  enc.label_of_code_.resize(columns.size());
  for (const std::string& col : columns) {
    HYPER_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(col));
    enc.column_indices_.push_back(idx);
    enc.is_categorical_.push_back(table.schema().attribute(idx).type ==
                                  ValueType::kString);
    enc.codes_.emplace_back();
  }
  // Label-encode string columns in first-seen row order, derived from
  // dictionary codes.
  for (size_t f = 0; f < enc.columns_.size(); ++f) {
    if (!enc.is_categorical_[f]) continue;
    const Column& col = table.col(enc.column_indices_[f]);
    if (col.kind != ColumnKind::kCode) continue;  // e.g. all-NULL column
    std::vector<double>& remap = enc.label_of_code_[f];
    remap.assign(table.dict().size(), -1.0);
    double next = 0.0;
    for (size_t r = 0; r < col.codes.size(); ++r) {
      const int32_t code = col.codes[r];
      if (code == Dictionary::kNullCode) continue;
      if (remap[code] < 0.0) {
        remap[code] = next;
        next += 1.0;
      }
    }
    // Mirror into the string map so EncodeValue works for ad-hoc values.
    for (size_t code = 0; code < remap.size(); ++code) {
      if (remap[code] >= 0.0) {
        enc.codes_[f].emplace(table.dict().at(static_cast<int32_t>(code)),
                              remap[code]);
      }
    }
  }
  return enc;
}

Result<std::vector<double>> FeatureEncoder::EncodeColumn(
    const ColumnTable& table, size_t i) const {
  if (i >= columns_.size()) {
    return Status::OutOfRange("feature index out of range");
  }
  if (table.shared_dict() != dict_) {
    return Status::InvalidArgument(
        "EncodeColumn requires the table the encoder was fitted on");
  }
  const Column& col = table.col(column_indices_[i]);
  const size_t n = table.num_rows();
  std::vector<double> out(n);
  if (col.kind == ColumnKind::kCode) {
    if (!is_categorical_[i]) {
      return Status::InvalidArgument("cannot coerce string column '" +
                                     columns_[i] + "' to a number");
    }
    const std::vector<double>& remap = label_of_code_[i];
    const double unseen = static_cast<double>(codes_[i].size());
    for (size_t r = 0; r < n; ++r) {
      const int32_t code = col.codes[r];
      if (code == Dictionary::kNullCode) {
        out[r] = -1e30;  // NULL sentinel, as in EncodeValue
      } else if (static_cast<size_t>(code) < remap.size() &&
                 remap[code] >= 0.0) {
        out[r] = remap[code];
      } else {
        out[r] = unseen;
      }
    }
    return out;
  }
  // Numeric columns (also numeric data under a categorical declaration —
  // EncodeValue passes those through AsDouble).
  switch (col.kind) {
    case ColumnKind::kInt64:
      for (size_t r = 0; r < n; ++r) {
        out[r] = col.is_null(r) ? -1e30 : static_cast<double>(col.i64[r]);
      }
      break;
    case ColumnKind::kDouble:
      for (size_t r = 0; r < n; ++r) {
        out[r] = col.is_null(r) ? -1e30 : col.f64[r];
      }
      break;
    case ColumnKind::kBool:
      for (size_t r = 0; r < n; ++r) {
        out[r] = col.is_null(r) ? -1e30 : (col.b8[r] != 0 ? 1.0 : 0.0);
      }
      break;
    case ColumnKind::kCode:
      break;  // handled above
  }
  return out;
}

Result<double> FeatureEncoder::EncodeValue(size_t i, const Value& v) const {
  if (i >= columns_.size()) {
    return Status::OutOfRange("feature index out of range");
  }
  if (v.is_null()) {
    // NULLs encode as a sentinel below every real value; trees can separate
    // them from genuine data.
    return -1e30;
  }
  if (is_categorical_[i]) {
    if (v.type() != ValueType::kString) {
      // Numeric value for a categorical feature (e.g. pre-encoded): accept.
      return v.AsDouble();
    }
    auto it = codes_[i].find(v.string_value());
    if (it == codes_[i].end()) {
      return static_cast<double>(codes_[i].size());  // unseen category
    }
    return it->second;
  }
  return v.AsDouble();
}

}  // namespace hyper::learn
