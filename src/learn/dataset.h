#ifndef HYPER_LEARN_DATASET_H_
#define HYPER_LEARN_DATASET_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/column.h"

namespace hyper::learn {

/// Maps table columns to numeric features: numeric columns pass through,
/// string columns are label-encoded in first-seen order. The encoder is
/// fitted once on training data and then applied to (possibly hypothetical)
/// values at prediction time; unseen categories map to a fresh code past the
/// fitted range, which regression trees treat as "none of the known ones".
class FeatureEncoder {
 public:
  /// Fits an encoder over `columns` of `table`. String labels follow each
  /// column's first-seen row order and are derived from dictionary codes
  /// without hashing a single string. The encoder remembers the dictionary
  /// so EncodeValue and EncodeColumn can translate codes directly.
  static Result<FeatureEncoder> Fit(const ColumnTable& table,
                                    const std::vector<std::string>& columns);

  /// Encodes feature `i` for every row of the fitted columnar table in one
  /// typed pass. `table` must be the table the encoder was fitted on (or one
  /// sharing its dictionary).
  Result<std::vector<double>> EncodeColumn(const ColumnTable& table,
                                           size_t i) const;

  const std::vector<std::string>& columns() const { return columns_; }
  size_t num_features() const { return columns_.size(); }

  /// Encodes a single value for feature `i`.
  Result<double> EncodeValue(size_t i, const Value& v) const;

 private:
  std::vector<std::string> columns_;
  std::vector<size_t> column_indices_;              // into the fitted schema
  std::vector<bool> is_categorical_;                // per feature
  std::vector<std::unordered_map<std::string, double>> codes_;  // per feature
  /// Dictionary-code -> label per feature (empty for non-categorical
  /// features).
  std::shared_ptr<Dictionary> dict_;
  std::vector<std::vector<double>> label_of_code_;  // -1 = unseen
};

}  // namespace hyper::learn

#endif  // HYPER_LEARN_DATASET_H_
