#ifndef HYPER_LEARN_BINNING_H_
#define HYPER_LEARN_BINNING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "learn/feature_matrix.h"

namespace hyper::learn {

/// Pre-binned image of a FeatureMatrix for histogram tree training
/// (LightGBM-style): every feature is binned to at most 256 uint8_t codes,
/// computed ONCE per training matrix and shared across all pattern
/// estimators and all trees of a forest.
///
/// One O(rows) counting pass per feature finds its distinct values
/// (-0.0 and +0.0 are one value; NaN fails the build). A feature with at
/// most max_bins of them gets one bin per value, the bins in value order,
/// and no sort of the column: the adjustment features of a what-if are
/// discrete. A denser feature stops the pass and gets equal-count
/// (quantile) bins from its sorted column.
///
/// A row's *code row* is its F codes, one byte per feature, zero-padded to
/// whole 8-byte words. Rows with equal code rows are indistinguishable to
/// every split a tree can make, so the image stores each distinct code row
/// once, as a *group*, plus one 4-byte group id per row. A GroupingTable
/// (common/grouping.h) numbers the groups in order of first appearance, and
/// its keys are the stored code rows.
/// A forest whose targets sum exactly folds how often each tree drew each
/// row into per-group items and grows the tree over those (tree.h,
/// forest.h), so a node
/// costs O(groups drawn), not O(rows drawn). The adjustment features of a
/// what-if are discrete: 20k German rows over (Status, Age, Housing) hold
/// at most 36 groups.
///
/// Per-bin metadata keeps the raw-value extrema observed at build time:
/// split thresholds are placed halfway between the left bin's max and the
/// right bin's min, so when every distinct value gets its own bin (<= 256
/// distinct values) histogram splits evaluate the same candidate set at the
/// same thresholds as the exact sort-based splitter. Split *gains* sum the
/// targets per bin rather than per sorted row, so the two paths produce
/// identical trees whenever target partial sums are exact in double
/// (indicator 0/1 targets — every weight estimator — and integer-valued
/// outputs); fractional targets can differ in the last ulp and flip a
/// near-tied split.
class BinnedMatrix {
 public:
  /// Bins `x` with at most `max_bins` (clamped to 256) codes per feature.
  /// Features with <= max_bins distinct values get one bin per value in
  /// O(rows); denser features get equal-count (quantile) bins in
  /// O(rows log rows). Then groups the rows by code row in O(rows), with no
  /// per-row allocation.
  static Result<BinnedMatrix> Build(const FeatureMatrix& x,
                                    size_t max_bins = 256);

  size_t num_rows() const { return group_of_.size(); }
  size_t num_features() const { return num_features_; }

  /// Distinct code rows.
  size_t num_groups() const { return num_groups_; }
  /// Group of row `r`.
  uint32_t group(size_t r) const { return group_of_[r]; }
  /// Codes of group `g`, contiguous, one byte per feature.
  const uint8_t* group_codes(size_t g) const {
    return reinterpret_cast<const uint8_t*>(group_codes_.data() +
                                            g * words_);
  }

  /// Code of row `r` on feature `f`: its group's.
  uint8_t code(size_t r, size_t f) const {
    return group_codes(group_of_[r])[f];
  }

  /// Bin count of feature `f`.
  size_t num_bins(size_t f) const { return offsets_[f + 1] - offsets_[f]; }
  /// Offset of feature `f`'s bins in the flattened histogram layout.
  size_t bin_offset(size_t f) const { return offsets_[f]; }
  /// Total bins across all features — the flattened histogram length.
  size_t total_bins() const { return offsets_.back(); }

  /// Smallest / largest raw value binned into (f, b) at build time.
  double bin_min(size_t f, size_t b) const { return bin_min_[offsets_[f] + b]; }
  double bin_max(size_t f, size_t b) const { return bin_max_[offsets_[f] + b]; }

 private:
  size_t num_features_ = 0;
  /// 8-byte words per stored code row: num_features zero-padded bytes.
  size_t words_ = 0;
  size_t num_groups_ = 0;
  std::vector<uint64_t> group_codes_;  // num_groups x words
  std::vector<uint32_t> group_of_;     // per row
  std::vector<size_t> offsets_;        // per-feature bin offsets, size F+1
  std::vector<double> bin_min_;        // flattened per-bin minima
  std::vector<double> bin_max_;        // flattened per-bin maxima
};

}  // namespace hyper::learn

#endif  // HYPER_LEARN_BINNING_H_
