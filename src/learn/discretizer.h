#ifndef HYPER_LEARN_DISCRETIZER_H_
#define HYPER_LEARN_DISCRETIZER_H_

#include <vector>

#include "common/status.h"

namespace hyper::learn {

/// Equi-width bucketization of a continuous range (paper §4.3 / §5.4,
/// "Effect of discretization"): the how-to engine discretizes continuous
/// update domains before building its integer program.
class EquiWidthDiscretizer {
 public:
  EquiWidthDiscretizer() = default;

  /// Buckets [lo, hi] into `num_buckets` equal-width cells.
  static Result<EquiWidthDiscretizer> Create(double lo, double hi,
                                             size_t num_buckets);

  /// Midpoint representative of bucket `b` (the candidate value the how-to
  /// engine substitutes for the whole cell).
  double Representative(size_t b) const;

  /// All bucket representatives, ascending.
  std::vector<double> Representatives() const;

 private:
  double lo_ = 0.0;
  double width_ = 1.0;
  size_t num_buckets_ = 1;
};

/// Quantile (equal-count) bucketization: cell boundaries at data quantiles,
/// so every cell holds roughly the same number of samples. Used by the
/// what-if engine to snap continuous estimator features — unlike equi-width
/// cells, the extreme cells stay densely populated, keeping conditional
/// estimates stable at the tails (where how-to candidates often live).
class QuantileDiscretizer {
 public:
  QuantileDiscretizer() = default;

  /// Fits boundaries from data; adjacent duplicate boundaries collapse, so
  /// the effective bucket count can be smaller than requested.
  static Result<QuantileDiscretizer> FitToData(std::vector<double> values,
                                               size_t num_buckets);

  size_t num_buckets() const { return representatives_.size(); }

  /// Bucket index of `v`; values beyond the data range clamp to the first /
  /// last bucket.
  size_t BucketOf(double v) const;

  /// The mean of the training samples in bucket `b` — the value the engine
  /// substitutes for every member of the cell.
  double Representative(size_t b) const;

 private:
  std::vector<double> upper_bounds_;     // ascending; size = buckets - 1
  std::vector<double> representatives_;  // per bucket
};

}  // namespace hyper::learn

#endif  // HYPER_LEARN_DISCRETIZER_H_
