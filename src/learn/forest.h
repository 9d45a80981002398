#ifndef HYPER_LEARN_FOREST_H_
#define HYPER_LEARN_FOREST_H_

#include <cstdint>
#include <vector>

#include "learn/binning.h"
#include "learn/tree.h"

namespace hyper::learn {

struct ForestOptions {
  size_t num_trees = 16;
  TreeOptions tree = {};
  /// When true and tree.max_features == 0, each tree considers
  /// ceil(sqrt(#features)) features per split (standard RF default).
  bool sqrt_features = true;
  uint64_t seed = 1234;
  /// Worker budget for tree training: 0 = one worker per hardware thread
  /// (floor 1, gated on there being enough work), 1 = sequential, n = at
  /// most n workers on the shared pool. Training results are bit-for-bit
  /// identical for every setting — bootstraps are drawn up front from one
  /// sequential stream and trees are independent.
  size_t num_threads = 0;
};

/// Bagged random forest regressor — the estimator the paper uses for
/// conditional probabilities (§5 "random forest regressor").
class RandomForestRegressor : public ConditionalMeanEstimator {
 public:
  explicit RandomForestRegressor(ForestOptions options = {})
      : options_(options) {}

  /// Trains the forest. In histogram mode (tree.use_histograms, default)
  /// the matrix is quantile-binned once and shared by every tree.
  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;

  /// Histogram training against a caller-provided binned image of `x` —
  /// lets the what-if engine bin a training matrix once per prepared plan
  /// and share it across every pattern estimator. `binned` must cover the
  /// same rows as `x`. Requires tree.use_histograms.
  Status FitPreBinned(const FeatureMatrix& x, const BinnedMatrix& binned,
                      const std::vector<double>& y);

  double Predict(const std::vector<double>& x) const override;

  /// Tree-at-a-time batched inference: every tree walks all rows before the
  /// next tree starts (no virtual call per row, contiguous feature rows).
  /// Bit-for-bit identical to per-row Predict.
  void PredictBatch(const FeatureMatrix& x,
                    std::span<double> out) const override;

  size_t num_trees() const { return trees_.size(); }
  const DecisionTreeRegressor& tree(size_t t) const { return trees_[t]; }

 private:
  Status FitImpl(const FeatureMatrix& x, const BinnedMatrix* binned,
                 const std::vector<double>& y);

  ForestOptions options_;
  std::vector<DecisionTreeRegressor> trees_;
};

}  // namespace hyper::learn

#endif  // HYPER_LEARN_FOREST_H_
