#ifndef HYPER_LEARN_ESTIMATOR_H_
#define HYPER_LEARN_ESTIMATOR_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "learn/dataset.h"
#include "learn/feature_matrix.h"

namespace hyper::learn {

/// Estimates the conditional mean E[y | x] from training data. This is the
/// single abstraction behind all probability estimation in HypeR: with an
/// indicator target it estimates Pr(event | x) (Proposition 2), with a
/// numeric target it estimates E[Y | x] (Proposition 5). The paper's
/// implementation used sklearn's RandomForestRegressor; this library ships
/// a from-scratch forest plus an exact frequency-table estimator for fully
/// discrete data (the §A.4 support index).
class ConditionalMeanEstimator {
 public:
  virtual ~ConditionalMeanEstimator() = default;

  /// Trains on feature matrix X (one row per example) and targets y.
  /// (Matrix literals convert implicitly — see FeatureMatrix.)
  virtual Status Fit(const FeatureMatrix& x, const std::vector<double>& y) = 0;

  /// Predicts E[y | x]. Must be called after a successful Fit.
  virtual double Predict(const std::vector<double>& x) const = 0;

  /// Predicts E[y | x] for every row of `x` into `out` (out.size() must be
  /// x.num_rows()). Bit-for-bit identical to calling Predict per row, but
  /// one virtual dispatch per batch instead of per tuple — concrete
  /// estimators override with tree-at-a-time / pointer-walking loops. This
  /// is the inference entry point of the what-if Evaluate hot path.
  virtual void PredictBatch(const FeatureMatrix& x,
                            std::span<double> out) const {
    std::vector<double> row(x.num_cols());
    for (size_t r = 0; r < x.num_rows(); ++r) {
      const double* src = x.row(r);
      row.assign(src, src + x.num_cols());
      out[r] = Predict(row);
    }
  }
};

/// Which estimator backs probability computation (engine option; the paper's
/// experiments correspond to kForest).
enum class EstimatorKind {
  kFrequency = 0,  // exact empirical conditionals with a support index
  kForest,         // bagged CART regression forest
};

const char* EstimatorKindName(EstimatorKind kind);

}  // namespace hyper::learn

#endif  // HYPER_LEARN_ESTIMATOR_H_
