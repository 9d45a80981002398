#ifndef HYPER_LEARN_FREQUENCY_H_
#define HYPER_LEARN_FREQUENCY_H_

#include <unordered_map>
#include <vector>

#include "learn/estimator.h"

namespace hyper::learn {

/// Exact empirical conditional-mean estimator for discrete feature spaces:
/// E[y | x] = mean of y over training rows with exactly the feature vector
/// x. This is the paper's §A.4 optimization — instead of iterating over the
/// full Dom(C) (exponential), an index over the values with non-zero support
/// is built once (linear in data size) and consulted at query time.
///
/// Unseen feature vectors fall back along a backoff chain: drop the last
/// feature and retry, ending at the global mean. (The last features are the
/// least specific in how the engine orders them: update attribute first,
/// then backdoor attributes.)
class FrequencyEstimator : public ConditionalMeanEstimator {
 public:
  /// `backoff`: when true (default) unseen vectors back off by dropping
  /// trailing features; when false they return the global mean directly.
  ///
  /// `smoothing` (pseudo-count m >= 0): hierarchical shrinkage along the
  /// backoff chain. Each level's estimate is the cell mean blended with the
  /// next-less-specific level's estimate,
  ///     est_k = (sum_k + m * est_{k-1}) / (count_k + m),
  /// anchored at the global mean. m = 0 reproduces the exact empirical
  /// conditional (used by the correctness tests); small m (5-20) trades a
  /// little bias for much lower variance in sparse cells — important when
  /// continuous features are bucketized.
  explicit FrequencyEstimator(bool backoff = true, double smoothing = 0.0)
      : backoff_(backoff), smoothing_(smoothing) {}

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;

  /// Pointer-walking batch prediction: one incremental-hash lookup chain per
  /// row, no per-row virtual dispatch or vector copies. Bit-for-bit
  /// identical to per-row Predict.
  void PredictBatch(const FeatureMatrix& x,
                    std::span<double> out) const override;

  /// Number of distinct feature vectors with support (index size); only
  /// learn_test reads it, to check the §A.4 bound (support, not domain).
  size_t support_size() const {
    return tables_.empty() ? 0 : tables_.back().size();
  }

 private:
  // Support cells are keyed by feature-vector prefixes. Keys cache their
  // FNV hash, and lookups go through a borrowed PrefixView (C++20
  // heterogeneous lookup) so a training row costs one incremental hash per
  // level — O(F) per row instead of the O(F^2) hash-and-copy of hashing
  // every prefix from scratch.
  struct PrefixKey {
    std::vector<double> values;
    size_t hash = 0;
  };
  struct PrefixView {
    const double* data = nullptr;
    size_t len = 0;
    size_t hash = 0;
  };
  struct PrefixHash {
    using is_transparent = void;
    size_t operator()(const PrefixKey& k) const { return k.hash; }
    size_t operator()(const PrefixView& v) const { return v.hash; }
  };
  struct PrefixEq {
    using is_transparent = void;
    static bool Eq(const double* a, size_t an, const double* b, size_t bn) {
      if (an != bn) return false;
      for (size_t i = 0; i < an; ++i) {
        if (a[i] != b[i]) return false;
      }
      return true;
    }
    bool operator()(const PrefixKey& a, const PrefixKey& b) const {
      return Eq(a.values.data(), a.values.size(), b.values.data(),
                b.values.size());
    }
    bool operator()(const PrefixKey& a, const PrefixView& b) const {
      return Eq(a.values.data(), a.values.size(), b.data, b.len);
    }
    bool operator()(const PrefixView& a, const PrefixKey& b) const {
      return Eq(a.data, a.len, b.values.data(), b.values.size());
    }
    bool operator()(const PrefixView& a, const PrefixView& b) const {
      return Eq(a.data, a.len, b.data, b.len);
    }
  };
  struct Cell {
    double sum = 0.0;
    size_t count = 0;
  };
  using SupportTable = std::unordered_map<PrefixKey, Cell, PrefixHash, PrefixEq>;

  static constexpr size_t kFnvOffset = 0xcbf29ce484222325ULL;
  static constexpr size_t kFnvPrime = 0x100000001b3ULL;
  static size_t HashStep(size_t h, double d) {
    return (h ^ std::hash<double>()(d)) * kFnvPrime;
  }

  double PredictPtr(const double* row) const;

  bool backoff_ = true;
  double smoothing_ = 0.0;
  double global_mean_ = 0.0;
  size_t num_features_ = 0;
  /// tables_[k] indexes prefixes of length k+1; tables_.back() is the full
  /// feature vector. Only the full table is built when backoff_ is false.
  std::vector<SupportTable> tables_;
};

}  // namespace hyper::learn

#endif  // HYPER_LEARN_FREQUENCY_H_
