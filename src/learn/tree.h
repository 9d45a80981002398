#ifndef HYPER_LEARN_TREE_H_
#define HYPER_LEARN_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "learn/binning.h"
#include "learn/estimator.h"

namespace hyper::learn {

struct TreeOptions {
  int max_depth = 12;
  size_t min_samples_leaf = 5;
  /// Features considered per split; 0 = all (single trees), forests pass
  /// ~sqrt(#features).
  size_t max_features = 0;
  /// Cap on candidate thresholds per feature per node; larger = finer splits
  /// but slower training.
  size_t max_thresholds = 64;
  /// Histogram training (default): features are pre-binned to <= 256
  /// uint8_t codes and each node scans per-feature (count, sum_y, sum_y^2)
  /// histograms — O(n*f) per node with the sibling-subtraction trick —
  /// instead of re-sorting (value, target) pairs per feature per node.
  /// Off = the exact sort-based splitter, kept for A/B benchmarking; with
  /// bins >= distinct values the two produce identical trees.
  bool use_histograms = true;
};

/// CART regression tree: axis-aligned splits chosen by variance reduction,
/// leaves predict the mean target of their training rows.
class DecisionTreeRegressor : public ConditionalMeanEstimator {
 public:
  explicit DecisionTreeRegressor(TreeOptions options = {},
                                 uint64_t seed = 42)
      : options_(options), rng_(seed) {}

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;

  /// Trains on the subset of rows `rows` of (x, y) with the exact sort-based
  /// splitter — used by forests for bootstrap samples without copying the
  /// matrix.
  Status FitSubset(const FeatureMatrix& x, const std::vector<double>& y,
                   std::vector<size_t> rows);

  /// Histogram training against a pre-binned matrix (built once by the
  /// caller and shared across trees/estimators). Only the codes and bin
  /// metadata are read — the raw matrix is not needed.
  Status FitBinned(const BinnedMatrix& binned, const std::vector<double>& y,
                   std::vector<size_t> rows);

  double Predict(const std::vector<double>& x) const override;

  /// Non-virtual single-row traversal over a contiguous feature row.
  double PredictRow(const double* x) const {
    int node = 0;
    while (nodes_[node].feature >= 0) {
      const Node& n = nodes_[node];
      node = x[n.feature] <= n.threshold ? n.left : n.right;
    }
    return nodes_[node].value;
  }

  void PredictBatch(const FeatureMatrix& x,
                    std::span<double> out) const override;

  /// out[r] += Predict(row r) for every row — the forest's tree-at-a-time
  /// accumulation kernel.
  void PredictBatchAdd(const FeatureMatrix& x, double* out) const;

  size_t num_nodes() const { return nodes_.size(); }
  int depth() const { return depth_; }

  /// Pre-order structural fingerprint ("feature:threshold" per split,
  /// "=value" per leaf) — lets tests assert two trees are identical without
  /// exposing the node layout.
  // lint:allow(unreferenced): test-hook — histogram_test's tree equality.
  std::string StructureDigest() const;

 private:
  struct Node {
    int feature = -1;        // -1 = leaf
    double threshold = 0.0;  // go left when x[feature] <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;      // leaf prediction
  };

  /// Per-bin target statistics for histogram split finding, in
  /// structure-of-arrays layout (flattened to the BinnedMatrix bin order):
  /// sibling subtraction and the per-feature split scans then run over
  /// contiguous double spans the compiler vectorizes, instead of striding
  /// through 24-byte structs.
  struct Hist {
    std::vector<double> sum;
    std::vector<double> sum_sq;
    std::vector<uint32_t> count;

    bool empty() const { return sum.empty(); }
    size_t size() const { return sum.size(); }
    void Reset(size_t bins) {
      sum.assign(bins, 0.0);
      sum_sq.assign(bins, 0.0);
      count.assign(bins, 0);
    }
  };

  /// Builds the subtree over x/y rows [begin, end) of `order_` at `depth`
  /// with the exact splitter; returns the node index.
  int BuildNode(const FeatureMatrix& x, const std::vector<double>& y,
                size_t begin, size_t end, int depth);

  /// Histogram twin of BuildNode. `hist` is this node's histogram when the
  /// parent already derived it (sibling subtraction), empty otherwise.
  int BuildNodeHist(const BinnedMatrix& binned, const std::vector<double>& y,
                    size_t begin, size_t end, int depth, Hist hist);

  struct Split {
    int feature = -1;
    double threshold = 0.0;
    double gain = 0.0;
    int bin = -1;  // histogram mode: go left when code <= bin
  };
  Split FindBestSplit(const FeatureMatrix& x, const std::vector<double>& y,
                      size_t begin, size_t end);
  Split FindBestSplitHist(const BinnedMatrix& binned, size_t begin, size_t end,
                          const Hist& hist, double total_sum, double total_sq);

  Hist AccumulateHist(const BinnedMatrix& binned, const std::vector<double>& y,
                      size_t begin, size_t end) const;

  TreeOptions options_;
  Rng rng_;
  std::vector<Node> nodes_;
  std::vector<size_t> order_;  // row indices, partitioned during building
  int depth_ = 0;
};

}  // namespace hyper::learn

#endif  // HYPER_LEARN_TREE_H_
