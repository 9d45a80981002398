#include "learn/forest.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace hyper::learn {

Status RandomForestRegressor::Fit(const FeatureMatrix& x,
                                  const std::vector<double>& y) {
  if (options_.tree.use_histograms && !x.empty()) {
    HYPER_ASSIGN_OR_RETURN(BinnedMatrix binned, BinnedMatrix::Build(x));
    return FitImpl(x, &binned, y);
  }
  return FitImpl(x, /*binned=*/nullptr, y);
}

Status RandomForestRegressor::FitPreBinned(const FeatureMatrix& x,
                                           const BinnedMatrix& binned,
                                           const std::vector<double>& y) {
  if (!options_.tree.use_histograms) {
    return Status::InvalidArgument(
        "FitPreBinned requires tree.use_histograms");
  }
  if (binned.num_rows() != x.num_rows() ||
      binned.num_features() != x.num_cols()) {
    return Status::InvalidArgument(
        "binned matrix shape does not match the feature matrix");
  }
  return FitImpl(x, &binned, y);
}

Status RandomForestRegressor::FitImpl(const FeatureMatrix& x,
                                      const BinnedMatrix* binned,
                                      const std::vector<double>& y) {
  if (x.num_rows() != y.size()) {
    return Status::InvalidArgument("feature/target row counts differ");
  }
  if (x.empty()) {
    return Status::InvalidArgument("cannot fit a forest on zero rows");
  }
  trees_.clear();
  trees_.reserve(options_.num_trees);

  TreeOptions tree_options = options_.tree;
  if (tree_options.max_features == 0 && options_.sqrt_features &&
      x.num_cols() > 0) {
    tree_options.max_features = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(x.num_cols()))));
  }

  // Draw every bootstrap sample up front from one sequential stream so the
  // forest is deterministic regardless of how training is scheduled.
  Rng rng(options_.seed);
  const size_t n = x.num_rows();
  const size_t sample_size = std::max<size_t>(1, n);  // bootstrap of n
  std::vector<std::vector<size_t>> bootstraps(options_.num_trees);
  for (size_t t = 0; t < options_.num_trees; ++t) {
    bootstraps[t].resize(sample_size);
    for (size_t i = 0; i < sample_size; ++i) {
      bootstraps[t][i] = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    }
    trees_.emplace_back(tree_options, /*seed=*/options_.seed + 7919 * (t + 1));
  }

  // Worker budget: an explicit num_threads wins; in auto mode (0) small
  // problems stay sequential — thread handoff would dominate the work.
  size_t budget = ThreadPool::ResolveBudget(options_.num_threads);
  if (options_.num_threads == 0 && n * options_.num_trees <= 65536) {
    budget = 1;
  }

  // Trees claimed one at a time over the shared pool, capped at `budget` so
  // an explicit budget bounds concurrency even when the process-wide pool
  // is larger. Trees are independent and every tree's result is a function
  // of its (seed, bootstrap) alone, so scheduling never changes the forest.
  std::vector<Status> statuses(options_.num_trees);
  ThreadPool::Shared().ParallelFor(
      options_.num_trees,
      [&](size_t t) {
        statuses[t] =
            binned != nullptr
                ? trees_[t].FitBinned(*binned, y, std::move(bootstraps[t]))
                : trees_[t].FitSubset(x, y, std::move(bootstraps[t]));
      },
      /*max_parallelism=*/budget);
  for (const Status& status : statuses) {
    HYPER_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

double RandomForestRegressor::Predict(const std::vector<double>& x) const {
  HYPER_DCHECK(!trees_.empty());
  double total = 0.0;
  for (const DecisionTreeRegressor& tree : trees_) {
    total += tree.PredictRow(x.data());
  }
  return total / static_cast<double>(trees_.size());
}

void RandomForestRegressor::PredictBatch(const FeatureMatrix& x,
                                         std::span<double> out) const {
  HYPER_DCHECK(!trees_.empty());
  HYPER_DCHECK(out.size() == x.num_rows());
  std::fill(out.begin(), out.end(), 0.0);
  // Tree-at-a-time accumulation in tree order: every row's sum folds the
  // trees in exactly the order per-row Predict does, so the means match
  // bit for bit.
  for (const DecisionTreeRegressor& tree : trees_) {
    tree.PredictBatchAdd(x, out.data());
  }
  const double scale = static_cast<double>(trees_.size());
  for (double& v : out) v /= scale;
}

}  // namespace hyper::learn
