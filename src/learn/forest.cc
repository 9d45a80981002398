#include "learn/forest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace hyper::learn {

namespace {

/// How often each tree of a forest drew each row: tree t's count of row r
/// at [t * n + r].
using Multiplicities = std::vector<uint8_t>;

/// The bootstraps FitImpl draws, counted: n draws of a row per tree from
/// Rng(seed), tree after tree. Null when one tree draws a row more than 255
/// times, which needs more than 255 rows and is vanishingly rare.
std::shared_ptr<const Multiplicities> DrawMultiplicities(uint64_t seed,
                                                        size_t n,
                                                        size_t trees) {
  auto table = std::make_shared<Multiplicities>(trees * n);
  Rng rng(seed);
  for (size_t t = 0; t < trees; ++t) {
    uint8_t* counts = table->data() + t * n;
    for (size_t i = 0; i < n; ++i) {
      uint8_t& c = counts[rng.UniformInt(0, static_cast<int64_t>(n) - 1)];
      if (c == std::numeric_limits<uint8_t>::max()) return nullptr;
      ++c;
    }
  }
  return table;
}

/// The most recently used multiplicity tables, process-wide: a forest is
/// fitted lazily where no service object is in reach, and the key holds no
/// data. A miss draws outside the lock, so concurrent misses on one key
/// draw the same table twice and keep one.
class BootstrapMemo {
 public:
  static BootstrapMemo& Instance() {
    static BootstrapMemo memo;
    return memo;
  }

  /// The table of (seed, n, trees), or null when the key is declined.
  std::shared_ptr<const Multiplicities> Get(uint64_t seed, size_t n,
                                            size_t trees) EXCLUDES(mu_) {
    const Key key{seed, n, trees};
    {
      MutexLock lock(&mu_);
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->key == key) {
          std::rotate(entries_.begin(), it, it + 1);
          ++hits_;
          return entries_.front().table;
        }
      }
      ++misses_;
    }
    std::shared_ptr<const Multiplicities> table =
        DrawMultiplicities(seed, n, trees);
    if (table == nullptr) return nullptr;
    MutexLock lock(&mu_);
    std::erase_if(entries_, [&](const Entry& e) { return e.key == key; });
    entries_.insert(entries_.begin(), Entry{key, table});
    if (entries_.size() > kBootstrapMemoCapacity) {
      entries_.resize(kBootstrapMemoCapacity);
    }
    return table;
  }

  BootstrapMemoStats Stats() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    BootstrapMemoStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    for (const Entry& e : entries_) stats.bytes += e.table->size();
    return stats;
  }

 private:
  struct Key {
    uint64_t seed;
    size_t n;
    size_t trees;
    bool operator==(const Key&) const = default;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const Multiplicities> table;
  };

  Mutex mu_;
  std::vector<Entry> entries_ GUARDED_BY(mu_);  // most recently used first
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
};

}  // namespace

BootstrapMemoStats GetBootstrapMemoStats() {
  return BootstrapMemo::Instance().Stats();
}

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

  // Draw every bootstrap up front, from one sequential stream, so the forest
  // is deterministic however training is scheduled. With exact targets each
  // tree folds its row multiplicities into group items, so no tree holds n
  // draws; otherwise (fractional targets, the exact splitter, or a key the
  // memo declines) each tree keeps its draws as rows.
  const size_t n = x.num_rows();
  std::shared_ptr<const Multiplicities> multiplicities;
  if (binned != nullptr && TargetsSumExactly(y, n)) {
    multiplicities =
        BootstrapMemo::Instance().Get(options_.seed, n, options_.num_trees);
  }
  std::vector<std::vector<size_t>> bootstraps;
  if (multiplicities == nullptr) {
    Rng rng(options_.seed);
    bootstraps.resize(options_.num_trees);
    for (std::vector<size_t>& rows : bootstraps) {
      rows.resize(n);
      for (size_t& r : rows) {
        r = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      }
    }
  }
  for (size_t t = 0; t < options_.num_trees; ++t) {
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
  // A tree folds its own multiplicities into group items.
  std::vector<Status> statuses(options_.num_trees);
  ThreadPool::Shared().ParallelFor(
      options_.num_trees,
      [&](size_t t) {
        if (multiplicities != nullptr) {
          GroupFold fold(*binned, y);
          const uint8_t* m = multiplicities->data() + t * n;
          for (size_t r = 0; r < n; ++r) fold.Add(r, m[r]);
          statuses[t] = trees_[t].FitGroups(*binned, fold.Take());
        } else if (binned != nullptr) {
          statuses[t] =
              trees_[t].FitBinned(*binned, y, std::move(bootstraps[t]));
        } else {
          statuses[t] = trees_[t].FitSubset(x, y, std::move(bootstraps[t]));
        }
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
