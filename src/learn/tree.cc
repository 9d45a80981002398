#include "learn/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/strings.h"

namespace hyper::learn {

bool TargetsSumExactly(const std::vector<double>& y, size_t draws) {
  double max_abs = 0.0;
  for (double t : y) {
    if (!std::isfinite(t) || std::floor(t) != t) return false;
    max_abs = std::max(max_abs, std::fabs(t));
  }
  return static_cast<double>(draws) * max_abs <= 67108864.0;  // 2^26
}

GroupFold::GroupFold(const BinnedMatrix& binned, const std::vector<double>& y)
    : binned_(binned), y_(y), acc_(binned.num_groups()) {
  for (size_t g = 0; g < acc_.size(); ++g) {
    acc_[g].group = static_cast<uint32_t>(g);
  }
}

std::vector<GroupItem> GroupFold::Take() {
  size_t drawn = 0;
  for (const GroupItem& item : acc_) drawn += item.count > 0 ? 1 : 0;
  std::vector<GroupItem> items;
  items.reserve(drawn);
  for (GroupItem& item : acc_) {
    if (item.count > 0) items.push_back(item);
    item = GroupItem{item.group};
  }
  return items;
}

Status DecisionTreeRegressor::Fit(const FeatureMatrix& x,
                                  const std::vector<double>& y) {
  if (options_.use_histograms) {
    if (x.num_rows() != y.size()) {
      return Status::InvalidArgument("feature/target row counts differ");
    }
    if (y.empty()) {
      return Status::InvalidArgument("cannot fit a tree on zero rows");
    }
    HYPER_ASSIGN_OR_RETURN(BinnedMatrix binned, BinnedMatrix::Build(x));
    if (TargetsSumExactly(y, y.size())) {
      GroupFold fold(binned, y);
      for (size_t r = 0; r < y.size(); ++r) fold.Add(r, 1);
      return FitGroups(binned, fold.Take());
    }
    std::vector<size_t> rows(y.size());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    return FitBinned(binned, y, std::move(rows));
  }
  std::vector<size_t> rows(x.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return FitSubset(x, y, std::move(rows));
}

Status DecisionTreeRegressor::FitSubset(const FeatureMatrix& x,
                                        const std::vector<double>& y,
                                        std::vector<size_t> rows) {
  if (x.num_rows() != y.size()) {
    return Status::InvalidArgument("feature/target row counts differ");
  }
  if (rows.empty()) {
    return Status::InvalidArgument("cannot fit a tree on zero rows");
  }
  for (size_t r : rows) {
    if (r >= x.num_rows()) return Status::OutOfRange("row index out of range");
  }
  nodes_.clear();
  depth_ = 0;
  order_ = std::move(rows);
  BuildNode(x, y, 0, order_.size(), 0);
  order_ = std::vector<size_t>();  // a fitted tree keeps no per-row state
  return Status::OK();
}

int DecisionTreeRegressor::BuildNode(const FeatureMatrix& x,
                                     const std::vector<double>& y,
                                     size_t begin, size_t end, int depth) {
  depth_ = std::max(depth_, depth);
  const size_t n = end - begin;

  double sum = 0.0;
  for (size_t i = begin; i < end; ++i) sum += y[order_[i]];
  const double mean = sum / static_cast<double>(n);

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_index].value = mean;

  if (depth >= options_.max_depth || n < 2 * options_.min_samples_leaf) {
    return node_index;
  }

  // Pure nodes stop; impure nodes accept the best valid split even at zero
  // immediate gain (an XOR-style interaction has zero marginal gain at the
  // root yet splits perfectly one level down).
  double sq = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double d = y[order_[i]] - mean;
    sq += d * d;
  }
  if (sq <= 1e-12) return node_index;

  Split split = FindBestSplit(x, y, begin, end);
  if (split.feature < 0) {
    return node_index;  // no valid candidate (all features constant)
  }

  // Partition order_[begin, end) around the threshold.
  size_t mid = begin;
  for (size_t i = begin; i < end; ++i) {
    if (x.At(order_[i], split.feature) <= split.threshold) {
      std::swap(order_[i], order_[mid]);
      ++mid;
    }
  }
  if (mid == begin || mid == end) {
    return node_index;  // degenerate split (ties): keep as leaf
  }

  nodes_[node_index].feature = split.feature;
  nodes_[node_index].threshold = split.threshold;
  const int left = BuildNode(x, y, begin, mid, depth + 1);
  const int right = BuildNode(x, y, mid, end, depth + 1);
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

DecisionTreeRegressor::Split DecisionTreeRegressor::FindBestSplit(
    const FeatureMatrix& x, const std::vector<double>& y, size_t begin,
    size_t end) {
  const size_t n = end - begin;
  const size_t num_features = x.num_cols();

  // Candidate features (random subset when max_features is set — forests).
  std::vector<size_t> features;
  if (options_.max_features > 0 && options_.max_features < num_features) {
    features = rng_.SampleWithoutReplacement(num_features,
                                             options_.max_features);
  } else {
    features.resize(num_features);
    for (size_t f = 0; f < num_features; ++f) features[f] = f;
  }

  Split best;
  best.gain = -1.0;  // accept zero-gain splits; see BuildNode
  std::vector<std::pair<double, double>> pairs;  // (feature value, target)
  pairs.reserve(n);

  double total_sum = 0.0, total_sq = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double t = y[order_[i]];
    total_sum += t;
    total_sq += t * t;
  }
  const double parent_sse =
      total_sq - total_sum * total_sum / static_cast<double>(n);

  for (size_t f : features) {
    pairs.clear();
    for (size_t i = begin; i < end; ++i) {
      pairs.emplace_back(x.At(order_[i], f), y[order_[i]]);
    }
    std::sort(pairs.begin(), pairs.end());
    if (pairs.front().first == pairs.back().first) continue;  // constant

    // Scan split positions between distinct consecutive values. With more
    // than max_thresholds distinct boundaries, evaluate a stride subset.
    double left_sum = 0.0, left_sq = 0.0;
    size_t left_n = 0;
    // Collect boundary positions first to apply the stride uniformly.
    std::vector<size_t> boundaries;
    for (size_t i = 0; i + 1 < pairs.size(); ++i) {
      if (pairs[i].first < pairs[i + 1].first) boundaries.push_back(i);
    }
    size_t stride = 1;
    if (boundaries.size() > options_.max_thresholds &&
        options_.max_thresholds > 0) {
      stride = boundaries.size() / options_.max_thresholds;
    }

    size_t next_boundary = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      left_sum += pairs[i].second;
      left_sq += pairs[i].second * pairs[i].second;
      ++left_n;
      if (next_boundary >= boundaries.size() ||
          boundaries[next_boundary] != i) {
        continue;
      }
      next_boundary += stride;
      if (left_n < options_.min_samples_leaf ||
          n - left_n < options_.min_samples_leaf) {
        continue;
      }
      const double right_sum = total_sum - left_sum;
      const double right_sq = total_sq - left_sq;
      const size_t right_n = n - left_n;
      const double left_sse =
          left_sq - left_sum * left_sum / static_cast<double>(left_n);
      const double right_sse =
          right_sq - right_sum * right_sum / static_cast<double>(right_n);
      const double gain = parent_sse - left_sse - right_sse;
      if (gain > best.gain) {
        best.feature = static_cast<int>(f);
        best.threshold = (pairs[i].first + pairs[i + 1].first) / 2.0;
        best.gain = gain;
      }
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Histogram training. The recursion mirrors BuildNode step for step (same
// leaf conditions, same partition loop, same candidate ordering and
// strictly-greater gain acceptance) so that with one bin per distinct value
// the two paths emit identical trees; only the per-node split search
// changes, from sort-per-feature to one O(items*F) histogram accumulation —
// and a child histogram comes from subtracting the smaller sibling's.
//
// One BuildNodeHist serves two item sources. Each item carries a code row
// and a (count, sum, sum of squares) of targets:
//   - RowItems: one item per draw, in draw order. BuildNodeHist's
//     arithmetic over them is row-at-a-time arithmetic, bit for bit.
//   - GroupItems: one item per group drawn (GroupFold), for targets whose
//     sums are exact (TargetsSumExactly). Every sum BuildNodeHist forms is
//     then exact whatever the order of its addends, so the tree equals the
//     RowItems tree over the same draws, at O(groups) per node.
// ---------------------------------------------------------------------------

namespace {

struct RowItems {
  /// One draw: its row, and the row's group (whose codes it reads).
  struct Draw {
    uint32_t row;
    uint32_t group;
  };

  const BinnedMatrix& binned;
  const std::vector<double>& y;
  std::vector<Draw> draws;

  size_t size() const { return draws.size(); }
  const uint8_t* codes(size_t i) const {
    return binned.group_codes(draws[i].group);
  }
  uint32_t count(size_t) const { return 1; }
  double sum(size_t i) const { return y[draws[i].row]; }
  double sum_sq(size_t i) const {
    const double t = y[draws[i].row];
    return t * t;
  }
  void Swap(size_t i, size_t j) { std::swap(draws[i], draws[j]); }

  /// The exact splitter's two-pass purity test (the centered form differs
  /// from total_sq - n*mean^2 in the last ulp, and parity needs identical
  /// bits).
  bool Pure(size_t begin, size_t end, size_t /*n*/, double mean,
            double /*total_sum*/, double /*total_sq*/) const {
    double sq = 0.0;
    for (size_t i = begin; i < end; ++i) {
      const double d = y[draws[i].row] - mean;
      sq += d * d;
    }
    return sq <= 1e-12;
  }
};

struct GroupItems {
  const BinnedMatrix& binned;
  std::vector<GroupItem> items;

  size_t size() const { return items.size(); }
  const uint8_t* codes(size_t i) const {
    return binned.group_codes(items[i].group);
  }
  uint32_t count(size_t i) const { return items[i].count; }
  double sum(size_t i) const { return items[i].sum; }
  double sum_sq(size_t i) const { return items[i].sum_sq; }
  void Swap(size_t i, size_t j) { std::swap(items[i], items[j]); }

  /// On integer targets the two-pass test decides "all targets are equal"
  /// (an unequal pair leaves a centered square of at least ~1/4), and so
  /// does n * sum_sq == sum^2 (Cauchy-Schwarz), whose two sides are exact.
  bool Pure(size_t /*begin*/, size_t /*end*/, size_t n, double /*mean*/,
            double total_sum, double total_sq) const {
    return static_cast<double>(n) * total_sq == total_sum * total_sum;
  }
};

}  // namespace

template <typename Items>
DecisionTreeRegressor::Hist DecisionTreeRegressor::AccumulateHist(
    const BinnedMatrix& binned, const Items& items, size_t begin,
    size_t end) {
  Hist h;
  h.Reset(binned.total_bins());
  const size_t num_features = binned.num_features();
  double* sums = h.sum.data();
  double* sqs = h.sum_sq.data();
  uint32_t* counts = h.count.data();
  for (size_t i = begin; i < end; ++i) {
    const uint8_t* codes = items.codes(i);
    const double t = items.sum(i);
    const double tt = items.sum_sq(i);
    const uint32_t c = items.count(i);
    for (size_t f = 0; f < num_features; ++f) {
      const size_t b = binned.bin_offset(f) + codes[f];
      sums[b] += t;
      sqs[b] += tt;
      counts[b] += c;
    }
  }
  return h;
}

template <typename Items>
int DecisionTreeRegressor::BuildNodeHist(const BinnedMatrix& binned,
                                         Items& items, size_t begin,
                                         size_t end, int depth, Hist hist) {
  depth_ = std::max(depth_, depth);

  // Node totals in item order: over row items that is the exact splitter's
  // row order, so the mean and the split gains agree bit-for-bit on parity
  // fixtures.
  size_t n = 0;
  double total_sum = 0.0, total_sq = 0.0;
  for (size_t i = begin; i < end; ++i) {
    n += items.count(i);
    total_sum += items.sum(i);
    total_sq += items.sum_sq(i);
  }
  const double mean = total_sum / static_cast<double>(n);

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_index].value = mean;

  if (depth >= options_.max_depth || n < 2 * options_.min_samples_leaf) {
    return node_index;
  }
  if (items.Pure(begin, end, n, mean, total_sum, total_sq)) return node_index;

  if (hist.empty()) hist = AccumulateHist(binned, items, begin, end);
  Split split = FindBestSplitHist(binned, n, hist, total_sum, total_sq);
  if (split.feature < 0) {
    return node_index;
  }

  // Partition items [begin, end) by bin code — over row items the same
  // permutation the exact path produces, since the threshold separates
  // exactly the codes <= split.bin.
  const uint8_t split_bin = static_cast<uint8_t>(split.bin);
  size_t mid = begin;
  size_t left_n = 0;
  for (size_t i = begin; i < end; ++i) {
    if (items.codes(i)[split.feature] <= split_bin) {
      left_n += items.count(i);
      items.Swap(i, mid);
      ++mid;
    }
  }
  if (mid == begin || mid == end) {
    return node_index;
  }

  nodes_[node_index].feature = split.feature;
  nodes_[node_index].threshold = split.threshold;

  // Child histograms: accumulate the side with fewer items, subtract for
  // the other (half the accumulation work per level). Skip children that
  // cannot split anyway — they never read their histogram.
  const size_t right_n = n - left_n;
  const bool need_left = depth + 1 < options_.max_depth &&
                         left_n >= 2 * options_.min_samples_leaf;
  const bool need_right = depth + 1 < options_.max_depth &&
                          right_n >= 2 * options_.min_samples_leaf;
  Hist left_hist, right_hist;
  const bool left_is_small = mid - begin <= end - mid;
  const bool need_small = left_is_small ? need_left : need_right;
  const bool need_large = left_is_small ? need_right : need_left;
  if (need_small || need_large) {
    Hist small = left_is_small ? AccumulateHist(binned, items, begin, mid)
                               : AccumulateHist(binned, items, mid, end);
    if (need_large) {
      // Sibling subtraction over the SoA spans: three independent
      // contiguous loops the compiler turns into packed subtracts.
      Hist large = std::move(hist);
      const size_t bins = large.size();
      for (size_t b = 0; b < bins; ++b) large.sum[b] -= small.sum[b];
      for (size_t b = 0; b < bins; ++b) large.sum_sq[b] -= small.sum_sq[b];
      for (size_t b = 0; b < bins; ++b) large.count[b] -= small.count[b];
      (left_is_small ? right_hist : left_hist) = std::move(large);
    }
    if (need_small) {
      (left_is_small ? left_hist : right_hist) = std::move(small);
    }
  }

  const int left = BuildNodeHist(binned, items, begin, mid, depth + 1,
                                 std::move(left_hist));
  const int right = BuildNodeHist(binned, items, mid, end, depth + 1,
                                  std::move(right_hist));
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

Status DecisionTreeRegressor::FitBinned(const BinnedMatrix& binned,
                                        const std::vector<double>& y,
                                        std::vector<size_t> rows) {
  if (binned.num_rows() != y.size()) {
    return Status::InvalidArgument("feature/target row counts differ");
  }
  if (rows.empty()) {
    return Status::InvalidArgument("cannot fit a tree on zero rows");
  }
  for (size_t r : rows) {
    if (r >= binned.num_rows()) {
      return Status::OutOfRange("row index out of range");
    }
  }
  nodes_.clear();
  depth_ = 0;
  RowItems items{binned, y, std::vector<RowItems::Draw>(rows.size())};
  for (size_t i = 0; i < rows.size(); ++i) {
    items.draws[i] = {static_cast<uint32_t>(rows[i]), binned.group(rows[i])};
  }
  rows = std::vector<size_t>();  // the draws replace the rows
  BuildNodeHist(binned, items, 0, items.size(), 0, Hist{});
  return Status::OK();
}

Status DecisionTreeRegressor::FitGroups(const BinnedMatrix& binned,
                                        std::vector<GroupItem> items) {
  if (items.empty()) {
    return Status::InvalidArgument("cannot fit a tree on zero rows");
  }
  for (const GroupItem& item : items) {
    if (item.group >= binned.num_groups() || item.count == 0) {
      return Status::OutOfRange("group item out of range");
    }
  }
  nodes_.clear();
  depth_ = 0;
  GroupItems source{binned, std::move(items)};
  BuildNodeHist(binned, source, 0, source.size(), 0, Hist{});
  return Status::OK();
}

DecisionTreeRegressor::Split DecisionTreeRegressor::FindBestSplitHist(
    const BinnedMatrix& binned, size_t n, const Hist& hist, double total_sum,
    double total_sq) {
  const size_t num_features = binned.num_features();

  std::vector<size_t> features;
  if (options_.max_features > 0 && options_.max_features < num_features) {
    features = rng_.SampleWithoutReplacement(num_features,
                                             options_.max_features);
  } else {
    features.resize(num_features);
    for (size_t f = 0; f < num_features; ++f) features[f] = f;
  }

  Split best;
  best.gain = -1.0;
  const double parent_sse =
      total_sq - total_sum * total_sum / static_cast<double>(n);

  std::vector<uint32_t> present;  // non-empty bins of the current feature
  for (size_t f : features) {
    const size_t num_bins = binned.num_bins(f);
    const size_t off = binned.bin_offset(f);
    const double* sums = hist.sum.data() + off;
    const double* sqs = hist.sum_sq.data() + off;
    const uint32_t* counts = hist.count.data() + off;
    present.clear();
    for (size_t b = 0; b < num_bins; ++b) {
      if (counts[b] > 0) present.push_back(static_cast<uint32_t>(b));
    }
    if (present.size() < 2) continue;  // constant in this node

    // Candidate boundaries sit between consecutive non-empty bins — the
    // same positions the exact path finds between distinct sorted values —
    // and the same stride subsetting applies.
    const size_t num_boundaries = present.size() - 1;
    size_t stride = 1;
    if (num_boundaries > options_.max_thresholds &&
        options_.max_thresholds > 0) {
      stride = num_boundaries / options_.max_thresholds;
    }

    double left_sum = 0.0, left_sq = 0.0;
    size_t left_n = 0;
    size_t next_boundary = 0;
    for (size_t p = 0; p < present.size(); ++p) {
      const uint32_t pb = present[p];
      left_sum += sums[pb];
      left_sq += sqs[pb];
      left_n += counts[pb];
      if (p >= num_boundaries || next_boundary != p) continue;
      next_boundary += stride;
      if (left_n < options_.min_samples_leaf ||
          n - left_n < options_.min_samples_leaf) {
        continue;
      }
      const double right_sum = total_sum - left_sum;
      const double right_sq = total_sq - left_sq;
      const size_t right_n = n - left_n;
      const double left_sse =
          left_sq - left_sum * left_sum / static_cast<double>(left_n);
      const double right_sse =
          right_sq - right_sum * right_sum / static_cast<double>(right_n);
      const double gain = parent_sse - left_sse - right_sse;
      if (gain > best.gain) {
        best.feature = static_cast<int>(f);
        best.bin = static_cast<int>(present[p]);
        // Halfway between the left bin's largest and the right bin's
        // smallest raw value — identical to the exact midpoint when every
        // bin holds one distinct value. If the midpoint rounds onto an
        // endpoint (adjacent representable doubles), fall back to the left
        // bin's max so `x <= threshold` agrees with the code partition.
        const double lo = binned.bin_max(f, present[p]);
        const double hi = binned.bin_min(f, present[p + 1]);
        double threshold = (lo + hi) / 2.0;
        if (!(threshold > lo && threshold < hi)) threshold = lo;
        best.threshold = threshold;
        best.gain = gain;
      }
    }
  }
  return best;
}

double DecisionTreeRegressor::Predict(const std::vector<double>& x) const {
  HYPER_DCHECK(!nodes_.empty());
  return PredictRow(x.data());
}

void DecisionTreeRegressor::PredictBatch(const FeatureMatrix& x,
                                         std::span<double> out) const {
  HYPER_DCHECK(!nodes_.empty());
  HYPER_DCHECK(out.size() == x.num_rows());
  for (size_t r = 0; r < x.num_rows(); ++r) out[r] = PredictRow(x.row(r));
}

void DecisionTreeRegressor::PredictBatchAdd(const FeatureMatrix& x,
                                            double* out) const {
  HYPER_DCHECK(!nodes_.empty());
  for (size_t r = 0; r < x.num_rows(); ++r) out[r] += PredictRow(x.row(r));
}

std::string DecisionTreeRegressor::StructureDigest() const {
  std::string out;
  // Pre-order walk without recursion; nodes_ is already in DFS left-first
  // order but the digest spells out the shape explicitly.
  std::vector<int> stack;
  if (!nodes_.empty()) stack.push_back(0);
  while (!stack.empty()) {
    const int i = stack.back();
    stack.pop_back();
    const Node& node = nodes_[i];
    if (node.feature < 0) {
      out += StrFormat("=%.17g;", node.value);
      continue;
    }
    out += StrFormat("(%d:%.17g;", node.feature, node.threshold);
    stack.push_back(node.right);
    stack.push_back(node.left);
  }
  return out;
}

}  // namespace hyper::learn
