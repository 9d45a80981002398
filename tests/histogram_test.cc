// Histogram-training substrate tests: quantile binning and row grouping
// invariants, histogram-vs-exact split parity (identical trees when every
// distinct value gets its own bin), grouped training against row-at-a-time
// training (the same trees, and forests pinned by hash), PredictBatch
// bit-equality with per-row Predict, forest determinism across thread
// budgets, and engine-level A/B equality for the batched-inference path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "common/hash.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "learn/binning.h"
#include "learn/forest.h"
#include "learn/frequency.h"
#include "learn/tree.h"
#include "sql/parser.h"
#include "whatif/engine.h"

namespace hyper::learn {
namespace {

/// Integer-valued fixture: sums of targets and squared targets are exactly
/// representable, so exact and histogram split scores agree bit for bit and
/// tree parity is a structural statement, not a tolerance.
void IntegerData(size_t n, size_t num_features, size_t cardinality,
                 uint64_t seed, FeatureMatrix* x, std::vector<double>* y) {
  Rng rng(seed);
  FeatureMatrix m(n, num_features);
  y->clear();
  for (size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (size_t f = 0; f < num_features; ++f) {
      const double v = static_cast<double>(
          rng.UniformInt(0, static_cast<int64_t>(cardinality) - 1));
      m.Set(i, f, v);
      acc += v * static_cast<double>(f + 1);
    }
    y->push_back(acc > static_cast<double>(num_features * cardinality) / 3.0
                     ? 1.0
                     : 0.0);
  }
  *x = std::move(m);
}

// ---------------------------------------------------------------------------
// BinnedMatrix
// ---------------------------------------------------------------------------

TEST(BinnedMatrixTest, OneBinPerDistinctValue) {
  FeatureMatrix x(6, 1);
  const double vals[] = {3, 1, 2, 3, 1, 2};
  for (size_t i = 0; i < 6; ++i) x.Set(i, 0, vals[i]);
  auto binned = BinnedMatrix::Build(x, 256).value();
  ASSERT_EQ(binned.num_bins(0), 3u);
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_DOUBLE_EQ(binned.bin_min(0, b), binned.bin_max(0, b));
    EXPECT_DOUBLE_EQ(binned.bin_min(0, b), static_cast<double>(b + 1));
  }
  // Codes map each row back to its value's bin.
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(binned.bin_min(0, binned.code(i, 0)), vals[i]);
  }
}

TEST(BinnedMatrixTest, QuantileBinsCapAt256AndPartition) {
  const size_t n = 5000;
  Rng rng(17);
  FeatureMatrix x(n, 2);
  for (size_t i = 0; i < n; ++i) {
    x.Set(i, 0, rng.Uniform(0, 1));              // ~n distinct values
    x.Set(i, 1, std::exp(rng.Gaussian(0, 2)));   // heavily skewed
  }
  auto binned = BinnedMatrix::Build(x, 256).value();
  for (size_t f = 0; f < 2; ++f) {
    const size_t bins = binned.num_bins(f);
    ASSERT_LE(bins, 256u);
    ASSERT_GE(bins, 200u);  // plenty of resolution on continuous data
    // Bins are ordered and non-overlapping.
    for (size_t b = 0; b + 1 < bins; ++b) {
      EXPECT_LE(binned.bin_min(f, b), binned.bin_max(f, b));
      EXPECT_LT(binned.bin_max(f, b), binned.bin_min(f, b + 1));
    }
    // Every row's value lies inside its bin.
    for (size_t i = 0; i < n; ++i) {
      const uint8_t c = binned.code(i, f);
      EXPECT_GE(x.At(i, f), binned.bin_min(f, c));
      EXPECT_LE(x.At(i, f), binned.bin_max(f, c));
    }
  }
}

TEST(BinnedMatrixTest, EqualCountBinsOnSkewedData) {
  // 90% ties at one value must not starve the tail of bins.
  const size_t n = 1000;
  FeatureMatrix x(n, 1);
  for (size_t i = 0; i < n; ++i) {
    x.Set(i, 0, i < 900 ? 1.0 : 1000.0 + static_cast<double>(i));
  }
  auto binned = BinnedMatrix::Build(x, 16).value();
  // The tie run collapses into one bin; the 100 tail values share the rest.
  ASSERT_GE(binned.num_bins(0), 2u);
  ASSERT_LE(binned.num_bins(0), 16u);
  EXPECT_DOUBLE_EQ(binned.bin_max(0, 0), 1.0);
}

TEST(BinnedMatrixTest, GroupsHoldEachDistinctCodeRowOnce) {
  // Three features of three values and one constant feature: at most 27
  // code rows among 500 rows.
  const size_t n = 500;
  Rng rng(19);
  FeatureMatrix x(n, 4);
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < 3; ++f) {
      x.Set(i, f, static_cast<double>(rng.UniformInt(0, 2)));
    }
    x.Set(i, 3, 7.0);
  }
  auto binned = BinnedMatrix::Build(x, 256).value();
  ASSERT_LE(binned.num_groups(), 27u);
  std::set<std::string> distinct;
  size_t next_new = 0;  // groups are numbered in order of first appearance
  for (size_t i = 0; i < n; ++i) {
    const uint32_t g = binned.group(i);
    ASSERT_LT(g, binned.num_groups());
    ASSERT_LE(g, next_new) << "row " << i;
    if (g == next_new) {
      ++next_new;
      const uint8_t* codes = binned.group_codes(g);
      EXPECT_TRUE(distinct.emplace(codes, codes + 4).second) << "group " << g;
    }
    for (size_t f = 0; f < 4; ++f) {
      EXPECT_EQ(binned.code(i, f), binned.group_codes(g)[f]);
      EXPECT_DOUBLE_EQ(binned.bin_min(f, binned.code(i, f)), x.At(i, f));
    }
  }
  EXPECT_EQ(next_new, binned.num_groups());

  // Without features every row has the one empty code row.
  EXPECT_EQ(BinnedMatrix::Build(FeatureMatrix(5, 0)).value().num_groups(),
            1u);
}

// ---------------------------------------------------------------------------
// Binning parity: BinnedMatrix::Build against the sort-based binning it
// replaced for features of at most max_bins distinct values, which is still
// its path for denser ones.
// ---------------------------------------------------------------------------

/// The sort-based binning, per feature: sort the column, walk it once
/// closing a bin at the end of a tie run that has filled its equal-count
/// share (or at every distinct value when there are at most max_bins), then
/// code each value by binary search over the bin maxima. Groups number the
/// distinct code rows in order of first appearance.
struct SortBinned {
  std::vector<std::vector<double>> bin_min, bin_max;  // per feature
  std::vector<std::vector<uint8_t>> codes;            // per feature, per row
  std::vector<uint32_t> group;                        // per row
  size_t num_groups = 0;
};

SortBinned SortBin(const FeatureMatrix& x, size_t max_bins) {
  max_bins = std::min<size_t>(max_bins, 256);
  const size_t n = x.num_rows();
  SortBinned out;
  out.bin_min.resize(x.num_cols());
  out.bin_max.resize(x.num_cols());
  out.codes.assign(x.num_cols(), std::vector<uint8_t>(n));
  for (size_t f = 0; f < x.num_cols(); ++f) {
    std::vector<double> sorted(n);
    for (size_t r = 0; r < n; ++r) sorted[r] = x.At(r, f);
    std::sort(sorted.begin(), sorted.end());
    if (n == 0) continue;
    size_t distinct = 1;
    for (size_t r = 1; r < n; ++r) distinct += sorted[r] != sorted[r - 1];
    const size_t target_bins = std::min(distinct, max_bins);
    size_t bin_start = 0, bins_made = 0;
    for (size_t r = 0; r < n; ++r) {
      const bool last = r + 1 == n;
      const bool tie = !last && sorted[r + 1] == sorted[r];
      const size_t remaining_bins = target_bins - bins_made;
      const bool quota =
          (r + 1 - bin_start) * remaining_bins >= n - bin_start;
      if (last || (!tie && (quota || target_bins == distinct))) {
        if (!last && remaining_bins == 1) continue;
        out.bin_min[f].push_back(sorted[bin_start]);
        out.bin_max[f].push_back(sorted[r]);
        ++bins_made;
        bin_start = r + 1;
      }
    }
    const std::vector<double>& bmax = out.bin_max[f];
    for (size_t r = 0; r < n; ++r) {
      const size_t b =
          std::lower_bound(bmax.begin(), bmax.end(), x.At(r, f)) -
          bmax.begin();
      out.codes[f][r] = static_cast<uint8_t>(std::min(b, bmax.size() - 1));
    }
  }
  std::map<std::vector<uint8_t>, uint32_t> groups;
  for (size_t r = 0; r < n; ++r) {
    std::vector<uint8_t> row(x.num_cols());
    for (size_t f = 0; f < x.num_cols(); ++f) row[f] = out.codes[f][r];
    const uint32_t next = static_cast<uint32_t>(groups.size());
    out.group.push_back(groups.emplace(std::move(row), next).first->second);
  }
  out.num_groups = groups.size();
  return out;
}

/// FindBestSplitHist's threshold between adjacent bins.
double Threshold(double lo, double hi) {
  const double t = (lo + hi) / 2.0;
  return t > lo && t < hi ? t : lo;
}

/// Build's bins, thresholds, codes and groups equal SortBin's. Bin extrema
/// compare as numbers, since the sort's tie run of -0.0 and +0.0 keeps
/// whichever zero it ends on.
void ExpectSortBinning(const FeatureMatrix& x, size_t max_bins,
                       const std::string& what) {
  SCOPED_TRACE(what + " at max_bins " + std::to_string(max_bins));
  const SortBinned want = SortBin(x, max_bins);
  auto got = BinnedMatrix::Build(x, max_bins);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->num_features(), x.num_cols());
  for (size_t f = 0; f < x.num_cols(); ++f) {
    const size_t bins = want.bin_min[f].size();
    ASSERT_EQ(got->num_bins(f), bins) << "feature " << f;
    for (size_t b = 0; b < bins; ++b) {
      EXPECT_EQ(got->bin_min(f, b), want.bin_min[f][b]) << f << "/" << b;
      EXPECT_EQ(got->bin_max(f, b), want.bin_max[f][b]) << f << "/" << b;
      if (b + 1 == bins) continue;
      const double t = Threshold(got->bin_max(f, b), got->bin_min(f, b + 1));
      const double w = Threshold(want.bin_max[f][b], want.bin_min[f][b + 1]);
      EXPECT_EQ(std::memcmp(&t, &w, sizeof t), 0)
          << "threshold " << f << "/" << b << ": " << t << " vs " << w;
    }
    for (size_t r = 0; r < x.num_rows(); ++r) {
      ASSERT_EQ(got->code(r, f), want.codes[f][r]) << "row " << r << " f " << f;
    }
  }
  ASSERT_EQ(got->num_groups(), want.num_groups);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    ASSERT_EQ(got->group(r), want.group[r]) << "row " << r;
  }
}

/// `n` x `cols` matrix whose every cell is `value(rng)`.
template <typename Value>
FeatureMatrix RandomMatrix(size_t n, size_t cols, uint64_t seed, Value value) {
  Rng rng(seed);
  FeatureMatrix x(n, cols);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < cols; ++c) x.Set(r, c, value(rng));
  }
  return x;
}

/// One of `values`, uniformly.
auto OneOf(std::vector<double> values) {
  return [values = std::move(values)](Rng& rng) {
    return values[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(values.size()) - 1))];
  };
}

/// `n` rows of one feature holding each of `k` distinct values (multiples of
/// 0.5 from -3) at least once, in shuffled order.
FeatureMatrix KDistinct(size_t n, size_t k, uint64_t seed) {
  std::vector<double> column(n);
  for (size_t r = 0; r < n; ++r) {
    column[r] = -3.0 + 0.5 * static_cast<double>(r % k);
  }
  Rng rng(seed);
  rng.Shuffle(&column);
  FeatureMatrix x(n, 1);
  for (size_t r = 0; r < n; ++r) x.Set(r, 0, column[r]);
  return x;
}

TEST(BinningParityTest, MatchesSortBinning) {
  const double inf = HUGE_VAL;
  const double big = 9007199254740992.0;  // 2^53
  const struct {
    const char* name;
    std::function<double(Rng&)> value;
  } kinds[] = {
      {"four integers", OneOf({0, 1, 2, 3})},
      {"negative integers", OneOf({-7, -4, -3, -1, 0, 2})},
      {"non-integers", OneOf({0.1, 0.2, 0.30000000000000004, 1.0 / 3, -2.75,
                              1e-9, 123.456})},
      {"signed zeros", OneOf({-0.0, 0.0, -1, 1})},
      {"infinities", OneOf({-inf, -1, 0, 2.5, inf})},
      {"past 2^53", OneOf({big, big + 2, -big - 2, 1e300, -1e300, 0x1p62,
                           1.0})},
  };
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (const auto& kind : kinds) {
      const FeatureMatrix x = RandomMatrix(2000, 3, seed, kind.value);
      for (size_t max_bins : {size_t{256}, size_t{4}, size_t{2}}) {
        ExpectSortBinning(x, max_bins, kind.name);
      }
    }
    // Every kind side by side, one feature each.
    Rng rng(seed);
    FeatureMatrix mixed(3000, std::size(kinds));
    for (size_t r = 0; r < mixed.num_rows(); ++r) {
      for (size_t c = 0; c < std::size(kinds); ++c) {
        mixed.Set(r, c, kinds[c].value(rng));
      }
    }
    ExpectSortBinning(mixed, 256, "mixed");
    ExpectSortBinning(mixed, 4, "mixed");
  }
}

TEST(BinningParityTest, MaxBinsAndOneMoreDistinctValues) {
  for (size_t max_bins : {size_t{256}, size_t{4}}) {
    for (size_t k : {max_bins, max_bins + 1}) {
      const FeatureMatrix x = KDistinct(4 * k + 3, k, /*seed=*/k);
      ExpectSortBinning(x, max_bins, std::to_string(k) + " distinct");
      const BinnedMatrix binned = BinnedMatrix::Build(x, max_bins).value();
      if (k == max_bins) {
        // One bin per distinct value, the bins in value order.
        ASSERT_EQ(binned.num_bins(0), k);
        for (size_t b = 0; b < k; ++b) {
          EXPECT_EQ(binned.bin_min(0, b), -3.0 + 0.5 * static_cast<double>(b));
          EXPECT_EQ(binned.bin_max(0, b), binned.bin_min(0, b));
        }
      } else {
        EXPECT_LE(binned.num_bins(0), max_bins);
      }
    }
  }
  // A continuous column beside a discrete one.
  Rng rng(5);
  FeatureMatrix x(5000, 2);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    x.Set(r, 0, rng.Uniform(-1, 1));
    x.Set(r, 1, static_cast<double>(rng.UniformInt(0, 9)));
  }
  ExpectSortBinning(x, 256, "continuous");
  ExpectSortBinning(x, 16, "continuous");
}

TEST(BinningParityTest, NaNFailsWherever) {
  for (size_t max_bins : {size_t{256}, size_t{4}}) {
    // In the first row.
    FeatureMatrix first = KDistinct(3 * max_bins, max_bins, 7);
    first.Set(0, 0, std::nan(""));
    // After max_bins + 1 distinct values, in a second feature.
    FeatureMatrix late(3 * max_bins, 2);
    for (size_t r = 0; r < late.num_rows(); ++r) {
      late.Set(r, 0, 1.0);
      late.Set(r, 1, static_cast<double>(r));
    }
    late.Set(late.num_rows() - 1, 1, std::nan(""));
    for (const FeatureMatrix* x : {&first, &late}) {
      auto binned = BinnedMatrix::Build(*x, max_bins);
      ASSERT_FALSE(binned.ok()) << "max_bins " << max_bins;
      EXPECT_EQ(binned.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(binned.status().message().find("cannot bin NaN feature values"),
                std::string::npos)
          << binned.status();
    }
  }
}

// ---------------------------------------------------------------------------
// Histogram-vs-exact parity
// ---------------------------------------------------------------------------

TEST(HistogramParityTest, SingleTreeIdenticalWhenBinsCoverDistinct) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    FeatureMatrix x;
    std::vector<double> y;
    IntegerData(600, 3, 20, seed, &x, &y);  // 20 distinct <= 64 thresholds

    TreeOptions exact_opt;
    exact_opt.use_histograms = false;
    DecisionTreeRegressor exact(exact_opt, /*seed=*/42);
    ASSERT_TRUE(exact.Fit(x, y).ok());

    TreeOptions hist_opt;
    hist_opt.use_histograms = true;
    DecisionTreeRegressor hist(hist_opt, /*seed=*/42);
    ASSERT_TRUE(hist.Fit(x, y).ok());

    EXPECT_EQ(exact.num_nodes(), hist.num_nodes()) << "seed " << seed;
    EXPECT_EQ(exact.depth(), hist.depth()) << "seed " << seed;
    EXPECT_EQ(exact.StructureDigest(), hist.StructureDigest())
        << "seed " << seed;
  }
}

TEST(HistogramParityTest, FractionalButExactValues) {
  // Values at multiples of 0.25 are exactly representable: parity must hold
  // for non-integers too.
  Rng rng(9);
  const size_t n = 400;
  FeatureMatrix x(n, 2);
  std::vector<double> y;
  for (size_t i = 0; i < n; ++i) {
    x.Set(i, 0, static_cast<double>(rng.UniformInt(0, 40)) * 0.25);
    x.Set(i, 1, static_cast<double>(rng.UniformInt(0, 7)));
    y.push_back(x.At(i, 0) > 5.0 || x.At(i, 1) > 5.0 ? 2.0 : -1.0);
  }
  TreeOptions exact_opt;
  exact_opt.use_histograms = false;
  TreeOptions hist_opt;
  hist_opt.use_histograms = true;
  DecisionTreeRegressor exact(exact_opt), hist(hist_opt);
  ASSERT_TRUE(exact.Fit(x, y).ok());
  ASSERT_TRUE(hist.Fit(x, y).ok());
  EXPECT_EQ(exact.StructureDigest(), hist.StructureDigest());
}

TEST(HistogramParityTest, ForestIdenticalWhenBinsCoverDistinct) {
  FeatureMatrix x;
  std::vector<double> y;
  IntegerData(800, 4, 12, /*seed=*/7, &x, &y);

  ForestOptions exact_opt;
  exact_opt.num_trees = 8;
  exact_opt.tree.use_histograms = false;
  ForestOptions hist_opt = exact_opt;
  hist_opt.tree.use_histograms = true;

  RandomForestRegressor exact(exact_opt), hist(hist_opt);
  ASSERT_TRUE(exact.Fit(x, y).ok());
  ASSERT_TRUE(hist.Fit(x, y).ok());
  for (size_t t = 0; t < exact.num_trees(); ++t) {
    EXPECT_EQ(exact.tree(t).StructureDigest(), hist.tree(t).StructureDigest())
        << "tree " << t;
  }
  // And therefore bit-identical predictions everywhere.
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> p = {rng.Uniform(-2, 14), rng.Uniform(-2, 14),
                             rng.Uniform(-2, 14), rng.Uniform(-2, 14)};
    EXPECT_DOUBLE_EQ(exact.Predict(p), hist.Predict(p));
  }
}

TEST(HistogramQualityTest, ContinuousDataCloseToExact) {
  // > 256 distinct values: trees may differ, but the fitted function must
  // track the exact tree closely.
  Rng rng(23);
  const size_t n = 3000;
  FeatureMatrix x(n, 2);
  std::vector<double> y;
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(0, 1), b = rng.Uniform(0, 1);
    x.Set(i, 0, a);
    x.Set(i, 1, b);
    y.push_back(2.0 * a + b + rng.Gaussian(0, 0.05));
  }
  TreeOptions exact_opt;
  exact_opt.use_histograms = false;
  TreeOptions hist_opt;
  hist_opt.use_histograms = true;
  DecisionTreeRegressor exact(exact_opt), hist(hist_opt);
  ASSERT_TRUE(exact.Fit(x, y).ok());
  ASSERT_TRUE(hist.Fit(x, y).ok());
  double mad = 0.0;
  for (int i = 0; i < 500; ++i) {
    std::vector<double> p = {rng.Uniform(0, 1), rng.Uniform(0, 1)};
    mad += std::fabs(exact.Predict(p) - hist.Predict(p));
  }
  EXPECT_LT(mad / 500.0, 0.05);
}

// ---------------------------------------------------------------------------
// PredictBatch bit-equality
// ---------------------------------------------------------------------------

TEST(PredictBatchTest, ForestMatchesPerRowBitForBit) {
  FeatureMatrix x;
  std::vector<double> y;
  IntegerData(500, 3, 50, /*seed=*/5, &x, &y);
  ForestOptions opt;
  opt.num_trees = 12;
  RandomForestRegressor forest(opt);
  ASSERT_TRUE(forest.Fit(x, y).ok());

  std::vector<double> batch(x.num_rows());
  forest.PredictBatch(x, batch);
  std::vector<double> row(x.num_cols());
  for (size_t r = 0; r < x.num_rows(); ++r) {
    row.assign(x.row(r), x.row(r) + x.num_cols());
    const double expect = forest.Predict(row);
    ASSERT_EQ(std::memcmp(&expect, &batch[r], sizeof(double)), 0)
        << "row " << r << ": " << expect << " vs " << batch[r];
  }
}

TEST(PredictBatchTest, FrequencyMatchesPerRowBitForBit) {
  FeatureMatrix x;
  std::vector<double> y;
  IntegerData(400, 2, 6, /*seed=*/3, &x, &y);
  FrequencyEstimator est(/*backoff=*/true, /*smoothing=*/4.0);
  ASSERT_TRUE(est.Fit(x, y).ok());
  std::vector<double> batch(x.num_rows());
  est.PredictBatch(x, batch);
  std::vector<double> row(x.num_cols());
  for (size_t r = 0; r < x.num_rows(); ++r) {
    row.assign(x.row(r), x.row(r) + x.num_cols());
    const double expect = est.Predict(row);
    ASSERT_EQ(std::memcmp(&expect, &batch[r], sizeof(double)), 0);
  }
}

TEST(PredictBatchTest, SingleTreeMatchesPerRow) {
  FeatureMatrix x;
  std::vector<double> y;
  IntegerData(300, 2, 30, /*seed=*/8, &x, &y);
  DecisionTreeRegressor tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  std::vector<double> batch(x.num_rows());
  tree.PredictBatch(x, batch);
  std::vector<double> row(x.num_cols());
  for (size_t r = 0; r < x.num_rows(); ++r) {
    row.assign(x.row(r), x.row(r) + x.num_cols());
    EXPECT_DOUBLE_EQ(tree.Predict(row), batch[r]);
  }
}

// ---------------------------------------------------------------------------
// Forest determinism across thread budgets (histograms on)
// ---------------------------------------------------------------------------

TEST(ForestThreadsTest, DeterministicAcrossThreadCounts) {
  FeatureMatrix x;
  std::vector<double> y;
  IntegerData(1200, 3, 25, /*seed=*/13, &x, &y);

  std::vector<std::string> digests;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ForestOptions opt;
    opt.num_trees = 16;
    opt.num_threads = threads;
    opt.tree.use_histograms = true;
    RandomForestRegressor forest(opt);
    ASSERT_TRUE(forest.Fit(x, y).ok());
    std::string digest;
    for (size_t t = 0; t < forest.num_trees(); ++t) {
      digest += forest.tree(t).StructureDigest();
      digest += '|';
    }
    digests.push_back(std::move(digest));
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[0], digests[i]) << "thread budget #" << i;
  }
}

TEST(ForestThreadsTest, ExplicitBudgetOverridesWorkHeuristic) {
  // Small problem (n * trees below the auto-mode threshold): an explicit
  // budget still trains in parallel, and the answer matches sequential.
  FeatureMatrix x;
  std::vector<double> y;
  IntegerData(200, 2, 10, /*seed=*/21, &x, &y);
  ForestOptions seq;
  seq.num_trees = 8;
  seq.num_threads = 1;
  ForestOptions par = seq;
  par.num_threads = 3;
  RandomForestRegressor f_seq(seq), f_par(par);
  ASSERT_TRUE(f_seq.Fit(x, y).ok());
  ASSERT_TRUE(f_par.Fit(x, y).ok());
  for (size_t t = 0; t < f_seq.num_trees(); ++t) {
    EXPECT_EQ(f_seq.tree(t).StructureDigest(), f_par.tree(t).StructureDigest());
  }
}

// ---------------------------------------------------------------------------
// Grouped training
// ---------------------------------------------------------------------------

TEST(GroupedTrainingTest, TargetsSumExactlyOnlyForBoundedIntegers) {
  EXPECT_TRUE(TargetsSumExactly({0.0, 1.0, 1.0}, 3));
  EXPECT_TRUE(TargetsSumExactly({-3.0, 12.0}, 1000));
  // n * max|y| == 2^26 is inside the bound; one more unit is not.
  EXPECT_TRUE(TargetsSumExactly({65536.0, -2.0}, 1024));
  EXPECT_FALSE(TargetsSumExactly({65537.0, -2.0}, 1024));
  EXPECT_FALSE(TargetsSumExactly({0.0, 0.5}, 2));
  EXPECT_FALSE(TargetsSumExactly({1.0, std::nan("")}, 2));
  EXPECT_FALSE(TargetsSumExactly({1.0, HUGE_VAL}, 2));
}

TEST(GroupedTrainingTest, GroupItemsGrowTheRowItemTree) {
  // The same bootstrap draws, once as one row item per draw and once folded
  // into group items, grow the same tree — with feature sampling on, so the
  // RNG is consumed per node in the same order too.
  for (uint64_t seed : {1u, 2u, 3u}) {
    FeatureMatrix x;
    std::vector<double> y;
    IntegerData(3000, 5, 4 + seed, seed, &x, &y);
    for (size_t i = 0; i < y.size(); i += 3) y[i] += 3.0;  // integer, not 0/1
    ASSERT_TRUE(TargetsSumExactly(y, y.size()));
    const BinnedMatrix binned = BinnedMatrix::Build(x).value();

    Rng rng(seed);
    std::vector<size_t> rows(y.size());
    GroupFold fold(binned, y);
    for (size_t& r : rows) {
      r = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(y.size()) - 1));
      fold.Add(r, 1);
    }
    TreeOptions opt;
    opt.max_features = 2;
    DecisionTreeRegressor by_rows(opt, /*seed=*/seed),
        by_groups(opt, /*seed=*/seed);
    ASSERT_TRUE(by_rows.FitBinned(binned, y, rows).ok());
    ASSERT_TRUE(by_groups.FitGroups(binned, fold.Take()).ok());
    EXPECT_GT(by_rows.num_nodes(), 1u);
    EXPECT_EQ(by_rows.StructureDigest(), by_groups.StructureDigest())
        << "seed " << seed;
    // Take restarts the fold empty.
    EXPECT_TRUE(fold.Take().empty());
  }
}

// ---------------------------------------------------------------------------
// Pinned forests: every tree of these 16-tree forests, at budgets 1 and 4,
// must keep the structure recorded from row-at-a-time histogram training.
// Integer targets train over distinct code rows, fractional ones (and
// integers past the exactness bound) over one item per bootstrap draw, and
// neither may move a threshold, a leaf value or the RNG stream.
// ---------------------------------------------------------------------------

/// FNV hash of every tree's StructureDigest, in tree order.
uint64_t ForestHash(const RandomForestRegressor& forest) {
  Fnv1a h;
  for (size_t t = 0; t < forest.num_trees(); ++t) {
    h.MixString(forest.tree(t).StructureDigest());
  }
  return h.hash();
}

/// Fits forests of kBootstrapMemoCapacity + 1 row counts no other test
/// fits, which evicts every other key from the bootstrap memo.
void EvictBootstrapMemo() {
  for (size_t i = 0; i <= kBootstrapMemoCapacity; ++i) {
    const size_t n = 101 + i;
    FeatureMatrix x(n, 1);
    for (size_t r = 0; r < n; ++r) x.Set(r, 0, static_cast<double>(r % 3));
    RandomForestRegressor forest;
    ASSERT_TRUE(forest.Fit(x, std::vector<double>(n, 1.0)).ok());
  }
}

struct PinnedForest {
  std::string name;
  FeatureMatrix x;
  std::vector<double> y;
  uint64_t pinned;
};

/// German-Syn 20k: the (Status, Age, Housing) adjustment features of the
/// golden Status statements, target Credit.
PinnedForest GermanCredit(uint64_t pinned) {
  data::GermanOptions gopt;
  gopt.rows = 20000;
  auto ds = data::MakeGermanSyn(gopt).value();
  const Table* t = ds.db.GetTable("German").value();
  const std::vector<size_t> cols = {t->schema().IndexOf("Status").value(),
                                    t->schema().IndexOf("Age").value(),
                                    t->schema().IndexOf("Housing").value()};
  const size_t credit = t->schema().IndexOf("Credit").value();
  PinnedForest out{"german20k", FeatureMatrix(t->num_rows(), cols.size()),
                   {}, pinned};
  for (size_t r = 0; r < t->num_rows(); ++r) {
    for (size_t f = 0; f < cols.size(); ++f) {
      out.x.Set(r, f, t->At(r, cols[f]).AsDouble().value());
    }
    out.y.push_back(t->At(r, credit).AsDouble().value());
  }
  return out;
}

/// `n` rows of `num_features` discrete features of `cardinality` values;
/// the target is `target(row, rng)`.
template <typename Target>
PinnedForest Discrete(std::string name, size_t n, size_t num_features,
                      int64_t cardinality, uint64_t seed, Target target,
                      uint64_t pinned) {
  Rng rng(seed);
  PinnedForest out{std::move(name), FeatureMatrix(n, num_features), {},
                   pinned};
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < num_features; ++f) {
      out.x.Set(i, f, static_cast<double>(rng.UniformInt(0, cardinality - 1)));
    }
    out.y.push_back(target(out.x.row(i), rng));
  }
  return out;
}

TEST(GroupedTrainingTest, GroupedTrainingMatchesPinnedForests) {
  std::vector<PinnedForest> fixtures;
  fixtures.push_back(GermanCredit(0xd3d883c34ebac501ULL));
  // 27 distinct code rows, binary target.
  fixtures.push_back(Discrete(
      "binary27", 5000, 3, 3, 41,
      [](const double* r, Rng& rng) {
        const double score = r[0] + 2 * r[1] + r[2] +
                             static_cast<double>(rng.UniformInt(0, 2));
        return score > 4 ? 1.0 : 0.0;
      },
      0x3307a5abd04c0ffbULL));
  // Up to 1024 distinct code rows, integer target in [0, 12].
  fixtures.push_back(Discrete(
      "int1024", 8000, 5, 4, 42,
      [](const double* r, Rng& rng) {
        return r[0] + r[1] + r[2] + r[4] +
               static_cast<double>(rng.UniformInt(0, 1));
      },
      0x571d7023493f35d6ULL));
  // 20k rows, every code row distinct: (i mod 200, i / 200) lead nine
  // features, integer target in [0, 6].
  {
    PinnedForest wide = Discrete(
        "int20k", 20000, 9, 3, 43,
        [](const double* r, Rng& rng) {
          return static_cast<double>(
              (static_cast<int64_t>(r[2] + 2 * r[3] + r[4]) +
               rng.UniformInt(0, 3)) % 7);
        },
        0xaf940aabd93464ebULL);
    for (size_t i = 0; i < 20000; ++i) {
      wide.x.Set(i, 0, static_cast<double>(i % 200));
      wide.x.Set(i, 1, static_cast<double>(i / 200));
    }
    fixtures.push_back(std::move(wide));
  }
  // A continuous feature (quantile bins) beside two discrete ones.
  {
    PinnedForest mixed = Discrete(
        "continuous", 4000, 3, 5, 44,
        [](const double* r, Rng& rng) {
          return (r[1] > 2) != rng.Bernoulli(0.2) ? 1.0 : 0.0;
        },
        0x6280505d42294bd1ULL);
    Rng rng(45);
    for (size_t i = 0; i < mixed.x.num_rows(); ++i) {
      const double u = rng.Uniform(0, 1);
      mixed.x.Set(i, 0, u);
      if (u > 0.7) mixed.y[i] = 1.0 - mixed.y[i];
    }
    fixtures.push_back(std::move(mixed));
  }
  // Fractional target: its sums depend on their order, so it trains over
  // one item per draw.
  fixtures.push_back(Discrete(
      "fractional", 3000, 3, 4, 46,
      [](const double* r, Rng& rng) {
        return 0.1 * r[0] + 0.37 * r[1] + rng.Uniform(0, 0.3);
      },
      0xc59c5430584e3303ULL));
  // n * max|y| == 2^26 (1024 rows, |y| <= 2^16), then just past it.
  for (const int64_t top : {int64_t{1} << 16, (int64_t{1} << 16) + 1}) {
    PinnedForest bound = Discrete(
        top == (int64_t{1} << 16) ? "at_bound" : "past_bound", 1024, 3, 3,
        47,
        [](const double* r, Rng& rng) {
          return static_cast<double>(rng.UniformInt(-15, 15) * 4096) + r[0];
        },
        top == (int64_t{1} << 16) ? 0x44cfa3e2a30181d7ULL
                                  : 0x2825b8b622b68862ULL);
    bound.y[0] = static_cast<double>(top);
    fixtures.push_back(std::move(bound));
  }

  // The groups the integer fixtures train over: at most 36 German
  // (Status, Age, Housing) points, and 27 to 20k code rows.
  EXPECT_LE(BinnedMatrix::Build(fixtures[0].x).value().num_groups(), 36u);
  EXPECT_EQ(BinnedMatrix::Build(fixtures[1].x).value().num_groups(), 27u);
  EXPECT_EQ(BinnedMatrix::Build(fixtures[3].x).value().num_groups(), 20000u);

  // Each fixture is fitted with its key fresh from the bootstrap memo, or
  // held there, and again after forests of other row counts evicted it.
  // Integer targets within the exactness bound take their multiplicities
  // from the memo; the fractional and past-bound fixtures never reach it.
  for (const PinnedForest& fx : fixtures) {
    const bool memoized = TargetsSumExactly(fx.y, fx.y.size());
    for (const bool evicted : {false, true}) {
      if (evicted) EvictBootstrapMemo();
      for (size_t threads : {1u, 4u}) {
        ForestOptions opt;
        opt.num_trees = 16;
        opt.num_threads = threads;
        RandomForestRegressor forest(opt);
        const BootstrapMemoStats before = GetBootstrapMemoStats();
        ASSERT_TRUE(forest.Fit(fx.x, fx.y).ok()) << fx.name;
        const BootstrapMemoStats after = GetBootstrapMemoStats();
        const uint64_t hash = ForestHash(forest);
        EXPECT_EQ(hash, fx.pinned)
            << fx.name << " at budget " << threads
            << (evicted ? " after eviction" : "") << ": got 0x" << std::hex
            << hash;
        if (!memoized) {
          EXPECT_EQ(after.hits, before.hits) << fx.name;
          EXPECT_EQ(after.misses, before.misses) << fx.name;
        } else if (evicted) {
          // The first fit after the eviction draws the key again; the
          // second finds it.
          EXPECT_EQ(after.misses - before.misses, threads == 1 ? 1u : 0u)
              << fx.name;
          EXPECT_EQ(after.hits - before.hits, threads == 1 ? 0u : 1u)
              << fx.name;
        }
      }
    }
  }
}

TEST(BootstrapMemoTest, ConcurrentFirstFitsOfOneKeyMatchSequential) {
  FeatureMatrix x;
  std::vector<double> y;
  IntegerData(3001, 3, 5, /*seed=*/61, &x, &y);
  ForestOptions opt;
  opt.num_trees = 16;
  opt.num_threads = 1;
  opt.seed = 0x5eed0f3001ULL;  // a key no other test fits
  ASSERT_TRUE(TargetsSumExactly(y, y.size()));

  const BootstrapMemoStats before = GetBootstrapMemoStats();
  constexpr size_t kFitters = 4;
  std::vector<uint64_t> hashes(kFitters, 0);
  std::vector<Status> statuses(kFitters);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> fitters;
  for (size_t i = 0; i < kFitters; ++i) {
    fitters.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kFitters) std::this_thread::yield();
      RandomForestRegressor forest(opt);
      statuses[i] = forest.Fit(x, y);
      if (statuses[i].ok()) hashes[i] = ForestHash(forest);
    });
  }
  for (std::thread& t : fitters) t.join();
  const BootstrapMemoStats after = GetBootstrapMemoStats();
  EXPECT_GE(after.misses - before.misses, 1u);
  EXPECT_EQ(after.misses - before.misses + after.hits - before.hits,
            kFitters);

  // The sequential reference draws the key afresh.
  EvictBootstrapMemo();
  const BootstrapMemoStats fresh = GetBootstrapMemoStats();
  RandomForestRegressor reference(opt);
  ASSERT_TRUE(reference.Fit(x, y).ok());
  EXPECT_EQ(GetBootstrapMemoStats().misses, fresh.misses + 1);
  for (size_t i = 0; i < kFitters; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i];
    EXPECT_EQ(hashes[i], ForestHash(reference)) << "fitter " << i;
  }
}

}  // namespace
}  // namespace hyper::learn

// ---------------------------------------------------------------------------
// Engine-level histogram training
// ---------------------------------------------------------------------------

namespace hyper::whatif {
namespace {

TEST(EngineHistogramTest, CloseToExactTraining) {
  data::GermanOptions gopt;
  gopt.rows = 2000;
  auto ds = data::MakeGermanSyn(gopt).value();
  auto stmt = sql::ParseSql(
                  "Use German Update(Status) = 3 Output Count(Credit = 1)")
                  .value();
  WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kForest;
  options.forest.num_trees = 8;
  options.forest.tree.use_histograms = true;
  WhatIfEngine hist(&ds.db, &ds.graph, options);
  options.forest.tree.use_histograms = false;
  WhatIfEngine exact(&ds.db, &ds.graph, options);
  const double h = hist.Run(*stmt.whatif).value().value;
  const double e = exact.Run(*stmt.whatif).value().value;
  // German features are small-cardinality discrete: bins cover every
  // distinct value, so training parity makes the answers identical.
  EXPECT_DOUBLE_EQ(h, e);
}

}  // namespace
}  // namespace hyper::whatif
