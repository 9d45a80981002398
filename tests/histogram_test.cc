// Histogram-training substrate tests: quantile binning invariants,
// histogram-vs-exact split parity (identical trees when every distinct value
// gets its own bin), PredictBatch bit-equality with per-row Predict, forest
// determinism across thread budgets, and engine-level A/B equality for the
// batched-inference path.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

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
