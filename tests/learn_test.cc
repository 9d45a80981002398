#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "learn/dataset.h"
#include "learn/discretizer.h"
#include "learn/forest.h"
#include "learn/frequency.h"
#include "learn/tree.h"
#include "storage/column.h"
#include "storage/table.h"

namespace hyper::learn {
namespace {

// ---------------------------------------------------------------------------
// FeatureEncoder
// ---------------------------------------------------------------------------

Table MixedTable() {
  Table t(Schema("T",
                 {{"Id", ValueType::kInt, Mutability::kImmutable},
                  {"Color", ValueType::kString, Mutability::kMutable},
                  {"Price", ValueType::kDouble, Mutability::kMutable}},
                 {"Id"}));
  t.AppendUnchecked({Value::Int(0), Value::String("Red"), Value::Double(10)});
  t.AppendUnchecked({Value::Int(1), Value::String("Blue"), Value::Double(20)});
  t.AppendUnchecked({Value::Int(2), Value::String("Red"), Value::Double(30)});
  return t;
}

// The encoder fits on the columnar image, as the engine's LearnStage does.
ColumnTable MixedColumns() {
  return ColumnTable::FromTable(MixedTable()).value();
}

TEST(FeatureEncoderTest, NumericPassThrough) {
  ColumnTable t = MixedColumns();
  auto enc = FeatureEncoder::Fit(t, {"Price"}).value();
  auto column = enc.EncodeColumn(t, 0).value();
  ASSERT_EQ(column.size(), 3u);
  EXPECT_DOUBLE_EQ(column[1], 20.0);
  EXPECT_DOUBLE_EQ(enc.EncodeValue(0, Value::Double(12.5)).value(), 12.5);
}

TEST(FeatureEncoderTest, CategoricalLabelEncoding) {
  ColumnTable t = MixedColumns();
  auto enc = FeatureEncoder::Fit(t, {"Color"}).value();
  auto column = enc.EncodeColumn(t, 0).value();
  EXPECT_DOUBLE_EQ(column[0], 0.0);  // Red first seen
  EXPECT_DOUBLE_EQ(column[1], 1.0);  // Blue second
  EXPECT_DOUBLE_EQ(column[2], 0.0);  // Red again
  EXPECT_DOUBLE_EQ(enc.EncodeValue(0, Value::String("Blue")).value(), 1.0);
}

TEST(FeatureEncoderTest, UnseenCategoryGetsFreshCode) {
  ColumnTable t = MixedColumns();
  auto enc = FeatureEncoder::Fit(t, {"Color"}).value();
  EXPECT_DOUBLE_EQ(enc.EncodeValue(0, Value::String("Green")).value(), 2.0);
}

TEST(FeatureEncoderTest, UnknownColumnFails) {
  EXPECT_FALSE(FeatureEncoder::Fit(MixedColumns(), {"Nope"}).ok());
}

TEST(FeatureEncoderTest, EncodeColumnChecksIndexAndTable) {
  ColumnTable t = MixedColumns();
  auto enc = FeatureEncoder::Fit(t, {"Color", "Price"}).value();
  EXPECT_EQ(enc.EncodeColumn(t, 1).value().size(), 3u);
  EXPECT_FALSE(enc.EncodeColumn(t, 2).ok());
  // Another image of the same rows has its own dictionary.
  EXPECT_FALSE(enc.EncodeColumn(MixedColumns(), 0).ok());
}

// ---------------------------------------------------------------------------
// Discretizer
// ---------------------------------------------------------------------------

TEST(DiscretizerTest, Representatives) {
  auto d = EquiWidthDiscretizer::Create(0, 100, 4).value();
  EXPECT_DOUBLE_EQ(d.Representative(0), 12.5);
  EXPECT_DOUBLE_EQ(d.Representative(3), 87.5);
  EXPECT_EQ(d.Representatives().size(), 4u);
}

TEST(DiscretizerTest, RepresentativesAreCellMidpoints) {
  auto d = EquiWidthDiscretizer::Create(0, 12, 3).value();
  EXPECT_EQ(d.Representatives(), (std::vector<double>{2, 6, 10}));
}

TEST(DiscretizerTest, DegenerateRange) {
  auto d = EquiWidthDiscretizer::Create(5, 5, 3);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->Representatives().size(), 3u);
}

TEST(DiscretizerTest, Errors) {
  EXPECT_FALSE(EquiWidthDiscretizer::Create(0, 10, 0).ok());
  EXPECT_FALSE(EquiWidthDiscretizer::Create(10, 0, 3).ok());
}

// ---------------------------------------------------------------------------
// QuantileDiscretizer
// ---------------------------------------------------------------------------

TEST(QuantileDiscretizerTest, EqualCountCells) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(i);
  auto d = QuantileDiscretizer::FitToData(values, 4).value();
  ASSERT_EQ(d.num_buckets(), 4u);
  EXPECT_EQ(d.BucketOf(5), 0u);
  EXPECT_EQ(d.BucketOf(30), 1u);
  EXPECT_EQ(d.BucketOf(60), 2u);
  EXPECT_EQ(d.BucketOf(99), 3u);
  // Representatives are cell means: first cell holds 0..24 -> mean 12.
  EXPECT_DOUBLE_EQ(d.Representative(0), 12.0);
}

TEST(QuantileDiscretizerTest, SkewedDataStillBalanced) {
  // Heavily skewed data: equi-width cells would leave the tail cell almost
  // empty, quantile cells stay balanced.
  std::vector<double> values;
  for (int i = 0; i < 90; ++i) values.push_back(1.0);
  for (int i = 0; i < 10; ++i) values.push_back(1000.0 + i);
  auto d = QuantileDiscretizer::FitToData(values, 10).value();
  // Ties collapse: all the 1.0s form one cell.
  EXPECT_LE(d.num_buckets(), 10u);
  EXPECT_EQ(d.BucketOf(1.0), 0u);
  EXPECT_GT(d.BucketOf(1005.0), 0u);
}

TEST(QuantileDiscretizerTest, OutOfRangeClamps) {
  auto d = QuantileDiscretizer::FitToData({1, 2, 3, 4, 5, 6, 7, 8}, 4)
               .value();
  EXPECT_EQ(d.BucketOf(-100), 0u);
  EXPECT_EQ(d.BucketOf(100), d.num_buckets() - 1);
}

TEST(QuantileDiscretizerTest, Errors) {
  EXPECT_FALSE(QuantileDiscretizer::FitToData({}, 4).ok());
  EXPECT_FALSE(QuantileDiscretizer::FitToData({1.0}, 0).ok());
}

TEST(QuantileDiscretizerTest, RepresentativesMonotone) {
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.Gaussian(10, 4));
  auto d = QuantileDiscretizer::FitToData(values, 8).value();
  for (size_t b = 1; b < d.num_buckets(); ++b) {
    EXPECT_GT(d.Representative(b), d.Representative(b - 1));
  }
}

// ---------------------------------------------------------------------------
// FrequencyEstimator shrinkage smoothing
// ---------------------------------------------------------------------------

TEST(FrequencySmoothingTest, ZeroSmoothingIsExact) {
  Matrix x{{0}, {0}, {1}};
  std::vector<double> y{1, 0, 1};
  FrequencyEstimator exact(/*backoff=*/true, /*smoothing=*/0.0);
  ASSERT_TRUE(exact.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(exact.Predict({0}), 0.5);
  EXPECT_DOUBLE_EQ(exact.Predict({1}), 1.0);
}

TEST(FrequencySmoothingTest, ShrinksSparseCellsTowardPrior) {
  // Cell {1} has a single (extreme) observation; with smoothing its
  // estimate moves toward the global mean.
  Matrix x{{0}, {0}, {0}, {0}, {0}, {0}, {0}, {1}};
  std::vector<double> y{0, 0, 0, 0, 0, 0, 0, 1};
  FrequencyEstimator smoothed(/*backoff=*/true, /*smoothing=*/7.0);
  ASSERT_TRUE(smoothed.Fit(x, y).ok());
  const double global_mean = 1.0 / 8.0;
  const double pred = smoothed.Predict({1});
  EXPECT_LT(pred, 1.0);           // pulled down from the raw cell mean
  EXPECT_GT(pred, global_mean);   // but still above the prior
  // (1 + 7 * 0.125) / (1 + 7) = 0.234...
  EXPECT_NEAR(pred, (1.0 + 7.0 * global_mean) / 8.0, 1e-12);
}

TEST(FrequencySmoothingTest, DenseCellsBarelyMove) {
  Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 1000; ++i) {
    x.push_back({0});
    y.push_back(i % 2 == 0 ? 1.0 : 0.0);
  }
  for (int i = 0; i < 1000; ++i) {
    x.push_back({1});
    y.push_back(1.0);
  }
  FrequencyEstimator smoothed(true, 10.0);
  ASSERT_TRUE(smoothed.Fit(x, y).ok());
  EXPECT_NEAR(smoothed.Predict({0}), 0.5, 0.01);
  EXPECT_NEAR(smoothed.Predict({1}), 1.0, 0.01);
}

// ---------------------------------------------------------------------------
// DecisionTreeRegressor
// ---------------------------------------------------------------------------

/// y = 1 if x0 > 0.5 else 0, with n points on a grid.
void StepData(size_t n, Matrix* x, std::vector<double>* y) {
  for (size_t i = 0; i < n; ++i) {
    double v = static_cast<double>(i) / static_cast<double>(n - 1);
    x->push_back({v});
    y->push_back(v > 0.5 ? 1.0 : 0.0);
  }
}

TEST(TreeTest, LearnsStepFunction) {
  Matrix x;
  std::vector<double> y;
  StepData(200, &x, &y);
  TreeOptions opt;
  opt.min_samples_leaf = 2;
  DecisionTreeRegressor tree(opt);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_NEAR(tree.Predict({0.2}), 0.0, 1e-9);
  EXPECT_NEAR(tree.Predict({0.9}), 1.0, 1e-9);
}

TEST(TreeTest, ConstantTargetSingleLeaf) {
  Matrix x{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}};
  std::vector<double> y(10, 3.25);
  DecisionTreeRegressor tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.Predict({4}), 3.25);
}

TEST(TreeTest, RespectsMaxDepth) {
  Rng rng(3);
  Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 500; ++i) {
    double v = rng.Uniform();
    x.push_back({v});
    y.push_back(std::sin(6 * v));
  }
  TreeOptions opt;
  opt.max_depth = 2;
  opt.min_samples_leaf = 1;
  DecisionTreeRegressor tree(opt);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_LE(tree.depth(), 2);
  EXPECT_LE(tree.num_nodes(), 7u);
}

TEST(TreeTest, MinSamplesLeafHonored) {
  Matrix x;
  std::vector<double> y;
  StepData(40, &x, &y);
  TreeOptions opt;
  opt.min_samples_leaf = 25;  // cannot split 40 rows into 25+25
  DecisionTreeRegressor tree(opt);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(TreeTest, TwoFeatureInteraction) {
  // y = x0 XOR x1 on a binary grid: needs depth 2.
  Matrix x;
  std::vector<double> y;
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      for (int rep = 0; rep < 10; ++rep) {
        x.push_back({double(a), double(b)});
        y.push_back(double(a ^ b));
      }
    }
  }
  TreeOptions opt;
  opt.min_samples_leaf = 1;
  DecisionTreeRegressor tree(opt);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_NEAR(tree.Predict({0, 0}), 0, 1e-9);
  EXPECT_NEAR(tree.Predict({0, 1}), 1, 1e-9);
  EXPECT_NEAR(tree.Predict({1, 0}), 1, 1e-9);
  EXPECT_NEAR(tree.Predict({1, 1}), 0, 1e-9);
}

TEST(TreeTest, FitErrors) {
  DecisionTreeRegressor tree;
  Matrix x{{1}};
  EXPECT_FALSE(tree.Fit(x, {1.0, 2.0}).ok());
  EXPECT_FALSE(tree.FitSubset(x, {1.0}, {}).ok());
  EXPECT_FALSE(tree.FitSubset(x, {1.0}, {5}).ok());
}

// ---------------------------------------------------------------------------
// RandomForestRegressor
// ---------------------------------------------------------------------------

TEST(ForestTest, RecoverLinearSignal) {
  Rng rng(11);
  Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 2000; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    x.push_back({a, b});
    y.push_back(2 * a + b + rng.Gaussian(0, 0.05));
  }
  RandomForestRegressor forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  EXPECT_NEAR(forest.Predict({0.5, 0.5}), 1.5, 0.15);
  EXPECT_NEAR(forest.Predict({0.9, 0.1}), 1.9, 0.2);
}

TEST(ForestTest, EstimatesConditionalProbability) {
  // Binary confounded data: the forest should learn P(Y=1 | B, C).
  Rng rng(13);
  Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 5000; ++i) {
    double c = rng.Bernoulli(0.5) ? 1 : 0;
    double b = rng.Bernoulli(c ? 0.8 : 0.2) ? 1 : 0;
    double py = (b && c) ? 0.9 : b ? 0.6 : c ? 0.3 : 0.1;
    x.push_back({b, c});
    y.push_back(rng.Bernoulli(py) ? 1 : 0);
  }
  ForestOptions opt;
  opt.num_trees = 24;
  RandomForestRegressor forest(opt);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  EXPECT_NEAR(forest.Predict({1, 1}), 0.9, 0.06);
  EXPECT_NEAR(forest.Predict({0, 0}), 0.1, 0.06);
  EXPECT_NEAR(forest.Predict({1, 0}), 0.6, 0.08);
}

TEST(ForestTest, DeterministicGivenSeed) {
  Matrix x;
  std::vector<double> y;
  StepData(100, &x, &y);
  ForestOptions opt;
  opt.seed = 99;
  RandomForestRegressor f1(opt), f2(opt);
  ASSERT_TRUE(f1.Fit(x, y).ok());
  ASSERT_TRUE(f2.Fit(x, y).ok());
  for (double v : {0.1, 0.4, 0.6, 0.9}) {
    EXPECT_DOUBLE_EQ(f1.Predict({v}), f2.Predict({v}));
  }
}

TEST(ForestTest, NumTreesHonored) {
  Matrix x;
  std::vector<double> y;
  StepData(50, &x, &y);
  ForestOptions opt;
  opt.num_trees = 5;
  RandomForestRegressor forest(opt);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  EXPECT_EQ(forest.num_trees(), 5u);
}

TEST(ForestTest, EmptyFitFails) {
  RandomForestRegressor forest;
  EXPECT_FALSE(forest.Fit({}, {}).ok());
}

// ---------------------------------------------------------------------------
// FrequencyEstimator
// ---------------------------------------------------------------------------

TEST(FrequencyTest, ExactConditionalMeans) {
  Matrix x{{0, 0}, {0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 1}};
  std::vector<double> y{1, 0, 1, 0, 1, 1};
  FrequencyEstimator est;
  ASSERT_TRUE(est.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(est.Predict({0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(est.Predict({0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(est.Predict({1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(est.Predict({1, 1}), 1.0);
}

TEST(FrequencyTest, BackoffDropsTrailingFeatures) {
  Matrix x{{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  std::vector<double> y{0, 0, 1, 1};
  FrequencyEstimator est;
  ASSERT_TRUE(est.Fit(x, y).ok());
  // (1, 7) unseen: backs off to prefix (1) -> mean of rows 2,3 = 1.0.
  EXPECT_DOUBLE_EQ(est.Predict({1, 7}), 1.0);
  // (9, 9) fully unseen: global mean 0.5.
  EXPECT_DOUBLE_EQ(est.Predict({9, 9}), 0.5);
}

TEST(FrequencyTest, NoBackoffGoesStraightToGlobalMean) {
  Matrix x{{0}, {1}};
  std::vector<double> y{0, 1};
  FrequencyEstimator est(/*backoff=*/false);
  ASSERT_TRUE(est.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(est.Predict({2}), 0.5);
  EXPECT_DOUBLE_EQ(est.Predict({1}), 1.0);
}

TEST(FrequencyTest, SupportIndexIsSparse) {
  // 1000 rows but only 4 distinct vectors: index stays at 4 entries
  // (the §A.4 point: support, not domain size).
  Matrix x;
  std::vector<double> y;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double a = rng.Bernoulli(0.5), b = rng.Bernoulli(0.5);
    x.push_back({a, b});
    y.push_back(a);
  }
  FrequencyEstimator est;
  ASSERT_TRUE(est.Fit(x, y).ok());
  EXPECT_EQ(est.support_size(), 4u);
}

TEST(FrequencyTest, ZeroFeatures) {
  Matrix x{{}, {}, {}};
  std::vector<double> y{1, 2, 3};
  FrequencyEstimator est;
  ASSERT_TRUE(est.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(est.Predict({}), 2.0);
}

// ---------------------------------------------------------------------------
// Property sweep: both estimators converge to truth on discrete data
// ---------------------------------------------------------------------------

class EstimatorConvergence
    : public ::testing::TestWithParam<EstimatorKind> {};

TEST_P(EstimatorConvergence, ConditionalProbabilityWithin5Percent) {
  Rng rng(101);
  Matrix x;
  std::vector<double> y;
  auto truth = [](double b, double c) {
    return 0.2 + 0.5 * b + 0.2 * c;  // P(Y=1|B,C)
  };
  for (int i = 0; i < 20000; ++i) {
    double c = rng.Bernoulli(0.4) ? 1 : 0;
    double b = rng.Bernoulli(c ? 0.7 : 0.3) ? 1 : 0;
    x.push_back({b, c});
    y.push_back(rng.Bernoulli(truth(b, c)) ? 1 : 0);
  }
  std::unique_ptr<ConditionalMeanEstimator> est;
  if (GetParam() == EstimatorKind::kFrequency) {
    est = std::make_unique<FrequencyEstimator>();
  } else {
    est = std::make_unique<RandomForestRegressor>();
  }
  ASSERT_TRUE(est->Fit(x, y).ok());
  for (double b : {0.0, 1.0}) {
    for (double c : {0.0, 1.0}) {
      EXPECT_NEAR(est->Predict({b, c}), truth(b, c), 0.05)
          << "b=" << b << " c=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EstimatorConvergence,
                         ::testing::Values(EstimatorKind::kFrequency,
                                           EstimatorKind::kForest),
                         [](const auto& info) {
                           return EstimatorKindName(info.param);
                         });

}  // namespace
}  // namespace hyper::learn
