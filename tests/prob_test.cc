#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "prob/aggregates.h"

namespace hyper::prob {
namespace {

using sql::AggKind;

// ---------------------------------------------------------------------------
// Aggregate semantics: tuples fold into block partials with AddTuple, and
// the partials merge into a BlockAccumulator in block order.
// ---------------------------------------------------------------------------

struct Contribution {
  double weight;
  double weighted_value;
};

using Blocks = std::vector<std::vector<Contribution>>;

Result<double> Fold(AggKind agg, const Blocks& blocks) {
  BlockAccumulator acc(agg);
  for (const auto& block : blocks) {
    double num = 0.0, den = 0.0;
    for (const Contribution& c : block) {
      AddTuple(agg, c.weight, c.weighted_value, &num, &den);
    }
    acc.MergeBlockPartial(num, den);
  }
  return acc.Finish();
}

double Accumulate(AggKind agg, const Blocks& blocks) {
  return Fold(agg, blocks).value();
}

TEST(BlockAccumulatorTest, CountSumsWeights) {
  EXPECT_DOUBLE_EQ(
      Accumulate(AggKind::kCount, {{{1.0, 0.0}, {0.25, 0.0}}, {{0.75, 0.0}}}),
      2.0);
}

TEST(BlockAccumulatorTest, SumUsesWeightedValues) {
  // E[Y * 1{for}] = 5, then a joint expectation already weighted.
  EXPECT_DOUBLE_EQ(Accumulate(AggKind::kSum, {{{1.0, 5.0}, {0.5, 1.25}}}),
                   6.25);
}

TEST(BlockAccumulatorTest, AvgIsRatioOfExpectations) {
  // (4 + 2 + 3) / (1 + 1 + 0.5)
  EXPECT_DOUBLE_EQ(
      Accumulate(AggKind::kAvg, {{{1.0, 4.0}, {1.0, 2.0}}, {{0.5, 3.0}}}),
      9.0 / 2.5);
}

TEST(BlockAccumulatorTest, AvgOverNothingIsError) {
  EXPECT_FALSE(Fold(AggKind::kAvg, {{}}).ok());
}

TEST(BlockAccumulatorTest, EmptyBlocksContributeNothing) {
  Blocks blocks(5);
  blocks.push_back({{1.0, 7.0}});
  EXPECT_DOUBLE_EQ(Accumulate(AggKind::kSum, blocks), 7.0);
}

TEST(BlockAccumulatorTest, MergesPartialsInBlockOrder) {
  // Each partial starts at +0.0 and merges as one addition, so the value
  // depends on the block partition: 1 + 1e-16 + 1e-16 rounds back to 1 when
  // the tuples fold in row order, but their block partial 2e-16 survives.
  const Contribution big{1.0, 1.0}, tiny{1e-16, 1e-16};
  const double row_order = Accumulate(AggKind::kSum, {{big, tiny, tiny}});
  const double blocked = Accumulate(AggKind::kSum, {{big}, {tiny, tiny}});
  EXPECT_EQ(row_order, 1.0);
  EXPECT_EQ(blocked, 1.0 + 2e-16);
  EXPECT_NE(row_order, blocked);
}

// ---------------------------------------------------------------------------
// Definition 6 properties: block partition invariance = decomposability,
// alpha-homogeneity and additivity of the combiner g.
// ---------------------------------------------------------------------------

class DecomposabilitySweep : public ::testing::TestWithParam<AggKind> {};

TEST_P(DecomposabilitySweep, PartitionInvariance) {
  // Any partition of the same tuple contributions yields the same value —
  // the content of Proposition 1 at the accumulator level.
  Rng rng(99);
  std::vector<Contribution> tuples;
  for (int i = 0; i < 40; ++i) {
    const double w = rng.Uniform();
    tuples.push_back({w, w * rng.Uniform(-3, 5)});
  }
  // Partition 1: one big block.
  std::vector<std::vector<Contribution>> one_block{tuples};
  // Partition 2: singletons.
  std::vector<std::vector<Contribution>> singletons;
  for (const Contribution& c : tuples) singletons.push_back({c});
  // Partition 3: random split.
  std::vector<std::vector<Contribution>> random_split(5);
  for (const Contribution& c : tuples) {
    random_split[rng.UniformInt(0, 4)].push_back(c);
  }

  const double a = Accumulate(GetParam(), one_block);
  const double b = Accumulate(GetParam(), singletons);
  const double c = Accumulate(GetParam(), random_split);
  EXPECT_NEAR(a, b, 1e-9);
  EXPECT_NEAR(a, c, 1e-9);
}

TEST_P(DecomposabilitySweep, ScalingHomogeneity) {
  // alpha * g({x_i}) == g({alpha * x_i}) for the Count/Sum numerators
  // (Definition 6, second property). Avg is scale-invariant in weights and
  // values jointly; check that instead.
  Rng rng(7);
  std::vector<Contribution> tuples;
  for (int i = 0; i < 20; ++i) {
    const double w = rng.Uniform();
    tuples.push_back({w, w * rng.Uniform(0, 4)});
  }
  const double alpha = 2.75;
  std::vector<Contribution> scaled;
  for (const Contribution& c : tuples) {
    scaled.push_back({alpha * c.weight, alpha * c.weighted_value});
  }
  const AggKind agg = GetParam();
  const double base = Accumulate(agg, {tuples});
  const double scaled_value = Accumulate(agg, {scaled});
  if (agg == AggKind::kAvg) {
    EXPECT_NEAR(scaled_value, base, 1e-9);  // ratio cancels alpha
  } else {
    EXPECT_NEAR(scaled_value, alpha * base, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Aggregates, DecomposabilitySweep,
                         ::testing::Values(AggKind::kCount, AggKind::kSum,
                                           AggKind::kAvg),
                         [](const auto& info) {
                           return std::string(sql::AggKindName(info.param));
                         });

}  // namespace
}  // namespace hyper::prob
