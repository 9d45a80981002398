#include <gtest/gtest.h>

#include <cmath>

#include "causal/scm.h"
#include "common/strings.h"
#include "data/datasets.h"
#include "sql/parser.h"
#include "whatif/compile.h"
#include "whatif/engine.h"
#include "whatif/naive.h"

namespace hyper::whatif {
namespace {

using causal::Assignment;
using causal::DiscreteMechanism;
using causal::Scm;

// ---------------------------------------------------------------------------
// Engineered fixture: binary confounder model whose CPTs are matched EXACTLY
// by the empirical frequencies of the database. With the frequency
// estimator, the efficient engine and the possible-world oracle must then
// agree to machine precision — the strongest end-to-end check of §3
// (folding, S selection, adjustment, blocks, decomposable aggregation).
//
//   P(Y=1 | B, C) = 0.25 + 0.25*B + 0.25*C
// ---------------------------------------------------------------------------

double TruthY(int b, int c) { return 0.25 + 0.25 * b + 0.25 * c; }

Scm ConfounderScm() {
  Scm scm;
  auto bern = [](auto prob_fn) {
    return std::make_unique<DiscreteMechanism>(
        std::vector<Value>{Value::Int(0), Value::Int(1)},
        [prob_fn](const std::vector<Value>& ps) {
          double p = prob_fn(ps);
          return std::vector<double>{1.0 - p, p};
        });
  };
  EXPECT_TRUE(
      scm.AddAttribute("C", {}, bern([](const std::vector<Value>&) {
                         return 0.5;
                       }))
          .ok());
  EXPECT_TRUE(scm.AddAttribute("B", {{"C", ""}},
                               bern([](const std::vector<Value>& ps) {
                                 return ps[0].int_value() ? 0.75 : 0.25;
                               }))
                  .ok());
  EXPECT_TRUE(scm.AddAttribute("Y", {{"B", ""}, {"C", ""}},
                               bern([](const std::vector<Value>& ps) {
                                 return TruthY(
                                     static_cast<int>(ps[0].int_value()),
                                     static_cast<int>(ps[1].int_value()));
                               }))
                  .ok());
  return scm;
}

/// 8 rows per (c, b) cell; the number of Y=1 rows per cell is exactly
/// 8 * TruthY(b, c), which is integral for all cells.
Database EngineeredDb() {
  Database db;
  Table t(Schema("R",
                 {{"Id", ValueType::kInt, Mutability::kImmutable},
                  {"C", ValueType::kInt, Mutability::kMutable},
                  {"B", ValueType::kInt, Mutability::kMutable},
                  {"Y", ValueType::kInt, Mutability::kMutable}},
                 {"Id"}));
  int id = 0;
  for (int c = 0; c <= 1; ++c) {
    for (int b = 0; b <= 1; ++b) {
      const int ones = static_cast<int>(std::lround(8 * TruthY(b, c)));
      for (int i = 0; i < 8; ++i) {
        t.AppendUnchecked({Value::Int(id++), Value::Int(c), Value::Int(b),
                           Value::Int(i < ones ? 1 : 0)});
      }
    }
  }
  EXPECT_TRUE(db.AddTable(std::move(t)).ok());
  return db;
}

class EngineVsOracle : public ::testing::Test {
 protected:
  EngineVsOracle()
      : db_(EngineeredDb()),
        scm_(ConfounderScm()),
        graph_(scm_.Graph()) {}

  /// Runs the efficient engine (frequency estimator, full data) and the
  /// exact oracle on the same query text and checks agreement.
  void ExpectAgree(const std::string& query, double tolerance = 1e-9) {
    auto stmt = sql::ParseSql(query);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    ASSERT_NE(stmt->whatif, nullptr);

    WhatIfOptions options;
    options.estimator = learn::EstimatorKind::kFrequency;
    WhatIfEngine engine(&db_, &graph_, options);
    auto fast = engine.Run(*stmt->whatif);
    ASSERT_TRUE(fast.ok()) << fast.status();

    auto exact = NaiveWhatIf(db_, scm_, *stmt->whatif);
    ASSERT_TRUE(exact.ok()) << exact.status();

    EXPECT_NEAR(fast->value, *exact, tolerance) << query;
  }

  Database db_;
  Scm scm_;
  causal::CausalGraph graph_;
};

TEST_F(EngineVsOracle, CountUpdatedSubset) {
  ExpectAgree(
      "Use R When Id <= 2 Update(B) = 1 Output Count(Y = 1)");
}

TEST_F(EngineVsOracle, CountWithWhenOnConfounder) {
  ExpectAgree(
      "Use R When C = 1 And Id <= 18 Update(B) = 0 Output Count(Y = 1)");
}

TEST_F(EngineVsOracle, CountWithPreFilterInFor) {
  ExpectAgree(
      "Use R When Id <= 4 Update(B) = 1 Output Count(*) "
      "For Post(Y) = 1 And Pre(C) = 1");
}

TEST_F(EngineVsOracle, CountStarIsDeterministic) {
  ExpectAgree("Use R When Id <= 3 Update(B) = 1 Output Count(*)");
}

TEST_F(EngineVsOracle, SumOfPostY) {
  ExpectAgree("Use R When Id <= 4 Update(B) = 1 Output Sum(Post(Y))");
}

TEST_F(EngineVsOracle, AvgWithPreOnlyFor) {
  ExpectAgree(
      "Use R When Id <= 4 Update(B) = 1 Output Avg(Post(Y)) "
      "For Pre(C) = 0");
}

TEST_F(EngineVsOracle, SumWithPostCondition) {
  ExpectAgree(
      "Use R When Id <= 4 Update(B) = 1 Output Sum(Post(Y)) "
      "For Post(Y) = 1");
}

TEST_F(EngineVsOracle, MixedPrePostAtomGrounding) {
  // Post(Y) >= Pre(Y) folds per tuple into "Post(Y) >= <const>" (Prop. 6).
  ExpectAgree(
      "Use R When Id <= 3 Update(B) = 1 Output Count(*) "
      "For Post(Y) >= Pre(Y)");
}

TEST_F(EngineVsOracle, DisjunctiveFor) {
  ExpectAgree(
      "Use R When Id <= 3 Update(B) = 1 Output Count(*) "
      "For Post(Y) = 1 Or Pre(C) = 1");
}

TEST_F(EngineVsOracle, NegatedFor) {
  ExpectAgree(
      "Use R When Id <= 3 Update(B) = 1 Output Count(*) "
      "For Not (Post(Y) = 0)");
}

TEST_F(EngineVsOracle, NoWhenUpdatesEverything) {
  // All 32 tuples update; keep the oracle feasible by filtering to C=0 in
  // When instead... here we restrict via When to 5 tuples.
  ExpectAgree(
      "Use R When Id <= 4 Update(B) = 1 Output Count(Y = 1)");
}

TEST_F(EngineVsOracle, UpdateToObservedValueIsNoOpForTruth) {
  // Setting B to 1 on tuples that already have B=1 must not change Y's
  // distribution relative to observation: engine and oracle still agree.
  ExpectAgree("Use R When B = 1 And Id <= 20 Update(B) = 1 "
              "Output Count(Y = 1)");
}

// ---------------------------------------------------------------------------
// Engine behaviour on larger sampled data, compared to analytic truth
// ---------------------------------------------------------------------------

Database SampleDb(const Scm& scm, size_t n, uint64_t seed) {
  Database db;
  Table t(Schema("R",
                 {{"Id", ValueType::kInt, Mutability::kImmutable},
                  {"C", ValueType::kInt, Mutability::kMutable},
                  {"B", ValueType::kInt, Mutability::kMutable},
                  {"Y", ValueType::kInt, Mutability::kMutable}},
                 {"Id"}));
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Assignment a = scm.SampleEntity(rng).value();
    t.AppendUnchecked({Value::Int(static_cast<int64_t>(i)), a.at("C"),
                       a.at("B"), a.at("Y")});
  }
  EXPECT_TRUE(db.AddTable(std::move(t)).ok());
  return db;
}

class EngineStatistical : public ::testing::TestWithParam<learn::EstimatorKind> {
 protected:
  EngineStatistical()
      : scm_(ConfounderScm()),
        db_(SampleDb(scm_, 20000, 77)),
        graph_(scm_.Graph()) {}

  Scm scm_;
  Database db_;
  causal::CausalGraph graph_;
};

TEST_P(EngineStatistical, AdjustsForConfounding) {
  // do(B=1): P(Y=1 | do(B=1)) = E_C[0.5 + 0.25 C] = 0.625, so the expected
  // count is 0.625 * n. The correlational value P(Y=1 | B=1) is higher
  // (~0.667) because C confounds.
  WhatIfOptions options;
  options.estimator = GetParam();
  WhatIfEngine engine(&db_, &graph_, options);
  auto result =
      engine.RunSql("Use R Update(B) = 1 Output Count(Y = 1)");
  ASSERT_TRUE(result.ok()) << result.status();
  const double n = static_cast<double>(db_.GetTable("R").value()->num_rows());
  EXPECT_NEAR(result->value / n, 0.625, 0.02);
  // The adjustment set picked up the confounder.
  ASSERT_EQ(result->backdoor.size(), 1u);
  EXPECT_EQ(result->backdoor[0], "C");
}

TEST_P(EngineStatistical, IndepBaselineIsConfounded) {
  WhatIfOptions options;
  options.estimator = GetParam();
  options.backdoor = BackdoorMode::kUpdateOnly;
  WhatIfEngine engine(&db_, &graph_, options);
  auto result = engine.RunSql("Use R Update(B) = 1 Output Count(Y = 1)");
  ASSERT_TRUE(result.ok()) << result.status();
  const double n = static_cast<double>(db_.GetTable("R").value()->num_rows());
  // P(Y=1|B=1) = 0.25 + 0.25 + 0.25*P(C=1|B=1) = 0.5 + 0.25*0.75 = 0.6875.
  EXPECT_NEAR(result->value / n, 0.6875, 0.02);
  EXPECT_TRUE(result->backdoor.empty());
}

TEST_P(EngineStatistical, NbModeStillAccurateHere) {
  // With only one other attribute (the true confounder), HypeR-NB's
  // adjust-on-everything policy coincides with the correct adjustment.
  WhatIfOptions options;
  options.estimator = GetParam();
  options.backdoor = BackdoorMode::kAllAttributes;
  WhatIfEngine engine(&db_, &graph_, options);
  auto result = engine.RunSql("Use R Update(B) = 1 Output Count(Y = 1)");
  ASSERT_TRUE(result.ok()) << result.status();
  const double n = static_cast<double>(db_.GetTable("R").value()->num_rows());
  EXPECT_NEAR(result->value / n, 0.625, 0.02);
}

TEST_P(EngineStatistical, SampledVariantClose) {
  WhatIfOptions options;
  options.estimator = GetParam();
  options.sample_size = 4000;
  WhatIfEngine engine(&db_, &graph_, options);
  auto result = engine.RunSql("Use R Update(B) = 1 Output Count(Y = 1)");
  ASSERT_TRUE(result.ok()) << result.status();
  const double n = static_cast<double>(db_.GetTable("R").value()->num_rows());
  EXPECT_NEAR(result->value / n, 0.625, 0.04);
}

INSTANTIATE_TEST_SUITE_P(Estimators, EngineStatistical,
                         ::testing::Values(learn::EstimatorKind::kFrequency,
                                           learn::EstimatorKind::kForest),
                         [](const auto& info) {
                           return learn::EstimatorKindName(info.param);
                         });

// ---------------------------------------------------------------------------
// Engine unit behaviour
// ---------------------------------------------------------------------------

TEST(WhatIfEngineTest, BlocksMatchSingleBlockValue) {
  Scm scm = ConfounderScm();
  Database db = SampleDb(scm, 2000, 5);
  causal::CausalGraph graph = scm.Graph();

  WhatIfOptions with_blocks;
  with_blocks.estimator = learn::EstimatorKind::kFrequency;
  with_blocks.use_blocks = true;
  WhatIfOptions without_blocks = with_blocks;
  without_blocks.use_blocks = false;

  const std::string query = "Use R Update(B) = 1 Output Count(Y = 1)";
  auto a = WhatIfEngine(&db, &graph, with_blocks).RunSql(query);
  auto b = WhatIfEngine(&db, &graph, without_blocks).RunSql(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->value, b->value, 1e-9);
  EXPECT_EQ(a->num_blocks, 2000u);  // per-tuple blocks
  EXPECT_EQ(b->num_blocks, 1u);
}

TEST(WhatIfEngineTest, ScaleAndShiftUpdates) {
  Scm scm = ConfounderScm();
  Database db = SampleDb(scm, 100, 3);
  causal::CausalGraph graph = scm.Graph();
  WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  WhatIfEngine engine(&db, &graph, options);
  // B in {0, 1}: scaling by 1.0 and shifting by 0 must be exact no-ops —
  // every tuple keeps its observed Y (no estimation noise by design of the
  // no-op check... they are still "affected" so the estimator runs; with
  // the frequency estimator conditioned on the unchanged B and C, the
  // prediction equals the empirical conditional).
  auto noop = engine.RunSql(
      "Use R Update(B) = 1 * Pre(B) Output Count(Y = 1)");
  ASSERT_TRUE(noop.ok()) << noop.status();
  // Observational count of Y=1 given the estimator sees unchanged features:
  // expectation equals empirical P(Y=1|B,C) summed over tuples = observed
  // count (frequency estimator is exactly the empirical conditional).
  double observed = 0;
  const Table& t = *db.GetTable("R").value();
  for (size_t r = 0; r < t.num_rows(); ++r) {
    observed += t.At(r, 3).int_value();
  }
  EXPECT_NEAR(noop->value, observed, 1e-6);

  auto shifted = engine.RunSql(
      "Use R Update(B) = 1 + Pre(B) Output Count(Y = 1)");
  ASSERT_TRUE(shifted.ok()) << shifted.status();
}

TEST(WhatIfEngineTest, ResultDiagnosticsPopulated) {
  Scm scm = ConfounderScm();
  Database db = SampleDb(scm, 500, 9);
  causal::CausalGraph graph = scm.Graph();
  WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  WhatIfEngine engine(&db, &graph, options);
  auto result = engine.RunSql(
      "Use R When C = 1 Update(B) = 1 Output Count(Y = 1)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->view_rows, 500u);
  EXPECT_GT(result->updated_rows, 0u);
  EXPECT_LT(result->updated_rows, 500u);
  EXPECT_GE(result->num_patterns, 1u);
  EXPECT_GE(result->total_seconds, 0.0);
}

// The reported parts of a run are disjoint: estimator training is timed
// apart from the evaluation that triggers it, so prepare, eval and train
// sum to at most the run's wall time.
TEST(WhatIfEngineTest, TimersAreDisjointPartsOfTheRun) {
  data::GermanOptions opt;
  opt.rows = 4000;
  opt.seed = 41;
  auto ds = data::MakeGermanSyn(opt);
  ASSERT_TRUE(ds.ok()) << ds.status();
  WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kForest;
  options.num_threads = 1;
  const WhatIfEngine engine(&ds->db, &ds->graph, options);
  for (const char* query :
       {"Use German When Status = 1 Update(Status) = 2 Output Count(Credit = 1)",
        "Use German Update(Savings) = 2 Output Avg(Post(Credit))",
        "Use German When Age = 1 Update(Housing) = 0 "
        "Output Sum(Post(Credit)) For Pre(Status) = 1"}) {
    auto result = engine.RunSql(query);  // cold: no stage context
    ASSERT_TRUE(result.ok()) << query << ": " << result.status();
    EXPECT_GT(result->train_seconds, 0.0) << query;
    EXPECT_GE(result->eval_seconds, 0.0) << query;
    EXPECT_LE(result->prepare_seconds + result->eval_seconds +
                  result->train_seconds,
              result->total_seconds)
        << query;
  }
}

TEST(WhatIfEngineTest, RejectsNonWhatIfSql) {
  Database db = EngineeredDb();
  WhatIfEngine engine(&db, nullptr, {});
  EXPECT_FALSE(engine.RunSql("Select Id From R").ok());
}

TEST(WhatIfEngineTest, RejectsImmutableUpdate) {
  Database db = EngineeredDb();
  WhatIfEngine engine(&db, nullptr, {});
  auto result = engine.RunSql("Use R Update(Id) = 7 Output Count(*)");
  EXPECT_FALSE(result.ok());
}

TEST(WhatIfEngineTest, RejectsPostInWhen) {
  Database db = EngineeredDb();
  WhatIfEngine engine(&db, nullptr, {});
  auto result = engine.RunSql(
      "Use R When Post(Y) = 1 Update(B) = 1 Output Count(*)");
  EXPECT_FALSE(result.ok());
}

TEST(WhatIfEngineTest, ForHoleErrorFailsEveryEvaluate) {
  // The hole Pre(Age) / (Pre(Housing) - 1) divides by zero on the rows with
  // Housing = 1. Prepare succeeds, every Evaluate on the plan reports the
  // error (nothing half-built is kept between calls), and so does Run.
  data::GermanOptions opt;
  opt.rows = 800;
  auto ds = data::MakeGermanSyn(opt);
  ASSERT_TRUE(ds.ok());
  WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  WhatIfEngine engine(&ds->db, &ds->graph, options);
  const char* query =
      "Use German Update(Status) = 3 Output Count(Credit = 1) "
      "For Pre(Age) / (Pre(Housing) - 1) = 1";
  auto stmt = sql::ParseSql(query);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_NE(stmt->whatif, nullptr);
  auto plan = engine.Prepare(*stmt->whatif);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::vector<UpdateSpec> updates = SpecsOfStatement(*stmt->whatif);
  for (int i = 0; i < 2; ++i) {
    auto result = engine.Evaluate(**plan, updates);
    ASSERT_FALSE(result.ok()) << "evaluation " << i;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(result.status().message(), "division by zero");
  }
  auto run = engine.RunSql(query);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(run.status().message(), "division by zero");
}

TEST(WhatIfEngineTest, PreImageHolesMatchPostImageHoles) {
  // Post(A) of an attribute no update touches reads its pre image, so each
  // pair below asks the same question. The Pre form's holes read no post
  // image: Prepare resolves every row's entry once. The Post form's holes
  // are evaluated per row against the intervention. Both must answer bit
  // for bit alike: under Set updates, whose batch slots come from the
  // residual groups (or from hashing once the per-entry slot tables would
  // exceed one slot per row: the forest on a continuous confounder, whose
  // every row is its own group), under scale updates, and with the Amazon
  // view's cross-tuple features. A hole over the key column Id is no
  // feature, so its two gathering entries share residual groups.
  Table t(Schema("R",
                 {{"Id", ValueType::kInt, Mutability::kImmutable},
                  {"X", ValueType::kDouble, Mutability::kMutable},
                  {"B", ValueType::kInt, Mutability::kMutable},
                  {"Y", ValueType::kInt, Mutability::kMutable}},
                 {"Id"}));
  for (int i = 0; i < 300; ++i) {
    const int b = (i * 13) % 7 < 3 ? 1 : 0;
    t.AppendUnchecked({Value::Int(i), Value::Double((i * 37 % 300) / 300.0),
                       Value::Int(b),
                       Value::Int((i * 11) % 5 < 2 + b ? 1 : 0)});
  }
  data::Dataset continuous;
  ASSERT_TRUE(continuous.db.AddTable(std::move(t)).ok());
  continuous.graph.AddEdge("X", "B");
  continuous.graph.AddEdge("X", "Y");
  continuous.graph.AddEdge("B", "Y");
  data::GermanOptions german_opt;
  german_opt.rows = 800;
  auto german = data::MakeGermanSyn(german_opt);
  ASSERT_TRUE(german.ok());
  data::AmazonOptions amazon_opt;
  amazon_opt.products = 150;
  amazon_opt.reviews_per_product = 3;
  auto amazon = data::MakeAmazonSyn(amazon_opt);
  ASSERT_TRUE(amazon.ok());
  const std::string amazon_view =
      "Use V As (Select T1.PID, T1.Category, T1.Brand, T1.Price, "
      "T1.Quality, Avg(T2.Rating) As Rtng From Product As T1, Review As T2 "
      "Where T1.PID = T2.PID Group By T1.PID, T1.Category, T1.Brand, "
      "T1.Price, T1.Quality) ";
  struct Case {
    const data::Dataset* ds;
    std::string pre, post;
  };
  const Case cases[] = {
      {&continuous,
       "Use R Update(B) = 1 Output Count(Y = 1) For Pre(X) > 0.5",
       "Use R Update(B) = 1 Output Count(Y = 1) For Post(X) > 0.5"},
      {&*german,
       "Use German Update(Status) = 3 Output Count(Credit = 1) "
       "For Post(Credit) = 1 And Pre(Age) = 1",
       "Use German Update(Status) = 3 Output Count(Credit = 1) "
       "For Post(Credit) = 1 And Post(Age) = 1"},
      {&*german,
       "Use German Update(Status) = 3 Output Avg(Post(Credit)) "
       "For Post(Credit) = 1 Or Pre(Id) < 400",
       "Use German Update(Status) = 3 Output Avg(Post(Credit)) "
       "For Post(Credit) = 1 Or Post(Id) < 400"},
      {&*german,
       "Use German When Sex = 1 Update(Status) = 2 Output Avg(Post(Credit)) "
       "For Post(Credit) = Pre(Housing)",
       "Use German When Sex = 1 Update(Status) = 2 Output Avg(Post(Credit)) "
       "For Post(Credit) = Post(Housing)"},
      {&*german,
       "Use German When Sex = 1 Update(Status) = 2 * Pre(Status) "
       "Output Sum(Post(Credit)) For Pre(Age) = 1",
       "Use German When Sex = 1 Update(Status) = 2 * Pre(Status) "
       "Output Sum(Post(Credit)) For Post(Age) = 1"},
      {&*amazon,
       amazon_view + "Update(Price) = 500 Output Avg(Rtng) "
                     "For Pre(Category) = 'Laptop'",
       amazon_view + "Update(Price) = 500 Output Avg(Rtng) "
                     "For Post(Category) = 'Laptop'"},
  };
  for (learn::EstimatorKind estimator :
       {learn::EstimatorKind::kFrequency, learn::EstimatorKind::kForest}) {
    for (const Case& c : cases) {
      WhatIfOptions options;
      options.estimator = estimator;
      options.forest.num_trees = 4;
      WhatIfEngine engine(&c.ds->db, &c.ds->graph, options);
      auto pre = engine.RunSql(c.pre);
      ASSERT_TRUE(pre.ok()) << c.pre << ": " << pre.status();
      auto post = engine.RunSql(c.post);
      ASSERT_TRUE(post.ok()) << c.post << ": " << post.status();
      EXPECT_EQ(pre->value, post->value) << c.pre;
      EXPECT_EQ(pre->num_patterns, post->num_patterns) << c.pre;
      EXPECT_EQ(pre->updated_rows, post->updated_rows) << c.pre;
    }
  }
}

TEST(WhatIfEngineTest, NullGraphFallsBackToNb) {
  Scm scm = ConfounderScm();
  Database db = SampleDb(scm, 8000, 21);
  WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  WhatIfEngine engine(&db, /*graph=*/nullptr, options);
  auto result = engine.RunSql("Use R Update(B) = 1 Output Count(Y = 1)");
  ASSERT_TRUE(result.ok()) << result.status();
  const double n = 8000;
  EXPECT_NEAR(result->value / n, 0.625, 0.03);
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

TEST(ExplainTest, ReportsPlanFacts) {
  Database db = EngineeredDb();
  Scm scm = ConfounderScm();
  causal::CausalGraph graph = scm.Graph();
  WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  WhatIfEngine engine(&db, &graph, options);
  auto plan = engine.ExplainSql(
      "Use R When C = 1 Update(B) = 1 Output Count(Y = 1)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // S = the 16 tuples with C = 1.
  EXPECT_NE(plan->find("S has 16 tuple(s)"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("update: B <- set(1)"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("adjust (B -> Y): {C}"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("estimator: frequency"), std::string::npos);
}

TEST(ExplainTest, FailsExactlyWhenRunFails) {
  // Explain reports the plan Run executes: where Run fails, Explain fails
  // with the same status; where Run answers, Explain's one adjust line is
  // Run's adjustment set.
  data::GermanOptions german_opt;
  german_opt.rows = 800;
  auto german = data::MakeGermanSyn(german_opt);
  ASSERT_TRUE(german.ok());
  data::AmazonOptions amazon_opt;
  amazon_opt.products = 150;
  amazon_opt.reviews_per_product = 3;
  auto amazon = data::MakeAmazonSyn(amazon_opt);
  ASSERT_TRUE(amazon.ok());
  struct Probe {
    const data::Dataset* ds;
    const char* sql;
  };
  const Probe probes[] = {
      // Savings is no descendant of Status: the plan has no target and
      // adjusts for nothing.
      {&*german, "Use German Update(Status) = 3 Output Avg(Post(Savings))"},
      // Color reaches Sentiment across tuples (through PID), so the plan
      // needs the psi feature of a string update.
      {&*amazon, "Use Product Update(Color) = 'Red' Output Count(*)"},
  };
  for (const Probe& p : probes) {
    WhatIfOptions options;
    options.estimator = learn::EstimatorKind::kFrequency;
    options.backdoor = BackdoorMode::kGraph;
    WhatIfEngine engine(&p.ds->db, &p.ds->graph, options);
    auto run = engine.RunSql(p.sql);
    auto plan = engine.ExplainSql(p.sql);
    ASSERT_EQ(plan.ok(), run.ok())
        << p.sql << "\n  run: "
        << (run.ok() ? std::string("ok") : run.status().ToString())
        << "\n  explain: " << (plan.ok() ? *plan : plan.status().ToString());
    if (!run.ok()) {
      EXPECT_EQ(plan.status().code(), run.status().code()) << p.sql;
      EXPECT_EQ(plan.status().message(), run.status().message()) << p.sql;
      continue;
    }
    const size_t adjust = plan->find("adjust (");
    ASSERT_NE(adjust, std::string::npos) << *plan;
    EXPECT_EQ(plan->find("adjust (", adjust + 1), std::string::npos) << *plan;
    EXPECT_NE(plan->find("): {" + Join(run->backdoor, ", ") + "}\n", adjust),
              std::string::npos)
        << *plan;
  }
}

TEST(ExplainTest, RejectsNonWhatIf) {
  Database db = EngineeredDb();
  WhatIfEngine engine(&db, nullptr, {});
  EXPECT_FALSE(engine.ExplainSql("Select Id From R").ok());
}

// ---------------------------------------------------------------------------
// Compile layer
// ---------------------------------------------------------------------------

TEST(CompileTest, BareTableView) {
  Database db = EngineeredDb();
  auto stmt =
      sql::ParseSql("Use R Update(B) = 1 Output Count(Y = 1)").value();
  auto compiled = CompileWhatIf(db, *stmt.whatif);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->view_info->update_relation, "R");
  EXPECT_EQ(compiled->view_info->view->num_rows(), 32u);
  EXPECT_EQ(compiled->view_info->view_key_columns,
            std::vector<std::string>{"Id"});
  // Count(pred) folded into For.
  ASSERT_NE(compiled->for_pred, nullptr);
  EXPECT_TRUE(sql::ContainsPost(*compiled->for_pred));
}

TEST(CompileTest, UpdateSpecApply) {
  UpdateSpec set{"A", sql::UpdateFuncKind::kSet, Value::Int(5)};
  EXPECT_TRUE(set.Apply(Value::Int(1)).value().Equals(Value::Int(5)));
  UpdateSpec scale{"A", sql::UpdateFuncKind::kScale, Value::Double(1.1)};
  EXPECT_NEAR(scale.Apply(Value::Double(100)).value().double_value(), 110,
              1e-12);
  UpdateSpec shift{"A", sql::UpdateFuncKind::kShift, Value::Double(-50)};
  EXPECT_NEAR(shift.Apply(Value::Double(100)).value().double_value(), 50,
              1e-12);
  EXPECT_FALSE(scale.Apply(Value::String("red")).ok());
}

TEST(CompileTest, UnknownUpdateAttributeFails) {
  Database db = EngineeredDb();
  auto stmt =
      sql::ParseSql("Use R Update(Zzz) = 1 Output Count(*)").value();
  EXPECT_FALSE(CompileWhatIf(db, *stmt.whatif).ok());
}

TEST(CompileTest, UnknownForAttributeFails) {
  Database db = EngineeredDb();
  auto stmt = sql::ParseSql(
                  "Use R Update(B) = 1 Output Count(*) For Pre(Zzz) = 1")
                  .value();
  EXPECT_FALSE(CompileWhatIf(db, *stmt.whatif).ok());
}

// ---------------------------------------------------------------------------
// Thread budget: num_threads bounds forest training, never the answer. (The
// answers themselves are pinned in tests/golden/.)
// ---------------------------------------------------------------------------

TEST(ColumnarPathTest, AnswerDoesNotDependOnThreadBudget) {
  // The joined Amazon view has one row and one block per product (150 of
  // each); training at budgets 1, 2, 4 and 8 must give the same answer bit
  // for bit.
  data::AmazonOptions opt;
  opt.products = 150;
  opt.reviews_per_product = 3;
  auto ds = data::MakeAmazonSyn(opt);
  ASSERT_TRUE(ds.ok());
  const char* query =
      "Use V As (Select T1.PID, T1.Category, T1.Brand, T1.Price, T1.Quality, "
      "Avg(T2.Rating) As Rtng From Product As T1, Review As T2 "
      "Where T1.PID = T2.PID Group By T1.PID, T1.Category, T1.Brand, "
      "T1.Price, T1.Quality) "
      "When Category = 'Laptop' Update(Price) = 0.9 * Pre(Price) "
      "Output Avg(Rtng) For Pre(Category) = 'Laptop'";

  double reference = 0.0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    WhatIfOptions options;
    options.estimator = learn::EstimatorKind::kForest;
    options.forest.num_trees = 4;
    options.num_threads = threads;
    WhatIfEngine engine(&ds->db, &ds->graph, options);
    auto result = engine.RunSql(query);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->num_blocks, 150u);
    EXPECT_EQ(result->view_rows, 150u);
    if (threads == 1) {
      reference = result->value;
    } else {
      EXPECT_EQ(result->value, reference)
          << "threads=" << threads;  // bit-for-bit
    }
  }
}

TEST(ColumnarPathTest, RepeatedRunsAreDeterministic) {
  data::GermanOptions opt;
  opt.rows = 800;
  auto ds = data::MakeGermanSyn(opt);
  ASSERT_TRUE(ds.ok());
  WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kForest;
  options.forest.num_trees = 6;
  options.sample_size = 500;  // exercises the seeded sampler too
  WhatIfEngine engine(&ds->db, &ds->graph, options);
  const char* query =
      "Use German Update(Status) = 3 Output Count(Credit = 1) For Pre(Age) = 1";
  auto first = engine.RunSql(query);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    auto again = engine.RunSql(query);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->value, first->value);
  }
}

}  // namespace
}  // namespace hyper::whatif
