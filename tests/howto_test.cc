#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/opt_howto.h"
#include "data/datasets.h"
#include "howto/engine.h"
#include "sql/parser.h"

namespace hyper::howto {
namespace {

class HowToGermanTest : public ::testing::Test {
 protected:
  HowToGermanTest() {
    data::GermanOptions opt;
    opt.rows = 4000;
    opt.seed = 41;
    ds_ = std::make_unique<data::Dataset>(
        std::move(data::MakeGermanSyn(opt).value()));
    options_.whatif.estimator = learn::EstimatorKind::kFrequency;
  }

  HowToEngine Engine() const {
    return HowToEngine(&ds_->db, &ds_->graph, options_);
  }

  std::unique_ptr<data::Dataset> ds_;
  HowToOptions options_;
};

TEST_F(HowToGermanTest, BaselineEqualsObservationalAggregate) {
  auto stmt = sql::ParseSql(
                  "Use German HowToUpdate Status "
                  "ToMaximize Avg(Post(Credit))")
                  .value();
  const double baseline = BaselineObjective(ds_->db, *stmt.howto).value();
  // Observational mean of Credit.
  const Table& t = *ds_->db.GetTable("German").value();
  double sum = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    sum += static_cast<double>(t.At(r, 8).int_value());
  }
  EXPECT_NEAR(baseline, sum / t.num_rows(), 1e-9);
}

TEST_F(HowToGermanTest, CandidatesRespectIntegerDomain) {
  auto stmt = sql::ParseSql(
                  "Use German HowToUpdate Status "
                  "ToMaximize Avg(Post(Credit))")
                  .value();
  auto candidates = Engine().EnumerateCandidates(*stmt.howto).value();
  ASSERT_EQ(candidates.size(), 1u);
  ASSERT_EQ(candidates[0].size(), 4u);  // Status in {0,1,2,3}
  for (const auto& spec : candidates[0]) {
    EXPECT_EQ(spec.constant.type(), ValueType::kInt);
  }
}

TEST_F(HowToGermanTest, CandidatesRespectAbsRange) {
  auto stmt = sql::ParseSql(
                  "Use German HowToUpdate Status "
                  "Limit 1 <= Post(Status) <= 2 "
                  "ToMaximize Avg(Post(Credit))")
                  .value();
  auto candidates = Engine().EnumerateCandidates(*stmt.howto).value();
  ASSERT_EQ(candidates[0].size(), 2u);
  for (const auto& spec : candidates[0]) {
    const int64_t v = spec.constant.int_value();
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 2);
  }
}

TEST_F(HowToGermanTest, CandidatesRespectL1Limit) {
  // Mean |v - Status_t| over all tuples must stay under the bound; a tiny
  // bound keeps only candidates near the observational mean.
  auto loose = sql::ParseSql(
                   "Use German HowToUpdate Status "
                   "Limit L1(Pre(Status), Post(Status)) <= 10 "
                   "ToMaximize Avg(Post(Credit))")
                   .value();
  auto tight = sql::ParseSql(
                   "Use German HowToUpdate Status "
                   "Limit L1(Pre(Status), Post(Status)) <= 0.9 "
                   "ToMaximize Avg(Post(Credit))")
                   .value();
  auto engine = Engine();
  const size_t all = engine.EnumerateCandidates(*loose.howto)
                         .value()[0]
                         .size();
  const size_t few = engine.EnumerateCandidates(*tight.howto)
                         .value()[0]
                         .size();
  EXPECT_EQ(all, 4u);
  EXPECT_LT(few, all);
  EXPECT_GE(few, 1u);
}

TEST_F(HowToGermanTest, PicksMaxStatus) {
  auto result = Engine().RunSql(
      "Use German HowToUpdate Status ToMaximize Avg(Post(Credit))");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->plan.size(), 1u);
  ASSERT_TRUE(result->plan[0].changed);
  EXPECT_TRUE(result->plan[0].update.constant.Equals(Value::Int(3)));
  EXPECT_GT(result->objective_value, result->baseline_value);
  EXPECT_TRUE(result->used_mck);
  EXPECT_EQ(result->candidates_evaluated, 4u);
}

TEST_F(HowToGermanTest, MatchesOptHowToGroundTruthPlan) {
  // §5.4: HypeR's plan coincides with exhaustive enumeration against the
  // structural equations.
  auto stmt = sql::ParseSql(
                  "Use German HowToUpdate Status, Savings "
                  "ToMaximize Avg(Post(Credit))")
                  .value();
  auto engine = Engine();
  auto hyper = engine.Run(*stmt.howto).value();

  auto candidates = engine.EnumerateCandidates(*stmt.howto).value();
  auto scorer =
      baselines::MakeGroundTruthScorer(&ds_->db, &ds_->scm, stmt.howto.get());
  auto exact = baselines::OptHowTo(*stmt.howto, candidates, scorer).value();

  // Cross product: (4+1) * (3+1) = 20 combinations.
  EXPECT_EQ(exact.combinations_evaluated, 20u);
  ASSERT_EQ(hyper.plan.size(), exact.plan.size());
  for (size_t a = 0; a < hyper.plan.size(); ++a) {
    EXPECT_EQ(hyper.plan[a].changed, exact.plan[a].changed) << a;
    if (hyper.plan[a].changed && exact.plan[a].changed) {
      EXPECT_TRUE(hyper.plan[a].update.constant.Equals(
          exact.plan[a].update.constant))
          << a;
    }
  }
}

TEST_F(HowToGermanTest, MckAndMilpAgree) {
  const std::string query =
      "Use German HowToUpdate Status, Savings, Housing "
      "ToMaximize Avg(Post(Credit))";
  auto mck_result = Engine().RunSql(query).value();
  HowToOptions milp_options = options_;
  milp_options.prefer_mck = false;
  auto milp_result =
      HowToEngine(&ds_->db, &ds_->graph, milp_options).RunSql(query).value();
  EXPECT_TRUE(mck_result.used_mck);
  EXPECT_FALSE(milp_result.used_mck);
  EXPECT_NEAR(mck_result.objective_value, milp_result.objective_value, 1e-9);
  for (size_t a = 0; a < mck_result.plan.size(); ++a) {
    EXPECT_EQ(mck_result.plan[a].changed, milp_result.plan[a].changed);
  }
}

TEST_F(HowToGermanTest, GlobalBudgetForcesSelection) {
  HowToOptions budgeted = options_;
  budgeted.global_l1_budget = 0.0;  // no paid change allowed
  auto result = HowToEngine(&ds_->db, &ds_->graph, budgeted)
                    .RunSql(
                        "Use German HowToUpdate Status, Savings "
                        "ToMaximize Avg(Post(Credit))")
                    .value();
  // Every Set-update has positive L1 cost here, so nothing can change.
  for (const AttributeChoice& c : result.plan) {
    EXPECT_FALSE(c.changed);
  }
  EXPECT_NEAR(result.objective_value, result.baseline_value, 1e-9);
}

TEST_F(HowToGermanTest, ParallelScoringBitEqualAcrossThreadCounts) {
  // Candidate scoring shards the (attribute, candidate) pairs over the
  // worker pool; the ordered merge must make every reported number — not
  // just the chosen plan — bit-for-bit identical to the sequential loop.
  const std::string query =
      "Use German HowToUpdate Status, Savings "
      "ToMaximize Avg(Post(Credit))";
  HowToOptions serial = options_;
  serial.whatif.num_threads = 1;
  auto ref = HowToEngine(&ds_->db, &ds_->graph, serial).RunSql(query);
  ASSERT_TRUE(ref.ok()) << ref.status();
  for (size_t threads : {2u, 4u, 8u}) {
    HowToOptions parallel = options_;
    parallel.whatif.num_threads = threads;
    auto got = HowToEngine(&ds_->db, &ds_->graph, parallel).RunSql(query);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(ref->baseline_value, got->baseline_value) << threads;
    EXPECT_EQ(ref->objective_value, got->objective_value) << threads;
    EXPECT_EQ(ref->PlanToString(), got->PlanToString()) << threads;
    EXPECT_EQ(ref->candidates_evaluated, got->candidates_evaluated);
    ASSERT_EQ(ref->candidates.size(), got->candidates.size());
    for (size_t a = 0; a < ref->candidates.size(); ++a) {
      ASSERT_EQ(ref->candidates[a].size(), got->candidates[a].size());
      for (size_t i = 0; i < ref->candidates[a].size(); ++i) {
        EXPECT_EQ(ref->candidates[a][i].objective_value,
                  got->candidates[a][i].objective_value);
        EXPECT_EQ(ref->candidates[a][i].delta, got->candidates[a][i].delta);
        EXPECT_EQ(ref->candidates[a][i].cost, got->candidates[a][i].cost);
      }
    }
  }
}

TEST_F(HowToGermanTest, BudgetPrunesCostInfeasibleCandidates) {
  // With a global L1 budget, candidates whose own cost busts the budget are
  // skipped without a what-if evaluation. Pruning must be sound (only
  // candidates that could never be chosen are pruned) and must not change
  // the chosen plan relative to the exhaustive MILP solve over the same
  // pruned candidate set.
  const std::string query =
      "Use German HowToUpdate Status, Savings "
      "ToMaximize Avg(Post(Credit))";
  // Unbudgeted run to learn the cost spectrum.
  auto free_run = Engine().RunSql(query).value();
  EXPECT_EQ(0u, free_run.candidates_pruned);
  double min_cost = 1e300, max_cost = 0.0;
  for (const auto& group : free_run.candidates) {
    for (const auto& cu : group) {
      if (cu.cost > 0) min_cost = std::min(min_cost, cu.cost);
      max_cost = std::max(max_cost, cu.cost);
    }
  }
  ASSERT_LT(min_cost, max_cost);

  // A budget strictly between the cheapest and the dearest candidate must
  // prune some candidates but not all, and every pruned candidate's own
  // cost must exceed the budget (the admissible-bound soundness condition).
  const double budget = 0.5 * (min_cost + max_cost);
  HowToOptions budgeted = options_;
  budgeted.global_l1_budget = budget;
  auto pruned_run =
      HowToEngine(&ds_->db, &ds_->graph, budgeted).RunSql(query).value();
  EXPECT_GT(pruned_run.candidates_pruned, 0u);
  EXPECT_GT(pruned_run.candidates_evaluated, 0u);
  double plan_cost = 0.0;
  for (const auto& group : pruned_run.candidates) {
    for (const auto& cu : group) {
      if (cu.pruned) EXPECT_GT(cu.cost, budget);
    }
  }
  for (const auto& choice : pruned_run.plan) {
    if (choice.changed) plan_cost += choice.cost;
  }
  EXPECT_LE(plan_cost, budget + 1e-9);

  // MCK and branch-and-bound agree on the pruned instance.
  HowToOptions milp = budgeted;
  milp.prefer_mck = false;
  auto milp_run =
      HowToEngine(&ds_->db, &ds_->graph, milp).RunSql(query).value();
  EXPECT_NEAR(pruned_run.objective_value, milp_run.objective_value, 1e-9);

  // A budget above every candidate's cost prunes nothing and reproduces the
  // unbudgeted plan (single-attribute costs here never couple).
  HowToOptions roomy = options_;
  roomy.global_l1_budget = 2.0 * max_cost * free_run.candidates.size();
  auto roomy_run =
      HowToEngine(&ds_->db, &ds_->graph, roomy).RunSql(query).value();
  EXPECT_EQ(0u, roomy_run.candidates_pruned);
  EXPECT_EQ(free_run.PlanToString(), roomy_run.PlanToString());
}

TEST_F(HowToGermanTest, MinimizeFlipsDirection) {
  auto result = Engine().RunSql(
      "Use German HowToUpdate Status ToMinimize Avg(Post(Credit))");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->plan[0].changed);
  EXPECT_TRUE(result->plan[0].update.constant.Equals(Value::Int(0)));
  EXPECT_LT(result->objective_value, result->baseline_value);
}

TEST_F(HowToGermanTest, WhenRestrictsUpdateSet) {
  auto result = Engine().RunSql(
      "Use German When Age = 0 HowToUpdate Status "
      "ToMaximize Avg(Post(Credit))");
  ASSERT_TRUE(result.ok()) << result.status();
  // Updating only the young cohort moves the objective less than updating
  // everyone.
  auto full = Engine().RunSql(
      "Use German HowToUpdate Status ToMaximize Avg(Post(Credit))");
  EXPECT_LT(result->objective_value, full->objective_value);
  EXPECT_GT(result->objective_value, result->baseline_value);
}

TEST_F(HowToGermanTest, LexicographicLocksPrimary) {
  auto primary = sql::ParseSql(
                     "Use German HowToUpdate Status, Savings "
                     "ToMaximize Avg(Post(Credit))")
                     .value();
  auto secondary = sql::ParseSql(
                       "Use German HowToUpdate Status, Savings "
                       "ToMinimize Avg(Post(CreditAmount))")
                       .value();
  auto engine = Engine();
  auto solo = engine.Run(*primary.howto).value();
  auto lex = engine
                 .RunLexicographic({primary.howto.get(),
                                    secondary.howto.get()})
                 .value();
  // The lexicographic solution achieves the same primary objective.
  EXPECT_NEAR(lex.objective_value, solo.objective_value, 1e-6);
  // It reports its solves like Run does.
  EXPECT_GT(lex.total_seconds, 0.0);
  EXPECT_GT(lex.solver_nodes, 0u);
}

TEST_F(HowToGermanTest, RejectsCausallyRelatedUpdates) {
  // Savings affects CreditAmount in the discrete German SCM, so updating
  // both is unsound (§4.1): every solve refuses the statement.
  auto stmt = sql::ParseSql(
                  "Use German HowToUpdate Savings, CreditAmount "
                  "ToMaximize Avg(Post(Credit))")
                  .value();
  auto engine = Engine();
  EXPECT_EQ(engine.Run(*stmt.howto).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RunMinCost(*stmt.howto, /*objective_target=*/0.0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RunLexicographic({stmt.howto.get(), stmt.howto.get()})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(HowToGermanTest, RejectsImmutableAttribute) {
  auto result = Engine().RunSql(
      "Use German HowToUpdate Age ToMaximize Avg(Post(Credit))");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(HowToGermanTest, RejectsNonHowToSql) {
  EXPECT_FALSE(Engine().RunSql("Select Id From German").ok());
}

// Which error a faulty statement reports, code and message. The soundness
// check runs first, then enumeration (the first update attribute's
// relation, the Use clause, When, then each attribute in turn), and only
// then the baseline prepare, which compiles the objective.
TEST_F(HowToGermanTest, ErrorStatusesKeepTheirPrecedence) {
  struct Case {
    const char* sql;
    StatusCode code;
    const char* message;
  };
  const Case cases[] = {
      {"Use German HowToUpdate Age ToMaximize Count(Credit = 1)",
       StatusCode::kInvalidArgument,
       "HowToUpdate attribute 'Age' is immutable"},
      {"Use German HowToUpdate Age ToMaximize Avg(Post(Zzz))",
       StatusCode::kInvalidArgument,
       "HowToUpdate attribute 'Age' is immutable"},
      {"Use German HowToUpdate Zzz ToMaximize Count(Credit = 1)",
       StatusCode::kNotFound, "attribute 'Zzz' not in any relation"},
      {"Use German HowToUpdate Status, Zzz ToMaximize Count(Credit = 1)",
       StatusCode::kNotFound, "attribute 'Zzz' not in relation 'German'"},
      {"Use German When Age = 99 HowToUpdate Status "
       "ToMaximize Avg(Post(Zzz))",
       StatusCode::kInvalidArgument, "When selects no tuples to update"},
      {"Use German When Zzz = 1 HowToUpdate Age ToMaximize Count(Credit = 1)",
       StatusCode::kNotFound, "unresolved column reference 'Zzz'"},
      {"Use German When Status / 0 = 1 HowToUpdate Status "
       "ToMaximize Count(Credit = 1)",
       StatusCode::kInvalidArgument, "division by zero"},
      {"Use German HowToUpdate Status ToMaximize Avg(Post(Zzz))",
       StatusCode::kInvalidArgument,
       "attribute 'Zzz' not in the relevant view"},
      {"Use Zzz HowToUpdate Status ToMaximize Count(Credit = 1)",
       StatusCode::kNotFound, "relation 'Zzz' does not exist"},
      {"Use German HowToUpdate Status, Age ToMaximize Count(Credit = 1)",
       StatusCode::kInvalidArgument,
       "HowToUpdate attributes must be causally unrelated: 'Age' affects "
       "'Status'"},
  };
  const HowToEngine engine = Engine();
  for (const Case& c : cases) {
    auto result = engine.RunSql(c.sql);
    ASSERT_FALSE(result.ok()) << c.sql;
    EXPECT_EQ(c.code, result.status().code())
        << c.sql << ": " << result.status();
    EXPECT_EQ(c.message, result.status().message()) << c.sql;
  }
}

// The phase timers: enumerate, cost and solve are measured apart from the
// prepares, the evaluations and the estimator training inside them. At one
// scoring thread the phases run one after another inside the run, so their
// sum is at most its wall time.
TEST_F(HowToGermanTest, PhaseTimersAreDisjointPartsOfTheRun) {
  HowToOptions serial = options_;
  serial.whatif.num_threads = 1;
  const HowToEngine engine(&ds_->db, &ds_->graph, serial);
  auto primary = sql::ParseSql(
                     "Use German HowToUpdate Status, Savings "
                     "ToMaximize Avg(Post(Credit))")
                     .value();
  auto secondary = sql::ParseSql(
                       "Use German HowToUpdate Status, Savings "
                       "ToMinimize Avg(Post(CreditAmount))")
                       .value();
  const HowToResult run = engine.Run(*primary.howto).value();
  const HowToResult min_cost =
      engine.RunMinCost(*primary.howto, run.baseline_value).value();
  const HowToResult lex =
      engine.RunLexicographic({primary.howto.get(), secondary.howto.get()})
          .value();
  for (const HowToResult* r : {&run, &min_cost, &lex}) {
    EXPECT_GE(r->enumerate_seconds, 0.0);
    EXPECT_GE(r->cost_seconds, 0.0);
    EXPECT_GE(r->solve_seconds, 0.0);
    EXPECT_GE(r->prepare_seconds, 0.0);
    EXPECT_GE(r->eval_seconds, 0.0);
    EXPECT_GE(r->train_seconds, 0.0);
    EXPECT_LE(r->prepare_seconds + r->eval_seconds + r->train_seconds +
                  r->enumerate_seconds + r->cost_seconds + r->solve_seconds,
              r->total_seconds);
  }
}

// ---------------------------------------------------------------------------
// Continuous attribute bucketization (Figure 9 machinery)
// ---------------------------------------------------------------------------

TEST(HowToContinuousTest, MoreBucketsRefineTheOptimum) {
  data::GermanOptions opt;
  opt.rows = 12000;
  opt.seed = 43;
  opt.continuous_amount = true;
  auto ds = data::MakeGermanSyn(opt).value();

  auto run = [&](size_t buckets) {
    HowToOptions options;
    options.whatif.estimator = learn::EstimatorKind::kFrequency;
    options.num_buckets = buckets;
    HowToEngine engine(&ds.db, &ds.graph, options);
    return engine
        .RunSql(
            "Use German HowToUpdate CreditAmount "
            "ToMaximize Avg(Post(Credit))")
        .value();
  };
  auto coarse = run(2);
  auto fine = run(10);
  EXPECT_EQ(coarse.candidates_evaluated, 2u);
  EXPECT_EQ(fine.candidates_evaluated, 10u);
  // Finer buckets cannot do worse (same family of candidate sets).
  EXPECT_GE(fine.objective_value, coarse.objective_value - 1e-6);
  // The chosen amount should be in the upper half of the range (good
  // credit rises monotonically with the amount in this SCM).
  ASSERT_TRUE(fine.plan[0].changed);
  EXPECT_GT(fine.plan[0].update.constant.AsDouble().value(), 3000.0);
}

// ---------------------------------------------------------------------------
// Min-cost formulation (§4.3 footnote 3)
// ---------------------------------------------------------------------------

class MinCostTest : public ::testing::Test {
 protected:
  MinCostTest() {
    data::GermanOptions opt;
    opt.rows = 4000;
    opt.seed = 47;
    ds_ = std::make_unique<data::Dataset>(
        std::move(data::MakeGermanSyn(opt).value()));
    options_.whatif.estimator = learn::EstimatorKind::kFrequency;
  }

  std::unique_ptr<data::Dataset> ds_;
  HowToOptions options_;
};

TEST_F(MinCostTest, ReachesTargetAtMinimalCost) {
  HowToEngine engine(&ds_->db, &ds_->graph, options_);
  auto stmt = sql::ParseSql(
                  "Use German HowToUpdate Status, Savings "
                  "ToMaximize Avg(Post(Credit))")
                  .value();
  // First find the full-maximization value, then ask for a modest target.
  auto max_plan = engine.Run(*stmt.howto).value();
  const double modest_target =
      max_plan.baseline_value +
      0.3 * (max_plan.objective_value - max_plan.baseline_value);
  auto cheap = engine.RunMinCost(*stmt.howto, modest_target).value();
  EXPECT_GE(cheap.objective_value, modest_target - 1e-9);
  // The cheap plan must not cost more than the full-max plan.
  double cheap_cost = 0, max_cost = 0;
  for (const auto& c : cheap.plan) cheap_cost += c.changed ? c.cost : 0;
  for (const auto& c : max_plan.plan) max_cost += c.changed ? c.cost : 0;
  EXPECT_LE(cheap_cost, max_cost + 1e-9);
}

TEST_F(MinCostTest, TrivialTargetCostsNothing) {
  HowToEngine engine(&ds_->db, &ds_->graph, options_);
  auto stmt = sql::ParseSql(
                  "Use German HowToUpdate Status "
                  "ToMaximize Avg(Post(Credit))")
                  .value();
  auto result =
      engine.RunMinCost(*stmt.howto, /*objective_target=*/0.0).value();
  // The baseline already exceeds 0: no update needed.
  EXPECT_FALSE(result.plan[0].changed);
}

TEST_F(MinCostTest, ImpossibleTargetFails) {
  HowToEngine engine(&ds_->db, &ds_->graph, options_);
  auto stmt = sql::ParseSql(
                  "Use German HowToUpdate Status "
                  "ToMaximize Avg(Post(Credit))")
                  .value();
  auto result = engine.RunMinCost(*stmt.howto, /*objective_target=*/5.0);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(HowToContinuousTest, InSetLimitsUseListedValues) {
  data::GermanOptions opt;
  opt.rows = 1000;
  opt.continuous_amount = true;
  auto ds = data::MakeGermanSyn(opt).value();
  HowToOptions options;
  options.whatif.estimator = learn::EstimatorKind::kFrequency;
  HowToEngine engine(&ds.db, &ds.graph, options);
  auto stmt = sql::ParseSql(
                  "Use German HowToUpdate CreditAmount "
                  "Limit Post(CreditAmount) In (1000, 9000) "
                  "ToMaximize Avg(Post(Credit))")
                  .value();
  auto candidates = engine.EnumerateCandidates(*stmt.howto).value();
  ASSERT_EQ(candidates[0].size(), 2u);
  auto result = engine.Run(*stmt.howto).value();
  ASSERT_TRUE(result.plan[0].changed);
  EXPECT_TRUE(result.plan[0].update.constant.Equals(Value::Int(9000)));
}

}  // namespace
}  // namespace hyper::howto
