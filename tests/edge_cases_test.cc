// Failure-injection and edge-case coverage across the public API surface:
// malformed queries, degenerate data shapes, boundary parameter values, and
// contract violations that must surface as Status errors (never crashes).

#include <gtest/gtest.h>

#include "causal/scm.h"
#include "data/datasets.h"
#include "howto/engine.h"
#include "relational/select.h"
#include "sql/parser.h"
#include "whatif/engine.h"
#include "whatif/naive.h"

namespace hyper {
namespace {

Database TinyDb() {
  Database db;
  Table t(Schema("R",
                 {{"Id", ValueType::kInt, Mutability::kImmutable},
                  {"A", ValueType::kInt, Mutability::kMutable},
                  {"Y", ValueType::kInt, Mutability::kMutable}},
                 {"Id"}));
  for (int i = 0; i < 8; ++i) {
    t.AppendUnchecked(
        {Value::Int(i), Value::Int(i % 2), Value::Int((i / 2) % 2)});
  }
  HYPER_CHECK(db.AddTable(std::move(t)).ok());
  return db;
}

// ---------------------------------------------------------------------------
// Parser failure injection: every malformed fragment yields a ParseError
// with a position, never a crash.
// ---------------------------------------------------------------------------

class ParserFailureSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserFailureSweep, MalformedQueriesReportParseError) {
  auto result = sql::ParseSql(GetParam());
  ASSERT_FALSE(result.ok()) << GetParam();
  EXPECT_EQ(result.status().code(), StatusCode::kParseError) << GetParam();
  // Error messages carry a position.
  EXPECT_NE(result.status().message().find(":"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserFailureSweep,
    ::testing::Values(
        "",                                             // empty
        "Use",                                          // dangling Use
        "Use R",                                        // no update
        "Use R Update(A)",                              // no '='
        "Use R Update(A) = ",                           // no rhs
        "Use R Update(A) = 1 Output",                   // no aggregate
        "Use R Update(A) = 1 Output Foo(Y)",            // bad aggregate
        "Use R Update(A) = 1 Output Count(",            // unclosed paren
        "Use R Update(A) = 1 Output Count(*) For",      // dangling For
        "Use R Update(A) = 2 * Post(A) Output Count(*)",  // Post in update
        "Use R HowToUpdate",                            // no attributes
        "Use R HowToUpdate A Limit ToMaximize Avg(Y)",  // empty limit
        "Use R HowToUpdate A ToMaximize",               // no aggregate
        "Select * From",                                // dangling From
        "Select a From R Where",                        // dangling Where
        "Use R Update(A) = 1 Output Count(*) extra"));  // trailing tokens

// ---------------------------------------------------------------------------
// Engine edge cases
// ---------------------------------------------------------------------------

TEST(EngineEdgeCases, EmptyViewIsError) {
  Database db;
  HYPER_CHECK(db.AddTable(Schema("R",
                                 {{"Id", ValueType::kInt},
                                  {"A", ValueType::kInt,
                                   Mutability::kMutable}},
                                 {"Id"}))
                  .ok());
  whatif::WhatIfEngine engine(&db, nullptr, {});
  auto result = engine.RunSql("Use R Update(A) = 1 Output Count(*)");
  EXPECT_FALSE(result.ok());
}

TEST(EngineEdgeCases, WhenSelectingNothingIsExact) {
  Database db = TinyDb();
  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  whatif::WhatIfEngine engine(&db, nullptr, options);
  auto result = engine.RunSql(
      "Use R When Id = 999 Update(A) = 1 Output Count(Y = 1)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->updated_rows, 0u);
  EXPECT_DOUBLE_EQ(result->value, 4.0);  // exact observational count
}

TEST(EngineEdgeCases, ForSelectingNothingGivesZeroCount) {
  Database db = TinyDb();
  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  whatif::WhatIfEngine engine(&db, nullptr, options);
  auto result = engine.RunSql(
      "Use R Update(A) = 1 Output Count(*) For Pre(Id) > 100");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->value, 0.0);
}

TEST(EngineEdgeCases, AvgOverEmptyForIsError) {
  Database db = TinyDb();
  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  whatif::WhatIfEngine engine(&db, nullptr, options);
  auto result = engine.RunSql(
      "Use R Update(A) = 1 Output Avg(Post(Y)) For Pre(Id) > 100");
  EXPECT_FALSE(result.ok());
}

TEST(EngineEdgeCases, SingleRowDatabase) {
  Database db;
  Table t(Schema("R",
                 {{"Id", ValueType::kInt},
                  {"A", ValueType::kInt, Mutability::kMutable},
                  {"Y", ValueType::kInt, Mutability::kMutable}},
                 {"Id"}));
  t.AppendUnchecked({Value::Int(0), Value::Int(0), Value::Int(1)});
  HYPER_CHECK(db.AddTable(std::move(t)).ok());
  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  whatif::WhatIfEngine engine(&db, nullptr, options);
  auto result = engine.RunSql("Use R Update(A) = 1 Output Count(Y = 1)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->value, 0.0);
  EXPECT_LE(result->value, 1.0);
}

TEST(EngineEdgeCases, SampleLargerThanDataIsFullData) {
  Database db = TinyDb();
  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  options.sample_size = 1000000;  // way beyond 8 rows
  whatif::WhatIfEngine engine(&db, nullptr, options);
  auto result = engine.RunSql("Use R Update(A) = 1 Output Count(Y = 1)");
  EXPECT_TRUE(result.ok()) << result.status();
}

TEST(EngineEdgeCases, UpdateStringAttributeWithScaleFails) {
  Database db;
  Table t(Schema("R",
                 {{"Id", ValueType::kInt},
                  {"Color", ValueType::kString, Mutability::kMutable},
                  {"Y", ValueType::kInt, Mutability::kMutable}},
                 {"Id"}));
  t.AppendUnchecked({Value::Int(0), Value::String("Red"), Value::Int(1)});
  t.AppendUnchecked({Value::Int(1), Value::String("Blue"), Value::Int(0)});
  HYPER_CHECK(db.AddTable(std::move(t)).ok());
  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  whatif::WhatIfEngine engine(&db, nullptr, options);
  auto result = engine.RunSql(
      "Use R Update(Color) = 1.5 * Pre(Color) Output Count(Y = 1)");
  EXPECT_FALSE(result.ok());  // scaling a string is a type error
}

TEST(EngineEdgeCases, ViewMissingUpdateAttributeFails) {
  Database db = TinyDb();
  whatif::WhatIfEngine engine(&db, nullptr, {});
  auto result = engine.RunSql(
      "Use V As (Select Id, Y From R) Update(A) = 1 Output Count(*)");
  EXPECT_FALSE(result.ok());
}

TEST(EngineEdgeCases, ViewMissingKeyFails) {
  Database db = TinyDb();
  whatif::WhatIfEngine engine(&db, nullptr, {});
  auto result = engine.RunSql(
      "Use V As (Select A, Y From R) Update(A) = 1 Output Count(*)");
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------------------------
// How-to edge cases
// ---------------------------------------------------------------------------

TEST(HowToEdgeCases, ContradictoryLimitsYieldNoCandidates) {
  Database db = TinyDb();
  howto::HowToOptions options;
  options.whatif.estimator = learn::EstimatorKind::kFrequency;
  howto::HowToEngine engine(&db, nullptr, options);
  auto result = engine.RunSql(
      "Use R HowToUpdate A Limit 100 <= Post(A) <= 50 "
      "ToMaximize Avg(Post(Y))");
  // No feasible candidate: the plan leaves the attribute unchanged.
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->plan[0].changed);
  EXPECT_DOUBLE_EQ(result->objective_value, result->baseline_value);
}

TEST(HowToEdgeCases, UnknownAttributeFails) {
  Database db = TinyDb();
  howto::HowToEngine engine(&db, nullptr, {});
  auto result =
      engine.RunSql("Use R HowToUpdate Zzz ToMaximize Avg(Post(Y))");
  EXPECT_FALSE(result.ok());
}

TEST(HowToEdgeCases, WhenSelectingNothingFails) {
  Database db = TinyDb();
  howto::HowToEngine engine(&db, nullptr, {});
  auto result = engine.RunSql(
      "Use R When Id = 999 HowToUpdate A ToMaximize Avg(Post(Y))");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(HowToEdgeCases, SingleBucket) {
  Database db = TinyDb();
  howto::HowToOptions options;
  options.whatif.estimator = learn::EstimatorKind::kFrequency;
  options.num_buckets = 1;
  howto::HowToEngine engine(&db, nullptr, options);
  auto result =
      engine.RunSql("Use R HowToUpdate A ToMaximize Avg(Post(Y))");
  EXPECT_TRUE(result.ok()) << result.status();
}

TEST(HowToEdgeCases, LexicographicMismatchedAttributesFails) {
  Database db = TinyDb();
  howto::HowToEngine engine(&db, nullptr, {});
  auto a = sql::ParseSql("Use R HowToUpdate A ToMaximize Avg(Post(Y))")
               .value();
  auto b = sql::ParseSql("Use R HowToUpdate Y ToMaximize Avg(Post(A))")
               .value();
  auto result = engine.RunLexicographic({a.howto.get(), b.howto.get()});
  EXPECT_FALSE(result.ok());
}

// NULLs in how-to update attributes. Row 3 holds a NULL A and rows 1 and 4
// a NULL C; the Ys are complete, so only the update columns carry NULLs.
Database NullsDb() {
  Database db;
  Table t(Schema("R",
                 {{"Id", ValueType::kInt, Mutability::kImmutable},
                  {"A", ValueType::kInt, Mutability::kMutable},
                  {"C", ValueType::kString, Mutability::kMutable},
                  {"Y", ValueType::kInt, Mutability::kMutable}},
                 {"Id"}));
  const Value a[] = {Value::Int(1), Value::Int(5), Value::Int(2), Value::Null(),
                     Value::Int(7), Value::Int(2)};
  const Value c[] = {Value::String("x"), Value::Null(), Value::String("y"),
                     Value::String("x"), Value::Null(), Value::String("w")};
  for (int i = 0; i < 6; ++i) {
    t.AppendUnchecked({Value::Int(i), a[i], c[i], Value::Int(i % 2)});
  }
  HYPER_CHECK(db.AddTable(std::move(t)).ok());
  return db;
}

howto::HowToEngine NullsEngine(const Database& db) {
  howto::HowToOptions options;
  options.whatif.estimator = learn::EstimatorKind::kFrequency;
  options.whatif.backdoor = whatif::BackdoorMode::kUpdateOnly;
  return howto::HowToEngine(&db, nullptr, options);
}

std::vector<std::string> ConstantsOf(
    const std::vector<whatif::UpdateSpec>& specs) {
  std::vector<std::string> out;
  for (const whatif::UpdateSpec& s : specs) {
    out.push_back(s.constant.ToString());
  }
  return out;
}

TEST(HowToEdgeCases, NullNumericPreValueInSFails) {
  const Database db = NullsDb();
  auto result = NullsEngine(db).RunSql(
      "Use R HowToUpdate A ToMaximize Avg(Post(Y))");
  EXPECT_EQ(StatusCode::kInvalidArgument, result.status().code());
  EXPECT_EQ("cannot coerce NULL to a number", result.status().message());
}

TEST(HowToEdgeCases, NumericDistinctValuesSkipNullsOutsideS) {
  // S = {0, 2, 5}: A ranges over [1, 2], and the distinct pass reads the
  // whole view, so row 3's NULL is skipped rather than coerced.
  const Database db = NullsDb();
  const howto::HowToEngine engine = NullsEngine(db);
  auto stmt = sql::ParseSql(
                  "Use R When Id = 0 Or Id = 2 Or Id = 5 HowToUpdate A "
                  "ToMaximize Avg(Post(Y))")
                  .value();
  auto candidates = engine.EnumerateCandidates(*stmt.howto);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  EXPECT_EQ((std::vector<std::string>{"1", "2"}),
            ConstantsOf((*candidates)[0]));
  auto result = engine.Run(*stmt.howto);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(2u, result->candidates[0].size());
  EXPECT_EQ(2.0 / 3.0, result->candidates[0][0].cost);  // |1-2| twice over 3
  EXPECT_EQ(1.0 / 3.0, result->candidates[0][1].cost);  // |2-1| once
}

TEST(HowToEdgeCases, StringNullsAreNeverCandidatesAndCountAsChanged) {
  const Database db = NullsDb();
  const howto::HowToEngine engine = NullsEngine(db);
  auto result = engine.RunSql("Use R HowToUpdate C ToMaximize Avg(Post(Y))");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(3u, result->candidates[0].size());
  const std::vector<howto::CandidateUpdate>& got = result->candidates[0];
  // Sorted strings; the two NULL rows differ from every candidate.
  EXPECT_EQ("'w'", got[0].spec.constant.ToString());
  EXPECT_EQ("'x'", got[1].spec.constant.ToString());
  EXPECT_EQ("'y'", got[2].spec.constant.ToString());
  EXPECT_EQ(5.0 / 6.0, got[0].cost);
  EXPECT_EQ(4.0 / 6.0, got[1].cost);
  EXPECT_EQ(5.0 / 6.0, got[2].cost);
}

// Integer update attributes whose values span more integers than the view
// has rows, or lie beyond 2^53, where a double no longer holds every
// integer: candidates are llround of each value read as a double.
constexpr int64_t kTwo53 = int64_t{1} << 53;
constexpr int64_t kTwo62 = int64_t{1} << 62;

Database WideIntsDb() {
  Database db;
  Table t(Schema("W",
                 {{"Id", ValueType::kInt, Mutability::kImmutable},
                  {"X", ValueType::kInt, Mutability::kMutable},
                  {"Big", ValueType::kInt, Mutability::kMutable},
                  {"Wide", ValueType::kInt, Mutability::kMutable},
                  {"Huge", ValueType::kInt, Mutability::kMutable},
                  {"Y", ValueType::kInt, Mutability::kMutable}},
                 {"Id"}));
  // Read as doubles, Big is {2^53, 2^53 + 4, 2^53 + 4, 2^53 + 4} and Wide
  // {-2^53, 2^53, 0, 0}.
  const int64_t x[] = {1, 1000, 7000, 1000};
  const int64_t big[] = {kTwo53 + 1, kTwo53 + 3, kTwo53 + 5, kTwo53 + 3};
  const int64_t wide[] = {-(kTwo53 + 1), kTwo53 + 1, 0, 0};
  for (int i = 0; i < 4; ++i) {
    t.AppendUnchecked({Value::Int(i), Value::Int(x[i]), Value::Int(big[i]),
                       Value::Int(wide[i]), Value::Int(kTwo62 + 2048),
                       Value::Int(i % 2)});
  }
  HYPER_CHECK(db.AddTable(std::move(t)).ok());
  return db;
}

std::vector<std::string> WideIntCandidates(const std::string& sql,
                                           size_t num_buckets) {
  const Database db = WideIntsDb();
  howto::HowToOptions options;
  options.num_buckets = num_buckets;
  options.whatif.estimator = learn::EstimatorKind::kFrequency;
  options.whatif.backdoor = whatif::BackdoorMode::kUpdateOnly;
  const howto::HowToEngine engine(&db, nullptr, options);
  auto stmt = sql::ParseSql(sql).value();
  auto candidates = engine.EnumerateCandidates(*stmt.howto);
  HYPER_CHECK(candidates.ok());
  return ConstantsOf((*candidates)[0]);
}

TEST(HowToEdgeCases, IntegerSpanWiderThanTheViewKeepsDistinctValues) {
  const std::string update = "Use W HowToUpdate X ToMaximize Avg(Post(Y))";
  EXPECT_EQ((std::vector<std::string>{"1", "1000", "7000"}),
            WideIntCandidates(update, 8));
  // Three distinct values over two buckets: stride 1.5 keeps indices 0, 1.
  EXPECT_EQ((std::vector<std::string>{"1", "1000"}),
            WideIntCandidates(update, 2));
  EXPECT_EQ((std::vector<std::string>{"1000", "7000"}),
            WideIntCandidates(
                "Use W When Id >= 1 HowToUpdate X ToMaximize Avg(Post(Y))",
                8));
  EXPECT_EQ((std::vector<std::string>{"1", "1000"}),
            WideIntCandidates("Use W HowToUpdate X Limit Post(X) <= 5000 "
                              "ToMaximize Avg(Post(Y))",
                              8));
}

TEST(HowToEdgeCases, IntegersBeyondTwoTo53RoundThroughTheirDoubles) {
  const std::string two53 = std::to_string(kTwo53);
  const std::string two53_4 = std::to_string(kTwo53 + 4);
  // Big's double span is 4 integers over 4 rows; Wide's spans 2^54.
  EXPECT_EQ((std::vector<std::string>{two53, two53_4}),
            WideIntCandidates(
                "Use W HowToUpdate Big ToMaximize Avg(Post(Y))", 8));
  EXPECT_EQ((std::vector<std::string>{two53}),
            WideIntCandidates(
                "Use W HowToUpdate Big ToMaximize Avg(Post(Y))", 1));
  EXPECT_EQ((std::vector<std::string>{"-" + two53, "0", two53}),
            WideIntCandidates(
                "Use W HowToUpdate Wide ToMaximize Avg(Post(Y))", 8));
  EXPECT_EQ((std::vector<std::string>{"-" + two53, "0"}),
            WideIntCandidates(
                "Use W HowToUpdate Wide ToMaximize Avg(Post(Y))", 2));
  // One value, above 2^62.
  EXPECT_EQ((std::vector<std::string>{std::to_string(kTwo62 + 2048)}),
            WideIntCandidates(
                "Use W HowToUpdate Huge ToMaximize Avg(Post(Y))", 8));
}

// ---------------------------------------------------------------------------
// Oracle edge cases
// ---------------------------------------------------------------------------

TEST(OracleEdgeCases, NoUpdatedTuplesIsObservational) {
  Database db = TinyDb();
  causal::Scm scm;
  ASSERT_TRUE(scm.AddAttribute("A", {},
                               std::make_unique<causal::DiscreteMechanism>(
                                   std::vector<Value>{Value::Int(0),
                                                      Value::Int(1)},
                                   [](const std::vector<Value>&) {
                                     return std::vector<double>{0.5, 0.5};
                                   }))
                  .ok());
  ASSERT_TRUE(scm.AddAttribute("Y", {{"A", ""}},
                               std::make_unique<causal::DiscreteMechanism>(
                                   std::vector<Value>{Value::Int(0),
                                                      Value::Int(1)},
                                   [](const std::vector<Value>& ps) {
                                     double p =
                                         ps[0].int_value() ? 0.9 : 0.1;
                                     return std::vector<double>{1 - p, p};
                                   }))
                  .ok());
  auto stmt = sql::ParseSql(
                  "Use R When Id = 999 Update(A) = 1 Output Count(Y = 1)")
                  .value();
  const double exact = whatif::NaiveWhatIf(db, scm, *stmt.whatif).value();
  EXPECT_DOUBLE_EQ(exact, 4.0);  // nothing intervened: observed count
}

// ---------------------------------------------------------------------------
// Relational edge cases
// ---------------------------------------------------------------------------

TEST(RelationalEdgeCases, SelfJoinViaAliases) {
  Database db = TinyDb();
  auto stmt = sql::ParseSql(
                  "Select T1.Id, T2.Id From R As T1, R As T2 "
                  "Where T1.A = T2.A")
                  .value();
  auto result = relational::ExecuteSelect(db, *stmt.select);
  ASSERT_TRUE(result.ok()) << result.status();
  // 4 rows with A=0 and 4 with A=1: 16 + 16 pairs.
  EXPECT_EQ(result->num_rows(), 32u);
}

TEST(RelationalEdgeCases, GroupByExpressionKey) {
  Database db = TinyDb();
  auto stmt = sql::ParseSql(
                  "Select A + Y As K, Count(*) As N From R Group By A + Y")
                  .value();
  auto result = relational::ExecuteSelect(db, *stmt.select);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_rows(), 3u);  // sums 0, 1, 2
}

TEST(RelationalEdgeCases, WhereOnMissingColumnFails) {
  Database db = TinyDb();
  auto stmt =
      sql::ParseSql("Select Id From R Where Nope = 1").value();
  EXPECT_FALSE(relational::ExecuteSelect(db, *stmt.select).ok());
}

}  // namespace
}  // namespace hyper
