#include <gtest/gtest.h>

#include "baselines/ground_truth.h"
#include "data/datasets.h"
#include "sql/parser.h"
#include "whatif/engine.h"

namespace hyper::data {
namespace {

// ---------------------------------------------------------------------------
// German-Syn
// ---------------------------------------------------------------------------

TEST(GermanSynTest, ShapeAndSchema) {
  GermanOptions opt;
  opt.rows = 500;
  auto ds = MakeGermanSyn(opt).value();
  const Table& t = *ds.db.GetTable("German").value();
  EXPECT_EQ(t.num_rows(), 500u);
  EXPECT_TRUE(t.schema().Contains("Status"));
  EXPECT_TRUE(t.schema().Contains("Credit"));
  EXPECT_TRUE(ds.graph.Validate().ok());
  EXPECT_FALSE(ds.graph.HasCrossTupleEdges());
}

TEST(GermanSynTest, ValuesInDeclaredDomains) {
  GermanOptions opt;
  opt.rows = 300;
  auto ds = MakeGermanSyn(opt).value();
  const Table& t = *ds.db.GetTable("German").value();
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const int64_t status = t.At(r, 3).int_value();
    EXPECT_GE(status, 0);
    EXPECT_LE(status, 3);
    const int64_t credit = t.At(r, 8).int_value();
    EXPECT_TRUE(credit == 0 || credit == 1);
  }
}

TEST(GermanSynTest, DeterministicAcrossSeeds) {
  GermanOptions opt;
  opt.rows = 100;
  auto a = MakeGermanSyn(opt).value();
  auto b = MakeGermanSyn(opt).value();
  const Table& ta = *a.db.GetTable("German").value();
  const Table& tb = *b.db.GetTable("German").value();
  for (size_t r = 0; r < ta.num_rows(); ++r) {
    EXPECT_TRUE(ta.At(r, 8).Equals(tb.At(r, 8)));
  }
}

TEST(GermanSynTest, StatusRaisesCreditCausally) {
  GermanOptions opt;
  opt.rows = 3000;
  auto ds = MakeGermanSyn(opt).value();
  auto low = sql::ParseSql(
                 "Use German Update(Status) = 0 Output Avg(Post(Credit))")
                 .value();
  auto high = sql::ParseSql(
                  "Use German Update(Status) = 3 Output Avg(Post(Credit))")
                  .value();
  double p_low =
      baselines::GroundTruthWhatIf(ds.db, ds.scm, *low.whatif).value();
  double p_high =
      baselines::GroundTruthWhatIf(ds.db, ds.scm, *high.whatif).value();
  EXPECT_GT(p_high, p_low + 0.15);  // status has a large causal effect
}

TEST(GermanSynTest, IndepOverestimatesStatusEffect) {
  // The Figure 10a phenomenon: Age confounds Status and Credit, so the
  // correlational estimate of do(Status=3) exceeds the causal one.
  GermanOptions opt;
  opt.rows = 20000;
  auto ds = MakeGermanSyn(opt).value();
  auto stmt = sql::ParseSql(
                  "Use German Update(Status) = 3 Output Avg(Post(Credit))")
                  .value();
  const double truth =
      baselines::GroundTruthWhatIf(ds.db, ds.scm, *stmt.whatif).value();

  whatif::WhatIfOptions hyper_opt;
  hyper_opt.estimator = learn::EstimatorKind::kFrequency;
  auto hyper = whatif::WhatIfEngine(&ds.db, &ds.graph, hyper_opt)
                   .Run(*stmt.whatif)
                   .value();
  whatif::WhatIfOptions indep_opt = hyper_opt;
  indep_opt.backdoor = whatif::BackdoorMode::kUpdateOnly;
  auto indep = whatif::WhatIfEngine(&ds.db, &ds.graph, indep_opt)
                   .Run(*stmt.whatif)
                   .value();

  EXPECT_NEAR(hyper.value, truth, 0.04);        // HypeR tracks ground truth
  EXPECT_GT(indep.value, truth + 0.015);        // Indep inflated by Age
}

TEST(GermanSynTest, ContinuousVariantHasDoubleAmount) {
  GermanOptions opt;
  opt.rows = 200;
  opt.continuous_amount = true;
  auto ds = MakeGermanSyn(opt).value();
  const Table& t = *ds.db.GetTable("German").value();
  EXPECT_EQ(t.schema().attribute(7).type, ValueType::kDouble);
}

// ---------------------------------------------------------------------------
// Adult-Syn
// ---------------------------------------------------------------------------

TEST(AdultSynTest, MarriageDominatesIncome) {
  AdultOptions opt;
  opt.rows = 5000;
  auto ds = MakeAdultSyn(opt).value();
  auto married = sql::ParseSql(
                     "Use Adult Update(Marital) = 1 Output Avg(Post(Income))")
                     .value();
  auto single = sql::ParseSql(
                    "Use Adult Update(Marital) = 0 Output Avg(Post(Income))")
                    .value();
  const double p_married =
      baselines::GroundTruthWhatIf(ds.db, ds.scm, *married.whatif).value();
  const double p_single =
      baselines::GroundTruthWhatIf(ds.db, ds.scm, *single.whatif).value();
  // §5.3: ~38% when everyone is married, <9% when unmarried (we land at
  // roughly 38% / 10% — same order-of-magnitude gap).
  EXPECT_GT(p_married, 0.30);
  EXPECT_LT(p_single, 0.13);
}

TEST(AdultSynTest, WorkclassEffectIsSmall) {
  AdultOptions opt;
  opt.rows = 5000;
  auto ds = MakeAdultSyn(opt).value();
  auto lo = sql::ParseSql(
                "Use Adult Update(Workclass) = 0 Output Avg(Post(Income))")
                .value();
  auto hi = sql::ParseSql(
                "Use Adult Update(Workclass) = 2 Output Avg(Post(Income))")
                .value();
  const double gap =
      baselines::GroundTruthWhatIf(ds.db, ds.scm, *hi.whatif).value() -
      baselines::GroundTruthWhatIf(ds.db, ds.scm, *lo.whatif).value();
  EXPECT_GT(gap, 0.0);
  EXPECT_LT(gap, 0.08);  // much smaller than the marital gap
}

// ---------------------------------------------------------------------------
// Amazon-Syn
// ---------------------------------------------------------------------------

TEST(AmazonSynTest, TwoRelationsLinkedByPid) {
  AmazonOptions opt;
  opt.products = 200;
  opt.reviews_per_product = 6;
  auto ds = MakeAmazonSyn(opt).value();
  const Table& product = *ds.db.GetTable("Product").value();
  const Table& review = *ds.db.GetTable("Review").value();
  EXPECT_EQ(product.num_rows(), 200u);
  EXPECT_GT(review.num_rows(), 200u);
  // The flat image has one row per review.
  EXPECT_EQ(ds.flat.GetTable("FlatReview").value()->num_rows(),
            review.num_rows());
}

TEST(AmazonSynTest, QualityCorrelatesWithPrice) {
  AmazonOptions opt;
  opt.products = 1000;
  auto ds = MakeAmazonSyn(opt).value();
  const Table& t = *ds.db.GetTable("Product").value();
  // Average laptop price for top-quality vs bottom-quality halves.
  double hi_sum = 0, lo_sum = 0;
  size_t hi_n = 0, lo_n = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (!t.At(r, 1).Equals(Value::String("Laptop"))) continue;
    const double quality = t.At(r, 4).double_value();
    const double price = t.At(r, 5).double_value();
    if (quality > 0.65) {
      hi_sum += price;
      ++hi_n;
    } else if (quality < 0.55) {
      lo_sum += price;
      ++lo_n;
    }
  }
  ASSERT_GT(hi_n, 10u);
  ASSERT_GT(lo_n, 10u);
  EXPECT_GT(hi_sum / hi_n, lo_sum / lo_n + 50);
}

TEST(AmazonSynTest, PriceCutRaisesRatings) {
  // §5.3: reducing laptop prices raises average ratings. Run the engine on
  // the joined view (Figure 4 shape).
  AmazonOptions opt;
  opt.products = 800;
  opt.reviews_per_product = 8;
  auto ds = MakeAmazonSyn(opt).value();
  const std::string base =
      "Use V As (Select T1.PID, T1.Category, T1.Brand, T1.Price, "
      "T1.Quality, Avg(T2.Rating) As Rtng From Product As T1, Review As T2 "
      "Where T1.PID = T2.PID Group By T1.PID, T1.Category, T1.Brand, "
      "T1.Price, T1.Quality) When Category = 'Laptop' ";
  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kForest;
  options.forest.num_trees = 12;
  whatif::WhatIfEngine engine(&ds.db, &ds.graph, options);
  auto cheaper = engine.RunSql(base +
                               "Update(Price) = 0.6 * Pre(Price) "
                               "Output Avg(Post(Rtng)) "
                               "For Pre(Category) = 'Laptop'");
  ASSERT_TRUE(cheaper.ok()) << cheaper.status();
  auto pricier = engine.RunSql(base +
                               "Update(Price) = 1.4 * Pre(Price) "
                               "Output Avg(Post(Rtng)) "
                               "For Pre(Category) = 'Laptop'");
  ASSERT_TRUE(pricier.ok()) << pricier.status();
  EXPECT_GT(cheaper->value, pricier->value);
}

// ---------------------------------------------------------------------------
// Student-Syn
// ---------------------------------------------------------------------------

TEST(StudentSynTest, FiveCoursesPerStudent) {
  StudentOptions opt;
  opt.students = 150;
  auto ds = MakeStudentSyn(opt).value();
  EXPECT_EQ(ds.db.GetTable("Student").value()->num_rows(), 150u);
  EXPECT_EQ(ds.db.GetTable("Participation").value()->num_rows(), 750u);
  EXPECT_EQ(ds.flat.GetTable("FlatParticipation").value()->num_rows(), 750u);
  EXPECT_TRUE(ds.graph.HasCrossTupleEdges());  // SID links
}

TEST(StudentSynTest, AttendanceHasLargestTotalEffectOnGrade) {
  StudentOptions opt;
  opt.students = 800;
  auto ds = MakeStudentSyn(opt).value();
  // Ground-truth interventions on the flat image.
  auto effect = [&](const std::string& attr, const std::string& lo,
                    const std::string& hi) {
    auto q_lo = sql::ParseSql("Use FlatParticipation Update(" + attr +
                              ") = " + lo + " Output Avg(Post(Grade))")
                    .value();
    auto q_hi = sql::ParseSql("Use FlatParticipation Update(" + attr +
                              ") = " + hi + " Output Avg(Post(Grade))")
                    .value();
    return baselines::GroundTruthWhatIf(ds.flat, ds.scm, *q_hi.whatif)
               .value() -
           baselines::GroundTruthWhatIf(ds.flat, ds.scm, *q_lo.whatif)
               .value();
  };
  const double att = effect("Attendance", "40", "100");
  const double assign = effect("Assignment", "0", "100");
  const double disc = effect("Discussion", "0", "3");
  const double hand = effect("HandRaised", "0", "3");
  EXPECT_GT(att, 0);
  EXPECT_GT(assign, 0);
  // Attendance's total effect (direct + mediated) beats every single
  // participation attribute (§5.4).
  EXPECT_GT(att, assign);
  EXPECT_GT(att, disc);
  EXPECT_GT(att, hand);
}

// ---------------------------------------------------------------------------
// Single-table datasets hold their rows once: `db` and `flat` share one
// table, and a write through either copies it first (copy-on-write).
// ---------------------------------------------------------------------------

void ExpectOneTableCopyOnWrite(Dataset& ds, const std::string& relation) {
  ASSERT_EQ(ds.db.GetTable(relation).value(),
            ds.flat.GetTable(relation).value());
  const Value first = ds.db.GetTable(relation).value()->At(0, 1);

  ds.db.GetMutableTable(relation).value()->SetValue(0, 1, Value::Int(99));
  EXPECT_EQ(Value::Int(99), ds.db.GetTable(relation).value()->At(0, 1));
  EXPECT_EQ(first, ds.flat.GetTable(relation).value()->At(0, 1));

  ds.flat.GetMutableTable(relation).value()->SetValue(1, 1, Value::Int(98));
  EXPECT_EQ(Value::Int(98), ds.flat.GetTable(relation).value()->At(1, 1));
  EXPECT_NE(Value::Int(98), ds.db.GetTable(relation).value()->At(1, 1));
}

TEST(SharedFlatTableTest, GermanWritesDoNotLeakBetweenDbAndFlat) {
  GermanOptions opt;
  opt.rows = 50;
  auto ds = MakeGermanSyn(opt).value();
  ExpectOneTableCopyOnWrite(ds, "German");
}

TEST(SharedFlatTableTest, AdultWritesDoNotLeakBetweenDbAndFlat) {
  AdultOptions opt;
  opt.rows = 50;
  auto ds = MakeAdultSyn(opt).value();
  ExpectOneTableCopyOnWrite(ds, "Adult");
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, AllNamesResolve) {
  for (const char* name :
       {"german", "german-syn-20k", "german-syn-20k-continuous", "adult",
        "amazon", "student-syn"}) {
    auto ds = MakeByName(name, /*scale=*/0.05);
    ASSERT_TRUE(ds.ok()) << name << ": " << ds.status();
    EXPECT_GT(ds->db.TotalRows(), 0u) << name;
  }
}

TEST(RegistryTest, ScaleShrinksRows) {
  auto small = MakeByName("german-syn-20k", 0.05).value();
  auto large = MakeByName("german-syn-20k", 0.2).value();
  EXPECT_LT(small.db.TotalRows(), large.db.TotalRows());
}

TEST(RegistryTest, UnknownNameErrors) {
  EXPECT_EQ(MakeByName("nope").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace hyper::data
