// Golden answers: every query below runs on the engine and is compared, bit
// for bit, against tests/golden/answers.txt (format in golden_cases.h).
// Each case runs at 1 and 4 threads, with the SIMD kernels at their default
// level and again forced to the scalar mirror; every run must reproduce the
// committed line exactly. The file lists exactly one line per case: a
// missing or extra line fails.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"
#include "golden_cases.h"
#include "howto/engine.h"
#include "sql/parser.h"
#include "whatif/engine.h"

namespace hyper::golden {
namespace {

struct Config {
  size_t threads;
  bool force_scalar;
  std::string Name() const {
    return "threads=" + std::to_string(threads) +
           (force_scalar ? " simd=scalar" : " simd=default");
  }
};

const Config kConfigs[] = {{1, false}, {4, false}, {1, true}, {4, true}};

/// Sets the process-wide SIMD level for one config; restores it on exit.
class ScopedConfig {
 public:
  explicit ScopedConfig(const Config& config) : saved_(simd::ForceScalar()) {
    simd::SetForceScalar(config.force_scalar);
  }
  ~ScopedConfig() { simd::SetForceScalar(saved_); }

 private:
  bool saved_;
};

// ---------------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------------

const data::Dataset& German1500() {
  static const data::Dataset* ds = [] {
    data::GermanOptions options;
    options.rows = 1500;
    return new data::Dataset(std::move(data::MakeGermanSyn(options).value()));
  }();
  return *ds;
}

const data::Dataset& Amazon200() {
  static const data::Dataset* ds = [] {
    data::AmazonOptions options;
    options.products = 200;
    options.reviews_per_product = 4;
    return new data::Dataset(std::move(data::MakeAmazonSyn(options).value()));
  }();
  return *ds;
}

/// A cross-tuple market (the integration suite's CrossTupleFixture data):
/// 40 markets x 12 products, ratings respond to the market mean price, and
/// the graph links Price -> Rating through Category, so the §3.3 blocks are
/// the 40 markets. Rows are appended product-major (row r is market r % 40),
/// so every block is 12 rows spread across the whole table.
const data::Dataset& Market480() {
  static const data::Dataset* ds = [] {
    constexpr int kMarkets = 40;
    constexpr int kProductsPerMarket = 12;
    struct Product {
      int pid, market, price, rating;
    };
    std::vector<Product> products;
    Rng rng(3);
    int pid = 0;
    for (int m = 0; m < kMarkets; ++m) {
      const double level = 0.1 + 0.8 * m / (kMarkets - 1);
      std::vector<int> prices;
      double mean = 0;
      for (int i = 0; i < kProductsPerMarket; ++i) {
        prices.push_back(rng.Bernoulli(level) ? 1 : 0);
        mean += prices.back();
      }
      mean /= kProductsPerMarket;
      for (int i = 0; i < kProductsPerMarket; ++i) {
        const int rating = rng.Bernoulli(0.85 - 0.55 * mean) ? 1 : 0;
        products.push_back({pid++, m, prices[i], rating});
      }
    }
    Table table(Schema(
        "Product",
        {{"PID", ValueType::kInt, Mutability::kImmutable},
         {"Category", ValueType::kString, Mutability::kImmutable},
         {"Brand", ValueType::kString, Mutability::kImmutable},
         {"Price", ValueType::kInt, Mutability::kMutable},
         {"Rating", ValueType::kInt, Mutability::kMutable}},
        {"PID"}));
    for (int i = 0; i < kProductsPerMarket; ++i) {
      for (int m = 0; m < kMarkets; ++m) {
        const Product& p = products[m * kProductsPerMarket + i];
        table.AppendUnchecked({Value::Int(p.pid),
                               Value::String("M" + std::to_string(p.market)),
                               Value::String(i % 2 ? "Asus" : "Vaio"),
                               Value::Int(p.price), Value::Int(p.rating)});
      }
    }
    auto* market = new data::Dataset();
    market->name = "market480";
    HYPER_CHECK(market->db.AddTable(std::move(table)).ok());
    market->graph.AddEdge("Price", "Rating", "Category");
    return market;
  }();
  return *ds;
}

struct WhatIfCase {
  std::string id;
  const data::Dataset* ds;
  std::string sql;
  whatif::WhatIfOptions options;
};

std::vector<WhatIfCase> WhatIfCases() {
  std::vector<WhatIfCase> cases;
  // german-syn, both estimators, across the query shapes: Count with and
  // without For, Avg with For, Sum over a When selection, a second When
  // (a Set update despite its id), and the For shapes whose holes vary by
  // row: a disjunction that folds to true on some rows, a hole with one
  // value per Housing level, a hole over the update attribute's post image,
  // and a scale update under a row-varying hole.
  const std::pair<const char*, const char*> german_queries[] = {
      {"count-for", "Use German Update(Status) = 3 Output Count(Credit = 1) "
                    "For Pre(Age) = 1"},
      {"count-nofor",
       "Use German Update(Status) = 3 Output Count(Credit = 1)"},
      {"avg", "Use German Update(Status) = 3 Output Avg(Credit) "
              "For Pre(Age) = 1"},
      {"sum-when", "Use German When Age = 1 Update(Status) = 2 "
                   "Output Sum(Credit)"},
      {"scale", "Use German When Sex = 1 Update(Status) = 2 "
                "Output Count(Credit = 1)"},
      {"or-for", "Use German Update(Status) = 3 Output Avg(Post(Credit)) "
                 "For Post(Credit) = 1 Or Pre(Age) = 1"},
      {"atom-for", "Use German Update(Status) = 3 Output Count(Credit = 1) "
                   "For Post(Credit) = Pre(Housing)"},
      {"post-hole", "Use German When Sex = 1 Update(Status) = 3 "
                    "Output Count(Credit = 1) "
                    "For Post(Status) = 3 And Pre(Age) = 1"},
      {"scale-for", "Use German When Sex = 1 Update(Status) = 2 * Pre(Status) "
                    "Output Sum(Post(Credit)) For Pre(Age) = 1"},
  };
  for (learn::EstimatorKind estimator :
       {learn::EstimatorKind::kFrequency, learn::EstimatorKind::kForest}) {
    for (const auto& [name, sql] : german_queries) {
      WhatIfCase c;
      c.id = std::string("whatif.german1500.") +
             learn::EstimatorKindName(estimator) + "." + name;
      c.ds = &German1500();
      c.sql = sql;
      c.options.estimator = estimator;
      c.options.forest.num_trees = 4;
      cases.push_back(std::move(c));
    }
  }
  // A When selection plus a For on a pre-update confounder, both
  // estimators.
  for (learn::EstimatorKind estimator :
       {learn::EstimatorKind::kForest, learn::EstimatorKind::kFrequency}) {
    WhatIfCase c;
    c.id = std::string("whatif.german1500.when-for.") +
           learn::EstimatorKindName(estimator);
    c.ds = &German1500();
    c.sql =
        "Use German When Status = 1 Update(Status) = 2 "
        "Output Count(Credit = 1) For Pre(Age) = 1";
    c.options.estimator = estimator;
    c.options.forest.num_trees = 6;
    cases.push_back(std::move(c));
  }
  // A joined, aggregated view (one row and one block per product) under
  // every backdoor mode.
  for (whatif::BackdoorMode mode :
       {whatif::BackdoorMode::kGraph, whatif::BackdoorMode::kAllAttributes,
        whatif::BackdoorMode::kUpdateOnly}) {
    WhatIfCase c;
    c.id = std::string("whatif.amazon200.") + whatif::BackdoorModeName(mode);
    c.ds = &Amazon200();
    c.sql =
        "Use V As (Select T1.PID, T1.Category, T1.Brand, T1.Price, "
        "T1.Quality, Avg(T2.Rating) As Rtng From Product As T1, Review As T2 "
        "Where T1.PID = T2.PID Group By T1.PID, T1.Category, T1.Brand, "
        "T1.Price, T1.Quality) "
        "When Category = 'Laptop' Update(Price) = 1.1 * Pre(Price) "
        "Output Count(Rtng >= 4) For Pre(Category) = 'Laptop'";
    c.options.estimator = learn::EstimatorKind::kForest;
    c.options.forest.num_trees = 4;
    c.options.backdoor = mode;
    cases.push_back(std::move(c));
  }
  // Multi-row, non-contiguous blocks, both estimators: Pass B folds each
  // market's rows into a block partial and merges the partials in block
  // order, which differs from a row-order fold in the last bits.
  const std::pair<const char*, const char*> market_queries[] = {
      {"count", "Use Product When Brand = 'Asus' Update(Price) = 1 "
                "Output Count(Rating = 1)"},
      {"avg-for", "Use Product When Brand = 'Asus' Update(Price) = 1 "
                  "Output Avg(Post(Rating)) For Pre(Brand) = 'Vaio'"},
      {"sum", "Use Product Update(Price) = 0 Output Sum(Post(Rating))"},
  };
  for (learn::EstimatorKind estimator :
       {learn::EstimatorKind::kFrequency, learn::EstimatorKind::kForest}) {
    for (const auto& [name, sql] : market_queries) {
      WhatIfCase c;
      c.id = std::string("whatif.market480.") +
             learn::EstimatorKindName(estimator) + "." + name;
      c.ds = &Market480();
      c.sql = sql;
      c.options.estimator = estimator;
      c.options.forest.num_trees = 8;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

struct HowToCase {
  std::string id;
  std::string sql;
  howto::HowToOptions options;
};

std::vector<HowToCase> HowToCases() {
  std::vector<HowToCase> cases;
  for (learn::EstimatorKind estimator :
       {learn::EstimatorKind::kFrequency, learn::EstimatorKind::kForest}) {
    HowToCase c;
    c.id = std::string("howto.german800.status.") +
           learn::EstimatorKindName(estimator);
    c.sql = "Use German HowToUpdate Status ToMaximize Count(Credit = 1)";
    c.options.whatif.backdoor = whatif::BackdoorMode::kGraph;
    c.options.whatif.estimator = estimator;
    c.options.whatif.forest.num_trees = 4;
    cases.push_back(std::move(c));
  }
  return cases;
}

const data::Dataset& GermanContinuous20k() {
  static const data::Dataset* ds = [] {
    data::GermanOptions options;
    options.rows = 20000;
    options.continuous_amount = true;
    return new data::Dataset(std::move(data::MakeGermanSyn(options).value()));
  }();
  return *ds;
}

struct HowToEnumCase {
  std::string id;
  const data::Dataset* ds;
  std::string sql;
  howto::HowToOptions options;
};

/// The candidate space itself: each candidate's constant, L1 cost and
/// pruned flag, across the enumeration paths — a When selection, every
/// Limit kind, integer subsampling, equi-width doubles, strings (first 64
/// distinct values, sorted; an In set with an unseen string), a joined
/// view, and budget pruning.
std::vector<HowToEnumCase> HowToEnumCases() {
  std::vector<HowToEnumCase> cases;
  auto add = [&](const std::string& id, const data::Dataset& ds,
                 const std::string& sql, howto::HowToOptions options) {
    cases.push_back({"howto.enum." + id, &ds, sql, std::move(options)});
  };
  howto::HowToOptions german;
  german.whatif.estimator = learn::EstimatorKind::kFrequency;
  const std::string objective = " ToMaximize Count(Credit = 1)";
  add("german800.when-two-attrs", German800(),
      "Use German When Age = 0 HowToUpdate Status, Savings" + objective,
      german);
  howto::HowToOptions budgeted = german;
  budgeted.global_l1_budget = 0.75;
  add("german800.when-two-attrs-budget", German800(),
      "Use German When Age = 0 HowToUpdate Status, Savings" + objective,
      budgeted);
  add("german800.abs-range", German800(),
      "Use German HowToUpdate Status Limit 1 <= Post(Status) <= 2" + objective,
      german);
  add("german800.rel-shift", German800(),
      "Use German HowToUpdate Savings "
      "Limit Post(Savings) <= Pre(Savings) + 1" + objective,
      german);
  add("german800.rel-scale", German800(),
      "Use German HowToUpdate Savings "
      "Limit Post(Savings) >= Pre(Savings) * 0.5" + objective,
      german);
  add("german800.l1", German800(),
      "Use German HowToUpdate Status "
      "Limit L1(Pre(Status), Post(Status)) <= 0.9" + objective,
      german);
  add("german800.in-set", German800(),
      "Use German HowToUpdate Status Limit Post(Status) In (1, 3)" + objective,
      german);
  howto::HowToOptions three_buckets = german;
  three_buckets.num_buckets = 3;  // four distinct CreditAmount levels
  add("german800.credit-amount-subsampled", German800(),
      "Use German HowToUpdate CreditAmount" + objective, three_buckets);
  add("german20k-continuous.credit-amount", GermanContinuous20k(),
      "Use German HowToUpdate CreditAmount" + objective, german);

  howto::HowToOptions amazon;
  amazon.whatif.estimator = learn::EstimatorKind::kForest;
  amazon.whatif.forest.num_trees = 4;
  amazon.whatif.backdoor = whatif::BackdoorMode::kAllAttributes;
  add("amazon200.when-color-price", Amazon200(),
      "Use Product When Brand = 'Asus' HowToUpdate Color, Price "
      "ToMaximize Avg(Post(Quality))",
      amazon);
  add("amazon200.color-in-set", Amazon200(),
      "Use Product HowToUpdate Color Limit Post(Color) In ('Red', 'Zzz') "
      "ToMaximize Avg(Post(Price))",
      amazon);
  add("amazon200.view", Amazon200(),
      "Use V As (Select T1.PID, T1.Category, T1.Brand, T1.Color, T1.Price, "
      "T1.Quality, Avg(T2.Rating) As Rtng From Product As T1, Review As T2 "
      "Where T1.PID = T2.PID Group By T1.PID, T1.Category, T1.Brand, "
      "T1.Color, T1.Price, T1.Quality) "
      "When Category = 'Laptop' HowToUpdate Price, Color "
      "ToMaximize Count(Rtng >= 4)",
      amazon);
  return cases;
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

TEST(GoldenTest, FileHoldsExactlyOneLinePerCase) {
  const GoldenFile file = LoadGoldens();
  for (const std::string& id : file.duplicate_ids) {
    ADD_FAILURE() << "duplicate golden line: " << id;
  }
  std::set<std::string> expected;
  for (const WhatIfCase& c : WhatIfCases()) expected.insert(c.id);
  for (const HowToCase& c : HowToCases()) expected.insert(c.id);
  for (const HowToEnumCase& c : HowToEnumCases()) expected.insert(c.id);
  for (const std::string& id : ServiceCaseIds()) expected.insert(id);
  for (const std::string& id : expected) {
    EXPECT_TRUE(file.line_of.count(id) > 0) << "missing golden line: " << id;
  }
  for (const auto& [id, line] : file.line_of) {
    EXPECT_TRUE(expected.count(id) > 0) << "extra golden line: " << id;
  }
}

TEST(GoldenTest, WhatIfEngineAnswersMatch) {
  const GoldenFile file = LoadGoldens();
  for (const Config& config : kConfigs) {
    ScopedConfig scoped(config);
    for (const WhatIfCase& c : WhatIfCases()) {
      whatif::WhatIfOptions options = c.options;
      options.num_threads = config.threads;
      whatif::WhatIfEngine engine(&c.ds->db, &c.ds->graph, options);
      auto result = engine.RunSql(c.sql);
      ASSERT_TRUE(result.ok()) << c.id << ": " << result.status();
      ExpectGolden(file, WhatIfLine(c.id, *result), config.Name());
    }
  }
}

/// The |S| of an Explain text's When line ("S has N tuple(s)" or "S = all N
/// tuples"), or -1 when the text has neither.
long long ExplainedS(const std::string& plan) {
  for (const char* marker : {"S has ", "S = all "}) {
    const size_t at = plan.find(marker);
    if (at != std::string::npos) {
      return std::stoll(plan.substr(at + std::strlen(marker)));
    }
  }
  return -1;
}

/// The adjustment sets of an Explain text: the "{...}" of every
/// "adjust (...)" line, in order.
std::vector<std::string> ExplainedAdjustSets(const std::string& plan) {
  std::vector<std::string> sets;
  for (size_t at = plan.find("adjust ("); at != std::string::npos;
       at = plan.find("adjust (", at + 1)) {
    const size_t open = plan.find('{', at);
    const size_t close = plan.find('}', open);
    sets.push_back(plan.substr(open + 1, close - open - 1));
  }
  return sets;
}

TEST(GoldenTest, ExplainReportsThePlanRunUses) {
  for (const WhatIfCase& c : WhatIfCases()) {
    whatif::WhatIfEngine engine(&c.ds->db, &c.ds->graph, c.options);
    auto run = engine.RunSql(c.sql);
    ASSERT_TRUE(run.ok()) << c.id << ": " << run.status();
    auto plan = engine.ExplainSql(c.sql);
    ASSERT_TRUE(plan.ok()) << c.id << ": " << plan.status();
    EXPECT_EQ(ExplainedS(*plan), static_cast<long long>(run->updated_rows))
        << c.id << "\n" << *plan;
    EXPECT_EQ(ExplainedAdjustSets(*plan),
              std::vector<std::string>{Join(run->backdoor, ", ")})
        << c.id << "\n" << *plan;
  }
}

TEST(GoldenTest, ScenarioBranchAnswersMatch) {
  const GoldenFile file = LoadGoldens();
  for (const Config& config : kConfigs) {
    ScopedConfig scoped(config);
    whatif::WhatIfOptions options = ServiceCaseOptions();
    options.num_threads = config.threads;
    for (const std::string& line : ServiceCaseLines(options, config.threads)) {
      ExpectGolden(file, line, config.Name());
    }
  }
}

TEST(GoldenTest, HowToAnswersMatch) {
  const GoldenFile file = LoadGoldens();
  const data::Dataset& ds = German800();
  for (const Config& config : kConfigs) {
    ScopedConfig scoped(config);
    for (const HowToCase& c : HowToCases()) {
      howto::HowToOptions options = c.options;
      options.whatif.num_threads = config.threads;
      howto::HowToEngine engine(&ds.db, &ds.graph, options);
      auto result = engine.RunSql(c.sql);
      ASSERT_TRUE(result.ok()) << c.id << ": " << result.status();
      ExpectGolden(file, HowToLine(c.id, *result), config.Name());
    }
  }
}

TEST(GoldenTest, HowToCandidateSpacesMatch) {
  const GoldenFile file = LoadGoldens();
  for (const Config& config : kConfigs) {
    ScopedConfig scoped(config);
    for (const HowToEnumCase& c : HowToEnumCases()) {
      howto::HowToOptions options = c.options;
      options.whatif.num_threads = config.threads;
      howto::HowToEngine engine(&c.ds->db, &c.ds->graph, options);
      auto result = engine.RunSql(c.sql);
      ASSERT_TRUE(result.ok()) << c.id << ": " << result.status();
      ExpectGolden(file, HowToEnumLine(c.id, *result), config.Name());
    }
  }
}

}  // namespace
}  // namespace hyper::golden
