#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "data/datasets.h"
#include "golden_cases.h"
#include "howto/engine.h"
#include "learn/forest.h"
#include "net/query_handler.h"
#include "relational/eval.h"
#include "service/scenario_service.h"
#include "sql/parser.h"
#include "whatif/engine.h"

namespace hyper::service {
namespace {

// The cache-correctness contract under test: every answer produced through
// the service / prepared-plan / batch machinery must be BIT-FOR-BIT equal
// (==, not NEAR) to a fresh single-query WhatIfEngine::Run.

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() {
    data::GermanOptions options;
    options.rows = 800;
    options.seed = 11;
    auto ds = data::MakeGermanSyn(options);
    EXPECT_TRUE(ds.ok()) << ds.status();
    db_ = std::move(ds->db);
    graph_ = std::move(ds->graph);
  }

  whatif::WhatIfOptions EngineOptions(whatif::BackdoorMode mode,
                                      learn::EstimatorKind estimator) const {
    whatif::WhatIfOptions options;
    options.backdoor = mode;
    options.estimator = estimator;
    options.forest.num_trees = 4;  // keep forest runs quick
    return options;
  }

  std::unique_ptr<ScenarioService> MakeService(
      const whatif::WhatIfOptions& whatif_options, size_t capacity = 64,
      size_t num_threads = 1) const {
    ServiceOptions options;
    options.whatif = whatif_options;
    options.plan_cache_capacity = capacity;
    options.num_threads = num_threads;
    return std::make_unique<ScenarioService>(db_, graph_, options);
  }

  double FreshRun(const std::string& query,
                  const whatif::WhatIfOptions& options) const {
    whatif::WhatIfEngine engine(&db_, &graph_, options);
    auto result = engine.RunSql(query);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->value;
  }

  Database db_;
  causal::CausalGraph graph_;
};

constexpr const char* kQuery =
    "Use German When Status = 1 Update(Status) = 2 Output Count(Credit = 1)";
constexpr const char* kAvgQuery =
    "Use German When Age = 1 Update(Savings) = 2 Output Avg(Post(Credit))";

// --- cached-vs-uncached bit-equality across modes and estimators ----------

TEST_F(ServiceTest, CachedAnswersBitEqualAcrossModesAndEstimators) {
  const whatif::BackdoorMode modes[] = {
      whatif::BackdoorMode::kGraph, whatif::BackdoorMode::kAllAttributes,
      whatif::BackdoorMode::kUpdateOnly};
  const learn::EstimatorKind estimators[] = {learn::EstimatorKind::kFrequency,
                                             learn::EstimatorKind::kForest};
  for (whatif::BackdoorMode mode : modes) {
    for (learn::EstimatorKind estimator : estimators) {
      const whatif::WhatIfOptions options = EngineOptions(mode, estimator);
      const double expected = FreshRun(kQuery, options);

      auto service = MakeService(options);
      Response cold = service->Submit({"main", kQuery, {}});
      ASSERT_TRUE(cold.ok()) << cold.status;
      Response warm = service->Submit({"main", kQuery, {}});
      ASSERT_TRUE(warm.ok()) << warm.status;

      EXPECT_EQ(expected, cold.whatif.value)
          << whatif::BackdoorModeName(mode) << "/"
          << learn::EstimatorKindName(estimator);
      EXPECT_EQ(expected, warm.whatif.value)
          << whatif::BackdoorModeName(mode) << "/"
          << learn::EstimatorKindName(estimator);
      EXPECT_FALSE(cold.whatif.plan_cache_hit);
      EXPECT_TRUE(warm.whatif.plan_cache_hit);
      EXPECT_GT(warm.whatif.pattern_cache_hits, 0u);
      EXPECT_EQ(0.0, warm.whatif.train_seconds);
    }
  }
}

TEST_F(ServiceTest, ForestSeedFieldSharesThePlan) {
  // The engine derives every forest's seed from WhatIfOptions::seed, so a
  // request that differs only in forest.seed trains the same estimators and
  // must hit the first request's plan.
  whatif::WhatIfOptions first_options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  whatif::WhatIfOptions second_options = first_options;
  second_options.forest.seed = first_options.forest.seed + 1;
  auto service = MakeService(first_options);
  Response first = service->Submit({"main", kAvgQuery, first_options});
  ASSERT_TRUE(first.ok()) << first.status;
  Response second = service->Submit({"main", kAvgQuery, second_options});
  ASSERT_TRUE(second.ok()) << second.status;
  EXPECT_FALSE(first.whatif.plan_cache_hit);
  EXPECT_TRUE(second.whatif.plan_cache_hit);
  uint64_t first_bits = 0, second_bits = 0;
  std::memcpy(&first_bits, &first.whatif.value, sizeof(first_bits));
  std::memcpy(&second_bits, &second.whatif.value, sizeof(second_bits));
  EXPECT_EQ(first_bits, second_bits);
}

TEST_F(ServiceTest, AvgOutputCachedBitEqual) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  const double expected = FreshRun(kAvgQuery, options);
  auto service = MakeService(options);
  EXPECT_EQ(expected, service->Submit({"main", kAvgQuery, {}}).whatif.value);
  EXPECT_EQ(expected, service->Submit({"main", kAvgQuery, {}}).whatif.value);
}

// --- prepared plans and batched evaluation --------------------------------

TEST_F(ServiceTest, EvaluateBatchMatchesFreshRuns) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  whatif::WhatIfEngine engine(&db_, &graph_, options);

  std::vector<std::vector<whatif::UpdateSpec>> interventions;
  for (int v = 0; v <= 3; ++v) {
    whatif::UpdateSpec spec;
    spec.attribute = "Status";
    spec.func = sql::UpdateFuncKind::kSet;
    spec.constant = Value::Int(v);
    interventions.push_back({spec});
  }
  // Without a For clause, and with one whose hole reads only the pre image:
  // that plan resolves each row's residual entry once, and the four
  // interventions read those entries concurrently.
  for (const std::string for_clause : {"", " For Pre(Age) = 1"}) {
    auto stmt = sql::ParseSql(std::string(kQuery) + for_clause);
    ASSERT_TRUE(stmt.ok());
    auto plan = engine.Prepare(*stmt->whatif);
    ASSERT_TRUE(plan.ok()) << plan.status();

    auto batch = engine.EvaluateBatch(**plan, interventions);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(4u, batch->size());

    for (int v = 0; v <= 3; ++v) {
      const double expected = FreshRun(
          "Use German When Status = 1 Update(Status) = " + std::to_string(v) +
              " Output Count(Credit = 1)" + for_clause,
          options);
      EXPECT_EQ(expected, (*batch)[v].value)
          << "Status <- " << v << for_clause;
    }
  }
}

TEST_F(ServiceTest, SubmitWhatIfBatchMatchesSingles) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  auto service = MakeService(options);

  Request sweep{"main", kQuery, {}};
  sweep.expected_kind = Response::Kind::kWhatIfBatch;

  // An empty sweep still prepares the plan and answers zero items.
  const Response empty = service->Submit(sweep);
  ASSERT_TRUE(empty.ok()) << empty.status;
  EXPECT_TRUE(empty.items.empty());
  EXPECT_EQ(1u, service->cache_stats().misses);

  for (int v = 0; v <= 3; ++v) {
    whatif::UpdateSpec spec;
    spec.attribute = "Status";
    spec.func = sql::UpdateFuncKind::kSet;
    spec.constant = Value::Int(v);
    sweep.interventions.push_back({spec});
  }
  const Response batch = service->Submit(sweep);
  ASSERT_TRUE(batch.ok()) << batch.status;
  EXPECT_EQ(Response::Kind::kWhatIfBatch, batch.kind);
  ASSERT_EQ(4u, batch.items.size());

  for (int v = 0; v <= 3; ++v) {
    const double expected = FreshRun(
        "Use German When Status = 1 Update(Status) = " + std::to_string(v) +
            " Output Count(Credit = 1)",
        options);
    ASSERT_TRUE(batch.items[v].ok()) << batch.items[v].status;
    EXPECT_EQ(expected, batch.items[v].result.value) << "Status <- " << v;
  }
}

// --- scenario branches ----------------------------------------------------

TEST_F(ServiceTest, BranchIsolation) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options);
  const double main_before = service->Submit({"main", kQuery, {}}).whatif.value;

  ASSERT_TRUE(service->CreateScenario("b1", "main").ok());
  auto updated = service->ApplyHypotheticalSql(
      "b1", "Use German When Savings = 0 Update(Credit) = 0 Output Count(*)");
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_GT(*updated, 0u);

  const double b1_value = service->Submit({"b1", kQuery, {}}).whatif.value;
  const double main_after = service->Submit({"main", kQuery, {}}).whatif.value;
  EXPECT_EQ(main_before, main_after);  // updates never leak out of b1
  EXPECT_NE(main_before, b1_value);    // ...and b1 sees its own world

  // A sibling branched from main stays at the pre-update world; a child
  // branched from b1 inherits (chains) its deltas.
  ASSERT_TRUE(service->CreateScenario("b2", "main").ok());
  EXPECT_EQ(main_before, service->Submit({"b2", kQuery, {}}).whatif.value);
  ASSERT_TRUE(service->CreateScenario("b1-child", "b1").ok());
  EXPECT_EQ(b1_value,
            service->Submit({"b1-child", kQuery, {}}).whatif.value);

  // Chained update on the child only.
  auto chained = service->ApplyHypotheticalSql(
      "b1-child",
      "Use German When Savings = 1 Update(Credit) = 0 Output Count(*)");
  ASSERT_TRUE(chained.ok()) << chained.status();
  EXPECT_EQ(b1_value, service->Submit({"b1", kQuery, {}}).whatif.value);
  EXPECT_NE(b1_value,
            service->Submit({"b1-child", kQuery, {}}).whatif.value);
}

TEST_F(ServiceTest, BranchManagementErrors) {
  auto service = MakeService(EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency));
  EXPECT_FALSE(service->DropScenario("main").ok());
  EXPECT_FALSE(service->CreateScenario("x", "nope").ok());
  ASSERT_TRUE(service->CreateScenario("x").ok());
  EXPECT_FALSE(service->CreateScenario("x").ok());
  EXPECT_TRUE(service->DropScenario("x").ok());
  EXPECT_FALSE(service->Submit({"ghost", kQuery, {}}).ok());
  // Immutable attributes reject hypothetical updates.
  auto bad = service->ApplyHypotheticalSql(
      "main", "Use German Update(Age) = 1 Output Count(*)");
  EXPECT_FALSE(bad.ok());
}

TEST_F(ServiceTest, EmptyHypotheticalKeepsCachedPlans) {
  auto service = MakeService(EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency));
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());
  // When selects nothing: the world is data-identical, so the branch must
  // not invalidate (no version bump, no fingerprint change) and the next
  // submit still hits the cached plan.
  auto updated = service->ApplyHypotheticalSql(
      "main", "Use German When Status = 99 Update(Status) = 2 "
              "Output Count(*)");
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_EQ(0u, *updated);
  EXPECT_TRUE(service->Submit({"main", kQuery, {}}).whatif.plan_cache_hit);
}

// --- the QueryStage is the plan ------------------------------------------

// A warm what-if is one lookup: the QueryStage (the plan) hits, and no
// upstream section is consulted.
TEST_F(ServiceTest, WarmWhatIfIsOneQueryLookup) {
  auto service = MakeService(EngineOptions(whatif::BackdoorMode::kGraph,
                                           learn::EstimatorKind::kFrequency));
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());
  const PlanCacheStats cold = service->cache_stats();
  Response warm = service->Submit({"main", kQuery, {}});
  ASSERT_TRUE(warm.ok()) << warm.status;
  EXPECT_TRUE(warm.whatif.plan_cache_hit);
  const PlanCacheStats after = service->cache_stats();

  EXPECT_EQ(cold.query.hits + 1, after.query.hits);
  EXPECT_EQ(cold.query.misses, after.query.misses);
  EXPECT_EQ(cold.query.coalesced, after.query.coalesced);
  const std::pair<const StageStats*, const StageStats*> upstream[] = {
      {&cold.scope, &after.scope},
      {&cold.causal, &after.causal},
      {&cold.learn, &after.learn}};
  for (const auto& [before, now] : upstream) {
    EXPECT_EQ(before->hits, now->hits);
    EXPECT_EQ(before->misses, now->misses);
    EXPECT_EQ(before->coalesced, now->coalesced);
  }
}

// The estimator config is part of the plan key: two requests that differ
// only in the estimator build two QueryStages (and two LearnStages) over
// one ScopeStage and one CausalStage, and each answers like a fresh run.
TEST_F(ServiceTest, EstimatorVariantsShareScopeAndCausalStages) {
  const whatif::WhatIfOptions frequency = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  const whatif::WhatIfOptions forest = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  auto service = MakeService(frequency);
  Response a = service->Submit({"main", kQuery, frequency});
  ASSERT_TRUE(a.ok()) << a.status;
  Response b = service->Submit({"main", kQuery, forest});
  ASSERT_TRUE(b.ok()) << b.status;
  EXPECT_FALSE(b.whatif.plan_cache_hit);

  const PlanCacheStats stats = service->cache_stats();
  EXPECT_EQ(2u, stats.query.misses);
  EXPECT_EQ(2u, stats.query.entries);
  EXPECT_EQ(2u, stats.learn.misses);
  EXPECT_EQ(1u, stats.scope.misses);
  EXPECT_EQ(1u, stats.causal.misses);
  EXPECT_EQ(FreshRun(kQuery, frequency), a.whatif.value);
  EXPECT_EQ(FreshRun(kQuery, forest), b.whatif.value);
}

// --- LRU eviction ---------------------------------------------------------

TEST_F(ServiceTest, LruEvictionUnderSmallCapacity) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options, /*capacity=*/2);

  const std::string queries[] = {
      "Use German When Status = 0 Update(Status) = 2 Output Count(Credit = 1)",
      "Use German When Status = 1 Update(Status) = 2 Output Count(Credit = 1)",
      "Use German When Status = 2 Update(Status) = 3 Output Count(Credit = 1)",
  };
  for (const std::string& q : queries) {
    ASSERT_TRUE(service->Submit({"main", q, {}}).ok());
  }
  PlanCacheStats stats = service->cache_stats();
  EXPECT_EQ(2u, stats.query.entries);
  EXPECT_EQ(1u, stats.query.evictions);
  EXPECT_EQ(3u, stats.misses);

  // The oldest entry was evicted: re-submitting it misses (and evicts the
  // next-oldest), and the answer is still bit-identical to a fresh run.
  Response again = service->Submit({"main", queries[0], {}});
  EXPECT_FALSE(again.whatif.plan_cache_hit);
  EXPECT_EQ(FreshRun(queries[0], options), again.whatif.value);
  stats = service->cache_stats();
  EXPECT_EQ(4u, stats.misses);
  EXPECT_EQ(2u, stats.query.evictions);

  // The most recent entry is still cached.
  EXPECT_TRUE(service->Submit({"main", queries[2], {}}).whatif.plan_cache_hit);
}

TEST_F(ServiceTest, CapacityZeroDisablesCaching) {
  auto service = MakeService(
      EngineOptions(whatif::BackdoorMode::kGraph,
                    learn::EstimatorKind::kFrequency),
      /*capacity=*/0);
  EXPECT_FALSE(service->Submit({"main", kQuery, {}}).whatif.plan_cache_hit);
  EXPECT_FALSE(service->Submit({"main", kQuery, {}}).whatif.plan_cache_hit);
  EXPECT_EQ(0u, service->cache_stats().query.entries);
}

// --- concurrency ----------------------------------------------------------

TEST_F(ServiceTest, ConcurrentSubmitDeterminism) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);

  // Reference values from fresh single-query runs.
  std::vector<std::string> queries;
  std::vector<double> expected;
  for (const std::string for_clause : {"", " For Pre(Age) = 1"}) {
    for (int v = 0; v <= 3; ++v) {
      queries.push_back("Use German When Status = 1 Update(Status) = " +
                        std::to_string(v) + " Output Count(Credit = 1)" +
                        for_clause);
      expected.push_back(FreshRun(queries.back(), options));
    }
  }

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto service = MakeService(options, 64, threads);
    std::vector<Request> requests;
    for (int rep = 0; rep < 2; ++rep) {
      for (const std::string& q : queries) {
        requests.push_back({"main", q, {}});
      }
    }
    std::vector<Response> responses = service->SubmitBatch(requests);
    ASSERT_EQ(requests.size(), responses.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok()) << responses[i].status;
      EXPECT_EQ(expected[i % queries.size()], responses[i].whatif.value)
          << "threads=" << threads << " request=" << i;
    }
  }
}

TEST_F(ServiceTest, ConcurrentExplicitThreadsDeterminism) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  const double expected = FreshRun(kQuery, options);
  auto service = MakeService(options);

  std::vector<double> values(8, 0.0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < values.size(); ++t) {
    workers.emplace_back([&, t] {
      values[t] = service->Submit({"main", kQuery, {}}).whatif.value;
    });
  }
  for (std::thread& w : workers) w.join();
  for (double v : values) EXPECT_EQ(expected, v);
}

// One World per branch version: its rows are built once, by the first
// caller, so eight first readers of a fresh version share one Database.
TEST_F(ServiceTest, FirstReadersOfABranchVersionShareOneDatabase) {
  auto service = MakeService(EngineOptions(whatif::BackdoorMode::kGraph,
                                           learn::EstimatorKind::kFrequency));
  ASSERT_TRUE(service->CreateScenario("b").ok());
  auto updated = service->ApplyHypotheticalSql(
      "b", "Use German When Savings = 0 Update(Credit) = 0 Output Count(*)");
  ASSERT_TRUE(updated.ok()) << updated.status();
  ASSERT_GT(*updated, 0u);

  std::vector<std::shared_ptr<const Database>> seen(8);
  std::atomic<size_t> started{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < seen.size(); ++t) {
    workers.emplace_back([&, t] {
      ++started;
      while (started.load() < seen.size()) std::this_thread::yield();
      auto db = service->EffectiveDatabase("b");
      EXPECT_TRUE(db.ok()) << db.status();
      if (db.ok()) seen[t] = *db;
    });
  }
  for (std::thread& w : workers) w.join();
  ASSERT_NE(nullptr, seen[0]);
  for (size_t t = 1; t < seen.size(); ++t) {
    EXPECT_EQ(seen[0].get(), seen[t].get()) << "thread " << t;
  }
}

// Submits on a branch that another thread keeps applying to never fail:
// each request runs on the World of the version it found. Afterwards the
// branch answers like a fresh engine over its rows.
TEST_F(ServiceTest, SubmitsRacingAppliesOnOneBranchAllSucceed) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options);
  ASSERT_TRUE(service->CreateScenario("b").ok());

  std::atomic<bool> applying{true};
  std::vector<size_t> submits(4, 0);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < submits.size(); ++t) {
    readers.emplace_back([&, t] {
      do {
        Response response = service->Submit({"b", kQuery, {}});
        EXPECT_TRUE(response.ok()) << response.status;
        ++submits[t];
      } while (applying.load());
    });
  }
  for (int id = 1; id <= 24; ++id) {
    auto updated = service->ApplyHypotheticalSql(
        "b", "Use German When Id = " + std::to_string(id) +
                 " Update(Credit) = 0 Output Count(*)");
    EXPECT_TRUE(updated.ok()) << updated.status();
  }
  applying = false;
  for (std::thread& r : readers) r.join();
  for (size_t n : submits) EXPECT_GT(n, 0u);

  Response after = service->Submit({"b", kQuery, {}});
  ASSERT_TRUE(after.ok()) << after.status;
  std::shared_ptr<const Database> world =
      service->EffectiveDatabase("b").value();
  whatif::WhatIfEngine fresh(world.get(), &graph_, options);
  EXPECT_EQ(fresh.RunSql(kQuery)->value, after.whatif.value);
}

// --- stage-cache single-flight and accounting -----------------------------

// The query section's entries are plans, and StageCache::GetOrBuild hands
// out type-erased stages: AsStage turns a Prepare result into one.
Result<StageCache::StagePtr> AsStage(
    Result<std::shared_ptr<const whatif::PreparedWhatIf>> plan) {
  if (!plan.ok()) return plan.status();
  return std::static_pointer_cast<const void>(*plan);
}

TEST_F(ServiceTest, GetOrBuildSingleFlightsConcurrentMisses) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto stmt = sql::ParseSql(kQuery);
  ASSERT_TRUE(stmt.ok());

  StageCache cache(8);
  std::atomic<size_t> prepares{0};
  std::atomic<size_t> started{0};
  auto prepare = [&]() -> Result<StageCache::StagePtr> {
    ++prepares;
    // Hold the in-flight slot open long enough that every follower arrives
    // while the leader is still preparing, even on one core.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return AsStage(engine.Prepare(*stmt->whatif));
  };

  constexpr size_t kCallers = 8;
  std::vector<StageCache::StagePtr> plans(kCallers);
  // char, not bool: vector<bool> packs bits, and concurrent writes to
  // adjacent bits would themselves be a data race under the TSan gate.
  std::vector<char> hits(kCallers, 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kCallers; ++t) {
    workers.emplace_back([&, t] {
      ++started;
      while (started.load() < kCallers) std::this_thread::yield();
      bool hit = false;
      auto plan =
          cache.GetOrBuild(whatif::StageKind::kQuery, "key", prepare, &hit);
      ASSERT_TRUE(plan.ok()) << plan.status();
      plans[t] = *plan;
      hits[t] = hit ? 1 : 0;
    });
  }
  for (std::thread& w : workers) w.join();

  // Exactly one caller prepared (and reported the miss); everyone else was
  // served the leader's work as a hit, and all share one plan object.
  EXPECT_EQ(1u, prepares.load());
  EXPECT_EQ(1, std::count(hits.begin(), hits.end(), 0));
  for (size_t t = 0; t < kCallers; ++t) {
    EXPECT_EQ(plans[0].get(), plans[t].get());
  }

  // Accounting: one miss (the preparer), everyone else coalesced or hit,
  // and the ledger reconciles with both the lookup and the prepare count.
  StageStats stats = cache.stats().query;
  EXPECT_EQ(prepares.load(), stats.misses);
  EXPECT_GT(stats.coalesced, 0u);
  EXPECT_EQ(kCallers, stats.hits + stats.misses + stats.coalesced);

  // A later lookup is a plain hit.
  bool hit = false;
  ASSERT_TRUE(
      cache.GetOrBuild(whatif::StageKind::kQuery, "key", prepare, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(1u, prepares.load());
}

TEST_F(ServiceTest, GetOrBuildFailurePropagatesToAllWaitersOnce) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto stmt = sql::ParseSql(kQuery);
  ASSERT_TRUE(stmt.ok());

  // The failure half of the single-flight contract: when the one elected
  // builder's factory fails, every coalesced waiter receives that same
  // error (exactly one factory run — the failure is not retried N times),
  // nothing is stored, and the in-flight slot is cleared so a later call
  // rebuilds from scratch.
  StageCache cache(8);
  std::atomic<size_t> runs{0};
  std::atomic<size_t> started{0};
  auto failing = [&]() -> Result<StageCache::StagePtr> {
    ++runs;
    // Keep the in-flight slot open so every follower coalesces onto the
    // doomed build instead of racing past it.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return Status::ResourceExhausted("row budget exceeded at test.inject");
  };

  constexpr size_t kCallers = 8;
  std::vector<Status> statuses(kCallers);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kCallers; ++t) {
    workers.emplace_back([&, t] {
      ++started;
      while (started.load() < kCallers) std::this_thread::yield();
      auto plan =
          cache.GetOrBuild(whatif::StageKind::kQuery, "key", failing, nullptr);
      statuses[t] = plan.ok() ? Status::OK() : plan.status();
    });
  }
  for (std::thread& w : workers) w.join();

  // One factory run; every caller saw the same typed error.
  EXPECT_EQ(1u, runs.load());
  for (size_t t = 0; t < kCallers; ++t) {
    EXPECT_EQ(StatusCode::kResourceExhausted, statuses[t].code())
        << "caller " << t << ": " << statuses[t];
  }

  // The failure stored nothing: no entry, and the miss ledger still
  // reconciles (1 miss for the failed leader, the rest coalesced).
  StageStats stats = cache.stats().query;
  EXPECT_EQ(0u, stats.entries);
  EXPECT_EQ(1u, stats.misses);
  EXPECT_EQ(kCallers - 1, stats.coalesced);

  // The in-flight slot was cleared: a retry runs the factory again, and a
  // now-successful factory populates the cache normally.
  auto rebuild = [&]() -> Result<StageCache::StagePtr> {
    ++runs;
    return AsStage(engine.Prepare(*stmt->whatif));
  };
  bool hit = true;
  auto plan = cache.GetOrBuild(whatif::StageKind::kQuery, "key", rebuild, &hit);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(hit);
  EXPECT_EQ(2u, runs.load());
  EXPECT_EQ(1u, cache.stats().query.entries);
}

// --- per-item statuses in batched what-if ---------------------------------

TEST_F(ServiceTest, SubmitWhatIfBatchReportsPerItemFailures) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options);

  // For Post(Status) = 0 with Update(Status) = v: the update attribute's
  // post value is deterministic, so v != 0 disqualifies every updated tuple
  // and the Avg's qualifying set has zero probability — that intervention
  // must fail alone, without aborting its sweep siblings.
  Request sweep{"main",
                "Use German Update(Status) = 0 Output Avg(Post(Credit)) "
                "For Post(Status) = 0",
                {}};
  sweep.expected_kind = Response::Kind::kWhatIfBatch;
  for (int v : {0, 1}) {
    whatif::UpdateSpec spec;
    spec.attribute = "Status";
    spec.func = sql::UpdateFuncKind::kSet;
    spec.constant = Value::Int(v);
    sweep.interventions.push_back({spec});
  }

  const Response batch = service->Submit(sweep);
  ASSERT_TRUE(batch.ok()) << batch.status;
  ASSERT_EQ(2u, batch.items.size());

  // Item 0 answers, bit-identical to a fresh single run.
  ASSERT_TRUE(batch.items[0].ok()) << batch.items[0].status;
  EXPECT_EQ(FreshRun("Use German Update(Status) = 0 "
                     "Output Avg(Post(Credit)) For Post(Status) = 0",
                     options),
            batch.items[0].result.value);

  // Item 1 carries its own error.
  EXPECT_FALSE(batch.items[1].ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, batch.items[1].status.code());
}

// --- how-to through shared plans ------------------------------------------

// Answers of this run are pinned in tests/golden/ (howto.german800.*); here:
// the run actually shared its plans, reusing estimators across candidates
// instead of retraining them.
TEST_F(ServiceTest, HowToSharedPlansReuseEstimators) {
  const std::string stmt_text =
      "Use German HowToUpdate Status ToMaximize Count(Credit = 1)";
  for (learn::EstimatorKind estimator :
       {learn::EstimatorKind::kFrequency, learn::EstimatorKind::kForest}) {
    howto::HowToOptions options;
    options.whatif = EngineOptions(whatif::BackdoorMode::kGraph, estimator);
    howto::HowToEngine engine(&db_, &graph_, options);
    auto result = engine.RunSql(stmt_text);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT(result->pattern_cache_hits, 0u)
        << learn::EstimatorKindName(estimator);
  }
}

TEST_F(ServiceTest, HowToThroughServiceReusesCacheAcrossRuns) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options);
  const std::string stmt_text =
      "Use German HowToUpdate Status ToMaximize Count(Credit = 1)";

  Response first = service->Submit({"main", stmt_text, {}});
  ASSERT_TRUE(first.ok()) << first.status;
  Response second = service->Submit({"main", stmt_text, {}});
  ASSERT_TRUE(second.ok()) << second.status;

  EXPECT_EQ(first.howto.objective_value, second.howto.objective_value);
  EXPECT_EQ(first.howto.PlanToString(), second.howto.PlanToString());
  EXPECT_EQ(0u, first.howto.plan_cache_hits);
  EXPECT_GT(second.howto.plan_cache_hits, 0u);
  EXPECT_EQ(0.0, second.howto.train_seconds);
}

// A warm how-to request is one scope-section hit (enumeration and L1 costs
// read the ScopeStage image) plus one plan hit for the baseline and one per
// HowToUpdate attribute; it builds no stage.
TEST_F(ServiceTest, WarmHowToIsOneScopeHitPlusItsPlanHits) {
  auto service = MakeService(EngineOptions(whatif::BackdoorMode::kGraph,
                                           learn::EstimatorKind::kFrequency));
  const std::string stmt_text =
      "Use German HowToUpdate Status, Savings ToMaximize Count(Credit = 1)";
  Response first = service->Submit({"main", stmt_text, {}});
  ASSERT_TRUE(first.ok()) << first.status;
  const PlanCacheStats before = service->cache_stats();
  Response second = service->Submit({"main", stmt_text, {}});
  ASSERT_TRUE(second.ok()) << second.status;
  const PlanCacheStats after = service->cache_stats();
  EXPECT_EQ(3u, second.howto.plan_cache_hits);
  EXPECT_EQ(before.scope.hits + 1, after.scope.hits);
  EXPECT_EQ(before.scope.misses, after.scope.misses);
  EXPECT_EQ(before.query.hits + 3, after.query.hits);
  EXPECT_EQ(before.query.misses, after.query.misses);
  for (const auto& [b, a] :
       {std::pair{&before.causal, &after.causal},
        std::pair{&before.learn, &after.learn}}) {
    EXPECT_EQ(b->hits + b->misses, a->hits + a->misses);
  }
}

// A how-to answered through the service (`got`) equals a fresh HowToEngine
// over `rows`: every candidate (constant, cost, objective, pruned flag), the
// baseline, the objective and the plan.
void ExpectHowToMatchesFreshEngineOver(const howto::HowToResult& got,
                                       const Database& rows,
                                       const causal::CausalGraph& graph,
                                       const ServiceOptions& options,
                                       const std::string& sql) {
  howto::HowToOptions ho;
  ho.whatif = options.whatif;
  ho.num_buckets = options.howto_num_buckets;
  ho.global_l1_budget = options.howto_global_l1_budget;
  ho.prefer_mck = options.howto_prefer_mck;
  auto expected = howto::HowToEngine(&rows, &graph, ho).RunSql(sql);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(expected->baseline_value, got.baseline_value);
  EXPECT_EQ(expected->objective_value, got.objective_value);
  EXPECT_EQ(expected->PlanToString(), got.PlanToString());
  EXPECT_EQ(expected->candidates_pruned, got.candidates_pruned);
  ASSERT_EQ(expected->candidates.size(), got.candidates.size());
  for (size_t a = 0; a < got.candidates.size(); ++a) {
    ASSERT_EQ(expected->candidates[a].size(), got.candidates[a].size()) << a;
    for (size_t i = 0; i < got.candidates[a].size(); ++i) {
      const howto::CandidateUpdate& want = expected->candidates[a][i];
      const howto::CandidateUpdate& have = got.candidates[a][i];
      EXPECT_EQ(want.spec.constant.type(), have.spec.constant.type());
      EXPECT_TRUE(want.spec.constant.Equals(have.spec.constant))
          << want.spec.constant << " vs " << have.spec.constant;
      EXPECT_EQ(want.cost, have.cost) << have.spec.constant;
      EXPECT_EQ(want.objective_value, have.objective_value);
      EXPECT_EQ(want.delta, have.delta);
      EXPECT_EQ(want.pruned, have.pruned);
    }
  }
}

// A how-to answered through the service on `scenario` equals a fresh
// HowToEngine over the branch's effective database.
void ExpectHowToMatchesFreshEngine(ScenarioService& service,
                                   const causal::CausalGraph& graph,
                                   const ServiceOptions& options,
                                   const std::string& scenario,
                                   const std::string& sql) {
  SCOPED_TRACE(scenario + ": " + sql);
  Response served = service.Submit({scenario, sql, {}});
  ASSERT_TRUE(served.ok()) << served.status;
  auto world = service.EffectiveDatabase(scenario);
  ASSERT_TRUE(world.ok()) << world.status();
  ExpectHowToMatchesFreshEngineOver(served.howto, **world, graph, options,
                                    sql);
}

// Enumeration and costs read the branch's ScopeStage image. A branch whose
// apply wrote 2.5 into the int Status column holds a kDouble image of it
// (the int column cannot take the patch, so the image is rebuilt wider),
// whose values the integer candidates round. On "wider", 7.5 rounds to a
// candidate (8) above the range's top value.
TEST_F(ServiceTest, HowToOnAWidenedBranchMatchesAFreshEngine) {
  ServiceOptions options;
  options.whatif = EngineOptions(whatif::BackdoorMode::kGraph,
                                 learn::EstimatorKind::kFrequency);
  options.plan_cache_capacity = 64;
  options.num_threads = 1;
  ScenarioService service(db_, graph_, options);
  for (const auto& [scenario, value] :
       {std::pair{"wide", "2.5"}, std::pair{"wider", "7.5"}}) {
    ASSERT_TRUE(service.CreateScenario(scenario).ok());
    auto applied = service.ApplyHypotheticalSql(
        scenario, std::string("Use German When Age = 1 Update(Status) = ") +
                      value + " Output Count(*)");
    ASSERT_TRUE(applied.ok()) << applied.status();
    ASSERT_GT(*applied, 0u);
  }
  for (const char* sql :
       {"Use German HowToUpdate Status ToMaximize Count(Credit = 1)",
        "Use German HowToUpdate Status "
        "Limit L1(Pre(Status), Post(Status)) <= 0.9 "
        "ToMaximize Count(Credit = 1)"}) {
    for (const char* scenario : {"main", "wide", "wider"}) {
      ExpectHowToMatchesFreshEngine(service, graph_, options, scenario, sql);
    }
  }
}

// A string written by a branch apply ('Teal' is new to the dictionary, so
// the branch image, patched from the base image that main's query cached,
// interns it into a private copy) selects S and becomes a string candidate
// on that branch.
TEST_F(ServiceTest, HowToOnAnAmazonBranchMatchesAFreshEngine) {
  data::AmazonOptions amazon_options;
  amazon_options.products = 200;
  amazon_options.reviews_per_product = 4;
  auto amazon = data::MakeAmazonSyn(amazon_options);
  ASSERT_TRUE(amazon.ok()) << amazon.status();
  ServiceOptions options;
  options.whatif = EngineOptions(whatif::BackdoorMode::kAllAttributes,
                                 learn::EstimatorKind::kForest);
  options.plan_cache_capacity = 64;
  options.num_threads = 1;
  ScenarioService service(amazon->db, amazon->graph, options);
  ASSERT_TRUE(service.CreateScenario("teal").ok());
  auto applied = service.ApplyHypotheticalSql(
      "teal",
      "Use Product When Brand = 'Asus' Update(Color) = 'Teal' Output Count(*)");
  ASSERT_TRUE(applied.ok()) << applied.status();
  ASSERT_GT(*applied, 0u);
  for (const char* scenario : {"main", "teal"}) {
    ExpectHowToMatchesFreshEngine(
        service, amazon->graph, options, scenario,
        "Use Product HowToUpdate Color ToMaximize Avg(Post(Price))");
  }
  ExpectHowToMatchesFreshEngine(
      service, amazon->graph, options, "teal",
      "Use Product When Color = 'Teal' HowToUpdate Price "
      "ToMaximize Avg(Post(Quality))");
}

// --- branch requests run over the base ------------------------------------

// A what-if answered through the service (`served`) equals a fresh engine
// over `rows`.
void ExpectWhatIfMatchesFreshEngineOver(const Response& served,
                                        const Database& rows,
                                        const causal::CausalGraph& graph,
                                        const whatif::WhatIfOptions& options,
                                        const std::string& sql) {
  SCOPED_TRACE(sql);
  ASSERT_TRUE(served.ok()) << served.status;
  auto expected = whatif::WhatIfEngine(&rows, &graph, options).RunSql(sql);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(expected->value, served.whatif.value);
  EXPECT_EQ(expected->updated_rows, served.whatif.updated_rows);
}

constexpr const char* kSetSavingsOfId5 =
    "Use German When Id = 5 Update(Savings) = 2 Output Count(*)";
constexpr const char* kSavingsWhatIf =
    "Use German When Savings = 2 Update(Status) = 2 Output Count(Credit = 1)";

// On a one-cell Savings branch, a table-view what-if, a one-intervention
// sweep, a how-to and a second apply (whose Scale reads the branch's cell)
// run over the base relations and the base image patched with that cell:
// none of them builds the branch's rows. With `clear_cache` the stage cache
// is emptied between the first apply and the what-if, whose scope lookup
// then builds twice: the base image from the base table, then the patched
// image. Every answer equals a fresh engine over the rows of the version it
// ran on ("v1" is a copy of the branch at its first apply).
void ExpectTableViewRequestsBuildNoRows(ScenarioService& service,
                                        const causal::CausalGraph& graph,
                                        bool clear_cache) {
  ASSERT_TRUE(service.CreateScenario("b").ok());
  auto first = service.ApplyHypotheticalSql("b", kSetSavingsOfId5);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(1u, *first);
  ASSERT_TRUE(service.CreateScenario("v1", "b").ok());
  if (clear_cache) service.ClearCache();

  const PlanCacheStats before = service.cache_stats();
  const Response whatif = service.Submit({"b", kSavingsWhatIf, {}});
  ASSERT_TRUE(whatif.ok()) << whatif.status;
  EXPECT_EQ(before.scope.misses + (clear_cache ? 2u : 1u),
            service.cache_stats().scope.misses);
  Request sweep;
  sweep.scenario = "b";
  sweep.sql = kSavingsWhatIf;
  sweep.expected_kind = Response::Kind::kWhatIfBatch;
  sweep.interventions = {
      {whatif::UpdateSpec{"Status", sql::UpdateFuncKind::kSet, Value::Int(1)}}};
  const Response swept = service.Submit(sweep);
  ASSERT_TRUE(swept.ok()) << swept.status;
  ASSERT_EQ(1u, swept.items.size());
  const std::string howto_sql =
      "Use German When Savings = 2 HowToUpdate Status "
      "ToMaximize Count(Credit = 1)";
  const Response howto = service.Submit({"b", howto_sql, {}});
  ASSERT_TRUE(howto.ok()) << howto.status;
  auto scaled = service.ApplyHypotheticalSql(
      "b", "Use German When Id = 5 Update(Savings) = 3 * Pre(Savings) "
           "Output Count(*)");
  ASSERT_TRUE(scaled.ok()) << scaled.status();
  EXPECT_EQ(1u, *scaled);
  EXPECT_EQ(0u, service.world_row_builds());

  auto v1 = service.EffectiveDatabase("v1");
  ASSERT_TRUE(v1.ok()) << v1.status();
  const whatif::WhatIfOptions& options = service.options().whatif;
  ExpectWhatIfMatchesFreshEngineOver(whatif, **v1, graph, options,
                                     kSavingsWhatIf);
  auto item = whatif::WhatIfEngine(v1->get(), &graph, options)
                  .RunSql("Use German When Savings = 2 Update(Status) = 1 "
                          "Output Count(Credit = 1)");
  ASSERT_TRUE(item.ok()) << item.status();
  ASSERT_TRUE(swept.items[0].ok()) << swept.items[0].status;
  EXPECT_EQ(item->value, swept.items[0].result.value);
  ExpectHowToMatchesFreshEngineOver(howto.howto, **v1, graph, service.options(),
                                    howto_sql);

  // The Scale read the cell the first apply wrote (2): only that row moved.
  auto b = service.EffectiveDatabase("b");
  ASSERT_TRUE(b.ok()) << b.status();
  const Table& before_scale = *(*v1)->GetTable("German").value();
  const Table& after_scale = *(*b)->GetTable("German").value();
  const size_t id = after_scale.schema().IndexOf("Id").value();
  const size_t savings = after_scale.schema().IndexOf("Savings").value();
  for (size_t r = 0; r < after_scale.num_rows(); ++r) {
    if (after_scale.At(r, id).Equals(Value::Int(5))) {
      EXPECT_TRUE(before_scale.At(r, savings).Equals(Value::Int(2)));
      EXPECT_EQ(ValueType::kDouble, after_scale.At(r, savings).type());
      EXPECT_EQ(6.0, after_scale.At(r, savings).double_value());
    } else {
      EXPECT_TRUE(
          after_scale.At(r, savings).Equals(before_scale.At(r, savings)))
          << r;
    }
  }
}

TEST_F(ServiceTest, TableViewRequestsOnABranchBuildNoRows) {
  auto service = MakeService(EngineOptions(whatif::BackdoorMode::kGraph,
                                           learn::EstimatorKind::kFrequency));
  ExpectTableViewRequestsBuildNoRows(*service, graph_, /*clear_cache=*/false);
}

TEST_F(ServiceTest, BranchScopeMissBuildsTheBaseImageNotTheRows) {
  auto service = MakeService(EngineOptions(whatif::BackdoorMode::kGraph,
                                           learn::EstimatorKind::kFrequency));
  ExpectTableViewRequestsBuildNoRows(*service, graph_, /*clear_cache=*/true);
}

// `2 * Pre(Status)` writes doubles into the int column Status, which the
// base image cannot take as a patch: the branch's next query rebuilds its
// image from the branch's rows. They are built once for the version (the
// apply itself read the base image), and a second statement and
// EffectiveDatabase share that build.
TEST_F(ServiceTest, KindChangingApplyBuildsTheBranchRowsOnce) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options);
  ASSERT_TRUE(service->CreateScenario("b").ok());
  auto doubled = service->ApplyHypotheticalSql(
      "b", "Use German When Age = 1 Update(Status) = 2 * Pre(Status) "
           "Output Count(*)");
  ASSERT_TRUE(doubled.ok()) << doubled.status();
  ASSERT_GT(*doubled, 0u);
  EXPECT_EQ(0u, service->world_row_builds());

  const Response first = service->Submit({"b", kQuery, {}});
  EXPECT_EQ(1u, service->world_row_builds());
  const Response second = service->Submit({"b", kAvgQuery, {}});
  auto rows = service->EffectiveDatabase("b");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(1u, service->world_row_builds());
  ExpectWhatIfMatchesFreshEngineOver(first, **rows, graph_, options, kQuery);
  ExpectWhatIfMatchesFreshEngineOver(second, **rows, graph_, options,
                                     kAvgQuery);
}

// A branch overrides only cells, so its relation names, row counts and
// schemas (the shell's \tables and \schema) are the base's: reading them
// builds no rows, and they equal the branch rows' when those are built.
TEST_F(ServiceTest, BaseDatabaseReadsBranchMetadataWithoutRows) {
  auto service = MakeService(EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency));
  ASSERT_TRUE(service->CreateScenario("b").ok());
  ASSERT_TRUE(service->ApplyHypotheticalSql("b", kSetSavingsOfId5).ok());
  auto base = service->BaseDatabase("b");
  ASSERT_TRUE(base.ok()) << base.status();
  EXPECT_EQ(0u, service->world_row_builds());

  auto rows = service->EffectiveDatabase("b");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(1u, service->world_row_builds());
  ASSERT_EQ((*rows)->TableNames(), (*base)->TableNames());
  for (const std::string& name : (*base)->TableNames()) {
    const Table* from_base = (*base)->GetTable(name).value();
    const Table* from_rows = (*rows)->GetTable(name).value();
    EXPECT_EQ(from_rows->num_rows(), from_base->num_rows()) << name;
    EXPECT_EQ(from_rows->schema().ToString(), from_base->schema().ToString())
        << name;
  }
  EXPECT_FALSE(service->BaseDatabase("missing").ok());
}

// An embedded select reads the branch's cells, and the cross-tuple blocks
// of Amazon's graph read its link columns: both ask for the branch's rows.
// Two different statements on one version share one row build, and each
// answers like a fresh engine over those rows.
TEST_F(ServiceTest, SelectViewAndCrossTupleQueriesShareOneRowBuild) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options);
  ASSERT_TRUE(service->CreateScenario("b").ok());
  ASSERT_TRUE(service->ApplyHypotheticalSql("b", kSetSavingsOfId5).ok());
  const std::string view =
      "Use V As (Select Id, Age, Sex, Status, Savings, Housing, Credit "
      "From German) ";
  const std::string selects[] = {
      view + "When Savings = 2 Update(Status) = 2 Output Count(Credit = 1)",
      view + "When Age = 1 Update(Savings) = 1 Output Avg(Post(Credit))"};
  const Response first = service->Submit({"b", selects[0], {}});
  const Response second = service->Submit({"b", selects[1], {}});
  EXPECT_EQ(1u, service->world_row_builds());
  auto rows = service->EffectiveDatabase("b");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(1u, service->world_row_builds());
  ExpectWhatIfMatchesFreshEngineOver(first, **rows, graph_, options,
                                     selects[0]);
  ExpectWhatIfMatchesFreshEngineOver(second, **rows, graph_, options,
                                     selects[1]);

  data::AmazonOptions amazon_options;
  amazon_options.products = 200;
  amazon_options.reviews_per_product = 4;
  auto amazon = data::MakeAmazonSyn(amazon_options);
  ASSERT_TRUE(amazon.ok()) << amazon.status();
  ServiceOptions service_options;
  service_options.whatif = options;
  ScenarioService market(amazon->db, amazon->graph, service_options);
  ASSERT_TRUE(market.CreateScenario("p").ok());
  auto priced = market.ApplyHypotheticalSql(
      "p", "Use Product When Brand = 'Asus' Update(Price) = 1.1 * Pre(Price) "
           "Output Count(*)");
  ASSERT_TRUE(priced.ok()) << priced.status();
  ASSERT_GT(*priced, 0u);
  EXPECT_EQ(0u, market.world_row_builds());
  const std::string tables[] = {
      "Use Product When Price > 600 Update(Quality) = 3 "
      "Output Avg(Post(Price))",
      "Use Product When Brand = 'Asus' Update(Price) = 500 Output Count(*) "
      "For Pre(Category) = 'Laptop'"};
  const Response quality = market.Submit({"p", tables[0], {}});
  const Response price = market.Submit({"p", tables[1], {}});
  EXPECT_EQ(1u, market.world_row_builds());
  auto market_rows = market.EffectiveDatabase("p");
  ASSERT_TRUE(market_rows.ok()) << market_rows.status();
  EXPECT_EQ(1u, market.world_row_builds());
  ExpectWhatIfMatchesFreshEngineOver(quality, **market_rows, amazon->graph,
                                     options, tables[0]);
  ExpectWhatIfMatchesFreshEngineOver(price, **market_rows, amazon->graph,
                                     options, tables[1]);
}

// --- concurrent how-to stress ---------------------------------------------

TEST_F(ServiceTest, ConcurrentMixedHowToStressBitEqualAcrossThreads) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto primary = sql::ParseSql(
      "Use German HowToUpdate Status, Savings "
      "ToMaximize Count(Credit = 1)");
  auto secondary = sql::ParseSql(
      "Use German HowToUpdate Status, Savings "
      "ToMinimize Avg(Post(CreditAmount))");
  ASSERT_TRUE(primary.ok() && secondary.ok());

  auto context_of = [](StageCache* cache) {
    whatif::StageContext ctx;
    ctx.stages = cache;
    ctx.data_scope = "stress";
    return ctx;
  };
  auto engine_with = [&](const whatif::StageContext* ctx, size_t threads) {
    howto::HowToOptions ho;
    ho.whatif = options;
    ho.whatif.num_threads = threads;
    ho.stage_context = ctx;
    return howto::HowToEngine(&db_, &graph_, ho);
  };

  // Single-threaded reference results (fresh cache).
  StageCache ref_cache(64);
  const whatif::StageContext ref_ctx = context_of(&ref_cache);
  howto::HowToEngine ref_engine = engine_with(&ref_ctx, 1);
  auto ref_run = ref_engine.Run(*primary->howto);
  ASSERT_TRUE(ref_run.ok()) << ref_run.status();
  const double target =
      ref_run->baseline_value +
      0.3 * (ref_run->objective_value - ref_run->baseline_value);
  auto ref_min = ref_engine.RunMinCost(*primary->howto, target);
  ASSERT_TRUE(ref_min.ok()) << ref_min.status();
  auto ref_lex = ref_engine.RunLexicographic(
      {primary->howto.get(), secondary->howto.get()});
  ASSERT_TRUE(ref_lex.ok()) << ref_lex.status();

  // Reference what-if values on two scenario branches.
  auto ref_service = MakeService(options);
  ASSERT_TRUE(ref_service->CreateScenario("b1", "main").ok());
  ASSERT_TRUE(ref_service
                  ->ApplyHypotheticalSql(
                      "b1",
                      "Use German When Savings = 0 Update(Credit) = 0 "
                      "Output Count(*)")
                  .ok());
  const double ref_main =
      ref_service->Submit({"main", kQuery, {}}).whatif.value;
  const double ref_b1 = ref_service->Submit({"b1", kQuery, {}}).whatif.value;

  auto check_howto = [](const howto::HowToResult& expect,
                        const howto::HowToResult& got, const char* what) {
    EXPECT_EQ(expect.baseline_value, got.baseline_value) << what;
    EXPECT_EQ(expect.objective_value, got.objective_value) << what;
    EXPECT_EQ(expect.PlanToString(), got.PlanToString()) << what;
    ASSERT_EQ(expect.candidates.size(), got.candidates.size()) << what;
    for (size_t a = 0; a < expect.candidates.size(); ++a) {
      ASSERT_EQ(expect.candidates[a].size(), got.candidates[a].size());
      for (size_t i = 0; i < expect.candidates[a].size(); ++i) {
        EXPECT_EQ(expect.candidates[a][i].objective_value,
                  got.candidates[a][i].objective_value)
            << what << " candidate " << a << "/" << i;
      }
    }
  };

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    StageCache cache(64);
    const whatif::StageContext ctx = context_of(&cache);
    howto::HowToEngine engine = engine_with(&ctx, threads);
    auto service = MakeService(options, 64, threads);
    ASSERT_TRUE(service->CreateScenario("b1", "main").ok());
    ASSERT_TRUE(service
                    ->ApplyHypotheticalSql(
                        "b1",
                        "Use German When Savings = 0 Update(Credit) = 0 "
                        "Output Count(*)")
                    .ok());

    // `threads` workers race mixed how-to solves against one shared stage
    // cache, interleaved with what-if submissions on both branches.
    std::vector<std::thread> workers;
    std::vector<Status> howto_status(threads);
    std::vector<howto::HowToResult> howto_results(threads);
    std::vector<double> whatif_values(threads, 0.0);
    std::atomic<size_t> started{0};
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        ++started;
        while (started.load() < threads) std::this_thread::yield();
        Result<howto::HowToResult> r = Status::Internal("unset");
        switch (t % 3) {
          case 0:
            r = engine.Run(*primary->howto);
            break;
          case 1:
            r = engine.RunMinCost(*primary->howto, target);
            break;
          default:
            r = engine.RunLexicographic(
                {primary->howto.get(), secondary->howto.get()});
            break;
        }
        if (r.ok()) {
          howto_results[t] = std::move(r).value();
        } else {
          howto_status[t] = r.status();
        }
        whatif_values[t] =
            service->Submit({t % 2 == 0 ? "main" : "b1", kQuery, {}})
                .whatif.value;
      });
    }
    for (std::thread& w : workers) w.join();

    for (size_t t = 0; t < threads; ++t) {
      ASSERT_TRUE(howto_status[t].ok()) << howto_status[t];
      switch (t % 3) {
        case 0:
          check_howto(*ref_run, howto_results[t], "Run");
          break;
        case 1:
          check_howto(*ref_min, howto_results[t], "RunMinCost");
          break;
        default:
          check_howto(*ref_lex, howto_results[t], "RunLexicographic");
          break;
      }
      EXPECT_EQ(t % 2 == 0 ? ref_main : ref_b1, whatif_values[t])
          << "threads=" << threads << " worker=" << t;
    }

    // No duplicate Prepare+train: single-flight guarantees one miss (= one
    // prepare) per distinct plan (QueryStage) key, no matter how many
    // workers raced on it. Lexicographic workers (t % 3 == 2) touch 3 extra
    // keys for the secondary objective's baseline + per-attribute plans.
    const size_t distinct_keys = threads >= 3 ? 6u : 3u;
    PlanCacheStats stats = cache.stats();
    EXPECT_EQ(distinct_keys, stats.misses) << "threads=" << threads;
    EXPECT_EQ(0u, stats.query.evictions);
    // Every lookup is accounted for exactly once.
    size_t lookups = 0;
    for (size_t t = 0; t < threads; ++t) {
      lookups += (t % 3 == 2) ? 6 : 3;  // baseline + one per attribute
    }
    EXPECT_EQ(lookups, stats.hits + stats.misses + stats.coalesced)
        << "threads=" << threads;
  }
}

// --- invalidation ---------------------------------------------------------

TEST_F(ServiceTest, ReloadDatasetInvalidatesCache) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options);
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());
  EXPECT_EQ(1u, service->cache_stats().query.entries);

  // Reload with different data: the old plan must not serve the new world.
  data::GermanOptions german;
  german.rows = 500;
  german.seed = 99;
  auto ds = data::MakeGermanSyn(german);
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE(service->ReloadDataset(std::move(ds->db)).ok());
  EXPECT_EQ(0u, service->cache_stats().query.entries);

  std::shared_ptr<const Database> reloaded =
      service->EffectiveDatabase("main").value();
  whatif::WhatIfEngine fresh(reloaded.get(), &graph_, options);
  Response after = service->Submit({"main", kQuery, {}});
  ASSERT_TRUE(after.ok()) << after.status;
  EXPECT_FALSE(after.whatif.plan_cache_hit);
  EXPECT_EQ(fresh.RunSql(kQuery)->value, after.whatif.value);
}

// --- staged prepare pipeline ----------------------------------------------

// Branch fan-out: a chain of branches, each branched from the one before
// and each one cell away from its parent on an attribute outside the plan's
// features / adjustment set / For-Output references. Every branch reuses
// the trunk's CausalStage and LearnStage (trained estimators included):
// per-stage miss counters prove only Scope and Query rebuilt per branch —
// and every answer is still bit-identical to a fresh engine run over the
// branch's effective world.
TEST_F(ServiceTest, BranchDeltaOutsideTrainingSetReusesLearnStage) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  auto service = MakeService(options);
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());
  PlanCacheStats stats = service->cache_stats();
  EXPECT_EQ(1u, stats.scope.misses);
  EXPECT_EQ(1u, stats.causal.misses);
  EXPECT_EQ(1u, stats.learn.misses);
  EXPECT_EQ(1u, stats.query.misses);

  // Savings is not in this query's adjustment set ({Age, Housing} for
  // Status -> Credit), not an update attribute, and not referenced by
  // For/Output — so the LearnStage never reads it.
  std::string parent = "main";
  for (size_t n = 1; n <= 3; ++n) {
    const std::string name = "savings" + std::to_string(n);
    ASSERT_TRUE(service->CreateScenario(name, parent).ok());
    auto updated = service->ApplyHypotheticalSql(
        name, "Use German When Id = " + std::to_string(n + 2) +
                  " Update(Savings) = 2 Output Count(*)");
    ASSERT_TRUE(updated.ok()) << updated.status();
    ASSERT_EQ(1u, *updated);

    Response branch = service->Submit({name, kQuery, {}});
    ASSERT_TRUE(branch.ok()) << branch.status;
    stats = service->cache_stats();
    EXPECT_EQ(n + 1, stats.misses);        // one plan per world
    EXPECT_EQ(n + 1, stats.scope.misses);  // branch image rebuilt (patched)
    EXPECT_EQ(1u, stats.causal.misses);    // shape-keyed: shared with trunk
    EXPECT_EQ(1u, stats.learn.misses);     // deltas miss the training set
    EXPECT_EQ(n + 1, stats.query.misses);  // per-row constants rebound
    EXPECT_GT(branch.whatif.pattern_cache_hits, 0u);
    EXPECT_EQ(0.0, branch.whatif.train_seconds);

    // Bit-identical to a fresh (monolithic) engine over the effective world.
    std::shared_ptr<const Database> world =
        service->EffectiveDatabase(name).value();
    whatif::WhatIfEngine fresh(world.get(), &graph_, options);
    EXPECT_EQ(fresh.RunSql(kQuery)->value, branch.whatif.value) << name;
    parent = name;
  }
}

// A Housing delta under kAllAttributes — where Housing joins the
// adjustment set — must invalidate the LearnStage (and retrain).
TEST_F(ServiceTest, BranchDeltaOnAdjustmentAttributeInvalidatesLearnStage) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kAllAttributes, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options);
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());
  ASSERT_EQ(1u, service->cache_stats().learn.misses);

  ASSERT_TRUE(service->CreateScenario("housing").ok());
  auto updated = service->ApplyHypotheticalSql(
      "housing", "Use German When Id = 3 Update(Housing) = 2 Output Count(*)");
  ASSERT_TRUE(updated.ok()) << updated.status();
  ASSERT_EQ(1u, *updated);

  Response branch = service->Submit({"housing", kQuery, {}});
  ASSERT_TRUE(branch.ok()) << branch.status;
  EXPECT_EQ(2u, service->cache_stats().learn.misses);

  std::shared_ptr<const Database> world =
      service->EffectiveDatabase("housing").value();
  whatif::WhatIfEngine fresh(world.get(), &graph_, options);
  EXPECT_EQ(fresh.RunSql(kQuery)->value, branch.whatif.value);

  // A delta on a For-referenced (target) attribute invalidates too.
  ASSERT_TRUE(service->CreateScenario("credit").ok());
  ASSERT_TRUE(service
                  ->ApplyHypotheticalSql("credit",
                                         "Use German When Id = 5 "
                                         "Update(Credit) = 0 Output Count(*)")
                  .ok());
  Response credit = service->Submit({"credit", kQuery, {}});
  ASSERT_TRUE(credit.ok()) << credit.status;
  EXPECT_EQ(3u, service->cache_stats().learn.misses);
}

// A branch whose Housing delta touches the adjustment set retrains its
// forest, but over the trunk's (seed, rows, trees): the multiplicities of
// its bootstraps come from the process-wide memo, and no row is redrawn.
TEST_F(ServiceTest, BranchRetrainReadsItsBootstrapsFromTheMemo) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  auto service = MakeService(options);
  constexpr const char* kRetrained =
      "Use German Update(Status) = 1 Output Avg(Post(Credit))";
  ASSERT_TRUE(service->CreateScenario("housing").ok());
  auto updated = service->ApplyHypotheticalSql(
      "housing", "Use German When Id = 3 Update(Housing) = 2 Output Count(*)");
  ASSERT_TRUE(updated.ok()) << updated.status();
  ASSERT_EQ(1u, *updated);

  ASSERT_TRUE(service->Submit({"main", kRetrained, {}}).ok());
  const size_t learn_misses = service->cache_stats().learn.misses;
  const learn::BootstrapMemoStats before = learn::GetBootstrapMemoStats();
  Response branch = service->Submit({"housing", kRetrained, {}});
  ASSERT_TRUE(branch.ok()) << branch.status;
  const learn::BootstrapMemoStats after = learn::GetBootstrapMemoStats();
  EXPECT_EQ(learn_misses + 1, service->cache_stats().learn.misses);
  EXPECT_EQ(before.hits + 1, after.hits);
  EXPECT_EQ(before.misses, after.misses);
  EXPECT_GE(after.bytes, 800u * options.forest.num_trees);

  std::shared_ptr<const Database> world =
      service->EffectiveDatabase("housing").value();
  whatif::WhatIfEngine fresh(world.get(), &graph_, options);
  EXPECT_EQ(fresh.RunSql(kRetrained)->value, branch.whatif.value);
}

// Evicting an upstream stage must not invalidate live downstream stages: a
// plan (QueryStage) holds its Scope, Causal and Learn stages alive through
// shared_ptrs, a LearnStage keeps serving trained estimators without its
// ScopeStage, and a later prepare rebuilds only the evicted pieces.
TEST_F(ServiceTest, UpstreamEvictionKeepsDownstreamStagesAlive) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  const double expected = FreshRun(kQuery, options);
  auto service = MakeService(options);
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());

  PlanCacheStats before = service->cache_stats();
  ASSERT_EQ(1u, before.scope.entries);
  ASSERT_EQ(1u, before.learn.entries);

  // DropScenario-style eager eviction by the trunk's scope tag removes the
  // full-fingerprint entries (scope, query); causal + learn survive because
  // their keys use shape / restricted scopes.
  // (Exercised through a throwaway branch so the public API drives it.)
  ASSERT_TRUE(service->CreateScenario("twin").ok());
  ASSERT_TRUE(service->DropScenario("twin").ok());  // identical delta: no-op
  PlanCacheStats after_noop = service->cache_stats();
  EXPECT_EQ(1u, after_noop.query.entries);  // trunk-shared entries kept

  ASSERT_TRUE(service->CreateScenario("mut").ok());
  ASSERT_TRUE(service
                  ->ApplyHypotheticalSql("mut",
                                         "Use German When Id = 7 "
                                         "Update(Savings) = 1 Output Count(*)")
                  .ok());
  ASSERT_TRUE(service->Submit({"mut", kQuery, {}}).ok());
  PlanCacheStats with_branch = service->cache_stats();
  EXPECT_EQ(2u, with_branch.scope.entries);
  EXPECT_EQ(1u, with_branch.learn.entries);  // shared (delta outside set)
  ASSERT_TRUE(service->DropScenario("mut").ok());

  PlanCacheStats after_drop = service->cache_stats();
  EXPECT_EQ(1u, after_drop.query.entries) << "branch plan not evicted";
  EXPECT_EQ(1u, after_drop.scope.entries) << "branch scope not evicted";
  EXPECT_EQ(1u, after_drop.learn.entries) << "shared learn wrongly evicted";
  EXPECT_EQ(with_branch.scope.evictions + 1, after_drop.scope.evictions);

  // The ledger still reconciles after eager eviction: the three Submits
  // above each did one query (plan) lookup, the two query misses each did
  // one lookup per upstream section, the apply did one scope lookup (its
  // When mask reads the world's image), and the branch's scope build one
  // more, of the base image it patches — eviction never double-counts or
  // loses a lookup.
  Response again = service->Submit({"main", kQuery, {}});
  ASSERT_TRUE(again.ok()) << again.status;
  EXPECT_EQ(expected, again.whatif.value);
  EXPECT_EQ(0.0, again.whatif.train_seconds);
  PlanCacheStats final_stats = service->cache_stats();
  const StageStats& q = final_stats.query;
  EXPECT_EQ(3u, q.hits + q.misses + q.coalesced);
  const StageStats& sc = final_stats.scope;
  EXPECT_EQ(4u, sc.hits + sc.misses + sc.coalesced);
  EXPECT_EQ(2u, sc.misses) << "the apply re-encoded the trunk image";
  for (const StageStats* s : {&final_stats.causal, &final_stats.learn}) {
    EXPECT_EQ(2u, s->hits + s->misses + s->coalesced);
  }
  EXPECT_EQ(1u, final_stats.learn.misses) << "learn stage was rebuilt";
}

// Upstream eviction, hit directly at the StageCache: evict the ScopeStage
// entry while a plan (the QueryStage, holding its Learn and Causal stages)
// is live, then re-prepare. The same statement is one query hit and builds
// nothing; a When-variant rebuilds only Scope and Query — downstream stages
// hold their upstream alive and keep serving — and evaluations stay
// bit-identical throughout.
TEST_F(ServiceTest, StageCacheUpstreamEvictionKeepsDownstreamServing) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  StageCache cache(64);
  whatif::StageContext ctx;
  ctx.stages = &cache;
  ctx.data_scope = "d";

  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto stmt = sql::ParseSql(kQuery);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  auto first = engine.Prepare(*stmt->whatif, &ctx);
  ASSERT_TRUE(first.ok()) << first.status();
  auto value_of = [&](const whatif::PreparedWhatIf& plan,
                      const sql::WhatIfStmt& s) {
    auto r = engine.Evaluate(plan, whatif::SpecsOfStatement(s));
    EXPECT_TRUE(r.ok()) << r.status();
    return r->value;
  };
  const double expected = value_of(**first, *stmt->whatif);

  // Scope keys are the only ones spelled "scope|d..." (causal and query
  // keys start "causal|" and "query|"), so this evicts exactly the scope
  // section's entry.
  EXPECT_EQ(1u, cache.EvictTagged("scope|d"));
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(0u, stats.scope.entries);
  EXPECT_EQ(1u, stats.learn.entries);

  // The live plan keeps working: its stages hold the evicted scope alive.
  EXPECT_EQ(expected, value_of(**first, *stmt->whatif));

  // Re-preparing the same statement is one query hit: the cached plan comes
  // back and nothing is built.
  bool hit = false;
  auto second = engine.Prepare(*stmt->whatif, &ctx, &hit);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(hit);
  EXPECT_EQ(first->get(), second->get());
  stats = cache.stats();
  EXPECT_EQ(1u, stats.scope.misses);
  EXPECT_EQ(1u, stats.causal.misses);
  EXPECT_EQ(1u, stats.learn.misses);
  EXPECT_EQ(1u, stats.query.misses);
  EXPECT_EQ(1u, stats.query.hits);
  EXPECT_EQ(expected, value_of(**second, *stmt->whatif));

  // A When-variant rebuilds only the evicted scope and its own query;
  // causal and learn hit, so no estimator retrains, and the answer equals
  // a fresh run.
  const char* kVariant =
      "Use German When Status = 2 Update(Status) = 2 Output Count(Credit = 1)";
  auto variant_stmt = sql::ParseSql(kVariant);
  ASSERT_TRUE(variant_stmt.ok()) << variant_stmt.status();
  auto variant = engine.Prepare(*variant_stmt->whatif, &ctx, &hit);
  ASSERT_TRUE(variant.ok()) << variant.status();
  EXPECT_FALSE(hit);
  stats = cache.stats();
  EXPECT_EQ(2u, stats.scope.misses);
  EXPECT_EQ(1u, stats.causal.misses);
  EXPECT_EQ(1u, stats.learn.misses);
  EXPECT_EQ(2u, stats.query.misses);
  EXPECT_EQ(FreshRun(kVariant, options),
            value_of(**variant, *variant_stmt->whatif));
}

// --- the branch scope patch path ------------------------------------------

// A StageProvider that forwards every call to a StageCache and records each
// scope-section lookup: its key, whether it hit, and the stage it returned
// (held weakly, so the record keeps no stage alive).
class RecordingStages : public whatif::StageProvider {
 public:
  struct ScopeLookup {
    std::string key;
    bool hit;
    std::weak_ptr<const void> stage;
  };

  explicit RecordingStages(StageCache* cache) : cache_(cache) {}

  Result<StagePtr> GetOrBuild(whatif::StageKind kind, const std::string& key,
                              const StageFactory& build, bool* hit) override {
    bool was_hit = false;
    Result<StagePtr> stage = cache_->GetOrBuild(kind, key, build, &was_hit);
    if (hit != nullptr) *hit = was_hit;
    if (kind == whatif::StageKind::kScope) {
      scope_lookups.push_back(
          {key, was_hit, stage.ok() ? *stage : StagePtr()});
    }
    return stage;
  }

  std::vector<ScopeLookup> scope_lookups;

 private:
  StageCache* cache_;
};

// A one-cell branch world: the base with (row, attr) of `relation` set to
// `value`, the base-relative override map the service would hand the
// engine for it, and the row source of its context, which counts how often
// the engine asks for the rows.
struct OneCellBranch : whatif::RowSource {
  std::shared_ptr<const Database> rows;
  std::map<std::string, TableCellOverrides> overrides;
  mutable size_t row_reads = 0;

  Result<std::shared_ptr<const Database>> Rows() const override {
    ++row_reads;
    return rows;
  }
};

OneCellBranch MakeOneCellBranch(const Database& base,
                                const std::string& relation, size_t row,
                                const std::string& attribute, Value value) {
  auto rows = std::make_shared<Database>(base.ShallowCopy());
  Table* table = rows->GetMutableTable(relation).value();
  const size_t attr = table->schema().IndexOf(attribute).value();
  table->SetValue(row, attr, value);
  OneCellBranch branch;
  branch.rows = std::move(rows);
  branch.overrides[relation][attr][row] = std::move(value);
  return branch;
}

whatif::StageContext BranchContext(whatif::StageProvider* stages,
                                   const std::string& data_scope,
                                   const OneCellBranch* branch) {
  whatif::StageContext ctx;
  ctx.stages = stages;
  ctx.data_scope = data_scope;
  ctx.shape_scope = "g";
  ctx.base_scope = "base";
  ctx.overrides = branch != nullptr ? &branch->overrides : nullptr;
  ctx.rows = branch;
  return ctx;
}

// Prepares `query` on the base world, then on a one-cell branch of it with
// an engine over the base: the branch's scope build must look the base
// image up and hit it (the patch path), it must not ask for the branch's
// rows, and its answer must equal a fresh engine over the branch's rows.
// Returns the branch plan's |S|.
size_t ExpectBranchPatchesBaseImage(const Database& base,
                                    const causal::CausalGraph& graph,
                                    const whatif::WhatIfOptions& options,
                                    const std::string& query,
                                    const OneCellBranch& branch) {
  auto stmt = sql::ParseSql(query);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  if (!stmt.ok()) return 0;
  const std::vector<whatif::UpdateSpec> specs =
      whatif::SpecsOfStatement(*stmt->whatif);
  StageCache cache(64);
  RecordingStages stages(&cache);

  const whatif::StageContext base_ctx = BranchContext(&stages, "base", nullptr);
  whatif::WhatIfEngine engine(&base, &graph, options);
  auto base_plan = engine.Prepare(*stmt->whatif, &base_ctx);
  EXPECT_TRUE(base_plan.ok()) << base_plan.status();
  EXPECT_EQ(1u, stages.scope_lookups.size()) << "the base world's own build";

  const whatif::StageContext ctx = BranchContext(&stages, "branch", &branch);
  auto plan = engine.Prepare(*stmt->whatif, &ctx);
  EXPECT_TRUE(plan.ok()) << plan.status();
  if (!plan.ok()) return 0;
  EXPECT_EQ(2u, cache.stats().scope.misses);  // base, then the patched branch
  EXPECT_EQ(0u, branch.row_reads);
  // The branch's lookup misses and its build looks the base image up,
  // which hits; the nested lookup returns first.
  EXPECT_EQ(3u, stages.scope_lookups.size());
  if (stages.scope_lookups.size() == 3) {
    const RecordingStages::ScopeLookup& base_lookup = stages.scope_lookups[1];
    EXPECT_NE(std::string::npos, base_lookup.key.find("|d[4]=base|"))
        << base_lookup.key;
    EXPECT_NE(std::string::npos, base_lookup.key.find("|rel[6]=German"))
        << base_lookup.key;
    EXPECT_TRUE(base_lookup.hit) << "the base image was not found";
    const RecordingStages::ScopeLookup& branch_lookup = stages.scope_lookups[2];
    EXPECT_NE(std::string::npos, branch_lookup.key.find("|d[6]=branch|"))
        << branch_lookup.key;
    EXPECT_FALSE(branch_lookup.hit);
  }

  auto served = engine.Evaluate(**plan, specs);
  EXPECT_TRUE(served.ok()) << served.status();
  whatif::WhatIfEngine fresh(branch.rows.get(), &graph, options);
  auto expected = fresh.Run(*stmt->whatif);
  EXPECT_TRUE(expected.ok()) << expected.status();
  if (served.ok() && expected.ok()) {
    EXPECT_EQ(expected->value, served->value) << query;
    EXPECT_EQ(expected->updated_rows, served->updated_rows) << query;
  }
  return (*plan)->updated_rows();
}

TEST_F(ServiceTest, BranchScopeBuildPatchesTheCachedBaseImage) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  // One Savings cell moves row 5 into (or out of) the When set.
  const Table& german = *db_.GetTable("German").value();
  const size_t savings = german.schema().IndexOf("Savings").value();
  const bool was_two = german.At(5, savings).Equals(Value::Int(2));
  const std::string query =
      "Use German When Savings = 2 Update(Status) = 2 Output Count(Credit = 1)";
  const OneCellBranch branch = MakeOneCellBranch(
      db_, "German", 5, "Savings", Value::Int(was_two ? 0 : 2));
  whatif::WhatIfEngine base_engine(&db_, &graph_, options);
  const size_t base_s = base_engine.RunSql(query)->updated_rows;
  const size_t branch_s =
      ExpectBranchPatchesBaseImage(db_, graph_, options, query, branch);
  EXPECT_EQ(was_two ? base_s - 1 : base_s + 1, branch_s);
}

// An int written into a kDouble column widens in place: the patch keeps the
// column's kind, and the answer still equals a fresh run over the patched
// rows.
TEST_F(ServiceTest, BranchScopePatchWidensAnIntIntoADoubleColumn) {
  data::GermanOptions german_options;
  german_options.rows = 800;
  german_options.seed = 11;
  german_options.continuous_amount = true;
  auto ds = data::MakeGermanSyn(german_options);
  ASSERT_TRUE(ds.ok()) << ds.status();
  const Table& german = *ds->db.GetTable("German").value();
  const size_t amount = german.schema().IndexOf("CreditAmount").value();
  ASSERT_EQ(ValueType::kDouble, german.At(9, amount).type());
  const bool above = german.At(9, amount).AsDouble().value() > 4000.0;
  const OneCellBranch branch = MakeOneCellBranch(
      ds->db, "German", 9, "CreditAmount", Value::Int(above ? 100 : 9000));
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  const std::string query =
      "Use German When CreditAmount > 4000 Update(Status) = 2 "
      "Output Count(Credit = 1)";
  whatif::WhatIfEngine base_engine(&ds->db, &ds->graph, options);
  const size_t base_s = base_engine.RunSql(query)->updated_rows;
  const size_t branch_s =
      ExpectBranchPatchesBaseImage(ds->db, ds->graph, options, query, branch);
  EXPECT_EQ(above ? base_s - 1 : base_s + 1, branch_s);
}

// A patched branch image shares every column it does not write with the
// base image. Evict the base image and drop every other holder of it while
// the branch plan is live: the branch plan keeps the shared columns alive
// and answers bit-identically (asan and tsan run this through check.sh).
TEST_F(ServiceTest, EvictedBaseImageLeavesPatchedBranchPlanServing) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  const Table& german = *db_.GetTable("German").value();
  const size_t savings = german.schema().IndexOf("Savings").value();
  const bool was_two = german.At(3, savings).Equals(Value::Int(2));
  const OneCellBranch branch = MakeOneCellBranch(
      db_, "German", 3, "Savings", Value::Int(was_two ? 0 : 2));
  auto stmt = sql::ParseSql(kAvgQuery);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const std::vector<whatif::UpdateSpec> specs =
      whatif::SpecsOfStatement(*stmt->whatif);
  StageCache cache(64);
  RecordingStages stages(&cache);

  const whatif::StageContext base_ctx = BranchContext(&stages, "base", nullptr);
  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto base_plan = engine.Prepare(*stmt->whatif, &base_ctx);
  ASSERT_TRUE(base_plan.ok()) << base_plan.status();

  const whatif::StageContext ctx = BranchContext(&stages, "branch", &branch);
  auto plan = engine.Prepare(*stmt->whatif, &ctx);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The base build, then the branch build's base lookup and its own.
  ASSERT_EQ(3u, stages.scope_lookups.size());
  ASSERT_TRUE(stages.scope_lookups[1].hit)
      << "the branch image was not patched";
  auto before = engine.Evaluate(**plan, specs);
  ASSERT_TRUE(before.ok()) << before.status();

  // Every entry keyed by the base scope goes (scope, learn, query); the
  // branch's keys say "d[6]=branch" and stay.
  std::weak_ptr<const void> base_image = stages.scope_lookups[1].stage;
  ASSERT_FALSE(base_image.expired());
  EXPECT_EQ(3u, cache.EvictTagged("|d[4]=base"));
  base_plan->reset();
  EXPECT_TRUE(base_image.expired()) << "something else holds the base image";

  auto after = engine.Evaluate(**plan, specs);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(before->value, after->value);
  whatif::WhatIfEngine fresh(branch.rows.get(), &graph_, options);
  EXPECT_EQ(fresh.RunSql(kAvgQuery)->value, after->value);
}

// The engine fingerprints a table view's restricted delta from the
// context's override cells behind its shape scope; no caller computes it.
// A one-cell delta outside kQuery's training attributes (Savings: the
// adjustment set is {Age, Housing}) shares the trunk's LearnStage, and one
// inside them (Housing) builds its own.
TEST_F(ServiceTest, EngineFingerprintsTheRestrictedDeltaFromOverrides) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto stmt = sql::ParseSql(kQuery);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const Table& german = *db_.GetTable("German").value();
  const std::map<std::string, TableCellOverrides> no_overrides;
  for (const std::string attribute : {"Savings", "Housing"}) {
    StageCache cache(64);
    whatif::StageContext trunk_ctx = BranchContext(&cache, "base", nullptr);
    trunk_ctx.overrides = &no_overrides;
    whatif::WhatIfEngine trunk(&db_, &graph_, options);
    ASSERT_TRUE(trunk.Prepare(*stmt->whatif, &trunk_ctx).ok());

    const size_t attr = german.schema().IndexOf(attribute).value();
    const bool was_two = german.At(3, attr).Equals(Value::Int(2));
    const OneCellBranch branch = MakeOneCellBranch(
        db_, "German", 3, attribute, Value::Int(was_two ? 0 : 2));
    const whatif::StageContext ctx = BranchContext(&cache, "branch", &branch);
    auto plan = trunk.Prepare(*stmt->whatif, &ctx);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(attribute == "Savings" ? 1u : 2u, cache.stats().learn.misses)
        << attribute;

    auto served =
        trunk.Evaluate(**plan, whatif::SpecsOfStatement(*stmt->whatif));
    ASSERT_TRUE(served.ok()) << served.status();
    whatif::WhatIfEngine fresh(branch.rows.get(), &graph_, options);
    EXPECT_EQ(fresh.RunSql(kQuery)->value, served->value) << attribute;
  }
}

// --- the apply path's When ------------------------------------------------

// |S| of the apply statement's When over `relation` of the scenario's
// effective world, counted row by row with the interpreting evaluator.
size_t RowByRowWhenCount(ScenarioService& service, const std::string& scenario,
                         const std::string& relation,
                         const std::string& apply_sql) {
  auto world = service.EffectiveDatabase(scenario);
  auto parsed = sql::ParseSql(apply_sql);
  EXPECT_TRUE(world.ok()) << world.status();
  EXPECT_TRUE(parsed.ok() && parsed->whatif != nullptr &&
              parsed->whatif->when != nullptr);
  if (!world.ok() || !parsed.ok()) return 0;
  const Table& table = *(*world)->GetTable(relation).value();
  size_t count = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    relational::Env env;
    env.Bind(relation, &table.schema(), &table.row(r));
    auto selected = relational::EvalPredicate(*parsed->whatif->when, env);
    EXPECT_TRUE(selected.ok()) << selected.status();
    if (selected.ok() && *selected) ++count;
  }
  return count;
}

TEST_F(ServiceTest, ApplyWhenOverStringAndNullColumnsMatchesRowByRowCount) {
  Database db;
  Table t(Schema("Shop",
                 {{"Id", ValueType::kInt, Mutability::kImmutable},
                  {"Color", ValueType::kString, Mutability::kMutable},
                  {"Sales", ValueType::kInt, Mutability::kMutable}},
                 {"Id"}));
  const char* colors[] = {"red", "blue", "green"};
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(t.Append({Value::Int(i),
                          i % 5 == 4 ? Value::Null()
                                     : Value::String(colors[i % 3]),
                          i % 4 == 1 ? Value::Null() : Value::Int(i % 6)})
                    .ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ScenarioService service(db, causal::CausalGraph(), ServiceOptions{});
  ASSERT_TRUE(service.CreateScenario("b").ok());

  const char* applies[] = {
      // String column: equality (the code kernel) and an ordered compare
      // (strings, row by row).
      "Use Shop When Color = 'red' Update(Sales) = 7 Output Count(*)",
      "Use Shop When Color > 'blue' Update(Sales) = 8 Output Count(*)",
      // NULL cells: NULL sorts first and equals nothing.
      "Use Shop When Sales > 2 Update(Color) = 'pink' Output Count(*)",
      "Use Shop When Sales < 3 Update(Color) = 'teal' Output Count(*)",
      "Use Shop When Color <> 'teal' Update(Sales) = 9 Output Count(*)",
  };
  for (const char* apply : applies) {
    const size_t expected = RowByRowWhenCount(service, "b", "Shop", apply);
    auto updated = service.ApplyHypotheticalSql("b", apply);
    ASSERT_TRUE(updated.ok()) << apply << ": " << updated.status();
    EXPECT_EQ(expected, *updated) << apply;
    EXPECT_GT(*updated, 0u) << apply;
  }
}

// The When of an apply on a chained branch reads the cells an earlier apply
// (on its parent) overrode.
TEST_F(ServiceTest, ApplyWhenReadsCellsAnEarlierChainedApplyOverrode) {
  auto service = MakeService(EngineOptions(whatif::BackdoorMode::kGraph,
                                           learn::EstimatorKind::kFrequency));
  ASSERT_TRUE(service->CreateScenario("b1").ok());
  auto first = service->ApplyHypotheticalSql(
      "b1", "Use German When Id = 3 Update(Savings) = 7 Output Count(*)");
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(1u, *first);
  ASSERT_TRUE(service->CreateScenario("b2", "b1").ok());

  const std::string chained =
      "Use German When Savings = 7 Or Savings = 1 Update(Housing) = 2 "
      "Output Count(*)";
  const size_t expected = RowByRowWhenCount(*service, "b2", "German", chained);
  auto updated = service->ApplyHypotheticalSql("b2", chained);
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_EQ(expected, *updated);
  // Only b1's override gives a row Savings 7.
  const std::string only_override =
      "Use German When Savings = 7 Update(Status) = 0 Output Count(*)";
  EXPECT_EQ(1u, RowByRowWhenCount(*service, "b2", "German", only_override));
  auto single = service->ApplyHypotheticalSql("b2", only_override);
  ASSERT_TRUE(single.ok()) << single.status();
  EXPECT_EQ(1u, *single);
  // main never saw it.
  auto on_main = service->ApplyHypotheticalSql("main", only_override);
  ASSERT_TRUE(on_main.ok()) << on_main.status();
  EXPECT_EQ(0u, *on_main);
}

// Staged answers over main and a branch, across When-variants, match the
// committed goldens (service.german800.*) at 1/2/4/8 threads.
TEST_F(ServiceTest, StagedAnswersMatchGoldensAcrossThreads) {
  const golden::GoldenFile goldens = golden::LoadGoldens();
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    whatif::WhatIfOptions options = golden::ServiceCaseOptions();
    options.num_threads = threads;
    for (const std::string& line : golden::ServiceCaseLines(options, threads)) {
      golden::ExpectGolden(goldens, line,
                           "threads=" + std::to_string(threads));
    }
  }
}

// --- type-mismatched writes and mixed columns ----------------------------

ScenarioInfo InfoOf(const ScenarioService& service, const std::string& name) {
  for (const ScenarioInfo& info : service.ListScenarios()) {
    if (info.name == name) return info;
  }
  ADD_FAILURE() << "no scenario " << name;
  return {};
}

// A string written into the int column Savings would leave the branch with
// a column no columnar image can hold; the write is refused before it is
// journaled, the branch does not move, and its queries stay cached.
TEST_F(ServiceTest, BranchWriteOfStringIntoIntColumnIsRejected) {
  auto service = MakeService(EngineOptions(whatif::BackdoorMode::kGraph,
                                           learn::EstimatorKind::kFrequency));
  ASSERT_TRUE(service->CreateScenario("b").ok());
  ASSERT_TRUE(service
                  ->ApplyHypotheticalSql(
                      "b", "Use German When Age = 1 Update(Savings) = 2 "
                           "Output Count(*)")
                  .ok());
  const ScenarioInfo before = InfoOf(*service, "b");

  auto write = service->ApplyHypotheticalSql(
      "b", "Use German When Age = 2 Update(Savings) = 'lots' Output Count(*)");
  EXPECT_EQ(StatusCode::kInvalidArgument, write.status().code());
  EXPECT_NE(std::string::npos, write.status().message().find("Savings"))
      << write.status();
  // A Set constant is checked even when the When clause selects nothing.
  auto empty = service->ApplyHypotheticalSql(
      "b", "Use German When Age = 9 Update(Savings) = 'lots' Output Count(*)");
  EXPECT_EQ(StatusCode::kInvalidArgument, empty.status().code());

  const ScenarioInfo after = InfoOf(*service, "b");
  EXPECT_EQ(before.version, after.version);
  EXPECT_EQ(before.delta_fingerprint, after.delta_fingerprint);
  EXPECT_EQ(before.updates_applied, after.updates_applied);

  // Numeric widening stays allowed: a scaled int column takes doubles.
  EXPECT_TRUE(service
                  ->ApplyHypotheticalSql(
                      "b", "Use German When Id = 3 "
                           "Update(CreditAmount) = 1.5 * Pre(CreditAmount) "
                           "Output Count(*)")
                  .ok());
  EXPECT_EQ(before.updates_applied + 1, InfoOf(*service, "b").updates_applied);

  // Queries on the branch keep their cached plans.
  Response first = service->Submit({"b", kQuery, {}});
  ASSERT_TRUE(first.ok()) << first.status;
  Response second = service->Submit({"b", kQuery, {}});
  ASSERT_TRUE(second.ok()) << second.status;
  EXPECT_FALSE(first.whatif.plan_cache_hit);
  EXPECT_TRUE(second.whatif.plan_cache_hit);
  EXPECT_EQ(first.whatif.value, second.whatif.value);
}

TEST_F(ServiceTest, BranchWriteOfNumberIntoStringColumnIsRejected) {
  Database db;
  Table t(Schema("Shop",
                 {{"Id", ValueType::kInt, Mutability::kImmutable},
                  {"Color", ValueType::kString, Mutability::kMutable},
                  {"Sales", ValueType::kInt, Mutability::kMutable}},
                 {"Id"}));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(t.Append({Value::Int(i), Value::String(i % 2 ? "red" : "blue"),
                          Value::Int(i)})
                    .ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ScenarioService service(db, causal::CausalGraph(), ServiceOptions{});
  ASSERT_TRUE(service.CreateScenario("b").ok());
  auto write = service.ApplyHypotheticalSql(
      "b", "Use Shop Update(Color) = 3 Output Count(*)");
  EXPECT_EQ(StatusCode::kInvalidArgument, write.status().code());
  EXPECT_NE(std::string::npos, write.status().message().find("Color"))
      << write.status();
  EXPECT_EQ(0u, InfoOf(service, "b").updates_applied);
}

// A table whose column mixes strings with ints (possible only through
// AppendUnchecked) has no columnar image: every entry point answers
// InvalidArgument naming the column, and HTTP maps that to 400.
TEST_F(ServiceTest, MixedColumnWhatIfIsInvalidArgument) {
  Database db;
  Table t(Schema("Mixed",
                 {{"Id", ValueType::kInt, Mutability::kImmutable},
                  {"A", ValueType::kInt, Mutability::kMutable},
                  {"B", ValueType::kInt, Mutability::kMutable},
                  {"Y", ValueType::kInt, Mutability::kMutable}},
                 {"Id"}));
  for (int i = 0; i < 8; ++i) {
    t.AppendUnchecked({Value::Int(i), Value::Int(i % 2),
                       i == 3 ? Value::String("three") : Value::Int(i % 3),
                       Value::Int(i % 2)});
  }
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  const causal::CausalGraph no_graph;
  const std::string query = "Use Mixed Update(A) = 1 Output Count(Y = 1)";

  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  whatif::WhatIfEngine engine(&db, &no_graph, options);
  auto run = engine.RunSql(query);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, run.status().code());
  EXPECT_NE(std::string::npos, run.status().message().find("'B'"))
      << run.status();

  ServiceOptions service_options;
  service_options.whatif = options;
  ScenarioService service(db, no_graph, service_options);
  Response submitted = service.Submit({"main", query, {}});
  EXPECT_EQ(StatusCode::kInvalidArgument, submitted.status.code())
      << submitted.status;

  net::QueryHandler handler(&service, nullptr);
  net::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/whatif";
  request.version = "HTTP/1.1";
  request.body = "{\"sql\":\"" + query + "\"}";
  net::HttpResponse response;
  handler.Handle(request, &response);
  EXPECT_EQ(400, response.status) << response.body;
}

// --- the storage substrate the branches ride on ---------------------------

TEST_F(ServiceTest, DatabaseShallowCopyIsCopyOnWrite) {
  Database shallow = db_.ShallowCopy();
  const Table* original = db_.GetTable("German").value();
  EXPECT_EQ(original, shallow.GetTable("German").value());  // shared storage
  EXPECT_EQ(db_.ContentFingerprint(), shallow.ContentFingerprint());

  const Value before = original->At(0, 2);
  Table* detached = shallow.GetMutableTable("German").value();
  EXPECT_NE(static_cast<const Table*>(detached), original);  // detached
  detached->SetValue(0, 2, Value::Int(before.Equals(Value::Int(3)) ? 2 : 3));
  EXPECT_TRUE(db_.GetTable("German").value()->At(0, 2).Equals(before))
      << "mutation leaked into the base";
  EXPECT_NE(db_.ContentFingerprint(), shallow.ContentFingerprint());

  // Deep Clone stays eagerly independent (the SCM oracle mutates through
  // raw Table pointers taken before the clone).
  Database deep = db_.Clone();
  EXPECT_NE(db_.GetTable("German").value(), deep.GetTable("German").value());
  EXPECT_EQ(db_.ContentFingerprint(), deep.ContentFingerprint());
}

}  // namespace
}  // namespace hyper::service
