#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/governance.h"
#include "common/stopwatch.h"
#include "data/datasets.h"
#include "service/scenario_service.h"
#include "whatif/engine.h"

namespace hyper::service {
namespace {

// ---------------------------------------------------------------------------
// The one timing gate in ctest (label `perf`, never `service`: sanitizer
// builds would distort it). A generous budget plus an attached, never
// tripped cancel token arms the whole governance machinery (guard, stage
// checkpoints, row/byte meters, loop checks) on a warm what-if that never
// aborts. The governed warm path must stay within 2% of the ungoverned one,
// and both must answer bit-identically from the warm plan.
//
// Protocol: 150 interleaved ungoverned/governed warm Submit pairs, and the
// minimum per arm, which converges on each arm's no-interference floor. At
// this query's floor of tens of microseconds 2% is about a microsecond, so
// an over-budget measurement is re-measured up to twice more (a real
// regression persists across attempts, a preempted run does not), and a gap
// of at most 3 us passes as timer granularity.
// ---------------------------------------------------------------------------

constexpr size_t kPairs = 150;
constexpr int kAttempts = 3;
constexpr double kMaxOverhead = 0.02;
constexpr double kSlackSeconds = 3e-6;

TEST(GovernanceOverheadTest, GovernedWarmSubmitWithinTwoPercent) {
  auto ds = data::MakeByName("german-syn-20k", /*scale=*/0.05, /*seed=*/23);
  ASSERT_TRUE(ds.ok()) << ds.status();
  ServiceOptions options;
  options.whatif.estimator = learn::EstimatorKind::kForest;
  options.whatif.forest.num_trees = 4;
  options.num_threads = 1;
  ScenarioService service(ds->db, ds->graph, options);

  const std::string query =
      "Use German When Status = 1 Update(Status) = 2 "
      "Output Count(Credit = 1)";
  whatif::WhatIfEngine fresh(&ds->db, &ds->graph, options.whatif);
  auto expected = fresh.RunSql(query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  Response cold = service.Submit({"main", query, {}});
  ASSERT_TRUE(cold.ok()) << cold.status;

  const Request ungoverned{"main", query, {}};
  Request governed{"main", query, {}};
  governed.budget.deadline_seconds = 3600.0;
  governed.budget.max_rows_touched = size_t{1} << 40;
  governed.budget.max_bytes_materialized = size_t{1} << 50;
  governed.cancel_token = CancelToken::Make();

  Stopwatch timer;
  double ungoverned_best = 1e30;
  double governed_best = 1e30;
  double overhead = 1e30;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    for (size_t i = 0; i < kPairs; ++i) {
      timer.Restart();
      const Response plain = service.Submit(ungoverned);
      ungoverned_best = std::min(ungoverned_best, timer.ElapsedSeconds());
      ASSERT_TRUE(plain.ok()) << plain.status;
      ASSERT_EQ(expected->value, plain.whatif.value);

      timer.Restart();
      const Response armed = service.Submit(governed);
      governed_best = std::min(governed_best, timer.ElapsedSeconds());
      ASSERT_TRUE(armed.ok()) << armed.status;
      ASSERT_EQ(expected->value, armed.whatif.value);
      ASSERT_TRUE(armed.whatif.plan_cache_hit);
    }
    overhead = std::min(overhead, governed_best / ungoverned_best - 1.0);
    if (overhead <= kMaxOverhead) break;
  }
  const double gap = governed_best - ungoverned_best;
  std::printf("ungoverned %.2f us, governed %.2f us: overhead %.2f%%\n",
              ungoverned_best * 1e6, governed_best * 1e6, overhead * 100.0);
  EXPECT_TRUE(overhead <= kMaxOverhead || gap <= kSlackSeconds)
      << "governed warm path " << overhead * 100.0 << "% ("
      << gap * 1e6 << " us) slower than ungoverned";
}

}  // namespace
}  // namespace hyper::service
