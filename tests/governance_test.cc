#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/governance.h"
#include "data/datasets.h"
#include "howto/engine.h"
#include "service/plan_cache.h"
#include "service/scenario_service.h"
#include "sql/parser.h"
#include "whatif/engine.h"

namespace hyper {
namespace {

// The resource-governance contract under test:
//   - every abort (deadline, budget, cancellation, injected fault) returns
//     a typed Status (kDeadlineExceeded / kResourceExhausted / kCancelled /
//     kUnavailable) through normal unwinding — no hangs, no crashes;
//   - an abort never leaves a partial plan- or stage-cache entry, so a
//     retry after the abort answers BIT-FOR-BIT equal (==, not NEAR) to a
//     fresh ungoverned run at any thread count;
//   - admission control sheds and drains with kUnavailable and its
//     counters reconcile.

// --- fault-injection hooks -------------------------------------------------
// governance::FaultHook is a captureless function pointer, so the hooks
// communicate through file statics. Every test that installs a hook clears
// it via HookGuard before asserting bit-equality.

std::mutex g_hook_mu;
std::set<std::string> g_seen_checkpoints;  // filled by RecordingHook
std::string g_abort_checkpoint;            // AbortHook's target
std::atomic<size_t> g_abort_hits{0};

// Blocking-hook state: BlockingHook parks governed requests at
// "whatif.eval.rows" until ReleaseBlockedRequests(), giving admission tests
// a deterministic window in which a slot is provably occupied.
std::mutex g_block_mu;
std::condition_variable g_block_cv;
bool g_block_enabled = false;
size_t g_blocked_now = 0;

Status RecordingHook(const char* checkpoint) {
  std::lock_guard<std::mutex> lock(g_hook_mu);
  g_seen_checkpoints.insert(checkpoint);
  return Status::OK();
}

Status AbortHook(const char* checkpoint) {
  {
    std::lock_guard<std::mutex> lock(g_hook_mu);
    if (g_abort_checkpoint != checkpoint) return Status::OK();
  }
  ++g_abort_hits;
  return Status::ResourceExhausted(std::string("injected fault at ") +
                                   checkpoint);
}

Status BlockingHook(const char* checkpoint) {
  if (std::string_view(checkpoint) != "whatif.eval.rows") return Status::OK();
  std::unique_lock<std::mutex> lock(g_block_mu);
  if (!g_block_enabled) return Status::OK();
  ++g_blocked_now;
  g_block_cv.notify_all();
  g_block_cv.wait(lock, [] { return !g_block_enabled; });
  --g_blocked_now;
  return Status::OK();
}

void ArmBlockingHook() {
  std::lock_guard<std::mutex> lock(g_block_mu);
  g_block_enabled = true;
  governance::SetFaultHook(&BlockingHook);
}

void AwaitBlockedRequests(size_t n) {
  std::unique_lock<std::mutex> lock(g_block_mu);
  g_block_cv.wait(lock, [n] { return g_blocked_now >= n; });
}

void ReleaseBlockedRequests() {
  std::lock_guard<std::mutex> lock(g_block_mu);
  g_block_enabled = false;
  g_block_cv.notify_all();
}

struct HookGuard {
  explicit HookGuard(governance::FaultHook hook) {
    governance::SetFaultHook(hook);
  }
  ~HookGuard() { governance::SetFaultHook(nullptr); }
};

// --- fixture ---------------------------------------------------------------

class GovernanceTest : public ::testing::Test {
 protected:
  GovernanceTest() {
    data::GermanOptions options;
    options.rows = 400;
    options.seed = 11;
    auto ds = data::MakeGermanSyn(options);
    EXPECT_TRUE(ds.ok()) << ds.status();
    db_ = std::move(ds->db);
    graph_ = std::move(ds->graph);
    governance::SetFaultHook(nullptr);  // never inherit a stale hook
  }
  ~GovernanceTest() override { governance::SetFaultHook(nullptr); }

  whatif::WhatIfOptions EngineOptions() const {
    whatif::WhatIfOptions options;
    options.estimator = learn::EstimatorKind::kFrequency;
    return options;
  }

  std::unique_ptr<service::ScenarioService> MakeService(
      size_t num_threads = 1, size_t max_concurrent = 0,
      size_t max_queued = 0) const {
    service::ServiceOptions options;
    options.whatif = EngineOptions();
    options.whatif.num_threads = num_threads;
    options.num_threads = num_threads;
    options.max_concurrent_requests = max_concurrent;
    options.max_queued_requests = max_queued;
    return std::make_unique<service::ScenarioService>(db_, graph_, options);
  }

  double FreshRun(const std::string& query) const {
    whatif::WhatIfEngine engine(&db_, &graph_, EngineOptions());
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
constexpr const char* kHowToQuery =
    "Use German HowToUpdate Status ToMaximize Count(Credit = 1)";

// --- primitives ------------------------------------------------------------

TEST(CancelTokenTest, DetachedTokenNeverCancels) {
  CancelToken token;
  EXPECT_FALSE(token.attached());
  token.RequestCancel();  // no-op, not a crash
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTokenTest, CopiesShareOneFlag) {
  CancelToken token = CancelToken::Make();
  CancelToken copy = token;
  EXPECT_TRUE(copy.attached());
  EXPECT_FALSE(copy.cancelled());
  token.RequestCancel();
  EXPECT_TRUE(copy.cancelled());
}

TEST(ExecGuardTest, ArmReturnsNullWhenNothingToGovern) {
  EXPECT_TRUE(QueryBudget{}.Unlimited());
  EXPECT_EQ(nullptr, governance::ExecGuard::Arm({}, {}));

  QueryBudget budget;
  budget.max_rows_touched = 10;
  EXPECT_FALSE(budget.Unlimited());
  EXPECT_NE(nullptr, governance::ExecGuard::Arm(budget, {}));
  EXPECT_NE(nullptr, governance::ExecGuard::Arm({}, CancelToken::Make()));

  // An installed fault hook governs everything (tests need every request
  // to pass through its checkpoints).
  HookGuard hook(&RecordingHook);
  EXPECT_NE(nullptr, governance::ExecGuard::Arm({}, {}));
}

TEST(ExecGuardTest, TypedAbortsAndStickiness) {
  // Cancellation.
  CancelToken token = CancelToken::Make();
  governance::ExecGuardPtr guard = governance::ExecGuard::Arm({}, token);
  ASSERT_NE(nullptr, guard);
  EXPECT_TRUE(guard->Check("t.start").ok());
  token.RequestCancel();
  EXPECT_EQ(StatusCode::kCancelled, guard->Check("t.mid").code());

  // Deadline: already expired by the time of the first check.
  QueryBudget deadline;
  deadline.deadline_seconds = 1e-9;
  guard = governance::ExecGuard::Arm(deadline, {});
  ASSERT_NE(nullptr, guard);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(StatusCode::kDeadlineExceeded, guard->Check("t.late").code());
  // Sticky: the deadline never un-expires.
  EXPECT_EQ(StatusCode::kDeadlineExceeded, guard->Check("t.later").code());

  // Row meter: charging may overshoot within one stride, but the charge
  // that crosses the budget aborts.
  QueryBudget rows;
  rows.max_rows_touched = 10;
  guard = governance::ExecGuard::Arm(rows, {});
  ASSERT_NE(nullptr, guard);
  EXPECT_TRUE(guard->ChargeRows(10, "t.rows").ok());  // exactly at budget
  Status busted = guard->ChargeRows(1, "t.rows");
  EXPECT_EQ(StatusCode::kResourceExhausted, busted.code());
  EXPECT_NE(std::string::npos, busted.ToString().find("t.rows"))
      << "abort must name its checkpoint: " << busted;
  // Sticky: meters never decrease, so every later checkpoint agrees.
  EXPECT_EQ(StatusCode::kResourceExhausted, guard->Check("t.after").code());
  EXPECT_EQ(11u, guard->rows_touched());

  // Byte meter.
  QueryBudget bytes;
  bytes.max_bytes_materialized = 1024;
  guard = governance::ExecGuard::Arm(bytes, {});
  ASSERT_NE(nullptr, guard);
  EXPECT_TRUE(guard->ChargeBytes(1024, "t.bytes").ok());
  EXPECT_EQ(StatusCode::kResourceExhausted,
            guard->ChargeBytes(1, "t.bytes").code());
}

TEST(ExecGuardTest, DeadlinesPastTheClockRangeAreUnlimited) {
  // 1e10 s is past steady_clock's range in nanoseconds (about 292 years);
  // such a deadline, and an infinite one, can never expire.
  for (double seconds : {1e10, 1e300, std::numeric_limits<double>::infinity()}) {
    QueryBudget far;
    far.deadline_seconds = seconds;
    const governance::ExecGuard guard(far, {});
    EXPECT_TRUE(guard.Check("t.far").ok()) << seconds;
  }
  // A deadline inside the range still expires.
  QueryBudget near;
  near.deadline_seconds = 1e-9;
  const governance::ExecGuard guard(near, {});
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(StatusCode::kDeadlineExceeded, guard.Check("t.near").code());
}

TEST(ExecGuardTest, LoopCheckStride) {
  governance::LoopCheck ungoverned(nullptr);
  for (int i = 0; i < 5000; ++i) EXPECT_FALSE(ungoverned.Due());

  QueryBudget rows;
  rows.max_rows_touched = 1;
  governance::ExecGuardPtr guard = governance::ExecGuard::Arm(rows, {});
  governance::LoopCheck check(guard.get(), /*stride=*/8);
  size_t due = 0;
  for (int i = 1; i <= 64; ++i) {
    if (check.Due()) {
      ++due;
      EXPECT_EQ(0, i % 8) << "due off-stride at tick " << i;
    }
  }
  EXPECT_EQ(8u, due);
}

TEST(ExecGuardTest, GovernanceAbortPredicate) {
  EXPECT_TRUE(governance::IsGovernanceAbort(Status::Cancelled("x")));
  EXPECT_TRUE(governance::IsGovernanceAbort(Status::DeadlineExceeded("x")));
  EXPECT_TRUE(governance::IsGovernanceAbort(Status::ResourceExhausted("x")));
  EXPECT_TRUE(governance::IsGovernanceAbort(Status::Unavailable("x")));
  EXPECT_FALSE(governance::IsGovernanceAbort(Status::OK()));
  EXPECT_FALSE(governance::IsGovernanceAbort(Status::InvalidArgument("x")));
}

// --- engine-level aborts ---------------------------------------------------

TEST_F(GovernanceTest, EngineDeadlineAbortIsTyped) {
  whatif::WhatIfOptions options = EngineOptions();
  options.budget.deadline_seconds = 1e-9;
  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto result = engine.RunSql(kQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(StatusCode::kDeadlineExceeded, result.status().code())
      << result.status();
}

TEST_F(GovernanceTest, EngineRowBudgetAbortIsTyped) {
  whatif::WhatIfOptions options = EngineOptions();
  options.budget.max_rows_touched = 5;  // the 400-row view busts this
  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto result = engine.RunSql(kQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(StatusCode::kResourceExhausted, result.status().code())
      << result.status();
}

TEST_F(GovernanceTest, EngineByteBudgetAbortIsTyped) {
  whatif::WhatIfOptions options = EngineOptions();
  options.budget.max_bytes_materialized = 64;  // one column image busts this
  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto result = engine.RunSql(kQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(StatusCode::kResourceExhausted, result.status().code())
      << result.status();
}

TEST_F(GovernanceTest, EngineCancellationAbortIsTyped) {
  whatif::WhatIfOptions options = EngineOptions();
  options.cancel_token = CancelToken::Make();
  options.cancel_token.RequestCancel();  // cancelled before it starts
  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto result = engine.RunSql(kQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(StatusCode::kCancelled, result.status().code()) << result.status();
}

TEST_F(GovernanceTest, HowToBudgetAbortIsTyped) {
  howto::HowToOptions options;
  options.whatif = EngineOptions();
  options.whatif.budget.max_rows_touched = 5;
  howto::HowToEngine engine(&db_, &graph_, options);
  auto result = engine.RunSql(kHowToQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(StatusCode::kResourceExhausted, result.status().code())
      << result.status();
}

TEST_F(GovernanceTest, HowToEnumerationMetersOneViewBuild) {
  // Enumeration reads the view's ScopeStage image. Without a stage context
  // it builds that image itself and charges the scan and the image to the
  // run's guard, so a direct run meters one view build more than its
  // baseline and per-attribute prepares charge; a service run's warm
  // enumeration is a scope-section hit and charges nothing.
  QueryBudget generous;
  generous.max_rows_touched = 1u << 30;
  generous.max_bytes_materialized = size_t{1} << 40;
  const governance::ExecGuardPtr guard =
      governance::ExecGuard::Arm(generous, {});
  howto::HowToOptions options;
  options.whatif = EngineOptions();
  options.whatif.exec_guard = guard;
  const howto::HowToEngine engine(&db_, &graph_, options);
  auto stmt = sql::ParseSql(kHowToQuery);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  auto candidates = engine.EnumerateCandidates(*stmt->howto);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  const Table* german = db_.GetTable("German").value();
  EXPECT_EQ(german->num_rows(), guard->rows_touched());
  EXPECT_EQ(german->num_rows() * german->schema().num_attributes() *
                sizeof(double),
            guard->bytes_materialized());
}

TEST_F(GovernanceTest, GenerousBudgetAnswersBitEqualToUngoverned) {
  const double expected = FreshRun(kQuery);
  whatif::WhatIfOptions options = EngineOptions();
  options.budget.deadline_seconds = 3600.0;
  options.budget.max_rows_touched = 1u << 30;
  options.budget.max_bytes_materialized = size_t{1} << 40;
  options.cancel_token = CancelToken::Make();  // attached, never tripped
  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto result = engine.RunSql(kQuery);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(expected, result->value);  // bit-equal, not NEAR

  // Through the service: budgets and tokens never enter a cache key, so a
  // governed request hits the plan an ungoverned one warmed.
  auto service = MakeService();
  service::Response warm = service->Submit({"main", kQuery, {}});
  ASSERT_TRUE(warm.ok()) << warm.status;
  service::Request governed{"main", kQuery, {}};
  governed.budget = options.budget;
  governed.cancel_token = CancelToken::Make();
  service::Response served = service->Submit(governed);
  ASSERT_TRUE(served.ok()) << served.status;
  EXPECT_TRUE(served.whatif.plan_cache_hit);
  EXPECT_EQ(expected, served.whatif.value);
}

// A LearnStage outlives the request that built it, in the stage cache. It
// keeps the estimator configuration its training reads and nothing of the
// request: once the engine, the plan and the request's handle are gone, the
// request's pre-armed guard is freed although its LearnStage stays cached.
TEST_F(GovernanceTest, CachedLearnStageDoesNotKeepTheRequestGuard) {
  service::StageCache cache(8);
  whatif::StageContext ctx;
  ctx.stages = &cache;
  ctx.data_scope = "d";
  QueryBudget budget;
  budget.deadline_seconds = 3600.0;
  whatif::WhatIfOptions options = EngineOptions();
  options.exec_guard = governance::ExecGuard::Arm(budget, CancelToken::Make());
  ASSERT_NE(nullptr, options.exec_guard);
  const std::weak_ptr<governance::ExecGuard> guard = options.exec_guard;
  {
    whatif::WhatIfEngine engine(&db_, &graph_, options);
    options.exec_guard.reset();
    auto stmt = sql::ParseSql(kAvgQuery);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    auto plan = engine.Prepare(*stmt->whatif, &ctx);
    ASSERT_TRUE(plan.ok()) << plan.status();
    auto result =
        engine.Evaluate(**plan, whatif::SpecsOfStatement(*stmt->whatif));
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(FreshRun(kAvgQuery), result->value);
  }
  // The query section holds the plan; the learn section keeps its stage.
  EXPECT_EQ(1u, cache.EvictTagged("query|"));
  EXPECT_EQ(1u, cache.stats().learn.entries);
  EXPECT_TRUE(guard.expired()) << "a cached stage keeps the request's guard";
}

// --- service-level aborts and counters ------------------------------------

TEST_F(GovernanceTest, ServiceBudgetedSubmitAbortsTypedAndRetryIsBitEqual) {
  const double expected = FreshRun(kQuery);
  auto service = MakeService();

  service::Request governed{"main", kQuery, {}};
  governed.budget.deadline_seconds = 1e-9;
  service::Response bounded = service->Submit(governed);
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(StatusCode::kDeadlineExceeded, bounded.status.code())
      << bounded.status;

  // The abort left no partial cache entries: the ungoverned retry prepares
  // from scratch and answers bit-equal to a fresh engine run.
  service::Response retry = service->Submit({"main", kQuery, {}});
  ASSERT_TRUE(retry.ok()) << retry.status;
  EXPECT_EQ(expected, retry.whatif.value);

  service::GovernanceStats stats = service->governance_stats();
  EXPECT_EQ(2u, stats.admitted);
  EXPECT_EQ(2u, stats.completed);
  EXPECT_EQ(1u, stats.deadline_exceeded);
  EXPECT_EQ(0u, stats.in_flight);
}

TEST_F(GovernanceTest, ServiceSweepUnderDeadlineAbortsTypedAndRetryIsBitEqual) {
  auto service = MakeService();
  service::Request sweep{"main", kQuery, {}};
  sweep.expected_kind = service::Response::Kind::kWhatIfBatch;
  for (int status = 0; status <= 3; ++status) {
    whatif::UpdateSpec spec;
    spec.attribute = "Status";
    spec.func = sql::UpdateFuncKind::kSet;
    spec.constant = Value::Int(status);
    sweep.interventions.push_back({spec});
  }

  service::Request bounded = sweep;
  bounded.budget.deadline_seconds = 1e-9;
  service::Response aborted = service->Submit(bounded);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(StatusCode::kDeadlineExceeded, aborted.status.code())
      << aborted.status;

  // The abort cached nothing partial: the ungoverned retry answers every
  // intervention bit-equal to a fresh single run.
  service::Response retry = service->Submit(sweep);
  ASSERT_TRUE(retry.ok()) << retry.status;
  EXPECT_EQ(service::Response::Kind::kWhatIfBatch, retry.kind);
  ASSERT_EQ(4u, retry.items.size());
  for (int status = 0; status <= 3; ++status) {
    ASSERT_TRUE(retry.items[status].ok()) << retry.items[status].status;
    EXPECT_EQ(FreshRun("Use German When Status = 1 Update(Status) = " +
                       std::to_string(status) + " Output Count(Credit = 1)"),
              retry.items[status].result.value)
        << "Status <- " << status;
  }

  // One admission slot per sweep.
  service::GovernanceStats stats = service->governance_stats();
  EXPECT_EQ(2u, stats.admitted);
  EXPECT_EQ(2u, stats.completed);
  EXPECT_EQ(1u, stats.deadline_exceeded);
}

TEST_F(GovernanceTest, ServiceDefaultRowBudgetBoundsPrepareAndEvaluateTogether) {
  // The rows a cold prepare of kQuery and its evaluation each charge, each
  // on a guard of its own.
  QueryBudget generous;
  generous.max_rows_touched = 1u << 30;
  auto stmt = sql::ParseSql(kQuery);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  whatif::WhatIfOptions metered = EngineOptions();
  metered.exec_guard = governance::ExecGuard::Arm(generous, {});
  const whatif::WhatIfEngine preparer(&db_, &graph_, metered);
  auto plan = preparer.Prepare(*stmt->whatif);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const size_t prepare_rows = metered.exec_guard->rows_touched();
  metered.exec_guard = governance::ExecGuard::Arm(generous, {});
  const whatif::WhatIfEngine evaluator(&db_, &graph_, metered);
  auto answer =
      evaluator.Evaluate(**plan, whatif::SpecsOfStatement(*stmt->whatif));
  ASSERT_TRUE(answer.ok()) << answer.status();
  const size_t eval_rows = metered.exec_guard->rows_touched();
  ASSERT_GT(prepare_rows, 0u);
  ASSERT_GT(eval_rows, 0u);

  // A service default that covers either part alone but not both: one
  // guard spans the request, so the request aborts typed.
  service::ServiceOptions options;
  options.whatif = EngineOptions();
  options.whatif.num_threads = 1;
  options.num_threads = 1;
  options.whatif.budget.max_rows_touched = prepare_rows + eval_rows - 1;
  service::ScenarioService bounded(db_, graph_, options);
  service::Response over = bounded.Submit({"main", kQuery, {}});
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(StatusCode::kResourceExhausted, over.status.code()) << over.status;

  // Covering both parts, the request answers bit-equal to a fresh run.
  options.whatif.budget.max_rows_touched = prepare_rows + eval_rows;
  service::ScenarioService enough(db_, graph_, options);
  service::Response within = enough.Submit({"main", kQuery, {}});
  ASSERT_TRUE(within.ok()) << within.status;
  EXPECT_EQ(FreshRun(kQuery), within.whatif.value);
}

TEST_F(GovernanceTest, ServiceCancellationCountsOutcome) {
  auto service = MakeService();
  service::Request request{"main", kQuery, {}};
  request.cancel_token = CancelToken::Make();
  request.cancel_token.RequestCancel();
  service::Response response = service->Submit(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(StatusCode::kCancelled, response.status.code());
  EXPECT_EQ(1u, service->governance_stats().cancelled);
}

// --- admission control -----------------------------------------------------

TEST_F(GovernanceTest, AdmissionShedsWhenSlotsBusyAndNoQueue) {
  auto service = MakeService(/*num_threads=*/1, /*max_concurrent=*/1,
                             /*max_queued=*/0);
  ArmBlockingHook();

  // Occupy the single slot: the hook parks this request mid-evaluation.
  std::thread holder(
      [&] { EXPECT_TRUE(service->Submit({"main", kQuery, {}}).ok()); });
  AwaitBlockedRequests(1);
  EXPECT_EQ(1u, service->governance_stats().in_flight);

  // No queue configured: the second arrival is shed immediately.
  service::Response shed = service->Submit({"main", kQuery, {}});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(StatusCode::kUnavailable, shed.status.code()) << shed.status;

  ReleaseBlockedRequests();
  holder.join();
  governance::SetFaultHook(nullptr);

  service::GovernanceStats stats = service->governance_stats();
  EXPECT_EQ(1u, stats.shed);
  EXPECT_EQ(1u, stats.admitted);
  EXPECT_EQ(1u, stats.completed);
  EXPECT_EQ(0u, stats.in_flight);
}

TEST_F(GovernanceTest, AdmissionQueuesUpToLimitThenSheds) {
  auto service = MakeService(/*num_threads=*/1, /*max_concurrent=*/1,
                             /*max_queued=*/1);
  ArmBlockingHook();

  std::thread holder(
      [&] { EXPECT_TRUE(service->Submit({"main", kQuery, {}}).ok()); });
  AwaitBlockedRequests(1);

  // Second request queues (observable via the queued_now gauge)...
  std::thread waiter(
      [&] { EXPECT_TRUE(service->Submit({"main", kQuery, {}}).ok()); });
  while (service->governance_stats().queued_now < 1) {
    std::this_thread::yield();
  }

  // ...and with the queue full, a third is shed.
  service::Response shed = service->Submit({"main", kQuery, {}});
  EXPECT_EQ(StatusCode::kUnavailable, shed.status.code()) << shed.status;

  // Release: the holder finishes (the hook no longer parks), the waiter
  // takes the freed slot and runs to completion.
  ReleaseBlockedRequests();
  holder.join();
  waiter.join();
  governance::SetFaultHook(nullptr);

  service::GovernanceStats stats = service->governance_stats();
  EXPECT_EQ(2u, stats.admitted);
  EXPECT_EQ(1u, stats.queued);  // the waiter got a slot only after waiting
  EXPECT_EQ(1u, stats.shed);
  EXPECT_EQ(2u, stats.completed);
  EXPECT_EQ(0u, stats.queued_now);
}

TEST_F(GovernanceTest, DrainRejectsNewAndQueuedRequests) {
  auto service = MakeService(/*num_threads=*/1, /*max_concurrent=*/1,
                             /*max_queued=*/4);
  ArmBlockingHook();

  std::thread holder(
      [&] { EXPECT_TRUE(service->Submit({"main", kQuery, {}}).ok()); });
  AwaitBlockedRequests(1);

  service::Response queued_response;
  std::thread waiter(
      [&] { queued_response = service->Submit({"main", kQuery, {}}); });
  while (service->governance_stats().queued_now < 1) {
    std::this_thread::yield();
  }

  // Drain: the queued request is rejected without running; the in-flight
  // holder finishes normally; brand-new arrivals bounce immediately.
  service->BeginDrain();
  EXPECT_TRUE(service->draining());
  waiter.join();
  EXPECT_EQ(StatusCode::kUnavailable, queued_response.status.code())
      << queued_response.status;

  service::Response late = service->Submit({"main", kQuery, {}});
  EXPECT_EQ(StatusCode::kUnavailable, late.status.code());

  ReleaseBlockedRequests();
  holder.join();
  governance::SetFaultHook(nullptr);
  service->AwaitIdle();

  service::GovernanceStats stats = service->governance_stats();
  EXPECT_EQ(1u, stats.admitted);
  EXPECT_EQ(2u, stats.rejected_draining);
  EXPECT_EQ(1u, stats.completed);
  EXPECT_EQ(0u, stats.in_flight);
  EXPECT_EQ(0u, stats.queued_now);
  EXPECT_TRUE(stats.draining);
}

// --- fault-injection matrix ------------------------------------------------

// The full workload mix: cold + warm what-ifs, an Avg(Post(...)), a how-to
// scoring pass, and a what-if batch sweep — together they visit every
// governance checkpoint in the engine.
std::vector<service::Response> RunWorkload(service::ScenarioService& service) {
  std::vector<service::Response> responses;
  responses.push_back(service.Submit({"main", kQuery, {}}));
  responses.push_back(service.Submit({"main", kQuery, {}}));  // warm
  responses.push_back(service.Submit({"main", kAvgQuery, {}}));
  responses.push_back(service.Submit({"main", kHowToQuery, {}}));

  service::Request sweep{"main", kQuery, {}};
  sweep.expected_kind = service::Response::Kind::kWhatIfBatch;
  for (int status = 2; status <= 3; ++status) {
    whatif::UpdateSpec spec;
    spec.attribute = "Status";
    spec.func = sql::UpdateFuncKind::kSet;
    spec.constant = Value::Int(status);
    sweep.interventions.push_back({spec});
  }
  service::Response batch = service.Submit(sweep);
  if (!batch.ok()) {
    responses.push_back(std::move(batch));
    return responses;
  }
  for (const service::WhatIfBatchItem& item : batch.items) {
    service::Response r;
    r.status = item.status;
    r.kind = service::Response::Kind::kWhatIf;
    r.whatif = item.result;
    responses.push_back(r);
  }
  return responses;
}

TEST_F(GovernanceTest, FaultInjectionMatrixAbortsCleanlyAtEveryCheckpoint) {
  // Phase 1: discover the checkpoint set by running the workload under a
  // recording hook (the hook itself makes every request governed).
  {
    std::lock_guard<std::mutex> lock(g_hook_mu);
    g_seen_checkpoints.clear();
  }
  {
    HookGuard hook(&RecordingHook);
    auto service = MakeService(/*num_threads=*/2);
    for (const service::Response& r : RunWorkload(*service)) {
      ASSERT_TRUE(r.ok()) << r.status;  // a recording hook aborts nothing
    }
  }
  std::vector<std::string> checkpoints;
  {
    std::lock_guard<std::mutex> lock(g_hook_mu);
    checkpoints.assign(g_seen_checkpoints.begin(), g_seen_checkpoints.end());
  }
  // The matrix must cover every cancellation point the engine declares; a
  // missing name here means the workload no longer reaches it (or a
  // checkpoint was renamed) and the matrix silently shrank.
  for (const char* expected :
       {"whatif.prepare.scope", "whatif.prepare.causal",
        "whatif.prepare.learn", "whatif.prepare.query", "whatif.train",
        "whatif.eval.rows", "whatif.eval.blocks", "whatif.eval.batch",
        "howto.score"}) {
    EXPECT_NE(checkpoints.end(),
              std::find(checkpoints.begin(), checkpoints.end(), expected))
        << "workload no longer reaches checkpoint " << expected;
  }

  // Phase 2: ungoverned reference answers (threads=1, fresh service).
  std::vector<double> reference;
  {
    auto service = MakeService(/*num_threads=*/1);
    for (const service::Response& r : RunWorkload(*service)) {
      ASSERT_TRUE(r.ok()) << r.status;
      reference.push_back(r.kind == service::Response::Kind::kWhatIf
                              ? r.whatif.value
                              : r.howto.objective_value);
    }
  }

  // Phase 3: for every checkpoint x thread count, inject an abort, then
  // clear the hook and re-run on the same (possibly partially warmed)
  // service: the retry must be bit-equal to the reference, proving the
  // abort left no partial or corrupt cache entry behind.
  for (const std::string& checkpoint : checkpoints) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      auto service = MakeService(threads);
      {
        std::lock_guard<std::mutex> lock(g_hook_mu);
        g_abort_checkpoint = checkpoint;
      }
      g_abort_hits = 0;
      size_t aborted = 0;
      {
        HookGuard hook(&AbortHook);
        for (const service::Response& r : RunWorkload(*service)) {
          if (r.ok()) continue;
          ++aborted;
          EXPECT_EQ(StatusCode::kResourceExhausted, r.status.code())
              << "checkpoint=" << checkpoint << " threads=" << threads
              << ": " << r.status;
        }
      }
      EXPECT_GT(g_abort_hits.load(), 0u)
          << "checkpoint " << checkpoint << " never fired";
      EXPECT_GT(aborted, 0u)
          << "no request aborted for checkpoint " << checkpoint;

      std::vector<service::Response> retry = RunWorkload(*service);
      ASSERT_EQ(reference.size(), retry.size())
          << "checkpoint=" << checkpoint << " threads=" << threads;
      for (size_t i = 0; i < retry.size(); ++i) {
        ASSERT_TRUE(retry[i].ok())
            << "checkpoint=" << checkpoint << " threads=" << threads
            << " request=" << i << ": " << retry[i].status;
        const double value =
            retry[i].kind == service::Response::Kind::kWhatIf
                ? retry[i].whatif.value
                : retry[i].howto.objective_value;
        EXPECT_EQ(reference[i], value)
            << "checkpoint=" << checkpoint << " threads=" << threads
            << " request=" << i;
      }

      // The accounting ledger survived the abort: every section still
      // reconciles lookups = hits + misses + coalesced (a partial entry
      // or a double-published failure would skew it).
      service::GovernanceStats stats = service->governance_stats();
      EXPECT_EQ(0u, stats.in_flight);
      EXPECT_EQ(stats.completed, stats.admitted);
    }
  }
}

// --- deadline stress -------------------------------------------------------

TEST_F(GovernanceTest, RandomTightDeadlinesNeverHangOrCorrupt) {
  const double expected = FreshRun(kQuery);
  const double expected_avg = FreshRun(kAvgQuery);
  auto service = MakeService(/*num_threads=*/2);

  std::mt19937 rng(1234);  // seeded: the stress is reproducible
  std::uniform_real_distribution<double> deadline(0.0, 3e-3);
  std::uniform_int_distribution<int> pick(0, 2);
  for (int i = 0; i < 40; ++i) {
    service::Request request{"main", pick(rng) == 0 ? kAvgQuery : kQuery, {}};
    request.budget.deadline_seconds = std::max(1e-9, deadline(rng));
    if (i % 5 == 4) request.budget.max_rows_touched = 1 + i * 17;
    service::Response response = service->Submit(request);
    // Every outcome is OK or a typed governance abort — anything else
    // (crash, hang, internal error) fails the test.
    EXPECT_TRUE(response.ok() ||
                governance::IsGovernanceAbort(response.status))
        << "iteration " << i << ": " << response.status;
  }

  // Whatever mix of aborts the deadlines produced, the caches are intact:
  // ungoverned runs still answer bit-equal to fresh engine runs.
  service::Response check = service->Submit({"main", kQuery, {}});
  ASSERT_TRUE(check.ok()) << check.status;
  EXPECT_EQ(expected, check.whatif.value);
  service::Response check_avg = service->Submit({"main", kAvgQuery, {}});
  ASSERT_TRUE(check_avg.ok()) << check_avg.status;
  EXPECT_EQ(expected_avg, check_avg.whatif.value);
}

}  // namespace
}  // namespace hyper
