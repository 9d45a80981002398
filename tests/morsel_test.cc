#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/governance.h"
#include "common/thread_pool.h"
#include "data/datasets.h"
#include "sql/parser.h"
#include "storage/column.h"
#include "whatif/engine.h"

namespace hyper {
namespace {

const std::vector<size_t>& PoolSizes() {
  static const std::vector<size_t> kSizes = {1, 2, 4, 8};
  return kSizes;
}

// ---------------------------------------------------------------------------
// Coverage: ParallelForRange must hand every index to fn exactly once —
// the morsels participants claim from the shared cursor must tile [0, n)
// with no gap and no overlap, at every pool size and grain.
// ---------------------------------------------------------------------------

TEST(MorselTest, RangeCoversEveryIndexExactlyOnce) {
  for (size_t threads : PoolSizes()) {
    ThreadPool pool(threads);
    for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                     size_t{65}, size_t{10007}}) {
      for (size_t grain : {size_t{1}, size_t{64}, size_t{4096}}) {
        std::vector<std::atomic<uint32_t>> hits(n);
        for (auto& h : hits) h.store(0, std::memory_order_relaxed);
        pool.ParallelForRange(n, grain, [&](size_t begin, size_t end) {
          ASSERT_LE(begin, end);
          ASSERT_LE(end, n);
          for (size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
        });
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1u)
              << "threads=" << threads << " n=" << n << " grain=" << grain
              << " i=" << i;
        }
      }
    }
  }
}

TEST(MorselTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  const size_t n = 5000;
  std::vector<std::atomic<uint32_t>> hits(n);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  pool.ParallelFor(n, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1u) << i;
  }
}

// ---------------------------------------------------------------------------
// Skewed work: one contiguous run of indices is orders of magnitude more
// expensive than the rest. Per-index outputs land in fixed slots, so any
// thread count must produce the byte-identical result vector — the
// determinism contract every index-ordered merge builds on.
// ---------------------------------------------------------------------------

TEST(MorselTest, SkewedWorkIsDeterministicAcrossThreadCounts) {
  constexpr size_t n = 4096;
  auto heavy = [](size_t i) {
    // Front-loaded skew: the first 5% of indices carry ~1000x the work.
    uint64_t h = i * 0x9e3779b97f4a7c15ULL + 1;
    const int spins = i < n / 20 ? 2000 : 2;
    for (int s = 0; s < spins; ++s) h = h * 6364136223846793005ULL + i;
    return h;
  };
  std::vector<uint64_t> reference(n);
  for (size_t i = 0; i < n; ++i) reference[i] = heavy(i);

  for (size_t threads : PoolSizes()) {
    ThreadPool pool(threads);
    std::vector<uint64_t> out(n, 0);
    pool.ParallelForRange(n, /*grain=*/16, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) out[i] = heavy(i);
    });
    ASSERT_EQ(std::memcmp(out.data(), reference.data(), n * sizeof(uint64_t)),
              0)
        << "threads=" << threads;
  }
}

TEST(MorselTest, SingleParticipantRunsWholeRangeOnCaller) {
  // A budget of 1 (or a range of one morsel) never touches a worker: the
  // caller runs fn(0, n) itself, so a budget-1 loop is the plain sequential
  // loop, in index order.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (const auto& [n, grain, cap] :
       {std::tuple<size_t, size_t, size_t>{1000, 16, 1},
        std::tuple<size_t, size_t, size_t>{1000, 1000, 0},
        std::tuple<size_t, size_t, size_t>{7, 64, 0}}) {
    std::vector<std::pair<size_t, size_t>> calls;
    bool on_caller = true;
    pool.ParallelForRange(
        n, grain,
        [&](size_t begin, size_t end) {
          on_caller = on_caller && std::this_thread::get_id() == caller;
          calls.emplace_back(begin, end);
        },
        cap);
    ASSERT_EQ(calls.size(), 1u) << "n=" << n << " grain=" << grain;
    EXPECT_EQ(calls[0], std::make_pair(size_t{0}, n));
    EXPECT_TRUE(on_caller);
  }
}

TEST(MorselTest, MaxParallelismCapsParticipants) {
  ThreadPool pool(8);
  std::atomic<size_t> live{0};
  std::atomic<size_t> peak{0};
  pool.ParallelForRange(
      512, /*grain=*/1,
      [&](size_t begin, size_t end) {
        const size_t now = live.fetch_add(1, std::memory_order_acq_rel) + 1;
        size_t seen = peak.load(std::memory_order_relaxed);
        while (now > seen &&
               !peak.compare_exchange_weak(seen, now,
                                           std::memory_order_relaxed)) {
        }
        for (int s = 0; s < 50; ++s) {
          std::atomic_signal_fence(std::memory_order_seq_cst);
        }
        (void)begin;
        (void)end;
        live.fetch_sub(1, std::memory_order_acq_rel);
      },
      /*max_parallelism=*/2);
  EXPECT_LE(peak.load(std::memory_order_relaxed), 2u);
}

// ---------------------------------------------------------------------------
// End to end: a what-if on german-syn (one block per row) must be bit-for-bit
// identical at every thread budget. One evaluation folds per 64k-row segment
// and merges the segment partials in segment order, so a view of three
// segments runs its segments on 1 to 4 threads and must still give one
// answer. The shapes cover the fold's paths: Count on the shared entry (the
// branchless loop), Avg and Sum (the row body), a For on a pre-value
// (entries resolved per row), a Scale update (the hashing Pass A), and a
// When that ends inside the second segment. The three partials of most
// shapes sum to the same bits in either order; those of `Update(Status) = 1
// ... Count(Credit = 1)` do not (62332.497230493267 in segment order,
// 62332.49723049326 reversed), so a merge order that depended on the
// budget would fail here.
// ---------------------------------------------------------------------------

constexpr size_t kThreeSegments = 150000;

/// German-Syn over three segments, generated once for the tests below (an
/// empty dataset if generation fails, which their row check reports).
const data::Dataset& ThreeSegmentGerman() {
  static const data::Dataset kData = [] {
    data::GermanOptions gopt;
    gopt.rows = kThreeSegments;
    auto ds = data::MakeGermanSyn(gopt);
    return ds.ok() ? std::move(ds).value() : data::Dataset{};
  }();
  return kData;
}

TEST(MorselTest, WhatIfBitIdenticalAcrossThreads) {
  const data::Dataset& ds = ThreeSegmentGerman();
  ASSERT_GT(ds.db.TotalRows(), 2 * ColumnTable::kSegmentRows);
  for (const char* text :
       {"Use German When Status = 1 Update(Status) = 2 Output Count(Credit = "
        "1)",
        "Use German Update(Status) = 2 Output Avg(Post(Credit))",
        "Use German Update(Status) = 2 Output Sum(Post(Credit))",
        "Use German Update(Status) = 2 Output Avg(Post(Credit)) For Pre(Age) "
        "= 1",
        "Use German Update(Status) = 1.5 * Pre(Status) Output Count(Credit = "
        "1)",
        "Use German When Id < 100000 Update(Status) = 2 Output Count(Credit = "
        "1)",
        "Use German Update(Status) = 1 Output Count(Credit = 1)"}) {
    auto stmt = sql::ParseSql(text);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    ASSERT_NE(stmt->whatif, nullptr);
    double reference = 0.0;
    bool have_reference = false;
    for (size_t threads : PoolSizes()) {
      whatif::WhatIfOptions options;
      options.estimator = learn::EstimatorKind::kFrequency;
      options.num_threads = threads;
      whatif::WhatIfEngine engine(&ds.db, &ds.graph, options);
      auto result = engine.Run(*stmt->whatif);
      ASSERT_TRUE(result.ok()) << text << ": " << result.status();
      if (!have_reference) {
        reference = result->value;
        have_reference = true;
        continue;
      }
      uint64_t got = 0, want = 0;
      std::memcpy(&got, &result->value, sizeof(got));
      std::memcpy(&want, &reference, sizeof(want));
      ASSERT_EQ(got, want) << text << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// A budget of 1 keeps every evaluation checkpoint on the calling thread,
// even on a view of three segments: the segments then fold one after
// another on the caller, and no pool worker joins.
// ---------------------------------------------------------------------------

std::mutex g_checkpoint_mu;
std::vector<std::pair<std::string, std::thread::id>> g_checkpoints;

Status RecordThreadHook(const char* checkpoint) {
  std::lock_guard<std::mutex> lock(g_checkpoint_mu);
  g_checkpoints.emplace_back(checkpoint, std::this_thread::get_id());
  return Status::OK();
}

TEST(MorselTest, BudgetOneEvaluatesOnTheCallingThread) {
  const data::Dataset& ds = ThreeSegmentGerman();
  ASSERT_GT(ds.db.TotalRows(), 2 * ColumnTable::kSegmentRows);
  {
    std::lock_guard<std::mutex> lock(g_checkpoint_mu);
    g_checkpoints.clear();
  }
  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  options.num_threads = 1;
  whatif::WhatIfEngine engine(&ds.db, &ds.graph, options);
  // Prepared (and their patterns trained) before the hook goes in, so the
  // hook sees the evaluations alone.
  std::vector<std::shared_ptr<const whatif::PreparedWhatIf>> plans;
  std::vector<std::vector<whatif::UpdateSpec>> specs;
  for (const char* text :
       {"Use German Update(Status) = 2 Output Count(Credit = 1)",
        "Use German Update(Status) = 2 Output Avg(Post(Credit)) For Pre(Age) "
        "= 1"}) {
    auto stmt = sql::ParseSql(text);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    auto plan = engine.Prepare(*stmt->whatif);
    ASSERT_TRUE(plan.ok()) << plan.status();
    specs.push_back(whatif::SpecsOfStatement(*stmt->whatif));
    ASSERT_TRUE(engine.Evaluate(**plan, specs.back()).ok());
    plans.push_back(*plan);
  }

  const std::thread::id caller = std::this_thread::get_id();
  governance::SetFaultHook(&RecordThreadHook);
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_TRUE(engine.Evaluate(*plans[i], specs[i]).ok());
    // A batch of several spends the budget on its items: one at a time.
    EXPECT_TRUE(engine.EvaluateBatch(*plans[i], {specs[i], specs[i]}).ok());
  }
  governance::SetFaultHook(nullptr);

  std::lock_guard<std::mutex> lock(g_checkpoint_mu);
  std::set<std::string> seen;
  for (const auto& [checkpoint, thread] : g_checkpoints) {
    if (checkpoint.rfind("whatif.eval.", 0) != 0) continue;
    seen.insert(checkpoint);
    EXPECT_EQ(thread, caller) << checkpoint << " ran off the calling thread";
  }
  EXPECT_EQ(seen, (std::set<std::string>{"whatif.eval.batch",
                                          "whatif.eval.blocks",
                                          "whatif.eval.rows"}));
}

}  // namespace
}  // namespace hyper
