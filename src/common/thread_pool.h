#ifndef HYPER_COMMON_THREAD_POOL_H_
#define HYPER_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"

namespace hyper {

/// Derives an independent RNG stream seed from a base seed and a stream id
/// (splitmix64 finalizer). Parallel shards seed `Rng(DeriveStreamSeed(seed,
/// shard))` so every shard draws from its own deterministic stream: results
/// are a function of (seed, shard) alone, never of thread scheduling.
inline uint64_t DeriveStreamSeed(uint64_t base, uint64_t stream) {
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A small fixed-size worker pool for sharding independent loops over
/// coarse items (forest trees, batch interventions, how-to candidates,
/// served requests, dirty column segments) or segment-sized kernel morsels.
/// Tasks must not throw: the library communicates failure via Status, and a
/// task's status is the caller's to collect (see ParallelFor usage in
/// whatif/engine.cc).
///
/// This class is the one sanctioned home for raw atomics used to partition
/// loop iterations (see scripts/lint_invariants.py, raw-atomic-partition):
/// engine code expresses parallel loops through ParallelFor/ParallelForRange
/// instead of hand-rolled fetch_add counters.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    if (num_threads == 0) num_threads = DefaultThreads();
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(&mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    for (std::thread& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Hardware concurrency with a floor of 1.
  static size_t DefaultThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }

  /// The engines' shared thread-budget convention: 0 means "hardware
  /// default", anything else is an explicit cap.
  static size_t ResolveBudget(size_t configured) {
    return configured == 0 ? DefaultThreads() : configured;
  }

  /// Process-wide pool sized to the hardware; created on first use.
  static ThreadPool& Shared() {
    static ThreadPool pool(DefaultThreads());
    return pool;
  }

  /// Runs fn(i) for every i in [0, n). The calling thread participates, so
  /// this works (sequentially) even on a pool of size 0 workers or when the
  /// pool is busy. Blocks until every index has been processed. fn must be
  /// safe to call concurrently from multiple threads.
  ///
  /// `max_parallelism` caps the number of threads touching the loop,
  /// including the caller (0 = no cap beyond the pool size). Engines pass
  /// their configured thread budget here so a `--threads 2` run drives at
  /// most 2 shards at a time even on a 64-core pool. The shard order items
  /// are claimed in is scheduling-dependent either way, so callers must
  /// (and do) merge results by index — answers never depend on the cap.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   size_t max_parallelism = 0) {
    // Single implementation path: every ParallelFor is a grain-1 morsel
    // loop, so no caller silently keeps a private static split.
    ParallelForRange(
        n, /*grain=*/1,
        [&fn](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) fn(i);
        },
        max_parallelism);
  }

  /// Morsel-driven loop: runs fn(begin, end) over disjoint sub-ranges that
  /// exactly cover [0, n). Participants claim grain-sized morsels from one
  /// shared cursor until it passes n, so a participant that finishes early
  /// simply claims the next morsel. The calling thread participates and the
  /// call blocks until every index has been processed; when the cap or n
  /// leaves a single participant, the caller runs fn(0, n) itself.
  ///
  /// fn must be safe to call concurrently from multiple threads. The set of
  /// (begin, end) ranges fn sees is scheduling-dependent; callers must (and
  /// do) write results into per-index slots and merge them in index order,
  /// so answers are bit-identical at any thread count. `max_parallelism`
  /// caps participating threads including the caller (0 = pool size).
  void ParallelForRange(size_t n,
                        size_t grain,
                        const std::function<void(size_t, size_t)>& fn,
                        size_t max_parallelism = 0) {
    if (n == 0) return;
    if (grain == 0) grain = 1;
    size_t participants = workers_.size() + 1;  // caller is one
    if (max_parallelism > 0) {
      participants = std::min(participants, max_parallelism);
    }
    participants = std::min(participants, n / grain + (n % grain != 0));
    if (participants <= 1) {
      fn(0, n);
      return;
    }
    auto state = std::make_shared<RangeState>();
    state->n = n;
    state->grain = grain;
    state->fn = &fn;
    {
      MutexLock lock(&mu_);
      for (size_t d = 0; d + 1 < participants; ++d) {
        tasks_.push([state] { state->Drive(); });
      }
    }
    cv_.NotifyAll();
    state->Drive();  // caller participates
    state->WaitDone();
  }

 private:
  /// Shared state of one ParallelForRange call. Each fetch_add on `next`
  /// claims the distinct morsel [begin, begin + grain), so every index in
  /// [0, n) is executed exactly once. A participant that claims past n
  /// stops; since claims are contiguous, `done` reaches n only after every
  /// claim below n was made, so a late participant never touches fn.
  struct RangeState {
    size_t n = 0;
    size_t grain = 1;
    const std::function<void(size_t, size_t)>* fn = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    /// Guards nothing itself — next/done are atomics — it exists so the
    /// completion wakeup has a mutex to pair with done_cv.
    Mutex done_mu;
    CondVar done_cv;

    void Drive() {
      for (;;) {
        const size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= n) return;
        const size_t len = std::min(grain, n - begin);
        (*fn)(begin, begin + len);
        if (done.fetch_add(len, std::memory_order_acq_rel) + len == n) {
          MutexLock lock(&done_mu);
          done_cv.NotifyAll();
        }
      }
    }

    void WaitDone() {
      MutexLock lock(&done_mu);
      while (done.load(std::memory_order_acquire) < n) {
        done_cv.Wait(done_mu);
      }
    }
  };

  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(&mu_);
        while (!stop_ && tasks_.empty()) cv_.Wait(mu_);
        if (stop_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      task();
    }
  }

  Mutex mu_;
  CondVar cv_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mu_);
  /// Started in the constructor, joined in the destructor, and never
  /// mutated in between — safe to size() without mu_.
  std::vector<std::thread> workers_;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace hyper

#endif  // HYPER_COMMON_THREAD_POOL_H_
