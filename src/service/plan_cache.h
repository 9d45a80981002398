#ifndef HYPER_SERVICE_PLAN_CACHE_H_
#define HYPER_SERVICE_PLAN_CACHE_H_

#include <functional>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "whatif/engine.h"

namespace hyper::service {

/// Counters for one cache section (whole plans, or one prepare stage).
struct StageStats {
  size_t hits = 0;
  size_t misses = 0;
  /// Lookups that neither hit nor built: the caller was coalesced onto a
  /// concurrent builder's in-flight entry (single-flight followers), or a
  /// Put lost the insert race and converged on the already-stored entry.
  /// Accounting invariant (asserted in service_test): for
  /// GetOrPrepare/GetOrBuild-only workloads, `misses` equals the number of
  /// factory invocations and `hits + misses + coalesced` equals the number
  /// of lookups.
  size_t coalesced = 0;
  size_t evictions = 0;
  size_t entries = 0;
  size_t capacity = 0;
};

/// Stats for every section. The flat fields mirror the plan section (the
/// legacy PlanCacheStats surface); the per-stage sections expose how much of
/// each prepare the staged pipeline reused.
struct PlanCacheStats {
  // Plan section (assembled PreparedWhatIf entries).
  size_t hits = 0;
  size_t misses = 0;
  size_t coalesced = 0;
  size_t evictions = 0;
  size_t entries = 0;
  size_t capacity = 0;
  // Stage sections: misses count actual stage builds ("prepares per stage").
  StageStats scope;
  StageStats causal;
  StageStats learn;
  StageStats query;
};

/// Composes the cache key for an assembled (whole-plan) entry. The key
/// captures everything Prepare() consumes:
///   - `scope`: the data snapshot (ScenarioService uses generation + branch
///     delta fingerprint; standalone callers can use
///     Database::ContentFingerprint()). Plans must never be shared across
///     scopes — that is the invalidation story: mutate data => new scope =>
///     old entries become unreachable and age out of the LRU.
///   - the query shape: Use / When / For / Output text and the ordered
///     update-attribute list. Update *constants and functions* are excluded:
///     a prepared plan answers any intervention over its attributes.
///   - the estimator configuration: backdoor mode, estimator kind, forest
///     hyperparameters, smoothing, sample size and seed, block decomposition.
std::string WhatIfPlanKey(const std::string& scope,
                          const sql::WhatIfStmt& stmt,
                          const whatif::WhatIfOptions& options);

/// The serving layer's stage cache: one thread-safe LRU + single-flight
/// section per prepare stage (Scope / Causal / Learn / Query, served to the
/// engine through the whatif::StageProvider interface) plus a fifth section
/// of assembled whole plans (the legacy typed PlanCache API). Entries are
/// shared_ptr and downstream stages hold their upstream stages alive, so
/// evicting any entry never invalidates an in-flight query or a live
/// downstream stage. Capacity 0 disables storage in every section (each
/// lookup misses, nothing is retained), but single-flight still coalesces
/// concurrent builds of one key.
class StageCache : public whatif::StageProvider {
 public:
  explicit StageCache(size_t capacity = 64);

  // --- whole-plan section (legacy typed API) ------------------------------

  /// Returns the cached plan or nullptr; counts a hit/miss.
  std::shared_ptr<const whatif::PreparedWhatIf> Get(const std::string& key);

  /// Inserts `plan` unless the key is already present (first writer wins, so
  /// concurrent preparers converge on one shared plan — and one shared
  /// pattern-estimator cache). Returns the canonical entry. A lost race
  /// counts as `coalesced`, so manual Get+Prepare+Put callers still
  /// reconcile: their Get counted a miss, and the duplicated prepare is
  /// visible as a coalesced insert.
  std::shared_ptr<const whatif::PreparedWhatIf> Put(
      const std::string& key,
      std::shared_ptr<const whatif::PreparedWhatIf> plan);

  /// Get, or run `prepare` and insert on a miss — single-flight: when N
  /// callers miss the same key concurrently, exactly one runs `prepare`
  /// (outside the cache lock) while the other N-1 block on the shared
  /// in-flight result instead of each redundantly preparing and training.
  /// Followers count as `coalesced` in the stats and report *hit = true
  /// (they paid nothing); the one preparer counts the miss and reports
  /// *hit = false. A failed prepare propagates its status to every waiter
  /// and clears the in-flight slot so a later call retries.
  Result<std::shared_ptr<const whatif::PreparedWhatIf>> GetOrPrepare(
      const std::string& key,
      const std::function<
          Result<std::shared_ptr<const whatif::PreparedWhatIf>>()>& prepare,
      bool* hit = nullptr);

  // --- stage sections (whatif::StageProvider) -----------------------------

  /// Per-stage get-or-build with the same LRU + single-flight semantics as
  /// GetOrPrepare, one independent section per StageKind.
  Result<StagePtr> GetOrBuild(whatif::StageKind kind, const std::string& key,
                              const StageFactory& build, bool* hit) override;

  /// Returns the cached stage or nullptr without building. Does not touch
  /// recency or the hit/miss counters (it locates delta-patch bases, it
  /// does not serve queries).
  StagePtr Peek(whatif::StageKind kind, const std::string& key) override;

  // --- maintenance --------------------------------------------------------

  /// Eagerly evicts, from every section, the entries whose key contains
  /// `tag` (e.g. a dropped branch's data-scope fingerprint). Returns the
  /// number of entries evicted; the eviction counters absorb them, so the
  /// hit/miss/coalesced ledger still reconciles with lookups.
  size_t EvictTagged(const std::string& tag);

  void Clear();
  PlanCacheStats stats() const;
  size_t capacity() const { return capacity_; }

 private:
  using EntryPtr = std::shared_ptr<const void>;
  using EntryFactory = std::function<Result<EntryPtr>()>;

  /// One in-flight build, shared by the builder (who fulfills the promise)
  /// and every coalesced waiter. `epoch` records the clear epoch at
  /// creation: a Clear() invalidates in-flight work too, so later callers
  /// must not coalesce onto a pre-Clear build.
  struct InFlight {
    std::promise<Result<EntryPtr>> promise;
    std::shared_future<Result<EntryPtr>> future;
    size_t epoch = 0;
    /// Set (under the section mutex) by EvictTagged when this build's key
    /// matches the evicted tag: the leader publishes to its waiters but
    /// skips the insert, so a racing build cannot resurrect a dropped
    /// branch's entries.
    bool cancelled = false;
  };

  /// One independent LRU + single-flight cache: plans, or one stage kind.
  /// `InFlight::cancelled` is written under the owning section's mu (see
  /// EvictTagged) and read by the build leader under the same mu — the
  /// analysis cannot express "guarded by the section that owns me" across
  /// the shared_ptr, so the contract lives here in prose.
  struct Section {
    mutable Mutex mu;
    /// Front = most recently used.
    std::list<std::string> lru GUARDED_BY(mu);
    struct Slot {
      EntryPtr entry;
      std::list<std::string>::iterator lru_it;
    };
    std::unordered_map<std::string, Slot> map GUARDED_BY(mu);
    std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight
        GUARDED_BY(mu);
    /// Bumped by Clear(). A builder whose factory straddled a Clear still
    /// publishes its entry to waiters but skips the insert: its key may
    /// embed an invalidated scope and would sit unreachable in the LRU.
    size_t clear_epoch GUARDED_BY(mu) = 0;
    size_t hits GUARDED_BY(mu) = 0;
    size_t misses GUARDED_BY(mu) = 0;
    size_t coalesced GUARDED_BY(mu) = 0;
    size_t evictions GUARDED_BY(mu) = 0;
  };

  /// Inserts into the section LRU (first writer wins) and returns the
  /// canonical entry. Caller holds the section mutex.
  EntryPtr StoreLocked(Section& section, const std::string& key,
                       EntryPtr entry, bool* lost_race = nullptr)
      REQUIRES(section.mu);
  void EvictIfNeededLocked(Section& section) REQUIRES(section.mu);
  /// Runs `build` outside the section lock (EXCLUDES documents that the
  /// factory may re-enter other sections, never this one).
  Result<EntryPtr> GetOrBuildInSection(Section& section,
                                       const std::string& key,
                                       const EntryFactory& build, bool* hit)
      EXCLUDES(section.mu);
  StageStats SectionStats(const Section& section) const EXCLUDES(section.mu);

  Section& SectionOf(whatif::StageKind kind) {
    return stages_[static_cast<size_t>(kind)];
  }

  size_t capacity_;
  Section plans_;
  Section stages_[4];  // indexed by StageKind
};

/// Historical name: the cache predates the staged pipeline. The typed
/// whole-plan API is unchanged.
using PlanCache = StageCache;

}  // namespace hyper::service

#endif  // HYPER_SERVICE_PLAN_CACHE_H_
