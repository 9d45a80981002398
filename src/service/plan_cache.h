#ifndef HYPER_SERVICE_PLAN_CACHE_H_
#define HYPER_SERVICE_PLAN_CACHE_H_

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

/// Counters for one cache section (one prepare stage).
struct StageStats {
  size_t hits = 0;
  size_t misses = 0;
  /// Lookups that neither hit nor built: the caller was coalesced onto a
  /// concurrent builder's in-flight entry (single-flight followers).
  /// Accounting invariant (asserted in service_test): `misses` equals the
  /// number of factory invocations and `hits + misses + coalesced` equals
  /// the number of lookups.
  size_t coalesced = 0;
  size_t evictions = 0;
  size_t entries = 0;
  size_t capacity = 0;
};

/// Stats for every section. The flat fields count plan lookups: a
/// QueryStage is the plan, so `hits`, `misses` and `coalesced` mirror the
/// query section, and `evictions` stays 0 so that a sum over all sections
/// counts each eviction once.
struct PlanCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t coalesced = 0;
  size_t evictions = 0;
  // Stage sections: misses count actual stage builds ("prepares per stage").
  StageStats scope;
  StageStats causal;
  StageStats learn;
  StageStats query;
};

/// The serving layer's stage cache: one thread-safe LRU + single-flight
/// section per prepare stage (Scope / Causal / Learn / Query), served to the
/// engine through the whatif::StageProvider interface. The query section
/// holds the prepared plans themselves, so a warm request is one lookup.
/// Entries are shared_ptr and downstream stages hold their upstream stages
/// alive, so evicting any entry never invalidates an in-flight query or a
/// live downstream stage. The capacity bounds each section; capacity 0
/// disables storage (each lookup misses, nothing is retained), but
/// single-flight still coalesces concurrent builds of one key.
class StageCache : public whatif::StageProvider {
 public:
  explicit StageCache(size_t capacity = 64);

  /// Get, or run `build` and insert on a miss — single-flight: when N
  /// callers miss the same key concurrently, exactly one runs `build`
  /// (outside the cache lock) while the other N-1 block on the shared
  /// in-flight result instead of each redundantly building. Followers count
  /// as `coalesced` in the stats and report *hit = true (they paid
  /// nothing); the one builder counts the miss and reports *hit = false. A
  /// failed build propagates its status to every waiter and clears the
  /// in-flight slot so a later call retries. One independent section per
  /// StageKind.
  Result<StagePtr> GetOrBuild(whatif::StageKind kind, const std::string& key,
                              const StageFactory& build, bool* hit) override;

  /// Eagerly evicts, from every section, the entries whose key contains
  /// `tag` (e.g. a dropped branch's data-scope fingerprint). Returns the
  /// number of entries evicted; the eviction counters absorb them, so the
  /// hit/miss/coalesced ledger still reconciles with lookups.
  size_t EvictTagged(const std::string& tag);

  void Clear();
  PlanCacheStats stats() const;
  size_t capacity() const { return capacity_; }

 private:
  /// One in-flight build, shared by the builder (who fulfills the promise)
  /// and every coalesced waiter. `epoch` records the clear epoch at
  /// creation: a Clear() invalidates in-flight work too, so later callers
  /// must not coalesce onto a pre-Clear build.
  struct InFlight {
    std::promise<Result<StagePtr>> promise;
    std::shared_future<Result<StagePtr>> future;
    size_t epoch = 0;
    /// Set (under the section mutex) by EvictTagged when this build's key
    /// matches the evicted tag: the leader publishes to its waiters but
    /// skips the insert, so a racing build cannot resurrect a dropped
    /// branch's entries.
    bool cancelled = false;
  };

  /// One independent LRU + single-flight cache for one stage kind.
  /// `InFlight::cancelled` is written under the owning section's mu (see
  /// EvictTagged) and read by the build leader under the same mu — the
  /// analysis cannot express "guarded by the section that owns me" across
  /// the shared_ptr, so the contract lives here in prose.
  struct Section {
    mutable Mutex mu;
    /// Front = most recently used.
    std::list<std::string> lru GUARDED_BY(mu);
    struct Slot {
      StagePtr entry;
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

  void EvictIfNeededLocked(Section& section) REQUIRES(section.mu);
  StageStats SectionStats(const Section& section) const EXCLUDES(section.mu);

  size_t capacity_;
  Section stages_[4];  // indexed by StageKind
};

}  // namespace hyper::service

#endif  // HYPER_SERVICE_PLAN_CACHE_H_
