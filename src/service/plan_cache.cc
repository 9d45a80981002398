#include "service/plan_cache.h"

#include "common/logging.h"

namespace hyper::service {

StageCache::StageCache(size_t capacity) : capacity_(capacity) {}

void StageCache::EvictIfNeededLocked(Section& section) {
  while (section.map.size() > capacity_) {
    section.map.erase(section.lru.back());
    section.lru.pop_back();
    ++section.evictions;
  }
}

Result<StageCache::StagePtr> StageCache::GetOrBuild(whatif::StageKind kind,
                                                    const std::string& key,
                                                    const StageFactory& build,
                                                    bool* hit) {
  Section& section = stages_[static_cast<size_t>(kind)];
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  size_t epoch = 0;
  {
    MutexLock lock(&section.mu);
    epoch = section.clear_epoch;
    auto it = section.map.find(key);
    if (it != section.map.end()) {
      ++section.hits;
      section.lru.splice(section.lru.begin(), section.lru, it->second.lru_it);
      if (hit != nullptr) *hit = true;
      return it->second.entry;
    }
    auto fit = section.inflight.find(key);
    if (fit != section.inflight.end() && fit->second->epoch == epoch) {
      // Another caller is already building this key: coalesce onto its
      // result instead of duplicating the work.
      flight = fit->second;
      ++section.coalesced;
    } else {
      // No in-flight build — or only a stale one from before a Clear(),
      // which must not serve post-Clear callers: become the (new) leader.
      // The stale leader's waiters keep their own InFlight handle and are
      // still answered by it.
      flight = std::make_shared<InFlight>();
      flight->future = flight->promise.get_future().share();
      flight->epoch = epoch;
      section.inflight[key] = flight;
      leader = true;
      ++section.misses;
    }
  }

  if (!leader) {
    // Served by the leader's build: no work of our own, so report a hit.
    if (hit != nullptr) *hit = true;
    return flight->future.get();
  }

  if (hit != nullptr) *hit = false;
  // The factory runs outside the cache lock: it is the expensive part, and
  // it may look up other keys, of other sections or of this one (a branch's
  // scope build gets its base image), each of which waits on no build that
  // waits on it.
  Result<StagePtr> entry = build();
  {
    MutexLock lock(&section.mu);
    if (entry.ok() && capacity_ > 0 && section.clear_epoch == epoch &&
        !flight->cancelled) {
      // Single-flight leaves one storing leader per key: a Clear() since we
      // started (epoch moved) or a tag eviction naming our key (cancelled)
      // means the scope may be invalidated — waiters still get the entry,
      // but nothing is stored.
      section.lru.push_front(key);
      const bool inserted =
          section.map.emplace(key, Section::Slot{*entry, section.lru.begin()})
              .second;
      HYPER_CHECK(inserted);
      EvictIfNeededLocked(section);
    }
    // Erase only our own slot: a post-Clear leader may have replaced it.
    auto it = section.inflight.find(key);
    if (it != section.inflight.end() && it->second == flight) {
      section.inflight.erase(it);
    }
  }
  // Publish after the slot is cleared: waiters woken here are done, and any
  // later caller finds either the stored entry or a fresh miss.
  flight->promise.set_value(entry);
  return entry;
}

size_t StageCache::EvictTagged(const std::string& tag) {
  size_t evicted = 0;
  for (Section& section : stages_) {
    MutexLock lock(&section.mu);
    for (auto it = section.map.begin(); it != section.map.end();) {
      if (it->first.find(tag) != std::string::npos) {
        section.lru.erase(it->second.lru_it);
        it = section.map.erase(it);
        ++section.evictions;
        ++evicted;
      } else {
        ++it;
      }
    }
    // In-flight builds racing this eviction must not re-insert evicted
    // scopes after the sweep: a leader whose key matches the tag is
    // cancelled (its waiters are still answered, nothing is stored — the
    // treatment Clear() gives every in-flight build) and its slot dropped
    // so later same-key callers start fresh instead of coalescing.
    for (auto it = section.inflight.begin(); it != section.inflight.end();) {
      if (it->first.find(tag) != std::string::npos) {
        it->second->cancelled = true;
        it = section.inflight.erase(it);
      } else {
        ++it;
      }
    }
  }
  return evicted;
}

void StageCache::Clear() {
  for (Section& section : stages_) {
    MutexLock lock(&section.mu);
    // In-flight builds still publish to their waiters, but the epoch bump
    // stops their leaders from inserting a possibly-invalidated key and
    // stops post-Clear callers from coalescing onto the stale work.
    ++section.clear_epoch;
    section.map.clear();
    section.lru.clear();
  }
}

StageStats StageCache::SectionStats(const Section& section) const {
  MutexLock lock(&section.mu);
  StageStats s;
  s.hits = section.hits;
  s.misses = section.misses;
  s.coalesced = section.coalesced;
  s.evictions = section.evictions;
  s.entries = section.map.size();
  s.capacity = capacity_;
  return s;
}

PlanCacheStats StageCache::stats() const {
  PlanCacheStats s;
  StageStats* sections[] = {&s.scope, &s.causal, &s.learn, &s.query};
  for (size_t k = 0; k < 4; ++k) *sections[k] = SectionStats(stages_[k]);
  s.hits = s.query.hits;
  s.misses = s.query.misses;
  s.coalesced = s.query.coalesced;
  return s;
}

}  // namespace hyper::service
