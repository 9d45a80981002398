#include "service/plan_cache.h"

#include "common/strings.h"

namespace hyper::service {

std::string WhatIfPlanKey(const std::string& scope,
                          const sql::WhatIfStmt& stmt,
                          const whatif::WhatIfOptions& options) {
  // Free-form fields (expression text, attribute names) are length-prefixed
  // so the concatenation is injective: a string literal inside a predicate
  // can never forge a neighbouring field and collide two different queries.
  auto field = [](const char* tag, const std::string& text) {
    return StrFormat("|%s[%zu]=", tag, text.size()) + text;
  };
  std::string key = field("scope", scope);
  key += field("use", stmt.use.ToString());
  key += field("when", stmt.when != nullptr ? stmt.when->ToString() : "");
  for (const sql::UpdateClause& u : stmt.updates) {
    key += field("upd", u.attribute);
  }
  key += field("out", stmt.output.ToString());
  key += field("for",
               stmt.for_pred != nullptr ? stmt.for_pred->ToString() : "");
  key += StrFormat("|mode=%d|blocks=%d", static_cast<int>(options.backdoor),
                   options.use_blocks ? 1 : 0);
  key += whatif::EstimatorConfigKey(options);
  return key;
}

StageCache::StageCache(size_t capacity) : capacity_(capacity) {}

// --- generic section machinery ---------------------------------------------

StageCache::EntryPtr StageCache::StoreLocked(Section& section,
                                             const std::string& key,
                                             EntryPtr entry, bool* lost_race) {
  auto it = section.map.find(key);
  if (it != section.map.end()) {
    // A concurrent builder won the race; keep its entry so every caller
    // shares one instance (and its internal lazily-grown caches).
    if (lost_race != nullptr) *lost_race = true;
    section.lru.splice(section.lru.begin(), section.lru, it->second.lru_it);
    return it->second.entry;
  }
  if (lost_race != nullptr) *lost_race = false;
  section.lru.push_front(key);
  section.map.emplace(key, Section::Slot{entry, section.lru.begin()});
  EvictIfNeededLocked(section);
  return entry;
}

void StageCache::EvictIfNeededLocked(Section& section) {
  while (section.map.size() > capacity_) {
    section.map.erase(section.lru.back());
    section.lru.pop_back();
    ++section.evictions;
  }
}

Result<StageCache::EntryPtr> StageCache::GetOrBuildInSection(
    Section& section, const std::string& key, const EntryFactory& build,
    bool* hit) {
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
  // The factory runs outside the cache lock (it is the expensive part).
  Result<EntryPtr> entry = build();
  Result<EntryPtr> canonical = entry;
  {
    MutexLock lock(&section.mu);
    if (entry.ok() && capacity_ > 0 && section.clear_epoch == epoch &&
        !flight->cancelled) {
      // Single-flight means no same-key GetOrBuild raced us, but a manual
      // Put may have: StoreLocked keeps whichever entry landed first. A
      // Clear() since we started (epoch moved) or a tag eviction naming our
      // key (cancelled) means the scope may be invalidated — waiters still
      // get the entry, but nothing is stored.
      canonical = StoreLocked(section, key, *entry);
    }
    // Erase only our own slot: a post-Clear leader may have replaced it.
    auto it = section.inflight.find(key);
    if (it != section.inflight.end() && it->second == flight) {
      section.inflight.erase(it);
    }
  }
  // Publish after the slot is cleared: waiters woken here are done, and any
  // later caller finds either the stored entry or a fresh miss.
  flight->promise.set_value(canonical);
  return canonical;
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

// --- whole-plan section ------------------------------------------------------

std::shared_ptr<const whatif::PreparedWhatIf> StageCache::Get(
    const std::string& key) {
  MutexLock lock(&plans_.mu);
  auto it = plans_.map.find(key);
  if (it == plans_.map.end()) {
    ++plans_.misses;
    return nullptr;
  }
  ++plans_.hits;
  plans_.lru.splice(plans_.lru.begin(), plans_.lru, it->second.lru_it);
  return std::static_pointer_cast<const whatif::PreparedWhatIf>(
      it->second.entry);
}

std::shared_ptr<const whatif::PreparedWhatIf> StageCache::Put(
    const std::string& key,
    std::shared_ptr<const whatif::PreparedWhatIf> plan) {
  if (capacity_ == 0) return plan;  // caching disabled
  MutexLock lock(&plans_.mu);
  bool lost_race = false;
  EntryPtr canonical = StoreLocked(plans_, key, std::move(plan), &lost_race);
  // The losing racer's Get counted a miss and its duplicated prepare is
  // dropped here; record the convergence. (On this manual Get+Prepare+Put
  // path misses still equal prepares — coalesced marks the dropped
  // duplicate, unlike single-flight GetOrPrepare where it marks a saved
  // one.)
  if (lost_race) ++plans_.coalesced;
  return std::static_pointer_cast<const whatif::PreparedWhatIf>(canonical);
}

Result<std::shared_ptr<const whatif::PreparedWhatIf>> StageCache::GetOrPrepare(
    const std::string& key,
    const std::function<
        Result<std::shared_ptr<const whatif::PreparedWhatIf>>()>& prepare,
    bool* hit) {
  HYPER_ASSIGN_OR_RETURN(
      EntryPtr entry,
      GetOrBuildInSection(
          plans_, key,
          [&]() -> Result<EntryPtr> {
            HYPER_ASSIGN_OR_RETURN(
                std::shared_ptr<const whatif::PreparedWhatIf> plan, prepare());
            return std::static_pointer_cast<const void>(plan);
          },
          hit));
  return std::static_pointer_cast<const whatif::PreparedWhatIf>(entry);
}

// --- stage sections ----------------------------------------------------------

Result<StageCache::StagePtr> StageCache::GetOrBuild(whatif::StageKind kind,
                                                    const std::string& key,
                                                    const StageFactory& build,
                                                    bool* hit) {
  return GetOrBuildInSection(SectionOf(kind), key, build, hit);
}

StageCache::StagePtr StageCache::Peek(whatif::StageKind kind,
                                      const std::string& key) {
  Section& section = SectionOf(kind);
  MutexLock lock(&section.mu);
  auto it = section.map.find(key);
  return it == section.map.end() ? nullptr : it->second.entry;
}

// --- maintenance -------------------------------------------------------------

size_t StageCache::EvictTagged(const std::string& tag) {
  size_t evicted = 0;
  Section* sections[] = {&plans_, &stages_[0], &stages_[1], &stages_[2],
                         &stages_[3]};
  for (Section* section : sections) {
    MutexLock lock(&section->mu);
    for (auto it = section->map.begin(); it != section->map.end();) {
      if (it->first.find(tag) != std::string::npos) {
        section->lru.erase(it->second.lru_it);
        it = section->map.erase(it);
        ++section->evictions;
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
    for (auto it = section->inflight.begin(); it != section->inflight.end();) {
      if (it->first.find(tag) != std::string::npos) {
        it->second->cancelled = true;
        it = section->inflight.erase(it);
      } else {
        ++it;
      }
    }
  }
  return evicted;
}

void StageCache::Clear() {
  Section* sections[] = {&plans_, &stages_[0], &stages_[1], &stages_[2],
                         &stages_[3]};
  for (Section* section : sections) {
    MutexLock lock(&section->mu);
    // In-flight builds still publish to their waiters, but the epoch bump
    // stops their leaders from inserting a possibly-invalidated key and
    // stops post-Clear callers from coalescing onto the stale work.
    ++section->clear_epoch;
    section->map.clear();
    section->lru.clear();
  }
}

PlanCacheStats StageCache::stats() const {
  PlanCacheStats s;
  const StageStats plan = SectionStats(plans_);
  s.hits = plan.hits;
  s.misses = plan.misses;
  s.coalesced = plan.coalesced;
  s.evictions = plan.evictions;
  s.entries = plan.entries;
  s.capacity = plan.capacity;
  s.scope = SectionStats(stages_[static_cast<size_t>(whatif::StageKind::kScope)]);
  s.causal =
      SectionStats(stages_[static_cast<size_t>(whatif::StageKind::kCausal)]);
  s.learn =
      SectionStats(stages_[static_cast<size_t>(whatif::StageKind::kLearn)]);
  s.query =
      SectionStats(stages_[static_cast<size_t>(whatif::StageKind::kQuery)]);
  return s;
}

}  // namespace hyper::service
