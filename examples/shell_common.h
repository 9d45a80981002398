#ifndef HYPER_EXAMPLES_SHELL_COMMON_H_
#define HYPER_EXAMPLES_SHELL_COMMON_H_

// Helpers shared by the interactive shell (hyper_shell.cc) and the scenario
// server (scenario_server.cc): a strict count parser for their numeric
// arguments, and result printers.

#include <charconv>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <system_error>
#include <utility>

#include "howto/engine.h"
#include "service/plan_cache.h"
#include "service/scenario_service.h"
#include "whatif/engine.h"

namespace hyper::examples {

/// All of `text` as a non-negative decimal integer that fits a size_t,
/// else nothing (a sign, a fraction, trailing text, an overflow).
inline std::optional<size_t> ParseCount(const std::string& text) {
  size_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last) return std::nullopt;
  return value;
}

inline void PrintWhatIf(const whatif::WhatIfResult& result) {
  std::printf("value: %.6g\n", result.value);
  std::printf("  view rows %zu | updated %zu | blocks %zu | patterns %zu\n",
              result.view_rows, result.updated_rows, result.num_blocks,
              result.num_patterns);
  if (!result.backdoor.empty()) {
    std::printf("  adjustment set: {");
    for (size_t i = 0; i < result.backdoor.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", result.backdoor[i].c_str());
    }
    std::printf("}\n");
  }
  std::printf("  %.3fs total (%.3fs prepare%s, %.3fs eval, %.3fs training",
              result.total_seconds, result.prepare_seconds,
              result.plan_cache_hit ? " [plan cache hit]" : "",
              result.eval_seconds, result.train_seconds);
  if (result.pattern_cache_hits > 0) {
    std::printf(", %zu estimator(s) reused", result.pattern_cache_hits);
  }
  std::printf(")\n");
}

inline void PrintHowTo(const howto::HowToResult& result) {
  std::printf("plan: %s\n", result.PlanToString().c_str());
  std::printf("  objective %.6g (baseline %.6g), %zu candidates, %s solver\n",
              result.objective_value, result.baseline_value,
              result.candidates_evaluated,
              result.used_mck ? "MCK" : "branch&bound");
  std::printf("  %.3fs total (%.3fs prepare, %.3fs eval, %.3fs training",
              result.total_seconds, result.prepare_seconds,
              result.eval_seconds, result.train_seconds);
  if (result.plan_cache_hits > 0 || result.pattern_cache_hits > 0) {
    std::printf("; cache: %zu plan hit(s), %zu estimator(s) reused",
                result.plan_cache_hits, result.pattern_cache_hits);
  }
  std::printf(")\n");
}

inline void PrintCacheStats(const service::PlanCacheStats& stats) {
  // One line per stage section: `miss(es)` counts actual stage builds, and
  // the query section holds the plans, so `learn` misses staying flat while
  // `query` misses climb is estimator reuse at work.
  const std::pair<const char*, const service::StageStats*> stages[] = {
      {"scope", &stats.scope},
      {"causal", &stats.causal},
      {"learn", &stats.learn},
      {"query", &stats.query}};
  for (const auto& [name, s] : stages) {
    std::printf(
        "%-7s %4zu/%zu entr%s | %zu hit(s), %zu miss(es), %zu coalesced, "
        "%zu eviction(s)\n",
        name, s->entries, s->capacity, s->entries == 1 ? "y" : "ies", s->hits,
        s->misses, s->coalesced, s->evictions);
  }
}

inline void PrintGovernanceStats(const service::GovernanceStats& stats) {
  std::printf(
      "admission: %llu admitted (%llu after queueing), %llu shed, "
      "%llu rejected draining | %zu in flight, %zu waiting%s\n",
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.queued),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.rejected_draining),
      stats.in_flight, stats.queued_now, stats.draining ? " [draining]" : "");
  std::printf(
      "outcomes: %llu completed, of which %llu deadline-exceeded, "
      "%llu resource-exhausted, %llu cancelled\n",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.deadline_exceeded),
      static_cast<unsigned long long>(stats.resource_exhausted),
      static_cast<unsigned long long>(stats.cancelled));
}

}  // namespace hyper::examples

#endif  // HYPER_EXAMPLES_SHELL_COMMON_H_
