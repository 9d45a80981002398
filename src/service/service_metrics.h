#ifndef HYPER_SERVICE_SERVICE_METRICS_H_
#define HYPER_SERVICE_SERVICE_METRICS_H_

#include <string>

#include "common/governance.h"
#include "obs/metrics.h"
#include "service/scenario_service.h"

namespace hyper {
namespace service {

/// The service's handles into a MetricsRegistry, resolved once at
/// construction so the per-request hot path touches only pre-interned
/// instruments (plus one registry lookup for the labeled outcome counter).
/// Created by ScenarioService when ServiceOptions.metrics is set.
struct ServiceInstruments {
  explicit ServiceInstruments(obs::MetricsRegistry* registry);

  /// Folds one dispatched request into the instruments: a latency
  /// observation, an outcome counter, and — for successful answers — the
  /// rows/bytes the request touched (metered exactly by the guard when the
  /// request was governed, approximated by view_rows otherwise), plus
  /// prepare/eval latencies and plan-cache hit/miss for what-if / how-to
  /// answers and the item count of a what-if sweep.
  void RecordRequest(const Response& response,
                     const governance::ExecGuard* guard, double seconds);

  obs::MetricsRegistry* registry = nullptr;
  /// Indexed by Response::Kind (kNone..kWhatIfBatch).
  obs::Histogram* request_latency[5] = {};
  obs::Histogram* prepare_latency = nullptr;
  obs::Histogram* eval_latency = nullptr;
  obs::Counter* rows_touched = nullptr;
  obs::Counter* bytes_materialized = nullptr;
  obs::Counter* plan_cache_hit_requests = nullptr;
  obs::Counter* plan_cache_miss_requests = nullptr;
  obs::Counter* batch_items = nullptr;
};

/// Appends the service's own counters — admission outcomes, governed-abort
/// taxonomy, in-flight/queue/drain gauges, and the plan/stage cache
/// sections — to `snapshot` as Prometheus-ready series. These live in the
/// service (not the registry), so /metrics derives them fresh per scrape.
void AppendServiceSeries(const ScenarioService& service,
                         obs::MetricsSnapshot* snapshot);

/// The /statusz document: drain state, admission counters, cache sections,
/// the branch worlds' row builds, the process-wide bootstrap memo of forest
/// training (learn.bootstrap_memo: hits, misses, resident bytes), and (when
/// a registry is wired) the full
/// metrics snapshot with latency quantiles. Also serves `\metrics` in
/// hyper_shell.
std::string StatuszJson(const ScenarioService& service,
                        const obs::MetricsRegistry* registry);

}  // namespace service
}  // namespace hyper

#endif  // HYPER_SERVICE_SERVICE_METRICS_H_
