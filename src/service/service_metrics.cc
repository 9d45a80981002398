#include "service/service_metrics.h"

#include <algorithm>

#include "common/json.h"
#include "common/strings.h"
#include "learn/forest.h"

namespace hyper {
namespace service {

namespace {

constexpr const char* kKindLabels[5] = {"other", "whatif", "howto", "select",
                                        "batch"};

const char* OutcomeLabel(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kParseError: return "parse_error";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    default: return "other";
  }
}

void AppendCounter(obs::MetricsSnapshot* snapshot, std::string name,
                   std::string labels, std::string help, double value) {
  obs::MetricSample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.type = obs::MetricType::kCounter;
  s.help = std::move(help);
  s.value = value;
  snapshot->samples.push_back(std::move(s));
}

void AppendGauge(obs::MetricsSnapshot* snapshot, std::string name,
                 std::string labels, std::string help, double value) {
  obs::MetricSample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.type = obs::MetricType::kGauge;
  s.help = std::move(help);
  s.value = value;
  snapshot->samples.push_back(std::move(s));
}

void AppendCacheSection(obs::MetricsSnapshot* snapshot, const char* section,
                        const StageStats& stats) {
  const std::string base = StrFormat("section=\"%s\"", section);
  AppendCounter(snapshot, "hyper_cache_events_total",
                base + ",event=\"hit\"",
                "Stage cache events by section", double(stats.hits));
  AppendCounter(snapshot, "hyper_cache_events_total",
                base + ",event=\"miss\"", "", double(stats.misses));
  AppendCounter(snapshot, "hyper_cache_events_total",
                base + ",event=\"coalesced\"", "", double(stats.coalesced));
  AppendCounter(snapshot, "hyper_cache_events_total",
                base + ",event=\"eviction\"", "", double(stats.evictions));
  AppendGauge(snapshot, "hyper_cache_entries", base,
              "Live entries per cache section", double(stats.entries));
}

void WriteStageStats(JsonWriter* w, const StageStats& stats) {
  w->BeginObject()
      .Key("hits").UInt(stats.hits)
      .Key("misses").UInt(stats.misses)
      .Key("coalesced").UInt(stats.coalesced)
      .Key("evictions").UInt(stats.evictions)
      .Key("entries").UInt(stats.entries)
      .Key("capacity").UInt(stats.capacity)
      .EndObject();
}

}  // namespace

ServiceInstruments::ServiceInstruments(obs::MetricsRegistry* registry)
    : registry(registry) {
  for (size_t i = 0; i < 5; ++i) {
    request_latency[i] = registry->GetHistogram(
        "hyper_request_seconds",
        StrFormat("kind=\"%s\"", kKindLabels[i]),
        "End-to-end dispatch latency by statement kind");
  }
  prepare_latency = registry->GetHistogram(
      "hyper_prepare_seconds", "",
      "Plan-preparation time charged to successful requests");
  eval_latency = registry->GetHistogram(
      "hyper_eval_seconds", "",
      "Evaluation time of successful what-if/how-to requests");
  rows_touched = registry->GetCounter(
      "hyper_rows_touched_total", "",
      "Rows touched by served requests (guard-metered when governed)");
  bytes_materialized = registry->GetCounter(
      "hyper_bytes_materialized_total", "",
      "Bytes materialized by governed requests (guard-metered)");
  plan_cache_hit_requests = registry->GetCounter(
      "hyper_plan_cache_requests_total", "result=\"hit\"",
      "What-if requests answered from a cached prepared plan");
  plan_cache_miss_requests = registry->GetCounter(
      "hyper_plan_cache_requests_total", "result=\"miss\"", "");
  batch_items = registry->GetCounter(
      "hyper_batch_items_total", "",
      "Interventions answered by what-if sweeps");
}

void ServiceInstruments::RecordRequest(const Response& response,
                                       const governance::ExecGuard* guard,
                                       double seconds) {
  const size_t kind = static_cast<size_t>(response.kind);
  request_latency[kind]->Observe(seconds);
  registry
      ->GetCounter("hyper_requests_total",
                   StrFormat("kind=\"%s\",outcome=\"%s\"", kKindLabels[kind],
                             OutcomeLabel(response.status.code())),
                   "Dispatched requests by kind and outcome")
      ->Increment();
  if (!response.ok()) return;

  if (response.kind == Response::Kind::kWhatIf) {
    prepare_latency->Observe(response.whatif.prepare_seconds);
    eval_latency->Observe(response.whatif.eval_seconds);
    (response.whatif.plan_cache_hit ? plan_cache_hit_requests
                                    : plan_cache_miss_requests)
        ->Increment();
    rows_touched->Increment(guard != nullptr ? guard->rows_touched()
                                             : response.whatif.view_rows);
  } else if (response.kind == Response::Kind::kHowTo) {
    prepare_latency->Observe(response.howto.prepare_seconds);
    eval_latency->Observe(response.howto.eval_seconds);
    if (guard != nullptr) rows_touched->Increment(guard->rows_touched());
  } else if (response.kind == Response::Kind::kSelect) {
    rows_touched->Increment(guard != nullptr ? guard->rows_touched()
                                             : response.table.num_rows());
  } else if (response.kind == Response::Kind::kWhatIfBatch) {
    batch_items->Increment(response.items.size());
    if (guard != nullptr) rows_touched->Increment(guard->rows_touched());
  }
  if (guard != nullptr) {
    bytes_materialized->Increment(guard->bytes_materialized());
  }
}

void AppendServiceSeries(const ScenarioService& service,
                         obs::MetricsSnapshot* snapshot) {
  const GovernanceStats gov = service.governance_stats();
  const char* admission_help = "Admission-control outcomes";
  AppendCounter(snapshot, "hyper_admission_total", "outcome=\"admitted\"",
                admission_help, double(gov.admitted));
  AppendCounter(snapshot, "hyper_admission_total", "outcome=\"queued\"", "",
                double(gov.queued));
  AppendCounter(snapshot, "hyper_admission_total", "outcome=\"shed\"", "",
                double(gov.shed));
  AppendCounter(snapshot, "hyper_admission_total",
                "outcome=\"rejected_draining\"", "",
                double(gov.rejected_draining));
  AppendCounter(snapshot, "hyper_completed_requests_total", "",
                "Requests that finished executing (any status)",
                double(gov.completed));
  const char* abort_help = "Governed-request aborts by reason";
  AppendCounter(snapshot, "hyper_governance_aborts_total",
                "reason=\"deadline_exceeded\"", abort_help,
                double(gov.deadline_exceeded));
  AppendCounter(snapshot, "hyper_governance_aborts_total",
                "reason=\"resource_exhausted\"", "",
                double(gov.resource_exhausted));
  AppendCounter(snapshot, "hyper_governance_aborts_total",
                "reason=\"cancelled\"", "", double(gov.cancelled));
  AppendGauge(snapshot, "hyper_in_flight_requests", "",
              "Requests executing right now", double(gov.in_flight));
  AppendGauge(snapshot, "hyper_queued_requests", "",
              "Requests waiting for an execution slot", double(gov.queued_now));
  AppendGauge(snapshot, "hyper_draining", "",
              "1 while the service is draining", gov.draining ? 1.0 : 0.0);

  const PlanCacheStats cache = service.cache_stats();
  AppendCacheSection(snapshot, "scope", cache.scope);
  AppendCacheSection(snapshot, "causal", cache.causal);
  AppendCacheSection(snapshot, "learn", cache.learn);
  AppendCacheSection(snapshot, "query", cache.query);

  // Durability point-in-time state. The monotone WAL counters
  // (hyper_wal_appends_total, hyper_wal_bytes_total, the fsync histogram,
  // hyper_snapshots_total) live in the registry — the durability manager
  // owns them — so only the derived gauges are appended here.
  const durability::WalStats wal = service.wal_stats();
  AppendGauge(snapshot, "hyper_wal_enabled", "",
              "1 when a durable data dir is wired", wal.enabled ? 1.0 : 0.0);
  if (wal.enabled) {
    AppendGauge(snapshot, "hyper_wal_last_lsn", "",
                "Highest acknowledged WAL sequence number",
                double(wal.last_lsn));
    AppendGauge(snapshot, "hyper_wal_segments", "",
                "Live WAL segment files", double(wal.segments));
    AppendGauge(snapshot, "hyper_wal_records_since_snapshot", "",
                "Records appended since the last snapshot",
                double(wal.records_since_snapshot));
  }

  // Keep the exposition grouped per family after the append.
  std::stable_sort(snapshot->samples.begin(), snapshot->samples.end(),
                   [](const obs::MetricSample& a, const obs::MetricSample& b) {
                     if (a.name != b.name) return a.name < b.name;
                     return a.labels < b.labels;
                   });
}

std::string StatuszJson(const ScenarioService& service,
                        const obs::MetricsRegistry* registry) {
  const GovernanceStats gov = service.governance_stats();
  const PlanCacheStats cache = service.cache_stats();

  JsonWriter w;
  w.BeginObject();
  w.Key("draining").Bool(gov.draining);
  w.Key("admission").BeginObject()
      .Key("admitted").UInt(gov.admitted)
      .Key("queued").UInt(gov.queued)
      .Key("shed").UInt(gov.shed)
      .Key("rejected_draining").UInt(gov.rejected_draining)
      .Key("completed").UInt(gov.completed)
      .Key("deadline_exceeded").UInt(gov.deadline_exceeded)
      .Key("resource_exhausted").UInt(gov.resource_exhausted)
      .Key("cancelled").UInt(gov.cancelled)
      .Key("in_flight").UInt(gov.in_flight)
      .Key("queued_now").UInt(gov.queued_now)
      .EndObject();

  w.Key("cache").BeginObject();
  w.Key("scope");
  WriteStageStats(&w, cache.scope);
  w.Key("causal");
  WriteStageStats(&w, cache.causal);
  w.Key("learn");
  WriteStageStats(&w, cache.learn);
  w.Key("query");
  WriteStageStats(&w, cache.query);
  w.EndObject();
  w.Key("worlds").BeginObject()
      .Key("row_builds").UInt(service.world_row_builds())
      .EndObject();
  const learn::BootstrapMemoStats memo = learn::GetBootstrapMemoStats();
  w.Key("learn").BeginObject()
      .Key("bootstrap_memo").BeginObject()
      .Key("hits").UInt(memo.hits)
      .Key("misses").UInt(memo.misses)
      .Key("bytes").UInt(memo.bytes)
      .EndObject()
      .EndObject();

  const durability::WalStats wal = service.wal_stats();
  w.Key("durability").BeginObject();
  w.Key("enabled").Bool(wal.enabled);
  if (wal.enabled || !wal.dir.empty()) w.Key("dir").String(wal.dir);
  if (wal.enabled) {
    w.Key("fsync").String(wal.fsync_policy)
        .Key("last_lsn").UInt(wal.last_lsn)
        .Key("appends").UInt(wal.appends)
        .Key("appended_bytes").UInt(wal.appended_bytes)
        .Key("fsyncs").UInt(wal.fsyncs)
        .Key("segments").UInt(wal.segments)
        .Key("snapshots_written").UInt(wal.snapshots_written)
        .Key("last_snapshot_lsn").UInt(wal.last_snapshot_lsn)
        .Key("records_since_snapshot").UInt(wal.records_since_snapshot);
  }
  if (!service.recovery_status().ok()) {
    w.Key("recovery_error").String(service.recovery_status().ToString());
  }
  const durability::RecoveryInfo& rec = wal.recovery;
  w.Key("recovery").BeginObject()
      .Key("performed").Bool(rec.performed)
      .Key("snapshot_loaded").Bool(rec.snapshot_loaded)
      .Key("snapshot_lsn").UInt(rec.snapshot_lsn)
      .Key("records_replayed").UInt(rec.records_replayed)
      .Key("records_skipped").UInt(rec.records_skipped)
      .Key("tail_truncated").Bool(rec.tail_truncated)
      .Key("truncated_bytes").UInt(rec.truncated_bytes)
      .Key("corrupt_snapshots_skipped")
      .UInt(rec.corrupt_snapshots_skipped.size())
      .Key("generation").UInt(rec.generation)
      .Key("seconds").Double(rec.seconds)
      .EndObject();
  w.EndObject();

  w.Key("metrics");
  if (registry != nullptr) {
    w.Raw(obs::RenderJson(registry->Snapshot()));
  } else {
    w.Null();
  }
  w.EndObject();
  return w.Take();
}

}  // namespace service
}  // namespace hyper
