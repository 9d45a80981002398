#ifndef HYPER_SERVICE_SCENARIO_SERVICE_H_
#define HYPER_SERVICE_SCENARIO_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "causal/graph.h"
#include "common/governance.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "durability/manager.h"
#include "howto/engine.h"
#include "service/plan_cache.h"
#include "service/scenario.h"
#include "sql/ast.h"
#include "storage/database.h"
#include "whatif/engine.h"

namespace hyper::obs {
class MetricsRegistry;
}  // namespace hyper::obs

namespace hyper::service {

/// Pre-resolved instrument handles (defined in service_metrics.h); owned by
/// the service when a registry is wired, absent otherwise.
struct ServiceInstruments;

struct ServiceOptions {
  /// Default estimation options for what-if (and the what-if legs of
  /// how-to) requests; overridable per request.
  whatif::WhatIfOptions whatif;
  /// How-to candidate discretization / solver knobs.
  size_t howto_num_buckets = 8;
  double howto_global_l1_budget = -1.0;
  bool howto_prefer_mck = true;
  /// Entries kept per stage-cache section across requests (LRU; 0 disables
  /// the cache). The query section holds the prepared plans.
  size_t plan_cache_capacity = 64;
  /// Worker threads for SubmitBatch request sharding: 1 = sequential,
  /// anything else = the process-wide pool (0 = hardware default). Results
  /// are ordered by request index and identical for every setting.
  size_t num_threads = 0;
  /// Admission control: at most this many requests execute concurrently
  /// (0 = unlimited, admission control off). Applies to Submit (a what-if
  /// sweep takes one slot, however many interventions it carries) and to
  /// each SubmitBatch item.
  size_t max_concurrent_requests = 0;
  /// With admission control on, at most this many requests wait for a slot;
  /// arrivals beyond that are shed immediately with kUnavailable (0 = no
  /// queue, shed as soon as every slot is busy). Queue wait does not count
  /// against a request's deadline — the budget arms at execution start.
  size_t max_queued_requests = 0;
  /// Observability: when set (not owned; must outlive the service), every
  /// dispatched request is folded into latency histograms and outcome
  /// counters (see service_metrics.h). Null = no instrumentation cost.
  obs::MetricsRegistry* metrics = nullptr;
  /// Durability: when non-empty, every state-changing operation (scenario
  /// create/drop, applied hypothetical, dataset reload) is journaled to a
  /// checksummed WAL under this directory BEFORE it becomes visible, with
  /// periodic branch-state snapshots; on construction the service recovers
  /// the directory's state bit-identically (same delta fingerprints, same
  /// answers). Empty = in-memory only, zero overhead.
  std::string data_dir;
  durability::FsyncPolicy wal_fsync = durability::FsyncPolicy::kInterval;
  double wal_fsync_interval_seconds = 0.05;
  /// Snapshot + WAL rotation every N journaled records (0 = only explicit
  /// SnapshotNow / reload snapshots).
  uint64_t snapshot_every_records = 256;
};

/// One intervention's outcome within a what-if sweep. `result` is
/// meaningful iff `status.ok()`: a single failing intervention (e.g. an Avg
/// whose qualifying set has zero probability under that intervention) is
/// reported here per item instead of aborting the rest of the sweep.
struct WhatIfBatchItem {
  Status status = Status::OK();
  whatif::WhatIfResult result;

  bool ok() const { return status.ok(); }
};

struct Response {
  Status status = Status::OK();
  /// The statement's kind: kNone when the request failed before its
  /// statement parsed, kWhatIfBatch for a what-if swept over
  /// Request::interventions. When the request expected another kind, the
  /// status is kInvalidArgument and `kind` still names the statement's.
  enum class Kind { kNone, kWhatIf, kHowTo, kSelect, kWhatIfBatch } kind =
      Kind::kNone;
  whatif::WhatIfResult whatif;
  /// kWhatIfBatch: items[i] answers Request::interventions[i].
  std::vector<WhatIfBatchItem> items;
  howto::HowToResult howto;
  Table table;  // select results
  /// Wall time of the request: its parse, guard arming and dispatch. A
  /// request that is the first of its branch version to read the branch's
  /// rows (a select, an embedded-select view, cross-tuple blocks or a
  /// kind-changing override's rebuild) includes their build.
  double seconds = 0.0;

  bool ok() const { return status.ok(); }
};

/// The statement kind `kind` answers, as error messages name it:
/// "what-if" (kWhatIf and kWhatIfBatch), "how-to", "select" or "none".
const char* KindName(Response::Kind kind);

/// One request against a scenario branch. The statement kind (what-if /
/// how-to / select) is detected from its one parse.
struct Request {
  std::string scenario = "main";
  std::string sql;
  /// Per-request estimation override (defaults to the service options).
  std::optional<whatif::WhatIfOptions> whatif_options;
  /// Per-request resource limits (zero-valued fields are unlimited). One
  /// guard spans prepare + evaluate, every intervention of a sweep
  /// included; aborts surface as kDeadlineExceeded / kResourceExhausted in
  /// the response status and never leave partial stage-cache entries. A
  /// request with neither a budget nor a token here is bounded by the
  /// budget and token of its effective what-if options instead.
  QueryBudget budget;
  /// Cooperative cancellation (detached by default). Trip it from any
  /// thread; the request unwinds with kCancelled at its next checkpoint.
  CancelToken cancel_token;
  /// The kind of statement the caller expects. kNone serves any kind;
  /// kWhatIf, kHowTo and kSelect fail another kind with kInvalidArgument
  /// before the request reads a cache or the branch's data. kWhatIfBatch
  /// expects a what-if and sweeps `interventions` over its one plan.
  Response::Kind expected_kind = Response::Kind::kNone;
  /// The sweep of a kWhatIfBatch request: the statement fixes the
  /// Use/When/For/Output shape and the update attributes, interventions[i]
  /// the i-th constants. items[i] is bit-for-bit the answer of the
  /// corresponding single statement. An empty sweep still prepares the
  /// plan and answers zero items.
  std::vector<std::vector<whatif::UpdateSpec>> interventions;
};

/// Admission-control and governed-outcome counters (monotone over the
/// service lifetime, except the two gauges at the bottom).
struct GovernanceStats {
  uint64_t admitted = 0;           // granted an execution slot
  uint64_t queued = 0;             // of admitted: waited for a slot first
  uint64_t shed = 0;               // rejected, queue full (kUnavailable)
  uint64_t rejected_draining = 0;  // rejected, service draining (kUnavailable)
  uint64_t completed = 0;          // finished with any status
  uint64_t deadline_exceeded = 0;  // completed with kDeadlineExceeded
  uint64_t resource_exhausted = 0;  // completed with kResourceExhausted
  uint64_t cancelled = 0;          // completed with kCancelled
  size_t in_flight = 0;            // gauge: executing right now
  size_t queued_now = 0;           // gauge: waiting for a slot right now
  bool draining = false;           // gauge: BeginDrain was called
};

struct ScenarioInfo {
  std::string name;
  std::string parent;
  size_t updates_applied = 0;
  size_t overridden_cells = 0;
  /// Bumped by every override batch the branch accepts.
  uint64_t version = 0;
  /// delta_fingerprint() of the branch — the recovery acceptance check
  /// compares these across a crash/restart.
  uint64_t delta_fingerprint = 0;
};

/// The HypeR serving layer: owns a base database, a causal graph, named
/// scenario branches (chained hypothetical updates as copy-on-write deltas,
/// see ScenarioBranch) and a shared stage cache (plans and estimators), and
/// serves what-if / how-to / select requests and what-if sweeps against any
/// branch.
///
/// Sharing model: a prepared what-if plan (relevant view, adjustment set,
/// trained estimators) is keyed by (data scope, query shape, estimator
/// config) and reused across requests, sessions and scenario branches with
/// identical deltas. Cached answers are bit-for-bit identical to fresh
/// single-query runs — the cache only ever skips re-deriving something the
/// fresh run would have derived identically. Mutating data (ApplyHypothetical,
/// ReloadDataset) changes the scope, so stale plans become unreachable and
/// age out of the LRU.
///
/// Thread safety: Submit/SubmitBatch may be called concurrently; branch
/// mutation takes effect atomically between requests (in-flight requests
/// keep the world they started with).
class ScenarioService {
 public:
  explicit ScenarioService(Database base, ServiceOptions options = {});
  /// An empty `graph` is a service without one (graph() returns null).
  ScenarioService(Database base, std::optional<causal::CausalGraph> graph,
                  ServiceOptions options = {});
  ~ScenarioService();  // out-of-line: ServiceInstruments is incomplete here

  // --- scenario branches -------------------------------------------------

  /// Creates a branch chained off `parent` (default: the trunk scenario
  /// "main", which carries no deltas until hypotheticals are applied to it).
  Status CreateScenario(const std::string& name,
                        const std::string& parent = "main");

  /// Drops the branch and eagerly evicts its cached state: the branch's
  /// World (override snapshot and rows) goes with it, and every plan /
  /// stage cache entry scoped to the branch's delta fingerprint is evicted
  /// immediately instead of aging out under LRU pressure. Stage entries
  /// keyed by restricted or shape scopes survive — they are shared with
  /// other branches by construction. (A live branch with a bit-identical
  /// delta loses shared entries too; that costs a rebuild, never
  /// correctness.)
  Status DropScenario(const std::string& name);
  bool HasScenario(const std::string& name) const;
  std::vector<ScenarioInfo> ListScenarios() const;

  /// Applies the *deterministic* part of a what-if statement to the branch:
  /// rows selected by When get their update attributes set to f(pre), stored
  /// as per-attribute override deltas. Subsequent queries on the branch see
  /// the post-update world; other branches are untouched. Returns the number
  /// of updated rows.
  Result<size_t> ApplyHypothetical(const std::string& scenario,
                                   const sql::WhatIfStmt& stmt);
  Result<size_t> ApplyHypotheticalSql(const std::string& scenario,
                                      const std::string& whatif_sql);

  // --- serving -----------------------------------------------------------

  /// Answers one request. A what-if sweep (Request::expected_kind
  /// kWhatIfBatch) is one request: one admission slot, one plan prepared,
  /// its interventions evaluated in one sharded pass under one guard. A
  /// sweep-level failure (unknown scenario, unparsable or wrong-kind
  /// statement, a hard Prepare error, a governance abort anywhere in the
  /// sweep) fails the response and leaves no items; any other
  /// per-intervention failure lands in its item and the rest of the sweep
  /// still answers.
  Response Submit(const Request& request);

  /// Runs every request (possibly concurrently over the worker pool);
  /// results[i] corresponds to requests[i] and is identical to a sequential
  /// Submit of the same request.
  // lint:allow(unreferenced): test-hook — golden_test and service_test drive
  // answers through it.
  std::vector<Response> SubmitBatch(const std::vector<Request>& requests);

  // --- admission control & drain ------------------------------------------

  /// Stops admitting work: new and queued requests are rejected with
  /// kUnavailable; in-flight requests run to completion (or hit their own
  /// deadlines). Idempotent.
  void BeginDrain();

  /// Blocks until nothing is executing or queued. Call after BeginDrain for
  /// a graceful shutdown.
  void AwaitIdle();

  bool draining() const;
  GovernanceStats governance_stats() const;

  // --- cache & data management -------------------------------------------

  PlanCacheStats cache_stats() const { return cache_.stats(); }
  void ClearCache() { cache_.Clear(); }

  /// How many times a branch version's World built its rows (at most once
  /// per version; see EffectiveDatabase). Requests that read only a table
  /// view's cells build none.
  uint64_t world_row_builds() const {
    return world_row_builds_.load(std::memory_order_relaxed);
  }

  /// Replaces the base database: every branch is dropped back to a clean
  /// trunk and the stage cache scope rolls over (cached plans for the old
  /// data can never serve the new data). With durability on, the reload is
  /// journaled and immediately followed by a fresh snapshot (the base data
  /// itself is not journaled — recovery verifies the operator reloaded the
  /// same dataset via its content fingerprint).
  // lint:allow(unreferenced): durability — the writer of the WAL's reload
  // record; dropping it would change the log format.
  Status ReloadDataset(Database base);

  // --- durability ----------------------------------------------------------

  /// Non-OK when the service was constructed over a data dir that failed
  /// recovery (corrupt WAL, replay divergence, wrong dataset). A gated
  /// service refuses every mutation and submit with exactly this status —
  /// it never silently serves possibly-wrong state.
  const Status& recovery_status() const { return recovery_status_; }

  /// What startup recovery found and replayed (meaningful when
  /// options().data_dir was set, defaulted otherwise).
  const durability::RecoveryInfo& recovery_info() const {
    return recovery_info_;
  }

  /// Writes a branch-state snapshot now (drain path, `\wal stats` demos).
  /// OK and a no-op when durability is off.
  Status SnapshotNow();

  /// Forces an fdatasync of the open WAL segment. No-op when off.
  // lint:allow(unreferenced): durability — the service's WAL flush.
  Status SyncWal();

  bool durable() const { return durable_ != nullptr; }
  durability::WalStats wal_stats() const;

  /// The rows of the branch's current World: base relations shared
  /// structurally, touched relations patched. They are built once per
  /// branch version, by the first caller that asks, and every caller of
  /// that version gets the same Database. The snapshot stays valid while
  /// queries hold it, even across later branch mutations. Requests never
  /// need them for a table view's what-if, how-to or apply, which read the
  /// base and the branch's override cells; only selects, embedded-select
  /// views, cross-tuple blocks and a kind-changing override's image
  /// rebuild ask for them. Oracles and tests call this to get the branch's
  /// rows.
  Result<std::shared_ptr<const Database>> EffectiveDatabase(
      const std::string& scenario);

  /// The relations the branch's current World runs over, without its
  /// cells. A branch overrides only cells, so relation names, row counts
  /// and schemas are the base's: reading them builds no rows.
  Result<std::shared_ptr<const Database>> BaseDatabase(
      const std::string& scenario);

  const causal::CausalGraph* graph() const {
    return graph_.has_value() ? &*graph_ : nullptr;
  }
  const ServiceOptions& options() const { return options_; }

 private:
  /// One branch version: the base, the override snapshot, the stage
  /// context, and the rows built on first demand (scenario_service.cc).
  /// It is its stage context's row source.
  class World;

  struct BranchState {
    BranchState(ScenarioBranch branch, uint64_t id)
        : branch(std::move(branch)), id(id) {}

    ScenarioBranch branch;
    /// Unique across the service lifetime: a dropped-and-recreated branch
    /// under the same name gets a fresh id, so optimistic version checks
    /// cannot ABA onto an unrelated branch.
    uint64_t id = 0;
    /// The World of branch.version(), made by the first SnapshotWorld of
    /// that version (null before it, or stale after a mutation).
    std::shared_ptr<const World> world;
  };

  Result<BranchState*> FindBranchLocked(const std::string& name)
      REQUIRES(mu_);

  /// Opens the data dir, rehydrates branches from snapshot + WAL tail, and
  /// verifies every replayed record lands on its journaled fingerprint.
  /// Failures park the service behind recovery_status_ instead of throwing.
  /// Constructor-only (the service is unpublished, so no lock is physically
  /// taken); REQUIRES(mu_) states the logical contract — these touch
  /// mu_-guarded state — and the analysis skips constructor bodies.
  void InitDurability() REQUIRES(mu_);
  Status ReplayDurable(durability::Manager::OpenResult* opened)
      REQUIRES(mu_);
  /// Images every branch for a snapshot; caller holds mu_.
  std::vector<durability::DurableBranch> ImageBranchesLocked() const
      REQUIRES(mu_);
  Status SnapshotLocked() REQUIRES(mu_);

  /// The branch's World for its current version: made under mu_ in
  /// O(override cells) on the first call of a version, then shared. It
  /// builds no rows; World::Rows does, outside mu_.
  Result<std::shared_ptr<const World>> SnapshotWorld(
      const std::string& scenario) EXCLUDES(mu_);

  /// Answers the parsed statement of `request` (its kind already in
  /// response->kind) with the request's effective what-if options: a
  /// what-if or how-to over the World's base with its stage context, a
  /// select over its rows. Returns the response's status.
  Status Dispatch(const Request& request, const sql::Statement& statement,
                  const whatif::WhatIfOptions& options, const World& world,
                  Response* response);

  /// The one request path, given the request's World (or the error that
  /// found none): parses the statement once and fails a kind mismatch
  /// before any cache or data is read, then arms at most one
  /// ExecGuard (from the request's budget and token, else from its
  /// effective what-if options) and injects it through those options, so
  /// every engine call of the request shares one deadline and one pair of
  /// meters. Records every request it is given in the metrics, once.
  Response GovernedDispatch(const Request& request,
                            const Result<std::shared_ptr<const World>>& world);

  /// Blocks until the request may execute (or rejects it): kUnavailable
  /// when the service is draining or the wait queue is full. Every Admit()
  /// that returns OK must be paired with exactly one Release().
  Status Admit() EXCLUDES(admission_mu_);
  /// Releases the execution slot and folds the request's outcome into the
  /// governance counters.
  void Release(const Status& status) EXCLUDES(admission_mu_);

  mutable Mutex mu_;
  Database base_ GUARDED_BY(mu_);
  /// graph_ / options_ / cache_ / instruments_ are set in the constructor
  /// and immutable afterwards (cache_ is internally locked), so they are
  /// intentionally unguarded.
  std::optional<causal::CausalGraph> graph_;
  /// Bumped by ReloadDataset; prefixes every stage-cache scope.
  uint64_t generation_ GUARDED_BY(mu_) = 1;
  uint64_t next_branch_id_ GUARDED_BY(mu_) = 1;
  std::map<std::string, BranchState> branches_ GUARDED_BY(mu_);
  ServiceOptions options_;
  StageCache cache_;
  /// Metrics handles, present iff options_.metrics was set.
  std::unique_ptr<ServiceInstruments> instruments_;
  /// Row builds of every World this service made (world_row_builds()).
  std::atomic<uint64_t> world_row_builds_{0};
  /// Durability manager, present iff options_.data_dir was set AND recovery
  /// succeeded. The pointer itself is written only during construction
  /// (safe to test without mu_; Manager is internally locked) — but appends
  /// that order against branch mutations happen under mu_, before the
  /// mutation is visible.
  std::unique_ptr<durability::Manager> durable_;
  /// Written once during construction, read-only afterwards (safe to check
  /// without mu_).
  Status recovery_status_ = Status::OK();
  durability::RecoveryInfo recovery_info_;

  /// Admission-control state, on its own lock (never held together with
  /// mu_, and never across a dispatch — only around counter/slot updates
  /// and the bounded queue wait).
  mutable Mutex admission_mu_;
  CondVar admission_cv_;
  size_t in_flight_ GUARDED_BY(admission_mu_) = 0;
  size_t queue_len_ GUARDED_BY(admission_mu_) = 0;
  bool draining_ GUARDED_BY(admission_mu_) = false;
  /// Counters only; gauges are filled by the accessor.
  GovernanceStats gov_ GUARDED_BY(admission_mu_);
};

}  // namespace hyper::service

#endif  // HYPER_SERVICE_SCENARIO_SERVICE_H_
