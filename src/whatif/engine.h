#ifndef HYPER_WHATIF_ENGINE_H_
#define HYPER_WHATIF_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "causal/graph.h"
#include "common/governance.h"
#include "common/status.h"
#include "learn/estimator.h"
#include "learn/forest.h"
#include "sql/ast.h"
#include "storage/column.h"
#include "storage/database.h"
#include "whatif/compile.h"

namespace hyper::whatif {

// ---------------------------------------------------------------------------
// Staged prepare pipeline. Prepare() is a pipeline of four independently
// fingerprinted stages, each keyed by only the inputs that can change its
// output, so near-identical queries (an intervention sweep, a scenario
// branch with a sparse delta) rebuild only the stages their difference
// actually reaches:
//
//   ScopeStage   relevant view + columnar image
//                key: data snapshot x Use clause x update relation
//   CausalStage  backdoor plan + ground blocks
//                key: + update attrs, For/Output shape, backdoor mode
//                (data-independent for table views without cross-tuple
//                edges: value-only deltas reuse it across branches)
//   LearnStage   encoders + binned training matrix + the trained
//                pattern-estimator cache
//                key: + estimator config + the fingerprint of the
//                context's override cells restricted to the attributes
//                training actually reads (features, adjustment set,
//                For/Output references, psi links) — a branch whose delta
//                touches none of them reuses the parent's LearnStage
//                outright
//   QueryStage   the plan itself: compiled residual (hole) plan + per-row
//                constants (When mask, output values) + shared pointers to
//                the Scope, Causal and Learn stages it was built from
//                key: causal key + When text + the full data snapshot +
//                estimator config (so it determines every upstream key)
//
// Prepare looks the QueryStage up first; only a miss walks Scope -> Causal
// -> Learn through their own cache sections. A warm request is therefore
// one lookup. Stage payloads are opaque to callers (defined in engine.cc);
// downstream stages hold shared_ptr references upstream, so evicting an
// upstream cache entry never invalidates a live downstream stage or plan.
// ---------------------------------------------------------------------------

enum class StageKind { kScope = 0, kCausal, kLearn, kQuery };

/// Per-stage cache consulted by the staged Prepare pipeline. Implemented by
/// service::StageCache (LRU + single-flight per stage).
class StageProvider {
 public:
  using StagePtr = std::shared_ptr<const void>;
  using StageFactory = std::function<Result<StagePtr>()>;

  virtual ~StageProvider() = default;

  /// Returns the cached stage or runs `build` and caches the result.
  /// Single-flight per key; `hit` reports whether this caller built.
  virtual Result<StagePtr> GetOrBuild(StageKind kind, const std::string& key,
                                      const StageFactory& build,
                                      bool* hit) = 0;
};

/// The rows of a data snapshot whose engine runs over the snapshot's base:
/// the scenario service's World of one branch version. The engine asks for
/// them only where it reads cells that neither the base relations nor the
/// base image patched with the override cells can give: an embedded-select
/// view, the ground-graph blocks of cross-tuple edges, and a scope image
/// that a kind-changing override keeps from being patched.
class RowSource {
 public:
  virtual ~RowSource() = default;

  /// The snapshot's rows: the base with every touched relation patched.
  /// Built at most once per snapshot; every caller gets the same Database.
  virtual Result<std::shared_ptr<const Database>> Rows() const = 0;
};

/// Everything the staged pipeline needs to know about the data snapshot it
/// is preparing against. The scenario service builds one per branch
/// version, with that version's World, and every request on the version
/// shares it; standalone callers may leave it out (Prepare then builds
/// every stage fresh).
///
/// With override cells (a `base_scope` other than `data_scope`), the
/// engine's Database is the base the cells are relative to, not the
/// snapshot: a table view's image is the base image patched with the
/// cells, and `rows` serves the reads that need the snapshot's rows.
struct StageContext {
  /// Stage cache; null disables stage caching (fresh builds).
  StageProvider* stages = nullptr;
  /// Full data-snapshot id (e.g. generation + branch delta fingerprint).
  /// Keys every value-sensitive stage.
  std::string data_scope;
  /// Snapshot id stable across value-only changes (e.g. the generation
  /// alone): keys stages that depend on data shape but not cell values.
  /// Empty = fall back to data_scope.
  std::string shape_scope;
  /// data_scope of the unpatched base world this snapshot's overrides are
  /// relative to; empty disables delta patching of the columnar image. A
  /// table view's patched image starts from the base world's ScopeStage,
  /// got or built through the scope section under this scope.
  std::string base_scope;
  /// Sparse cell overrides of this snapshot vs base_scope, per relation
  /// (base-table coordinates). Not owned; must outlive the Prepare call.
  /// With a shape_scope, the engine keys a table view's LearnStage by the
  /// shape scope and a fingerprint of these cells on the attributes
  /// training reads, so snapshots whose deltas miss those attributes share
  /// one LearnStage. Null = no delta: no image patching, and the LearnStage
  /// is keyed by data_scope.
  const std::map<std::string, TableCellOverrides>* overrides = nullptr;
  /// The snapshot's rows when the engine's Database is its base (a branch
  /// version with override cells). Null when the engine's Database already
  /// is the snapshot: the trunk, tests and oracles. Not owned; never part
  /// of a cache key.
  const RowSource* rows = nullptr;
};

/// How the engine picks the adjustment set C of Equation (1).
enum class BackdoorMode {
  /// Minimal backdoor set from the causal graph (§A.2 greedy). This is
  /// "HypeR" in the paper's experiments.
  kGraph = 0,
  /// No background knowledge: every attribute joins the adjustment set
  /// ("HypeR-NB", §2.2 canonical model).
  kAllAttributes,
  /// No adjustment at all: condition on the update attribute only. This is
  /// the correlational "Indep" baseline of §5.1 — it ignores confounding
  /// and cross-attribute dependencies.
  kUpdateOnly,
};

const char* BackdoorModeName(BackdoorMode mode);

struct WhatIfOptions {
  learn::EstimatorKind estimator = learn::EstimatorKind::kForest;
  learn::ForestOptions forest = {};
  /// Shrinkage pseudo-count for the frequency estimator (0 = exact
  /// empirical conditionals; ~5-20 stabilizes sparse cells when continuous
  /// attributes are bucketized).
  double frequency_smoothing = 0.0;
  BackdoorMode backdoor = BackdoorMode::kGraph;
  /// Training-sample cap for the estimators; 0 = use every view row
  /// ("HypeR"), >0 = "HypeR-sampled" with this many rows (§5.2).
  size_t sample_size = 0;
  /// Compute per block of the block-independent decomposition (§3.3). Off
  /// switches to a single block — same value, used by the ablation bench.
  bool use_blocks = true;
  uint64_t seed = 7;
  /// Thread budget on the process-wide pool (0 = hardware default): the
  /// forest trainer's (unless forest.num_threads overrides it; 1 for a
  /// pattern trained by an item of a multi-item sweep), the segment
  /// kernels' (When masks, output columns), and one evaluation's. An
  /// evaluation folds per ColumnTable::kSegmentRows segment and merges the
  /// segment partials in segment order, so a view of more than one segment
  /// folds its segments on up to this many threads; the hashing Pass A
  /// (Scale/Shift updates, psi features, holes over a post image) and the
  /// multi-row block layouts stay on the calling thread. EvaluateBatch and
  /// how-to scoring spend the budget once: across their items when there
  /// are several, else on the one item's segments. The answer's bits
  /// depend on the data and kSegmentRows, never on this setting.
  size_t num_threads = 0;
  // --- resource governance (per-request; never part of any cache key) ---
  /// Wall-clock / row / byte limits for each engine call. The default
  /// (all-zero) budget is ungoverned and costs nothing. An abort returns
  /// kDeadlineExceeded / kResourceExhausted and never stores a partial
  /// stage or plan in any cache — a retry with a larger budget hits the
  /// same cache keys and answers bit-identically.
  QueryBudget budget;
  /// Cooperative cancellation; detached (default) tokens never cancel.
  /// Polled at every stage boundary and inside the hot loops; an abort
  /// returns kCancelled with the same no-partial-entries guarantee.
  CancelToken cancel_token;
  /// Pre-armed governance state. When set, Prepare/Evaluate/Run check
  /// against *this* guard instead of arming a fresh one from
  /// budget/cancel_token — the scenario service uses it to stretch one
  /// request deadline across parse + prepare + evaluate. Leave null to let
  /// each engine entry point arm its own.
  governance::ExecGuardPtr exec_guard;
};

struct WhatIfResult {
  /// valwhatif(Q, D) — Definition 5.
  double value = 0.0;
  size_t view_rows = 0;
  size_t updated_rows = 0;   // |S|
  size_t num_blocks = 1;
  size_t num_patterns = 0;   // distinct post-residual formulas this query used
  std::vector<std::string> backdoor;  // adjustment set (causal names)
  /// Estimator training actually incurred by this call (0 when every needed
  /// pattern estimator was already trained on the shared plan).
  double train_seconds = 0.0;
  double total_seconds = 0.0;
  /// Plan construction (view + backdoor + encode + training matrix) charged
  /// to this call; ~0 when the plan came from a cache.
  double prepare_seconds = 0.0;
  /// Per-intervention evaluation time, without the pattern training it
  /// triggered (train_seconds). Prepare, eval and train are disjoint parts
  /// of total_seconds.
  double eval_seconds = 0.0;
  /// True when Prepare's QueryStage lookup hit: the prepared plan came
  /// from the stage cache (or a concurrent caller's in-flight build).
  bool plan_cache_hit = false;
  /// Pattern estimators this query needed that were already trained on the
  /// shared plan (by an earlier query or batch sibling).
  size_t pattern_cache_hits = 0;
};

/// A Use clause's relevant view and its When selection, as
/// WhatIfEngine::SelectScope returns them.
struct ScopeSelection {
  /// The ScopeStage's columnar image of the view (the pointer keeps the
  /// stage alive).
  std::shared_ptr<const ColumnTable> image;
  /// S: the view rows When selects, ascending.
  std::vector<size_t> rows;
};

/// A prepared what-if plan — one QueryStage: the compiled hole plan for
/// residual folding and the per-row constants, holding the Scope (relevant
/// view, columnar image), Causal (backdoor adjustment set, blocks) and Learn
/// (fitted encoders, training matrix, a lazily-grown cache of trained
/// pattern estimators) stages it was built from. Preparation is the
/// expensive, intervention-independent part of a what-if run;
/// `WhatIfEngine::Evaluate` answers any intervention over the same (view,
/// update attributes, When, For, Output) shape against it.
///
/// Concurrency contract (audited for the parallel how-to scorer and the
/// scenario service, which share one PreparedWhatIf — and, staged, whole
/// stages — across threads): a prepared plan is immutable after Prepare()
/// except for three lazily-grown caches — the residual-entry list and the
/// hole-value -> entry map (QueryStage, one mutex) and the
/// pattern-estimator map (LearnStage, its own mutex; shared by every plan
/// built on that stage). The two locks are never held together. The entry
/// caches grow only for row-invariant holes (one shared entry) and for
/// holes that read a post image (evaluated per row, per intervention);
/// when the holes read no post image, Prepare resolves every row's entry
/// once, and evaluations read those ids without a lock.
/// Concurrent Evaluate calls are safe:
///   - entries are unique_ptr-owned (stable addresses across list growth)
///     and individually immutable once published under the lock;
///   - a pattern estimator is trained by exactly the one caller that first
///     needs it, under the lock, so concurrent evaluations never duplicate
///     training (they observe the trained estimator as a cache hit);
///   - the pattern map is node-based, so estimator addresses survive rehash
///     and evaluations snapshot raw pointers, then predict lock-free
///     (Predict/PredictBatch are const and touch no shared mutable state).
/// Trained estimators are a pure function of (training matrix, pattern,
/// options), so answers are bit-for-bit identical to fresh single-query
/// runs no matter which caller happened to train first.
class PreparedWhatIf {
 public:
  ~PreparedWhatIf();
  PreparedWhatIf(const PreparedWhatIf&) = delete;
  PreparedWhatIf& operator=(const PreparedWhatIf&) = delete;

  /// Update attributes (in statement order) an intervention must target.
  const std::vector<std::string>& update_attributes() const {
    return update_attributes_;
  }
  const std::vector<std::string>& backdoor() const { return backdoor_; }
  size_t view_rows() const { return view_rows_; }
  size_t updated_rows() const { return updated_rows_; }
  double prepare_seconds() const { return prepare_seconds_; }

  /// The QueryStage payload (defined in engine.cc).
  struct Impl;

 private:
  friend class WhatIfEngine;
  PreparedWhatIf();

  std::unique_ptr<Impl> impl_;
  std::vector<std::string> update_attributes_;
  std::vector<std::string> backdoor_;
  size_t view_rows_ = 0;
  size_t updated_rows_ = 0;
  double prepare_seconds_ = 0.0;
};

/// The HypeR what-if engine (§3.3): builds the relevant view, interprets the
/// update as an intervention, and estimates the post-update aggregate with
/// the backdoor-adjusted estimator, decomposed over independent blocks.
class WhatIfEngine {
 public:
  /// `graph` may be null: the engine then behaves as if BackdoorMode were
  /// kAllAttributes (no background knowledge).
  WhatIfEngine(const Database* db, const causal::CausalGraph* graph,
               WhatIfOptions options = {});

  /// Runs a parsed what-if statement: exactly Prepare + Evaluate, so cached
  /// plans reproduce Run bit-for-bit.
  Result<WhatIfResult> Run(const sql::WhatIfStmt& stmt) const;

  /// Parses and runs query text (must be a what-if statement).
  Result<WhatIfResult> RunSql(const std::string& text) const;

  /// Builds the intervention-independent plan for `stmt`: relevant view,
  /// adjustment set, encoders, training matrix, residual hole plan. The
  /// update constants/functions of `stmt` are ignored — only the update
  /// attribute list matters. A view column that mixes strings with numbers
  /// has no columnar image and returns InvalidArgument.
  ///
  /// With a StageContext that carries a stage cache, the plan is the
  /// QueryStage of the four-stage pipeline: Prepare looks it up first and
  /// returns the cached plan on a hit. On a miss each upstream stage is
  /// looked up under its own key and only missing stages are built — so a
  /// plan differing from a cached one only in its When clause rebuilds just
  /// the QueryStage, and a scenario branch whose delta touches no
  /// training-relevant attribute reuses the parent's LearnStage (trained
  /// estimators included). Cached plans are bit-identical to fresh ones.
  /// `cache_hit`, when given, reports whether the QueryStage lookup hit.
  Result<std::shared_ptr<const PreparedWhatIf>> Prepare(
      const sql::WhatIfStmt& stmt, const StageContext* context = nullptr,
      bool* cache_hit = nullptr) const;

  /// The relevant view of `use` for an update of `update_attr0` as its
  /// ScopeStage holds it, and S of §3.1 over it: the view rows whose
  /// pre-update values satisfy `when` (every row when null), from the When
  /// mask kernel a query runs. The
  /// stage is got or built through the context's scope section under the
  /// key Prepare uses, so a request whose plans are warm pays one scope
  /// lookup and no re-encode. Validates the Use clause against the update
  /// relation as Prepare does; fails like Prepare when the view has no
  /// columnar image (a column mixing strings with numbers), and with the
  /// first row's error in row order when When fails to evaluate. The branch
  /// apply takes S from it, and how-to enumerates candidates and their L1
  /// costs over it.
  Result<ScopeSelection> SelectScope(const sql::UseClause& use,
                                     const std::string& update_attr0,
                                     const sql::Expr* when,
                                     const StageContext* context) const;

  /// Evaluates one intervention against a prepared plan, folding the view's
  /// segments on up to `num_threads` threads (a view of one segment folds
  /// on the calling thread). `updates` must target the plan's update
  /// attributes in order; constants and update functions are free.
  /// Thread-safe; answers are bit-for-bit identical to a fresh Run of the
  /// corresponding statement, at any budget.
  Result<WhatIfResult> Evaluate(const PreparedWhatIf& plan,
                                const std::vector<UpdateSpec>& updates) const;

  /// Evaluates N interventions against one prepared plan in a single sharded
  /// pass over the worker pool, at most `num_threads` at once, each folding
  /// its segments on its own thread; a batch of one spends the whole budget
  /// on its segments, as Evaluate does. results[i] corresponds to
  /// interventions[i] and is identical to Evaluate(plan, interventions[i]).
  ///
  /// Error handling: with `statuses == nullptr` the first failing
  /// intervention (in index order) fails the whole call. With a non-null
  /// `statuses`, the call succeeds, statuses->at(i) carries each
  /// intervention's own status (e.g. Avg over a zero-probability qualifying
  /// set), and results[i] is meaningful iff statuses->at(i).ok() — one bad
  /// intervention no longer aborts the rest of a sweep.
  Result<std::vector<WhatIfResult>> EvaluateBatch(
      const PreparedWhatIf& plan,
      const std::vector<std::vector<UpdateSpec>>& interventions,
      std::vector<Status>* statuses = nullptr) const;

  /// Human-readable execution plan, read off the plan Run executes:
  /// Prepare(stmt) with no stage context (it encodes and builds the training
  /// matrix but trains no estimator), then the view's shape and |S| from
  /// its ScopeStage and QueryStage, the backdoor mode, update and target
  /// columns and adjustment set (backdoor()) from its CausalStage, and the
  /// statement's own update clauses. Fails wherever Prepare fails.
  Result<std::string> Explain(const sql::WhatIfStmt& stmt) const;
  Result<std::string> ExplainSql(const std::string& text) const;

  const WhatIfOptions& options() const { return options_; }

 private:
  /// Prepare's QueryStage build: every upstream stage (through its own
  /// cache section when `context` carries a stage cache), then the plan.
  Result<std::shared_ptr<const PreparedWhatIf>> BuildPlan(
      const sql::WhatIfStmt& stmt, const StageContext* context,
      const std::string& update_relation,
      const std::string& causal_key) const;

  const Database* db_;
  const causal::CausalGraph* graph_;  // nullable
  WhatIfOptions options_;
};

}  // namespace hyper::whatif

#endif  // HYPER_WHATIF_ENGINE_H_
