#ifndef HYPER_HOWTO_ENGINE_H_
#define HYPER_HOWTO_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "causal/graph.h"
#include "common/status.h"
#include "sql/ast.h"
#include "storage/database.h"
#include "whatif/compile.h"
#include "whatif/engine.h"

namespace hyper::howto {

struct HowToOptions {
  /// Estimation options for the candidate what-if evaluations. Its
  /// `num_threads` is also the candidate-scoring thread budget: the
  /// (attribute, candidate) pairs are sharded across the shared worker pool,
  /// each evaluated whole on the thread that claimed it, and merged in
  /// candidate order, so scored deltas, chosen plans and every reported
  /// candidate value are bit-for-bit identical at any thread count
  /// (1 = fully sequential; 0 = hardware default).
  ///
  /// Resource governance also rides here: `whatif.budget` /
  /// `whatif.cancel_token` (or a pre-armed `whatif.exec_guard`) bound a
  /// whole how-to run — the engine arms one guard per candidate-scoring
  /// pass, shared by enumeration's scope lookup (which charges a scope
  /// build like a prepare does), the baseline, every plan prepare and every
  /// candidate evaluation, and additionally checks it before each candidate
  /// ("howto.score"). Aborts surface as kDeadlineExceeded /
  /// kResourceExhausted / kCancelled and never leave partial cache entries.
  whatif::WhatIfOptions whatif = {};
  /// Buckets for discretizing continuous update ranges (§4.3; Figure 9
  /// sweeps this).
  size_t num_buckets = 8;
  /// Optional global L1 budget coupling the chosen updates across
  /// attributes (sum of per-attribute normalized L1 costs). Negative =
  /// disabled; per-attribute L1 limits from the query always apply.
  /// This is the engine-level extension that makes the IP a genuine
  /// multiple-choice knapsack instead of a separable argmax.
  double global_l1_budget = -1.0;
  /// Solve with the exact multiple-choice-knapsack specialisation when the
  /// IP has only choice rows + one budget row; false forces general
  /// branch-and-bound (ablation).
  bool prefer_mck = true;
  /// Optional staged-prepare wiring (see whatif::StageContext): when set,
  /// the baseline plan and every per-attribute candidate plan are looked up
  /// in the context's stage cache, so repeated runs (the scenario service
  /// passes its own) reuse prepared plans and trained estimators, and the
  /// plans of one run share the ScopeStage instead of each
  /// re-materializing the view. When null, plans are shared within a
  /// single run only. Not owned; must outlive Run.
  const whatif::StageContext* stage_context = nullptr;
};

/// One candidate update for one attribute (an element of the S_B sets of
/// §4.3), with its estimated single-attribute what-if objective.
struct CandidateUpdate {
  whatif::UpdateSpec spec;
  double objective_value = 0.0;  // estimated what-if value if applied alone
  double delta = 0.0;            // objective_value - baseline_value
  double cost = 0.0;             // normalized L1 over S (0 for categorical)
  /// True when the candidate's what-if evaluation was skipped because its
  /// cost alone already exceeds the global L1 budget: costs are nonnegative,
  /// so no chosen set containing it can be feasible (the admissible-bound
  /// argument of SolveMck's suffix pruning, applied before evaluation).
  /// Pruned candidates carry delta = 0 / objective_value = baseline and are
  /// never selected. Pruning is independent of the thread count, so pruned
  /// runs are still bit-identical across 1..N scoring threads.
  bool pruned = false;
};

/// The chosen action for one HowToUpdate attribute.
struct AttributeChoice {
  std::string attribute;
  bool changed = false;
  whatif::UpdateSpec update;  // valid when changed
  double delta = 0.0;
  double cost = 0.0;

  std::string ToString() const;
};

struct HowToResult {
  std::vector<AttributeChoice> plan;
  double baseline_value = 0.0;   // objective with no update
  double objective_value = 0.0;  // baseline + sum of chosen deltas (linear phi)
  size_t candidates_evaluated = 0;
  /// Candidates skipped without a what-if evaluation because their cost
  /// alone busts the global L1 budget (see CandidateUpdate::pruned).
  size_t candidates_pruned = 0;
  bool used_mck = false;
  size_t solver_nodes = 0;
  double total_seconds = 0.0;
  /// Prepared plans served by the stage cache (a QueryStage lookup hit)
  /// instead of being built.
  size_t plan_cache_hits = 0;
  /// Candidate evaluations that reused an already-trained pattern estimator
  /// of a shared plan instead of retraining it.
  size_t pattern_cache_hits = 0;
  /// Plan construction (view + encode + training matrix) charged to this
  /// run; ~0 when every plan came from the cache.
  double prepare_seconds = 0.0;
  /// Candidate evaluation time, without the estimator training it
  /// triggered (train_seconds).
  double eval_seconds = 0.0;
  /// Estimator training actually incurred by this run.
  double train_seconds = 0.0;
  /// Candidate enumeration: the ScopeStage lookup, S and the candidate
  /// lists with their Limit filters.
  double enumerate_seconds = 0.0;
  /// L1 costs and budget pruning.
  double cost_seconds = 0.0;
  /// The MCK or IP solve alone (summed over RunLexicographic's solves).
  /// The phases above, prepare_seconds, eval_seconds and train_seconds are
  /// disjoint parts of total_seconds; at a one-thread scoring budget they
  /// sum to at most it.
  double solve_seconds = 0.0;
  /// Full candidate sets, per HowToUpdate attribute (for benches/debugging).
  std::vector<std::vector<CandidateUpdate>> candidates;

  std::string PlanToString() const;
};

/// The HypeR how-to engine (§4): enumerates permissible bucketized updates
/// per attribute, scores each with a candidate what-if query (Definition 7),
/// and solves the resulting integer program (Equations 7-9) — by exact
/// multiple-choice knapsack when the structure allows, else by
/// branch-and-bound over the simplex relaxation.
class HowToEngine {
 public:
  HowToEngine(const Database* db, const causal::CausalGraph* graph,
              HowToOptions options = {});

  Result<HowToResult> Run(const sql::HowToStmt& stmt) const;
  Result<HowToResult> RunSql(const std::string& text) const;

  /// Preferential multi-objective optimization (§4.3, Example 11): solves
  /// the statements in order of priority; each solved objective is locked
  /// (its achieved delta becomes an equality constraint) before optimizing
  /// the next. All statements must share Use/When/HowToUpdate/Limit.
  Result<HowToResult> RunLexicographic(
      const std::vector<const sql::HowToStmt*>& stmts) const;

  /// The paper's alternate formulation (§4.3, footnote 3): minimize the
  /// total normalized-L1 update cost subject to the objective reaching at
  /// least `objective_target` (for ToMaximize statements; at most, for
  /// ToMinimize). Infeasible targets surface as FailedPrecondition.
  // lint:allow(unreferenced): paper — §4.3's min-cost formulation; no
  // serving route asks for it.
  Result<HowToResult> RunMinCost(const sql::HowToStmt& stmt,
                                 double objective_target) const;

  /// Generates the candidate update set for each HowToUpdate attribute of
  /// `stmt` without scoring them (exposed for the Opt-HowTo baseline, which
  /// must search the same space). Reads S, the pre-update values and the
  /// observed values from the ScopeStage image of the statement's Use
  /// clause (through `stage_context` when set), never the row store.
  Result<std::vector<std::vector<whatif::UpdateSpec>>> EnumerateCandidates(
      const sql::HowToStmt& stmt) const;

  const HowToOptions& options() const { return options_; }

 private:
  /// Checks the statement is sound (§4.1: the updated attributes are
  /// causally unrelated), then scores every candidate with a
  /// single-attribute what-if evaluation, sharding the (attribute,
  /// candidate) pairs across the worker pool under the `whatif.num_threads`
  /// budget with an ordered deterministic merge. Returns a result holding
  /// the baseline, every candidate and the scoring counters; the solve
  /// fills in the rest. `prune_budget` >= 0 enables cost-infeasibility
  /// pruning against that global L1 budget (callers whose solve has no
  /// budget row — RunMinCost — pass -1, since every candidate stays
  /// selectable there).
  Result<HowToResult> ScoreCandidates(const sql::HowToStmt& stmt,
                                      double prune_budget) const;

  const Database* db_;
  const causal::CausalGraph* graph_;  // nullable
  HowToOptions options_;
};

/// The baseline objective value: the what-if machinery run with an empty
/// update set (every tuple unaffected), i.e. the observational aggregate.
Result<double> BaselineObjective(const Database& db,
                                 const sql::HowToStmt& stmt);

/// Builds the candidate what-if statement of Definition 7: same Use / When /
/// For as the how-to statement, the given updates, and the ToMaximize /
/// ToMinimize aggregate as Output. Shared with the Opt-HowTo baseline so
/// both search exactly the same query space.
sql::WhatIfStmt MakeCandidateWhatIf(const sql::HowToStmt& howto,
                                    const std::vector<whatif::UpdateSpec>& updates);

}  // namespace hyper::howto

#endif  // HYPER_HOWTO_ENGINE_H_
