#include "howto/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <set>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "learn/discretizer.h"
#include "opt/mck.h"
#include "opt/milp.h"
#include "relational/compiled.h"
#include "relational/eval.h"
#include "sql/parser.h"

namespace hyper::howto {

using relational::Env;
using relational::EvalPredicate;
using sql::LimitItem;
using sql::LimitKind;
using whatif::UpdateSpec;

std::string AttributeChoice::ToString() const {
  if (!changed) return attribute + ": no change";
  switch (update.func) {
    case sql::UpdateFuncKind::kSet:
      return attribute + ": set to " + update.constant.ToString();
    case sql::UpdateFuncKind::kScale:
      return attribute + ": scale by " + update.constant.ToString();
    case sql::UpdateFuncKind::kShift:
      return attribute + ": shift by " + update.constant.ToString();
  }
  return attribute + ": ?";
}

std::string HowToResult::PlanToString() const {
  std::vector<std::string> parts;
  for (const AttributeChoice& c : plan) parts.push_back(c.ToString());
  return "{" + Join(parts, "; ") + "}";
}

sql::WhatIfStmt MakeCandidateWhatIf(const sql::HowToStmt& howto,
                                    const std::vector<UpdateSpec>& updates) {
  sql::WhatIfStmt stmt;
  stmt.use.view_name = howto.use.view_name;
  stmt.use.table = howto.use.table;
  if (howto.use.select != nullptr) {
    stmt.use.select = std::make_unique<sql::SelectStmt>();
    stmt.use.select->items.reserve(howto.use.select->items.size());
    for (const auto& item : howto.use.select->items) {
      sql::SelectItem copy;
      copy.expr = item.expr ? item.expr->Clone() : nullptr;
      copy.alias = item.alias;
      copy.agg = item.agg;
      stmt.use.select->items.push_back(std::move(copy));
    }
    stmt.use.select->from = howto.use.select->from;
    stmt.use.select->where =
        howto.use.select->where ? howto.use.select->where->Clone() : nullptr;
    for (const auto& g : howto.use.select->group_by) {
      stmt.use.select->group_by.push_back(g->Clone());
    }
  }
  stmt.when = howto.when ? howto.when->Clone() : nullptr;
  for (const UpdateSpec& u : updates) {
    sql::UpdateClause clause;
    clause.attribute = u.attribute;
    clause.func = u.func;
    clause.constant = u.constant;
    stmt.updates.push_back(std::move(clause));
  }
  stmt.output.agg = howto.objective_agg;
  stmt.output.inner =
      howto.objective_inner ? howto.objective_inner->Clone() : nullptr;
  stmt.for_pred = howto.for_pred ? howto.for_pred->Clone() : nullptr;
  return stmt;
}

namespace {

/// Replaces When by a never-true predicate so no tuple updates: the engine
/// then evaluates every tuple on its exact observational path.
sql::WhatIfStmt MakeBaselineWhatIf(const sql::HowToStmt& howto,
                                   const std::string& any_attribute,
                                   const Value& any_value) {
  UpdateSpec dummy;
  dummy.attribute = any_attribute;
  dummy.func = sql::UpdateFuncKind::kSet;
  dummy.constant = any_value;
  sql::WhatIfStmt stmt = MakeCandidateWhatIf(howto, {dummy});
  stmt.when = sql::MakeLiteral(Value::Bool(false));
  return stmt;
}

/// Rows of the view selected by `when` (all rows when null), evaluated with
/// a compiled predicate: column references resolve once, not per row.
Result<std::vector<size_t>> SelectWhenRows(const Table& view,
                                           const sql::Expr* when) {
  std::vector<size_t> rows;
  if (when == nullptr) {
    rows.resize(view.num_rows());
    for (size_t r = 0; r < view.num_rows(); ++r) rows[r] = r;
    return rows;
  }
  const std::vector<relational::ScopedTuple> scope{relational::ScopedTuple{
      view.schema().relation_name(), &view.schema()}};
  HYPER_ASSIGN_OR_RETURN(relational::CompiledExpr compiled,
                         relational::CompiledExpr::Compile(*when, scope));
  for (size_t r = 0; r < view.num_rows(); ++r) {
    const relational::BoundRow frame{&view.row(r), nullptr};
    HYPER_ASSIGN_OR_RETURN(bool sel, compiled.EvalRowBool(&frame));
    if (sel) rows.push_back(r);
  }
  return rows;
}

}  // namespace

Result<double> BaselineObjective(const Database& db,
                                 const sql::HowToStmt& stmt) {
  if (stmt.update_attributes.empty()) {
    return Status::InvalidArgument("HowToUpdate needs at least one attribute");
  }
  sql::WhatIfStmt baseline =
      MakeBaselineWhatIf(stmt, stmt.update_attributes[0], Value::Int(0));
  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  whatif::WhatIfEngine engine(&db, nullptr, options);
  HYPER_ASSIGN_OR_RETURN(whatif::WhatIfResult result, engine.Run(baseline));
  return result.value;
}

HowToEngine::HowToEngine(const Database* db, const causal::CausalGraph* graph,
                         HowToOptions options)
    : db_(db), graph_(graph), options_(options) {}

Result<HowToResult> HowToEngine::RunSql(const std::string& text) const {
  HYPER_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseSql(text));
  if (stmt.howto == nullptr) {
    return Status::InvalidArgument("expected a how-to statement");
  }
  return Run(*stmt.howto);
}

Result<std::vector<std::vector<UpdateSpec>>> HowToEngine::EnumerateCandidates(
    const sql::HowToStmt& stmt) const {
  if (stmt.update_attributes.empty()) {
    return Status::InvalidArgument("HowToUpdate needs at least one attribute");
  }
  // Materialize the view once to evaluate When and collect data ranges.
  HYPER_ASSIGN_OR_RETURN(
      whatif::ViewInfo view_info,
      whatif::BuildRelevantView(*db_, stmt.use, stmt.update_attributes[0]));
  const Table& view = *view_info.view;
  const Schema& vschema = view.schema();

  HYPER_ASSIGN_OR_RETURN(std::vector<size_t> s_rows,
                         SelectWhenRows(view, stmt.when.get()));
  if (s_rows.empty()) {
    return Status::InvalidArgument("When selects no tuples to update");
  }

  std::vector<std::vector<UpdateSpec>> out;
  for (const std::string& attr : stmt.update_attributes) {
    HYPER_ASSIGN_OR_RETURN(size_t col, vschema.IndexOf(attr));
    if (vschema.attribute(col).mutability == Mutability::kImmutable) {
      return Status::InvalidArgument("HowToUpdate attribute '" + attr +
                                     "' is immutable");
    }
    const bool is_string = vschema.attribute(col).type == ValueType::kString;

    // Collect this attribute's Limit items.
    std::vector<const LimitItem*> limits;
    for (const LimitItem& item : stmt.limits) {
      if (EqualsIgnoreCase(item.attribute, attr)) limits.push_back(&item);
    }

    // Pre-update values over S (range defaults and relative bounds).
    std::vector<double> pre_values;
    std::set<std::string> distinct_strings;
    for (size_t r : s_rows) {
      const Value& v = view.At(r, col);
      if (is_string) {
        if (!v.is_null()) distinct_strings.insert(v.string_value());
      } else {
        HYPER_ASSIGN_OR_RETURN(double d, v.AsDouble());
        pre_values.push_back(d);
      }
    }

    // Candidate post-update values.
    std::vector<Value> raw_candidates;
    const LimitItem* in_set = nullptr;
    for (const LimitItem* item : limits) {
      if (item->kind == LimitKind::kInSet) in_set = item;
    }
    if (in_set != nullptr) {
      raw_candidates = in_set->values;
    } else if (is_string) {
      // No explicit set: all observed values of the whole view (capped).
      std::set<std::string> all;
      for (size_t r = 0; r < view.num_rows(); ++r) {
        const Value& v = view.At(r, col);
        if (!v.is_null()) all.insert(v.string_value());
        if (all.size() >= 64) break;
      }
      for (const std::string& s : all) {
        raw_candidates.push_back(Value::String(s));
      }
    } else {
      double lo = *std::min_element(pre_values.begin(), pre_values.end());
      double hi = *std::max_element(pre_values.begin(), pre_values.end());
      for (const LimitItem* item : limits) {
        if (item->kind != LimitKind::kAbsRange) continue;
        if (item->lo.has_value()) lo = std::max(lo, *item->lo);
        if (item->hi.has_value()) hi = std::min(hi, *item->hi);
      }
      if (lo <= hi &&
          vschema.attribute(col).type == ValueType::kInt) {
        // Integer attribute: candidates are the distinct observed values in
        // range (evenly subsampled when there are more than num_buckets).
        std::set<int64_t> distinct;
        for (size_t r = 0; r < view.num_rows(); ++r) {
          const Value& v = view.At(r, col);
          if (v.is_null()) continue;
          HYPER_ASSIGN_OR_RETURN(double d, v.AsDouble());
          if (d >= lo && d <= hi) {
            distinct.insert(static_cast<int64_t>(std::llround(d)));
          }
        }
        std::vector<int64_t> values(distinct.begin(), distinct.end());
        if (values.size() > options_.num_buckets &&
            options_.num_buckets > 0) {
          std::vector<int64_t> sampled;
          const double stride = static_cast<double>(values.size()) /
                                static_cast<double>(options_.num_buckets);
          for (size_t k = 0; k < options_.num_buckets; ++k) {
            sampled.push_back(values[static_cast<size_t>(k * stride)]);
          }
          values = std::move(sampled);
        }
        for (int64_t v : values) raw_candidates.push_back(Value::Int(v));
      } else if (lo <= hi) {
        HYPER_ASSIGN_OR_RETURN(
            learn::EquiWidthDiscretizer disc,
            learn::EquiWidthDiscretizer::Create(lo, hi,
                                                options_.num_buckets));
        for (double rep : disc.Representatives()) {
          raw_candidates.push_back(Value::Double(rep));
        }
      }
    }

    // Filter by relative and L1 limits (for a Set-update, a per-tuple bound
    // must hold for every tuple of S).
    std::vector<UpdateSpec> specs;
    for (const Value& candidate : raw_candidates) {
      bool feasible = true;
      double cand_num = 0.0;
      const bool numeric = candidate.is_numeric();
      if (numeric) cand_num = candidate.AsDouble().value();

      for (const LimitItem* item : limits) {
        switch (item->kind) {
          case LimitKind::kAbsRange:
            if (!numeric) break;
            if (item->lo.has_value() && cand_num < *item->lo) feasible = false;
            if (item->hi.has_value() && cand_num > *item->hi) feasible = false;
            break;
          case LimitKind::kRelShift:
          case LimitKind::kRelScale: {
            if (!numeric) break;
            for (double pre : pre_values) {
              const double bound = item->kind == LimitKind::kRelShift
                                       ? pre + item->hi.value_or(0)
                                       : pre * item->hi.value_or(1);
              if (item->upper_is_bound ? cand_num > bound
                                       : cand_num < bound) {
                feasible = false;
                break;
              }
            }
            break;
          }
          case LimitKind::kL1: {
            if (!numeric) break;
            double total = 0.0;
            for (double pre : pre_values) total += std::fabs(cand_num - pre);
            if (total / static_cast<double>(pre_values.size()) >
                item->hi.value_or(0)) {
              feasible = false;
            }
            break;
          }
          case LimitKind::kInSet:
            break;  // candidate came from the set
        }
        if (!feasible) break;
      }
      if (!feasible) continue;

      UpdateSpec spec;
      spec.attribute = attr;
      spec.func = sql::UpdateFuncKind::kSet;
      spec.constant = candidate;
      specs.push_back(std::move(spec));
    }
    out.push_back(std::move(specs));
  }
  return out;
}

Result<HowToResult> HowToEngine::ScoreCandidates(
    const sql::HowToStmt& stmt, double prune_budget) const {
  // Soundness (§4.1): updated attributes must be causally unrelated.
  if (graph_ != nullptr && stmt.update_attributes.size() > 1) {
    for (const std::string& a : stmt.update_attributes) {
      if (!graph_->HasNode(a)) continue;
      const auto desc = graph_->Descendants(a);
      for (const std::string& b : stmt.update_attributes) {
        if (a != b && desc.count(b) > 0) {
          return Status::InvalidArgument(
              "HowToUpdate attributes must be causally unrelated: '" + a +
              "' affects '" + b + "'");
        }
      }
    }
  }

  HowToResult scored;
  HYPER_ASSIGN_OR_RETURN(std::vector<std::vector<UpdateSpec>> candidates,
                         EnumerateCandidates(stmt));

  // Governance rides in the what-if options: arm one guard here (unless the
  // caller pre-armed one) and inject it, so the baseline, every plan prepare
  // and every candidate evaluation of this run share a single deadline and
  // one pair of meters instead of each arming their own.
  whatif::WhatIfOptions whatif_options = options_.whatif;
  const governance::ExecGuardPtr guard =
      whatif_options.exec_guard != nullptr
          ? whatif_options.exec_guard
          : governance::ExecGuard::Arm(whatif_options.budget,
                                       whatif_options.cancel_token);
  whatif_options.exec_guard = guard;

  whatif::WhatIfEngine engine(db_, graph_, whatif_options);

  // Prepared-plan sharing: one plan serves the baseline, and one plan per
  // HowToUpdate attribute serves every candidate of that attribute — the
  // relevant view is compiled and each (view, adjustment-set) estimator is
  // trained once, not once per candidate. Prepare ignores update constants,
  // so Evaluate(plan, {spec}) is bit-for-bit identical to a fresh
  // Run(MakeCandidateWhatIf(stmt, {spec})). With a StageContext the plans
  // come from its stage cache when an earlier run prepared them, and the
  // baseline and every per-attribute plan share the ScopeStage.
  auto prepare_shared = [&](const sql::WhatIfStmt& ws)
      -> Result<std::shared_ptr<const whatif::PreparedWhatIf>> {
    bool hit = false;
    auto plan = engine.Prepare(ws, options_.stage_context, &hit);
    if (plan.ok()) {
      if (hit) {
        ++scored.plan_cache_hits;
      } else {
        scored.prepare_seconds += (*plan)->prepare_seconds();
      }
    }
    return plan;
  };
  auto record_eval = [&](const whatif::WhatIfResult& result) {
    scored.eval_seconds += result.eval_seconds;
    scored.train_seconds += result.train_seconds;
    scored.pattern_cache_hits += result.pattern_cache_hits;
  };
  // Baseline via the no-op what-if (every tuple on its exact path).
  {
    sql::WhatIfStmt baseline =
        MakeBaselineWhatIf(stmt, stmt.update_attributes[0],
                           candidates[0].empty() ? Value::Int(0)
                                                 : candidates[0][0].constant);
    HYPER_ASSIGN_OR_RETURN(std::shared_ptr<const whatif::PreparedWhatIf> plan,
                           prepare_shared(baseline));
    HYPER_ASSIGN_OR_RETURN(
        whatif::WhatIfResult result,
        engine.Evaluate(*plan, whatif::SpecsOfStatement(baseline)));
    scored.baseline_value = result.value;
    record_eval(result);
  }

  // Per-tuple pre values for L1 costs.
  HYPER_ASSIGN_OR_RETURN(
      whatif::ViewInfo view_info,
      whatif::BuildRelevantView(*db_, stmt.use, stmt.update_attributes[0]));
  const Table& view = *view_info.view;
  const Schema& vschema = view.schema();
  HYPER_ASSIGN_OR_RETURN(std::vector<size_t> s_rows,
                         SelectWhenRows(view, stmt.when.get()));

  // Per-candidate L1 cost over S, with the per-row pre-value pass hoisted
  // out of the candidate loop: the O(|S|) view.At + AsDouble work runs once
  // per attribute, not once per (attribute, candidate). The per-candidate
  // summation still walks S in row order, so costs are bit-identical to the
  // un-hoisted loop.
  struct PreValue {
    bool numeric = false;
    double dbl = 0.0;
    const Value* value = nullptr;
  };
  scored.candidates.resize(candidates.size());
  for (size_t a = 0; a < candidates.size(); ++a) {
    HYPER_ASSIGN_OR_RETURN(
        size_t col, vschema.IndexOf(stmt.update_attributes[a]));
    std::vector<PreValue> pre(s_rows.size());
    for (size_t k = 0; k < s_rows.size(); ++k) {
      const Value& v = view.At(s_rows[k], col);
      pre[k].value = &v;
      pre[k].numeric = v.is_numeric();
      if (pre[k].numeric) pre[k].dbl = v.AsDouble().value();
    }
    scored.candidates[a].reserve(candidates[a].size());
    for (const UpdateSpec& spec : candidates[a]) {
      CandidateUpdate cu;
      cu.spec = spec;
      const bool cand_numeric = spec.constant.is_numeric();
      const double cand_dbl =
          cand_numeric ? spec.constant.AsDouble().value() : 0.0;
      // Normalized L1 cost over S (fraction-changed for categoricals).
      double total = 0.0;
      for (const PreValue& p : pre) {
        if (cand_numeric && p.numeric) {
          total += std::fabs(cand_dbl - p.dbl);
        } else if (!spec.constant.Equals(*p.value)) {
          total += 1.0;
        }
      }
      cu.cost = s_rows.empty() ? 0.0
                               : total / static_cast<double>(s_rows.size());
      // Cost-infeasibility pruning (the admissible-bound idea of SolveMck's
      // suffix_best, applied before evaluation): costs are nonnegative, so
      // a candidate whose own cost exceeds the global L1 budget can never
      // be part of a feasible chosen set — skip its what-if evaluation
      // entirely. Same budget epsilon as the MCK DFS, and a pure function
      // of (candidate, budget), so pruning never depends on thread count.
      if (prune_budget >= 0.0 && cu.cost > prune_budget + 1e-12) {
        cu.pruned = true;
        cu.objective_value = scored.baseline_value;
        cu.delta = 0.0;
        ++scored.candidates_pruned;
      }
      scored.candidates[a].push_back(std::move(cu));
    }
  }

  // Evaluate the surviving (attribute, candidate) pairs: one flat worklist
  // sharded across the worker pool under the whatif.num_threads budget,
  // results merged back in worklist order.
  struct WorkItem {
    size_t a = 0;
    size_t i = 0;
  };
  std::vector<WorkItem> work;
  for (size_t a = 0; a < candidates.size(); ++a) {
    for (size_t i = 0; i < candidates[a].size(); ++i) {
      if (!scored.candidates[a][i].pruned) work.push_back({a, i});
    }
  }

  // One prepared plan per attribute with surviving candidates, built up
  // front so the parallel evaluation below never prepares (the stage cache
  // single-flights concurrent runs racing on the same key). Prepared after
  // pruning: an attribute whose whole candidate set is cost-infeasible
  // skips plan construction and estimator training entirely.
  std::vector<std::shared_ptr<const whatif::PreparedWhatIf>> plans(
      candidates.size());
  for (const WorkItem& w : work) {
    if (plans[w.a] != nullptr) continue;
    sql::WhatIfStmt tmpl = MakeCandidateWhatIf(stmt, {candidates[w.a][w.i]});
    HYPER_ASSIGN_OR_RETURN(plans[w.a], prepare_shared(tmpl));
  }

  // The workers evaluate concurrently against the shared prepared plans;
  // pattern estimators train exactly once under the plan's internal lock
  // (see the PreparedWhatIf concurrency contract), and trained estimators
  // are pure functions of the plan, so every candidate's value is
  // bit-identical at any thread count.
  std::vector<std::optional<whatif::WhatIfResult>> results(work.size());
  std::vector<Status> statuses(work.size());
  std::atomic<bool> failed{false};
  ThreadPool::Shared().ParallelFor(
      work.size(),
      [&](size_t w) {
        // Once any candidate has failed the run's outcome is fixed, so
        // remaining items are skipped (status OK, result empty); the error
        // pass below never reaches a skipped slot without first returning
        // the genuine failure that tripped the flag.
        if (failed.load(std::memory_order_relaxed)) return;
        if (guard != nullptr) {
          Status gs = guard->Check("howto.score");
          if (!gs.ok()) {
            statuses[w] = std::move(gs);
            failed.store(true, std::memory_order_relaxed);
            return;
          }
        }
        const WorkItem& item = work[w];
        auto r = engine.Evaluate(*plans[item.a], {candidates[item.a][item.i]});
        if (r.ok()) {
          results[w] = std::move(r).value();
        } else {
          statuses[w] = r.status();
          failed.store(true, std::memory_order_relaxed);
        }
      },
      /*max_parallelism=*/ThreadPool::ResolveBudget(
          options_.whatif.num_threads));

  // Errors first: statuses only ever hold genuine evaluation failures
  // (early-skipped items keep an OK status and an empty result, and exist
  // only when some item genuinely failed). Whether the call fails is
  // deterministic; with several concurrently-failing candidates, which
  // one's status is reported may depend on scheduling.
  for (size_t w = 0; w < work.size(); ++w) {
    HYPER_RETURN_NOT_OK(statuses[w]);
  }

  // Ordered deterministic merge: counters, timings and candidate fields fold
  // in worklist order — independent of which worker finished first.
  for (size_t w = 0; w < work.size(); ++w) {
    const whatif::WhatIfResult& result = *results[w];
    record_eval(result);
    ++scored.candidates_evaluated;
    CandidateUpdate& cu = scored.candidates[work[w].a][work[w].i];
    cu.objective_value = result.value;
    cu.delta = result.value - scored.baseline_value;
  }
  return scored;
}

namespace {

using Candidates = std::vector<std::vector<CandidateUpdate>>;

/// One coefficient per IP variable: a binary variable per (attribute,
/// candidate), attribute-major.
std::vector<double> RowOf(
    const Candidates& candidates,
    const std::function<double(const CandidateUpdate&)>& coef) {
  std::vector<double> row;
  for (const std::vector<CandidateUpdate>& group : candidates) {
    for (const CandidateUpdate& cu : group) row.push_back(coef(cu));
  }
  return row;
}

/// The IP every solve shares (Equations 7-9): objective `objective`,
/// Equation (8)'s choice rows (at most one update per attribute) and, when
/// `budget` >= 0, the global L1 budget row over the candidates' costs.
opt::LpProblem ChoiceIp(const Candidates& candidates,
                        std::vector<double> objective, double budget) {
  opt::LpProblem ip;
  ip.objective = std::move(objective);
  size_t first = 0;
  for (const std::vector<CandidateUpdate>& group : candidates) {
    std::vector<double> row(ip.objective.size(), 0.0);
    std::fill_n(row.begin() + first, group.size(), 1.0);
    ip.AddRow(std::move(row), 1.0);
    first += group.size();
  }
  if (budget >= 0.0) {
    ip.AddRow(RowOf(candidates, [](const CandidateUpdate& cu) {
                return cu.cost;
              }),
              budget);
  }
  return ip;
}

/// The chosen candidate per attribute (-1 = no change) of a 0/1 solution
/// over ChoiceIp's variables.
std::vector<int> ChoiceOf(const Candidates& candidates,
                          const std::vector<int>& x) {
  std::vector<int> choice(candidates.size(), -1);
  size_t v = 0;
  for (size_t a = 0; a < candidates.size(); ++a) {
    for (size_t i = 0; i < candidates[a].size(); ++i, ++v) {
      if (x[v] == 1) choice[a] = static_cast<int>(i);
    }
  }
  return choice;
}

/// The result assembly every solve shares: completes `result` (the primary
/// objective's scoring) with the plan `choice` selects, the objective it
/// reaches (baseline + sum of chosen deltas, linear phi), the solver work
/// and the wall time since `timer` started.
HowToResult Assemble(const sql::HowToStmt& stmt, HowToResult result,
                     const std::vector<int>& choice, size_t solver_nodes,
                     const Stopwatch& timer) {
  result.objective_value = result.baseline_value;
  for (size_t a = 0; a < result.candidates.size(); ++a) {
    AttributeChoice ac;
    ac.attribute = stmt.update_attributes[a];
    if (choice[a] >= 0) {
      const CandidateUpdate& cu = result.candidates[a][choice[a]];
      ac.changed = true;
      ac.update = cu.spec;
      ac.delta = cu.delta;
      ac.cost = cu.cost;
      result.objective_value += cu.delta;
    }
    result.plan.push_back(std::move(ac));
  }
  result.solver_nodes = solver_nodes;
  result.total_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

Result<HowToResult> HowToEngine::Run(const sql::HowToStmt& stmt) const {
  Stopwatch timer;
  // The Run solve couples choices through the global L1 budget (when set),
  // so cost-infeasible candidates can be pruned before evaluation.
  HYPER_ASSIGN_OR_RETURN(HowToResult scored,
                         ScoreCandidates(stmt, options_.global_l1_budget));

  // IP objective: maximize sum of chosen deltas (negated for ToMinimize).
  const double sign = stmt.maximize ? 1.0 : -1.0;
  if (options_.prefer_mck) {
    std::vector<opt::MckGroup> groups(scored.candidates.size());
    for (size_t a = 0; a < scored.candidates.size(); ++a) {
      for (const CandidateUpdate& cu : scored.candidates[a]) {
        groups[a].values.push_back(sign * cu.delta);
        groups[a].costs.push_back(cu.cost);
      }
    }
    HYPER_ASSIGN_OR_RETURN(opt::MckSolution sol,
                           opt::SolveMck(groups, options_.global_l1_budget));
    scored.used_mck = true;
    return Assemble(stmt, std::move(scored), sol.choice, sol.nodes_explored,
                    timer);
  }
  // General IP path (Equations 7-9).
  const opt::LpProblem ip = ChoiceIp(
      scored.candidates,
      RowOf(scored.candidates,
            [&](const CandidateUpdate& cu) { return sign * cu.delta; }),
      options_.global_l1_budget);
  HYPER_ASSIGN_OR_RETURN(opt::MilpSolution sol, opt::SolveBinaryMilp(ip));
  if (!sol.feasible) {
    return Status::Internal("how-to IP infeasible (unexpected)");
  }
  const std::vector<int> choice = ChoiceOf(scored.candidates, sol.x);
  return Assemble(stmt, std::move(scored), choice, sol.nodes_explored, timer);
}

Result<HowToResult> HowToEngine::RunMinCost(const sql::HowToStmt& stmt,
                                            double objective_target) const {
  Stopwatch timer;
  // No budget row in the min-cost IP: any candidate may be selected, so no
  // cost-based pruning applies here.
  HYPER_ASSIGN_OR_RETURN(HowToResult scored,
                         ScoreCandidates(stmt, /*prune_budget=*/-1.0));
  const double sign = stmt.maximize ? 1.0 : -1.0;
  // Required signed improvement over the baseline.
  const double required = sign * (objective_target - scored.baseline_value);

  // IP: minimize sum(cost * delta-vars)  ==  maximize -cost, subject to
  // choice rows and  sum(signed_delta * delta-vars) >= required, i.e.
  // -sum(signed_delta) <= -required.
  opt::LpProblem ip = ChoiceIp(
      scored.candidates,
      RowOf(scored.candidates,
            [](const CandidateUpdate& cu) { return -cu.cost; }),
      /*budget=*/-1.0);
  ip.AddRow(RowOf(scored.candidates,
                  [&](const CandidateUpdate& cu) { return -sign * cu.delta; }),
            -required);
  HYPER_ASSIGN_OR_RETURN(opt::MilpSolution sol, opt::SolveBinaryMilp(ip));
  if (!sol.feasible) {
    return Status::FailedPrecondition(
        "no feasible plan reaches the objective target " +
        StrFormat("%g", objective_target) +
        " (baseline " + StrFormat("%g", scored.baseline_value) + ")");
  }
  const std::vector<int> choice = ChoiceOf(scored.candidates, sol.x);
  return Assemble(stmt, std::move(scored), choice, sol.nodes_explored, timer);
}

Result<HowToResult> HowToEngine::RunLexicographic(
    const std::vector<const sql::HowToStmt*>& stmts) const {
  Stopwatch timer;
  if (stmts.empty()) {
    return Status::InvalidArgument("need at least one objective");
  }
  // Budget pruning is sound only when every objective scores candidates
  // over one Use/When (the documented contract): different Whens give each
  // objective its own S, hence its own costs — a candidate pruned (delta
  // zeroed) under one objective's costs could still be selectable under
  // another's budget row, corrupting the lock rows below. Statements that
  // stray from the contract keep the pre-pruning behavior: every candidate
  // is evaluated.
  bool shared_scope = true;
  auto when_text = [](const sql::HowToStmt* s) {
    return s->when != nullptr ? s->when->ToString() : std::string();
  };
  for (const sql::HowToStmt* s : stmts) {
    if (s->update_attributes != stmts[0]->update_attributes) {
      return Status::InvalidArgument(
          "lexicographic objectives must share the HowToUpdate list");
    }
    if (s->use.ToString() != stmts[0]->use.ToString() ||
        when_text(s) != when_text(stmts[0])) {
      shared_scope = false;
    }
  }
  const double lex_prune_budget =
      shared_scope ? options_.global_l1_budget : -1.0;

  // Score every objective over the shared candidate space. Each solve below
  // carries the global-L1 budget row, so cost-infeasible candidates prune
  // exactly as in Run (identically across objectives: the cost depends only
  // on the candidate and the shared Use/When, never on the objective).
  std::vector<HowToResult> scored;
  for (const sql::HowToStmt* s : stmts) {
    HYPER_ASSIGN_OR_RETURN(HowToResult sc,
                           ScoreCandidates(*s, lex_prune_budget));
    scored.push_back(std::move(sc));
  }
  // Candidate sets must align (same Limit structure).
  for (size_t k = 1; k < scored.size(); ++k) {
    if (scored[k].candidates.size() != scored[0].candidates.size()) {
      return Status::InvalidArgument("objectives disagree on candidates");
    }
    for (size_t a = 0; a < scored[0].candidates.size(); ++a) {
      if (scored[k].candidates[a].size() != scored[0].candidates[a].size()) {
        return Status::InvalidArgument("objectives disagree on candidates");
      }
    }
  }

  // Signed delta rows per objective: the IP objective of solve k, and the
  // lock rows of every later solve.
  std::vector<std::vector<double>> signed_deltas;
  for (size_t k = 0; k < stmts.size(); ++k) {
    const double sign = stmts[k]->maximize ? 1.0 : -1.0;
    signed_deltas.push_back(
        RowOf(scored[k].candidates,
              [&](const CandidateUpdate& cu) { return sign * cu.delta; }));
  }
  std::vector<double> locked_values;  // achieved signed deltas per objective
  std::vector<int> final_x;
  size_t solver_nodes = 0;
  for (size_t k = 0; k < stmts.size(); ++k) {
    opt::LpProblem ip = ChoiceIp(scored[k].candidates, signed_deltas[k],
                                 options_.global_l1_budget);
    // Lock previously solved objectives to their achieved values
    // (Example 11): equality as a <= / >= pair with a small tolerance.
    for (size_t j = 0; j < locked_values.size(); ++j) {
      const double eps = 1e-6 * (1.0 + std::fabs(locked_values[j]));
      std::vector<double> neg(signed_deltas[j].size());
      for (size_t v = 0; v < neg.size(); ++v) neg[v] = -signed_deltas[j][v];
      ip.AddRow(signed_deltas[j], locked_values[j] + eps);
      ip.AddRow(std::move(neg), -(locked_values[j] - eps));
    }
    HYPER_ASSIGN_OR_RETURN(opt::MilpSolution sol, opt::SolveBinaryMilp(ip));
    if (!sol.feasible) {
      return Status::Internal("lexicographic IP infeasible");
    }
    solver_nodes += sol.nodes_explored;
    locked_values.push_back(sol.objective);
    final_x = std::move(sol.x);
  }

  // Assemble from the last solve; report the primary objective's metrics,
  // with the scoring counters of every objective.
  HowToResult result = std::move(scored[0]);
  for (size_t k = 1; k < scored.size(); ++k) {
    result.candidates_evaluated += scored[k].candidates_evaluated;
    result.candidates_pruned += scored[k].candidates_pruned;
    result.plan_cache_hits += scored[k].plan_cache_hits;
    result.pattern_cache_hits += scored[k].pattern_cache_hits;
    result.prepare_seconds += scored[k].prepare_seconds;
    result.eval_seconds += scored[k].eval_seconds;
    result.train_seconds += scored[k].train_seconds;
  }
  const std::vector<int> choice = ChoiceOf(result.candidates, final_x);
  return Assemble(*stmts[0], std::move(result), choice, solver_nodes, timer);
}

}  // namespace hyper::howto
