#include "howto/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <optional>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "learn/discretizer.h"
#include "opt/mck.h"
#include "opt/milp.h"
#include "sql/parser.h"

namespace hyper::howto {

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

/// One HowToUpdate attribute's column of the ScopeStage image.
struct AttributeScan {
  size_t col = 0;
  /// Declared string attributes take string candidates; every other
  /// attribute is numeric.
  bool is_string = false;
  /// A numeric attribute's pre-update values over S, in row order.
  std::vector<double> pre;
};

/// The candidate space of a how-to statement, read from the ScopeStage
/// image of its Use clause: S, each attribute's column and pre-update
/// values, and its candidate Set updates.
struct CandidateSpace {
  whatif::ScopeSelection scope;
  std::vector<AttributeScan> attributes;
  std::vector<std::vector<UpdateSpec>> candidates;
};

/// A numeric attribute's pre-update values over the rows S, in row order.
/// Fails as Value::AsDouble does on S's first NULL or string cell.
Status ReadNumericPre(const ColumnTable& image, size_t col,
                      const std::vector<size_t>& s, std::vector<double>* pre) {
  const Column& c = image.col(col);
  if (c.kind == ColumnKind::kCode) {
    // Every cell of a code column is NULL or a string, and S is not empty.
    return image.GetValue(s[0], col).AsDouble().status();
  }
  if (c.has_nulls()) {
    for (size_t r : s) {
      if (c.nulls[r] != 0) return Value::Null().AsDouble().status();
    }
  }
  pre->resize(s.size());
  double* out = pre->data();
  switch (c.kind) {
    case ColumnKind::kInt64:
      for (size_t k = 0; k < s.size(); ++k) {
        out[k] = static_cast<double>(c.i64[s[k]]);
      }
      break;
    case ColumnKind::kDouble:
      for (size_t k = 0; k < s.size(); ++k) out[k] = c.f64[s[k]];
      break;
    case ColumnKind::kBool:
      for (size_t k = 0; k < s.size(); ++k) {
        out[k] = c.b8[s[k]] != 0 ? 1.0 : 0.0;
      }
      break;
    case ColumnKind::kCode:
      break;
  }
  return Status::OK();
}

/// The distinct integers std::llround(v) over the non-NULL values v of the
/// whole view with lo <= v <= hi, ascending. llround is monotone, so every
/// one lies in [llround(lo), llround(hi)]: a byte per integer of that span
/// marks them when it is no longer than the view, else they are sorted.
std::vector<int64_t> DistinctIntsInRange(const ColumnTable& image, size_t col,
                                         double lo, double hi) {
  const Column& c = image.col(col);
  const size_t n = image.num_rows();
  const bool marked = lo >= -0x1p62 && hi <= 0x1p62 &&
                      hi - lo <= static_cast<double>(n);
  const int64_t first = marked ? std::llround(lo) : 0;
  std::vector<uint8_t> seen;
  if (marked) {
    seen.assign(static_cast<size_t>(std::llround(hi) - first) + 1, 0);
  }
  std::vector<int64_t> keys;
  const auto add = [&](int64_t key) {
    if (marked) {
      seen[static_cast<size_t>(key - first)] = 1;
    } else {
      keys.push_back(key);
    }
  };
  const uint8_t* nulls = c.has_nulls() ? c.nulls.data() : nullptr;
  switch (c.kind) {
    case ColumnKind::kInt64: {
      // A double holds every integer of magnitude up to 2^53 exactly, so
      // llround is the identity there.
      constexpr int64_t kExact = int64_t{1} << 53;
      for (size_t r = 0; r < n; ++r) {
        if (nulls != nullptr && nulls[r] != 0) continue;
        const int64_t v = c.i64[r];
        const double d = static_cast<double>(v);
        if (d >= lo && d <= hi) {
          add(v >= -kExact && v <= kExact ? v : std::llround(d));
        }
      }
      break;
    }
    case ColumnKind::kDouble:
      for (size_t r = 0; r < n; ++r) {
        if (nulls != nullptr && nulls[r] != 0) continue;
        const double d = c.f64[r];
        if (d >= lo && d <= hi) add(std::llround(d));
      }
      break;
    case ColumnKind::kBool:
      for (size_t r = 0; r < n; ++r) {
        if (nulls != nullptr && nulls[r] != 0) continue;
        const int64_t b = c.b8[r] != 0 ? 1 : 0;
        const double d = static_cast<double>(b);
        if (d >= lo && d <= hi) add(b);
      }
      break;
    case ColumnKind::kCode:
      break;  // ReadNumericPre refused the column
  }
  if (!marked) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }
  for (size_t k = 0; k < seen.size(); ++k) {
    if (seen[k] != 0) keys.push_back(first + static_cast<int64_t>(k));
  }
  return keys;
}

/// The first `cap` distinct non-NULL strings of a string column in row
/// order, sorted. (The dictionary is shared by every column and numbers
/// strings in first-intern order, so its code order is neither.)
std::vector<std::string> FirstDistinctStrings(const ColumnTable& image,
                                              size_t col, size_t cap) {
  const Column& c = image.col(col);
  const Dictionary& dict = image.dict();
  std::vector<uint64_t> seen(dict.size() / 64 + 1, 0);
  std::vector<std::string> out;
  for (size_t r = 0; r < image.num_rows() && out.size() < cap; ++r) {
    const int32_t code = c.codes[r];
    if (code == Dictionary::kNullCode) continue;
    const auto u = static_cast<uint32_t>(code);
    if ((seen[u >> 6] >> (u & 63) & 1) != 0) continue;
    seen[u >> 6] |= uint64_t{1} << (u & 63);
    out.push_back(dict.at(code));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Candidate post-update values of one attribute before the Limit filter:
/// an In set's values; else a string attribute's first 64 distinct values;
/// else an integer attribute's distinct values in range (evenly subsampled
/// to `num_buckets`), or equi-width bucket representatives of the range.
Result<std::vector<Value>> RawCandidates(
    const AttributeScan& scan, const ColumnTable& image,
    const std::vector<const LimitItem*>& limits, size_t num_buckets) {
  const LimitItem* in_set = nullptr;
  for (const LimitItem* item : limits) {
    if (item->kind == LimitKind::kInSet) in_set = item;
  }
  if (in_set != nullptr) return in_set->values;
  std::vector<Value> raw;
  if (scan.is_string) {
    for (std::string& s : FirstDistinctStrings(image, scan.col, 64)) {
      raw.push_back(Value::String(std::move(s)));
    }
    return raw;
  }
  // std::min_element/max_element's choices (strict comparisons, so the
  // first of equal values and no NaN ever replaces a value), in one pass.
  double lo = scan.pre[0];
  double hi = scan.pre[0];
  for (double v : scan.pre) {
    lo = v < lo ? v : lo;
    hi = hi < v ? v : hi;
  }
  for (const LimitItem* item : limits) {
    if (item->kind != LimitKind::kAbsRange) continue;
    if (item->lo.has_value()) lo = std::max(lo, *item->lo);
    if (item->hi.has_value()) hi = std::min(hi, *item->hi);
  }
  if (!(lo <= hi)) return raw;
  if (image.schema().attribute(scan.col).type == ValueType::kInt) {
    std::vector<int64_t> values = DistinctIntsInRange(image, scan.col, lo, hi);
    if (values.size() > num_buckets && num_buckets > 0) {
      std::vector<int64_t> sampled;
      const double stride = static_cast<double>(values.size()) /
                            static_cast<double>(num_buckets);
      for (size_t k = 0; k < num_buckets; ++k) {
        sampled.push_back(values[static_cast<size_t>(k * stride)]);
      }
      values = std::move(sampled);
    }
    for (int64_t v : values) raw.push_back(Value::Int(v));
    return raw;
  }
  HYPER_ASSIGN_OR_RETURN(
      learn::EquiWidthDiscretizer disc,
      learn::EquiWidthDiscretizer::Create(lo, hi, num_buckets));
  for (double rep : disc.Representatives()) raw.push_back(Value::Double(rep));
  return raw;
}

/// Whether a candidate passes the relative and L1 limits (for a
/// Set-update, a per-tuple bound must hold for every tuple of S).
bool Feasible(const Value& candidate,
              const std::vector<const LimitItem*>& limits,
              const std::vector<double>& pre_values) {
  if (!candidate.is_numeric()) return true;
  const double cand_num = candidate.AsDouble().value();
  for (const LimitItem* item : limits) {
    switch (item->kind) {
      case LimitKind::kAbsRange:
        if (item->lo.has_value() && cand_num < *item->lo) return false;
        if (item->hi.has_value() && cand_num > *item->hi) return false;
        break;
      case LimitKind::kRelShift:
      case LimitKind::kRelScale:
        for (double pre : pre_values) {
          const double bound = item->kind == LimitKind::kRelShift
                                   ? pre + item->hi.value_or(0)
                                   : pre * item->hi.value_or(1);
          if (item->upper_is_bound ? cand_num > bound : cand_num < bound) {
            return false;
          }
        }
        break;
      case LimitKind::kL1: {
        double total = 0.0;
        for (double pre : pre_values) total += std::fabs(cand_num - pre);
        if (total / static_cast<double>(pre_values.size()) >
            item->hi.value_or(0)) {
          return false;
        }
        break;
      }
      case LimitKind::kInSet:
        break;  // candidate came from the set
    }
  }
  return true;
}

/// Enumerates the candidate space over `engine`'s ScopeStage image of the
/// statement's Use clause (through `ctx`'s scope section when it has one).
Result<CandidateSpace> Enumerate(const whatif::WhatIfEngine& engine,
                                 const sql::HowToStmt& stmt,
                                 const whatif::StageContext* ctx,
                                 size_t num_buckets) {
  if (stmt.update_attributes.empty()) {
    return Status::InvalidArgument("HowToUpdate needs at least one attribute");
  }
  CandidateSpace space;
  HYPER_ASSIGN_OR_RETURN(
      space.scope, engine.SelectScope(stmt.use, stmt.update_attributes[0],
                                      stmt.when.get(), ctx));
  if (space.scope.rows.empty()) {
    return Status::InvalidArgument("When selects no tuples to update");
  }
  const ColumnTable& image = *space.scope.image;
  const Schema& vschema = image.schema();

  for (const std::string& attr : stmt.update_attributes) {
    AttributeScan scan;
    HYPER_ASSIGN_OR_RETURN(scan.col, vschema.IndexOf(attr));
    const AttributeDef& def = vschema.attribute(scan.col);
    if (def.mutability == Mutability::kImmutable) {
      return Status::InvalidArgument("HowToUpdate attribute '" + attr +
                                     "' is immutable");
    }
    scan.is_string = def.type == ValueType::kString;
    if (!scan.is_string) {
      HYPER_RETURN_NOT_OK(
          ReadNumericPre(image, scan.col, space.scope.rows, &scan.pre));
    } else if (image.col(scan.col).kind != ColumnKind::kCode) {
      return Status::InvalidArgument("HowToUpdate attribute '" + attr +
                                     "' is declared a string but holds "
                                     "numbers");
    }

    std::vector<const LimitItem*> limits;
    for (const LimitItem& item : stmt.limits) {
      if (EqualsIgnoreCase(item.attribute, attr)) limits.push_back(&item);
    }
    HYPER_ASSIGN_OR_RETURN(
        std::vector<Value> raw,
        RawCandidates(scan, image, limits, num_buckets));
    std::vector<UpdateSpec> specs;
    for (Value& candidate : raw) {
      if (!Feasible(candidate, limits, scan.pre)) continue;
      UpdateSpec spec;
      spec.attribute = attr;
      spec.func = sql::UpdateFuncKind::kSet;
      spec.constant = std::move(candidate);
      specs.push_back(std::move(spec));
    }
    space.attributes.push_back(std::move(scan));
    space.candidates.push_back(std::move(specs));
  }
  return space;
}

/// The normalized L1 cost over S of setting one attribute to each of its
/// candidates (the fraction changed for non-numeric values): per tuple
/// |candidate - pre| when both are numeric, else 1 unless they are equal,
/// summed in row order.
std::vector<double> CandidateCosts(const std::vector<UpdateSpec>& candidates,
                                   const AttributeScan& scan,
                                   const ColumnTable& image,
                                   const std::vector<size_t>& s) {
  const double size = static_cast<double>(s.size());
  std::vector<double> costs(candidates.size(), 1.0);
  if (!scan.is_string) {
    // Every pre-value of S is a number; a non-numeric candidate changes
    // every tuple.
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!candidates[i].constant.is_numeric()) continue;
      const double cand = candidates[i].constant.AsDouble().value();
      double total = 0.0;
      for (double pre : scan.pre) total += std::fabs(cand - pre);
      costs[i] = total / size;
    }
    return costs;
  }
  // A string attribute's S holds strings and NULLs (a code column): a
  // number equals neither, a string its own code, NULL only NULL.
  // Whole-number sums are exact, so counting matches adding 1.0 per
  // changed tuple.
  const Column& c = image.col(scan.col);
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Value& candidate = candidates[i].constant;
    if (candidate.is_numeric()) continue;
    int32_t same = Dictionary::kNullCode;
    if (!candidate.is_null()) {
      same = image.dict().Find(candidate.string_value());
      if (same == Dictionary::kNullCode) continue;
    }
    size_t changed = 0;
    for (size_t r : s) changed += c.codes[r] != same ? 1 : 0;
    costs[i] = static_cast<double>(changed) / size;
  }
  return costs;
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
  const whatif::WhatIfEngine engine(db_, graph_, options_.whatif);
  HYPER_ASSIGN_OR_RETURN(CandidateSpace space,
                         Enumerate(engine, stmt, options_.stage_context,
                                   options_.num_buckets));
  return std::move(space.candidates);
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

  // Governance rides in the what-if options: arm one guard here (unless the
  // caller pre-armed one) and inject it, so enumeration's scope lookup, the
  // baseline, every plan prepare and every candidate evaluation of this run
  // share a single deadline and one pair of meters instead of each arming
  // their own.
  whatif::WhatIfOptions whatif_options = options_.whatif;
  const governance::ExecGuardPtr guard =
      whatif_options.exec_guard != nullptr
          ? whatif_options.exec_guard
          : governance::ExecGuard::Arm(whatif_options.budget,
                                       whatif_options.cancel_token);
  whatif_options.exec_guard = guard;

  whatif::WhatIfEngine engine(db_, graph_, whatif_options);

  // Candidates, S and the pre-update values come from the ScopeStage image
  // the plans below share (one scope lookup), not from the row store.
  HowToResult scored;
  Stopwatch phase;
  HYPER_ASSIGN_OR_RETURN(
      const CandidateSpace space,
      Enumerate(engine, stmt, options_.stage_context, options_.num_buckets));
  const std::vector<std::vector<UpdateSpec>>& candidates = space.candidates;
  scored.enumerate_seconds = phase.ElapsedSeconds();

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

  // Per-candidate L1 cost over S, from the pre-values enumeration read.
  phase.Restart();
  scored.candidates.resize(candidates.size());
  for (size_t a = 0; a < candidates.size(); ++a) {
    const std::vector<double> costs = CandidateCosts(
        candidates[a], space.attributes[a], *space.scope.image,
        space.scope.rows);
    scored.candidates[a].reserve(candidates[a].size());
    for (size_t i = 0; i < candidates[a].size(); ++i) {
      CandidateUpdate cu;
      cu.spec = candidates[a][i];
      cu.cost = costs[i];
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
  scored.cost_seconds = phase.ElapsedSeconds();

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
  // bit-identical at any thread count. The budget is spent once: across
  // the candidates when there are several, else on the one candidate's
  // segments.
  whatif::WhatIfOptions item_options = whatif_options;
  if (work.size() > 1) item_options.num_threads = 1;
  const whatif::WhatIfEngine scorer(db_, graph_, item_options);
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
        auto r = scorer.Evaluate(*plans[item.a], {candidates[item.a][item.i]});
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
    Stopwatch solve_timer;
    HYPER_ASSIGN_OR_RETURN(opt::MckSolution sol,
                           opt::SolveMck(groups, options_.global_l1_budget));
    scored.solve_seconds = solve_timer.ElapsedSeconds();
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
  Stopwatch solve_timer;
  HYPER_ASSIGN_OR_RETURN(opt::MilpSolution sol, opt::SolveBinaryMilp(ip));
  scored.solve_seconds = solve_timer.ElapsedSeconds();
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
  Stopwatch solve_timer;
  HYPER_ASSIGN_OR_RETURN(opt::MilpSolution sol, opt::SolveBinaryMilp(ip));
  scored.solve_seconds = solve_timer.ElapsedSeconds();
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
  double solve_seconds = 0.0;
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
    Stopwatch solve_timer;
    HYPER_ASSIGN_OR_RETURN(opt::MilpSolution sol, opt::SolveBinaryMilp(ip));
    solve_seconds += solve_timer.ElapsedSeconds();
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
    result.enumerate_seconds += scored[k].enumerate_seconds;
    result.cost_seconds += scored[k].cost_seconds;
  }
  result.solve_seconds = solve_seconds;
  const std::vector<int> choice = ChoiceOf(result.candidates, final_x);
  return Assemble(*stmts[0], std::move(result), choice, solver_nodes, timer);
}

}  // namespace hyper::howto
