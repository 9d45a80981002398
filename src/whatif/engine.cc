#include "whatif/engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "causal/ground.h"
#include "common/grouping.h"
#include "common/hash.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "learn/dataset.h"
#include "learn/discretizer.h"
#include "learn/frequency.h"
#include "prob/aggregates.h"
#include "relational/compiled.h"
#include "sql/parser.h"
#include "storage/column.h"

namespace hyper::whatif {

using sql::AggKind;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;

const char* BackdoorModeName(BackdoorMode mode) {
  switch (mode) {
    case BackdoorMode::kGraph: return "graph";
    case BackdoorMode::kAllAttributes: return "all-attributes";
    case BackdoorMode::kUpdateOnly: return "update-only";
  }
  return "?";
}

namespace {

using governance::ExecGuard;
using governance::ExecGuardPtr;
using governance::LoopCheck;

/// The request's guard: a pre-armed one injected by the caller (the service
/// arms per request so one deadline spans parse + prepare + evaluate), else
/// a fresh arm from the options' budget and token. Null when ungoverned —
/// every checkpoint below then reduces to one pointer test.
ExecGuardPtr GuardFor(const WhatIfOptions& options) {
  if (options.exec_guard != nullptr) return options.exec_guard;
  return ExecGuard::Arm(options.budget, options.cancel_token);
}

/// Collects columns referenced inside Post(...) wrappers — the outcome
/// attributes of the query, as opposed to pre-update conditioning columns.
void CollectPostColumnRefs(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind == ExprKind::kPost) {
    sql::CollectColumnRefs(*expr.children[0], out);
    return;
  }
  for (const auto& child : expr.children) {
    CollectPostColumnRefs(*child, out);
  }
}

bool IsBoolLiteral(const Expr& expr, bool* value) {
  if (expr.kind != ExprKind::kLiteral) return false;
  auto b = expr.literal.AsBool();
  if (!b.ok()) return false;
  *value = *b;
  return true;
}

/// Estimators trained for one residual pattern.
struct PatternEstimators {
  bool literal = false;
  bool literal_value = false;  // valid when literal
  std::unique_ptr<learn::ConditionalMeanEstimator> weight;  // Pr(residual)
  std::unique_ptr<learn::ConditionalMeanEstimator> value;   // E[Y * 1{res}]
};

/// What pattern-estimator training reads of a request's options: the
/// fields EstimatorConfigKey encodes, with the forest's seed derived from
/// the request's. A LearnStage keeps this and nothing else of the request
/// that built it: no guard, token or budget, and no thread count, since a
/// pattern trains under the budget of the call that needs it.
struct EstimatorConfig {
  learn::EstimatorKind kind = learn::EstimatorKind::kForest;
  double frequency_smoothing = 0.0;
  learn::ForestOptions forest;  // num_threads: 0, set per training call
};

EstimatorConfig EstimatorConfigOf(const WhatIfOptions& options) {
  EstimatorConfig config;
  config.kind = options.estimator;
  config.frequency_smoothing = options.frequency_smoothing;
  config.forest = options.forest;
  config.forest.seed = options.seed * 2654435761u + 17;
  config.forest.num_threads = 0;
  return config;
}

/// The forest trainer's budget in an engine call whose own budget is
/// `budget` (unresolved: 0 = the forest's auto mode), unless the call's
/// forest options set their own. Training results are identical for every
/// setting.
size_t TrainThreads(const WhatIfOptions& options, size_t budget) {
  return options.forest.num_threads != 0 ? options.forest.num_threads
                                         : budget;
}

/// A fresh estimator of `config` fitted to (x, y). A forest trains on
/// `train_threads` workers (0 = its auto mode), through the stage-shared
/// binned image of x when there is one: a stage bins only for histogram
/// forests, and binning is a pure function of the training matrix, so
/// sharing it never changes the trees.
Result<std::unique_ptr<learn::ConditionalMeanEstimator>> TrainEstimator(
    const EstimatorConfig& config, size_t train_threads,
    const learn::FeatureMatrix& x, const learn::BinnedMatrix* binned,
    const std::vector<double>& y) {
  std::unique_ptr<learn::ConditionalMeanEstimator> est;
  if (config.kind == learn::EstimatorKind::kFrequency) {
    est = std::make_unique<learn::FrequencyEstimator>(
        /*backoff=*/true, config.frequency_smoothing);
  } else {
    learn::ForestOptions fo = config.forest;
    fo.num_threads = train_threads;
    est = std::make_unique<learn::RandomForestRegressor>(fo);
  }
  HYPER_RETURN_NOT_OK(
      binned != nullptr
          ? static_cast<learn::RandomForestRegressor*>(est.get())
                ->FitPreBinned(x, *binned, y)
          : est->Fit(x, y));
  return est;
}

double Clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

// ---------------------------------------------------------------------------
// Query planning: everything derivable from the compiled query + causal
// graph without scanning a single row.
// ---------------------------------------------------------------------------

struct WhatIfPlan {
  BackdoorMode mode = BackdoorMode::kAllAttributes;
  std::vector<size_t> update_cols;      // view column of each update
  /// Mutable view columns an update can actually move.
  std::set<std::string> random_cols;
  /// Random columns mentioned under Post(...) in For / Output.
  std::set<std::string> target_cols;
  /// psi cross-tuple summary features (§2.2 / §A.3.2).
  struct PsiSpec {
    size_t update_index;  // into q.updates
    size_t link_col;      // view column of the link attribute
    std::string name;
  };
  std::vector<PsiSpec> psi_specs;
  /// Adjustment set C (Equation 1): view columns, sorted, plus the causal
  /// names reported in WhatIfResult.
  std::vector<std::string> backdoor_cols;
  std::vector<std::string> backdoor_causal;
  /// Feature layout: update attributes, then backdoor columns, then For
  /// conditioning columns (psi features are appended at encode time).
  std::vector<std::string> feature_cols;
};

Result<WhatIfPlan> BuildWhatIfPlan(const CompiledWhatIf& q,
                                   const causal::CausalGraph* graph,
                                   BackdoorMode requested_mode) {
  const Schema& vschema = q.view_info->view->schema();
  WhatIfPlan plan;
  plan.mode = graph == nullptr ? BackdoorMode::kAllAttributes : requested_mode;
  const BackdoorMode mode = plan.mode;

  // Causal name <-> view column maps.
  auto causal_of = [&](const std::string& col) -> std::string {
    auto it = q.view_info->causal_of_column.find(col);
    return it == q.view_info->causal_of_column.end() ? std::string()
                                                    : it->second;
  };
  std::unordered_map<std::string, std::string> column_of_causal;
  for (const auto& [col, attr] : q.view_info->causal_of_column) {
    column_of_causal.emplace(attr, col);
  }

  // Update columns. Multi-update soundness (§3.1): updated attributes must
  // be causally unrelated to each other.
  for (const UpdateSpec& u : q.updates) {
    HYPER_ASSIGN_OR_RETURN(size_t idx, vschema.IndexOf(u.attribute));
    plan.update_cols.push_back(idx);
  }
  if (mode == BackdoorMode::kGraph && q.updates.size() > 1) {
    for (size_t i = 0; i < q.updates.size(); ++i) {
      const std::string bi = causal_of(q.updates[i].attribute);
      if (!graph->HasNode(bi)) continue;
      const auto desc = graph->Descendants(bi);
      for (size_t j = 0; j < q.updates.size(); ++j) {
        if (i == j) continue;
        if (desc.count(causal_of(q.updates[j].attribute)) > 0) {
          return Status::InvalidArgument(
              "multi-attribute update requires causally unrelated "
              "attributes: '" + q.updates[i].attribute + "' affects '" +
              q.updates[j].attribute + "'");
        }
      }
    }
  }

  // Random columns: mutable view columns that an update can actually move.
  // With a causal graph these are the causal descendants of the update
  // attributes; without one, every mutable non-update attribute.
  {
    std::set<std::string> update_names;
    for (const UpdateSpec& u : q.updates) update_names.insert(u.attribute);
    if (mode == BackdoorMode::kGraph) {
      std::unordered_set<std::string> desc;
      for (const UpdateSpec& u : q.updates) {
        const std::string b = causal_of(u.attribute);
        if (!graph->HasNode(b)) continue;
        for (const std::string& d : graph->Descendants(b)) desc.insert(d);
      }
      for (const AttributeDef& attr : vschema.attributes()) {
        if (attr.mutability == Mutability::kImmutable) continue;
        if (update_names.count(attr.name) > 0) continue;
        if (desc.count(causal_of(attr.name)) > 0) {
          plan.random_cols.insert(attr.name);
        }
      }
    } else {
      for (const AttributeDef& attr : vschema.attributes()) {
        if (attr.mutability == Mutability::kImmutable) continue;
        if (update_names.count(attr.name) > 0) continue;
        plan.random_cols.insert(attr.name);
      }
    }
  }

  // Post-referenced target columns (for backdoor computation and feature
  // exclusion): random columns mentioned under Post(...) in For / Output.
  // Columns referenced only through Pre(...) are conditioning attributes,
  // not outcomes.
  {
    std::vector<std::string> cols;
    if (q.for_pred != nullptr) CollectPostColumnRefs(*q.for_pred, &cols);
    if (q.output_value != nullptr) {
      sql::CollectColumnRefs(*q.output_value, &cols);
    }
    for (const std::string& col : cols) {
      if (plan.random_cols.count(col) > 0) plan.target_cols.insert(col);
    }
  }

  // psi features: when the graph has a cross-tuple edge out of an update
  // attribute, the group mean of that attribute over the link group becomes
  // a feature, recomputed post-update.
  if (mode == BackdoorMode::kGraph) {
    for (size_t j = 0; j < q.updates.size(); ++j) {
      const std::string b = causal_of(q.updates[j].attribute);
      for (const causal::CausalEdge& e : graph->edges()) {
        if (!e.is_cross_tuple() || e.from != b) continue;
        auto link_col = column_of_causal.find(e.link_attribute);
        std::string link_name = link_col != column_of_causal.end()
                                    ? link_col->second
                                    : e.link_attribute;
        if (!vschema.Contains(link_name)) continue;
        WhatIfPlan::PsiSpec spec;
        spec.update_index = j;
        spec.link_col = vschema.IndexOf(link_name).value();
        spec.name = "psi_" + q.updates[j].attribute;
        plan.psi_specs.push_back(std::move(spec));
        break;  // one psi per update attribute
      }
    }
  }

  // Adjustment set C (Equation 1) per the backdoor mode.
  {
    std::set<std::string> chosen;  // causal names
    if (mode == BackdoorMode::kGraph) {
      for (const UpdateSpec& u : q.updates) {
        const std::string b = causal_of(u.attribute);
        if (!graph->HasNode(b)) continue;
        for (const std::string& target : plan.target_cols) {
          const std::string y = causal_of(target);
          if (!graph->HasNode(y)) continue;
          auto set = causal::MinimalBackdoorSet(*graph, b, y);
          if (!set.ok()) continue;  // disconnected: nothing to adjust
          for (const std::string& c : *set) chosen.insert(c);
        }
      }
    } else if (mode == BackdoorMode::kAllAttributes) {
      std::set<std::string> excluded = plan.target_cols;
      for (const UpdateSpec& u : q.updates) excluded.insert(u.attribute);
      for (const std::string& k : q.view_info->view_key_columns) {
        excluded.insert(k);
      }
      for (const AttributeDef& attr : vschema.attributes()) {
        if (excluded.count(attr.name) > 0) continue;
        chosen.insert(causal_of(attr.name).empty() ? attr.name
                                                   : causal_of(attr.name));
      }
    }  // kUpdateOnly: empty set
    for (const std::string& c : chosen) {
      auto it = column_of_causal.find(c);
      const std::string col = it != column_of_causal.end() ? it->second : c;
      if (vschema.Contains(col)) {
        plan.backdoor_cols.push_back(col);
        plan.backdoor_causal.push_back(c);
      }
    }
    std::sort(plan.backdoor_cols.begin(), plan.backdoor_cols.end());
    std::sort(plan.backdoor_causal.begin(), plan.backdoor_causal.end());
  }

  // Conditioning attributes from the For operator (§5.5, Figure 11a): the
  // estimation of Proposition 2 conditions on mu_For,Pre, so attributes
  // referenced by pre-update conditions join the regressor features. Only
  // non-descendants of the update attributes qualify — conditioning on a
  // mediator's pre-value would block part of the causal path. The Indep
  // baseline skips these (it conditions on nothing but the update).
  std::vector<std::string> conditioning_cols;
  if (q.for_pred != nullptr && mode != BackdoorMode::kUpdateOnly) {
    std::unordered_set<std::string> descendants_of_updates;
    if (mode == BackdoorMode::kGraph) {
      for (const UpdateSpec& u : q.updates) {
        const std::string b = causal_of(u.attribute);
        if (!graph->HasNode(b)) continue;
        for (const std::string& d : graph->Descendants(b)) {
          descendants_of_updates.insert(d);
        }
      }
    }
    std::set<std::string> existing(plan.backdoor_cols.begin(),
                                   plan.backdoor_cols.end());
    for (const UpdateSpec& u : q.updates) existing.insert(u.attribute);
    for (const std::string& k : q.view_info->view_key_columns) {
      existing.insert(k);
    }
    std::vector<std::string> refs;
    sql::CollectColumnRefs(*q.for_pred, &refs);
    for (const std::string& col : refs) {
      if (existing.count(col) > 0) continue;
      if (plan.target_cols.count(col) > 0) continue;
      if (plan.random_cols.count(col) > 0) continue;  // mutable descendants
      if (mode == BackdoorMode::kGraph &&
          descendants_of_updates.count(causal_of(col)) > 0) {
        continue;
      }
      if (!vschema.Contains(col)) continue;
      conditioning_cols.push_back(col);
      existing.insert(col);
    }
  }

  for (const UpdateSpec& u : q.updates) plan.feature_cols.push_back(u.attribute);
  for (const std::string& c : plan.backdoor_cols) plan.feature_cols.push_back(c);
  for (const std::string& c : conditioning_cols) plan.feature_cols.push_back(c);
  return plan;
}

// ---------------------------------------------------------------------------
// For-predicate folding (§A.2): per tuple, every subexpression whose value
// is already determined (pre-update values, immutable attributes, the
// deterministic post-update value of the update attribute itself) is folded
// to a literal; what remains — the residual — references only genuinely
// random post-update attributes and is handled by the estimator. Which
// subtrees are determined depends only on random_cols, not on the row, so
// every maximal determined subtree (a "hole") is compiled once, only the
// hole values are evaluated per tuple, and the folded residual is cached per
// distinct hole-value vector — the Proposition 6 grounding, memoized.
// ---------------------------------------------------------------------------

/// Marks every node that transitively contains a random Post(...) reference.
/// Nodes inside a Post subtree are never marked: the fold keeps Post
/// subtrees verbatim.
bool MarkRandom(const Expr& e, const std::set<std::string>& random_cols,
                std::unordered_set<const Expr*>* random) {
  if (e.kind == ExprKind::kPost) {
    std::vector<std::string> cols;
    sql::CollectColumnRefs(*e.children[0], &cols);
    for (const std::string& col : cols) {
      if (random_cols.count(col) > 0) {
        random->insert(&e);
        return true;
      }
    }
    return false;
  }
  bool any = false;
  for (const auto& child : e.children) {
    if (MarkRandom(*child, random_cols, random)) any = true;
  }
  if (any) random->insert(&e);
  return any;
}

/// Registers the maximal determined subtrees in fold (pre-)order.
void CollectHoles(const Expr& e,
                  const std::unordered_set<const Expr*>& random,
                  std::vector<const Expr*>* holes,
                  std::unordered_map<const Expr*, size_t>* hole_of) {
  if (random.count(&e) == 0) {
    hole_of->emplace(&e, holes->size());
    holes->push_back(&e);
    return;
  }
  if (e.kind == ExprKind::kPost) return;  // kept verbatim by the fold
  for (const auto& child : e.children) {
    CollectHoles(*child, random, holes, hole_of);
  }
}

/// Folds the For predicate for one tuple, given its hole values: holes
/// become literals, And/Or/Not over a literal simplify, random Post
/// references stay verbatim for the estimator.
ExprPtr FoldFromHoles(const Expr& expr,
                      const std::unordered_map<const Expr*, size_t>& hole_of,
                      const std::vector<Value>& hole_values) {
  auto it = hole_of.find(&expr);
  if (it != hole_of.end()) {
    return sql::MakeLiteral(hole_values[it->second]);
  }
  switch (expr.kind) {
    case ExprKind::kBinary:
      if (expr.op == sql::BinaryOp::kAnd || expr.op == sql::BinaryOp::kOr) {
        ExprPtr lhs = FoldFromHoles(*expr.children[0], hole_of, hole_values);
        ExprPtr rhs = FoldFromHoles(*expr.children[1], hole_of, hole_values);
        bool lit = false;
        const bool is_and = expr.op == sql::BinaryOp::kAnd;
        if (IsBoolLiteral(*lhs, &lit)) {
          if (is_and) {
            return lit ? std::move(rhs) : sql::MakeLiteral(Value::Bool(false));
          }
          return lit ? sql::MakeLiteral(Value::Bool(true)) : std::move(rhs);
        }
        if (IsBoolLiteral(*rhs, &lit)) {
          if (is_and) {
            return lit ? std::move(lhs) : sql::MakeLiteral(Value::Bool(false));
          }
          return lit ? sql::MakeLiteral(Value::Bool(true)) : std::move(lhs);
        }
        return sql::MakeBinary(expr.op, std::move(lhs), std::move(rhs));
      }
      break;
    case ExprKind::kNot: {
      ExprPtr inner = FoldFromHoles(*expr.children[0], hole_of, hole_values);
      bool lit = false;
      if (IsBoolLiteral(*inner, &lit)) {
        return sql::MakeLiteral(Value::Bool(!lit));
      }
      return sql::MakeNot(std::move(inner));
    }
    case ExprKind::kPost:
      return expr.Clone();
    default:
      break;
  }
  // A mixed atom (comparison/arithmetic/in-list containing a random Post
  // plus determined parts): its determined children are holes and fold to
  // literals, e.g. Post(A) > Pre(A) becomes "Post(A) > 5" for a tuple whose
  // A is 5.
  auto out = std::make_unique<Expr>();
  out->kind = expr.kind;
  out->literal = expr.literal;
  out->qualifier = expr.qualifier;
  out->name = expr.name;
  out->op = expr.op;
  for (const auto& child : expr.children) {
    out->children.push_back(FoldFromHoles(*child, hole_of, hole_values));
  }
  return out;
}

/// Dense first-seen group ids over one column, hashing dictionary codes /
/// raw machine words instead of Value objects. Falls back to Value keys for
/// columns carrying NULLs.
Result<std::vector<uint32_t>> GroupIdsForColumn(const ColumnTable& table,
                                                size_t attr,
                                                uint32_t* num_groups) {
  const Column& col = table.col(attr);
  const size_t n = table.num_rows();
  std::vector<uint32_t> gid(n);
  uint32_t next = 0;
  if (!col.has_nulls()) {
    switch (col.kind) {
      case ColumnKind::kCode: {
        std::vector<uint32_t> of_code(table.dict().size(), UINT32_MAX);
        for (size_t r = 0; r < n; ++r) {
          uint32_t& g = of_code[col.codes[r]];
          if (g == UINT32_MAX) g = next++;
          gid[r] = g;
        }
        *num_groups = next;
        return gid;
      }
      case ColumnKind::kInt64: {
        std::unordered_map<int64_t, uint32_t> of_key;
        of_key.reserve(n / 4 + 1);
        for (size_t r = 0; r < n; ++r) {
          auto [it, inserted] = of_key.emplace(col.i64[r], next);
          if (inserted) ++next;
          gid[r] = it->second;
        }
        *num_groups = next;
        return gid;
      }
      case ColumnKind::kDouble: {
        std::unordered_map<double, uint32_t> of_key;
        of_key.reserve(n / 4 + 1);
        for (size_t r = 0; r < n; ++r) {
          auto [it, inserted] = of_key.emplace(col.f64[r], next);
          if (inserted) ++next;
          gid[r] = it->second;
        }
        *num_groups = next;
        return gid;
      }
      case ColumnKind::kBool: {
        uint32_t of_bool[2] = {UINT32_MAX, UINT32_MAX};
        for (size_t r = 0; r < n; ++r) {
          uint32_t& g = of_bool[col.b8[r] != 0 ? 1 : 0];
          if (g == UINT32_MAX) g = next++;
          gid[r] = g;
        }
        *num_groups = next;
        return gid;
      }
    }
  }
  std::unordered_map<Value, uint32_t, ValueHash> of_value;
  for (size_t r = 0; r < n; ++r) {
    auto [it, inserted] = of_value.emplace(table.GetValue(r, attr), next);
    if (inserted) ++next;
    gid[r] = it->second;
  }
  *num_groups = next;
  return gid;
}

}  // namespace

WhatIfEngine::WhatIfEngine(const Database* db,
                           const causal::CausalGraph* graph,
                           WhatIfOptions options)
    : db_(db), graph_(graph), options_(options) {}

Result<WhatIfResult> WhatIfEngine::RunSql(const std::string& text) const {
  HYPER_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseSql(text));
  if (stmt.whatif == nullptr) {
    return Status::InvalidArgument("expected a what-if statement");
  }
  return Run(*stmt.whatif);
}

Result<WhatIfResult> WhatIfEngine::Run(const sql::WhatIfStmt& stmt) const {
  if (options_.exec_guard == nullptr) {
    ExecGuardPtr guard = ExecGuard::Arm(options_.budget, options_.cancel_token);
    if (guard != nullptr) {
      // Re-enter with the armed guard injected so Prepare and Evaluate
      // observe one deadline and one pair of meters.
      WhatIfOptions governed = options_;
      governed.exec_guard = std::move(guard);
      return WhatIfEngine(db_, graph_, std::move(governed)).Run(stmt);
    }
  }
  Stopwatch total_timer;
  HYPER_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedWhatIf> prepared,
                         Prepare(stmt));
  HYPER_ASSIGN_OR_RETURN(WhatIfResult result,
                         Evaluate(*prepared, SpecsOfStatement(stmt)));
  result.prepare_seconds = prepared->prepare_seconds();
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

// ---------------------------------------------------------------------------
// Prepared plans, staged: the intervention-independent four-fifths of a
// what-if run split into four independently keyed, independently cacheable
// stages — Scope (view + columnar image), Causal (backdoor plan + blocks),
// Learn (encoders + training matrix + the trained pattern-estimator cache),
// Query (compiled hole plan + per-row constants). A PreparedWhatIf is one
// QueryStage, which holds the other three; Evaluate() is the cheap
// per-intervention fifth. Every stage is a pure function of its key, so a
// plan built from cached stages is bit-identical to one built fresh.
// ---------------------------------------------------------------------------

namespace {

/// Typed numeric read with Value::AsDouble error semantics.
Result<double> ReadColumnDouble(const ColumnTable& cview, const Column& col,
                                size_t r) {
  if (col.is_null(r)) {
    return Status::InvalidArgument("cannot coerce NULL to a number");
  }
  switch (col.kind) {
    case ColumnKind::kInt64: return static_cast<double>(col.i64[r]);
    case ColumnKind::kDouble: return col.f64[r];
    case ColumnKind::kBool: return col.b8[r] != 0 ? 1.0 : 0.0;
    case ColumnKind::kCode:
      return Status::InvalidArgument("cannot coerce string '" +
                                     cview.dict().at(col.codes[r]) +
                                     "' to a number");
  }
  return Status::Internal("unhandled column kind");
}

/// Bulk typed widening of a null-free numeric column: value for value what
/// ReadColumnDouble returns per row. Callers exclude dictionary codes.
void WidenColumn(const Column& col, size_t n, double* out) {
  switch (col.kind) {
    case ColumnKind::kInt64:
      simd::I64ToF64(col.i64.data(), n, out);
      break;
    case ColumnKind::kDouble:
      std::copy_n(col.f64.data(), n, out);
      break;
    case ColumnKind::kBool:
      simd::U8ToF64(col.b8.data(), n, out);
      break;
    case ColumnKind::kCode:
      break;
  }
}

}  // namespace

/// ScopeStage: the materialized relevant view and its columnar image. For a
/// scenario branch's table view it is the base world's stage with the
/// branch's sparse override cells patched in (ColumnTable::ApplyOverrides):
/// it shares the base's view and every column the branch does not write,
/// and owns a patched copy of the rest, instead of re-encoding the table.
struct ScopeStageData {
  std::shared_ptr<const ViewInfo> view_info;
  ColumnTable cview;
  /// Compile scope for expressions over the view (points into view_info's
  /// schema, which this stage keeps alive).
  std::vector<relational::ScopedTuple> scope;
};

/// CausalStage: everything derived from the causal graph + query shape
/// without reading a single cell value — the backdoor plan and the
/// block-independent decomposition.
struct CausalStageData {
  WhatIfPlan plan;
  /// Blocks of the decomposition, numbered by first appearance in row order.
  size_t num_blocks = 1;
  /// The block layout, kept only when it is not a row-order fold: the view
  /// rows block by block (each block's rows in row order), block b ending
  /// at offset block_end[b]. Both stay empty for one block per row in row
  /// order or one block of every row (the common shapes): since g is Sum
  /// and partials merge in block order, a flat row-order fold is
  /// bit-identical there, so nothing is stored per row.
  std::vector<size_t> block_rows;
  std::vector<size_t> block_end;
};

/// LearnStage: fitted encoders, the feature matrix of every view row, its
/// residual groups, the (binned) training matrix, psi prep, and the
/// lazily-grown cache of trained pattern estimators. Keyed by the delta
/// fingerprint restricted to the attributes training reads, so branches
/// whose deltas miss that set share one LearnStage — estimators included.
struct LearnStageData {
  EstimatorConfig estimator;
  bool has_output = false;

  /// Intervention-independent psi (cross-tuple feature) state: link groups
  /// and pre-update sums. A row's pre-update group mean is its psi feature,
  /// in x.
  struct PsiPrep {
    std::vector<double> pre_b;
    std::vector<uint32_t> gid;
    std::vector<double> sum_pre;
    std::vector<size_t> counts;
  };
  std::vector<PsiPrep> psi;

  std::optional<learn::FeatureEncoder> encoder;
  std::vector<std::optional<learn::QuantileDiscretizer>> feature_disc;
  /// Every view row's features, row-major: the F encoded (and snapped)
  /// features in plan order, update attributes first, then the P psi
  /// pre-update group means. Unsampled, it is the training matrix.
  learn::FeatureMatrix x;
  /// Rows grouped by their residual key, the words [#updates, F) of their
  /// row of x: the bits of their non-update features (same bitwise
  /// equality as an evaluation's point dedup, so group == distinct
  /// post-update feature point whenever the update features and psi are
  /// row-constant). Lets a Set-update evaluation map affected rows to batch
  /// slots with one array read instead of hashing the point per row.
  std::vector<uint32_t> residual_gid;
  uint32_t residual_groups = 0;
  /// HypeR-sampled training (§5.2): the sampled view rows, in draw order,
  /// and their rows of x. Both empty when every row trains.
  std::vector<size_t> train_rows;
  learn::FeatureMatrix sampled_x;
  /// Binned image of the training matrix for histogram forest training,
  /// computed once per stage and shared across every pattern estimator and
  /// every tree (absent for other estimator configs).
  std::optional<learn::BinnedMatrix> train_binned;
  std::vector<double> y_obs;  // per training row

  const learn::FeatureMatrix& train_x() const {
    return train_rows.empty() ? x : sampled_x;
  }
  /// The view row of training row `i`.
  size_t train_row(size_t i) const {
    return train_rows.empty() ? i : train_rows[i];
  }

  double SnapFeature(size_t j, double v) const {
    return feature_disc[j].has_value()
               ? feature_disc[j]->Representative(feature_disc[j]->BucketOf(v))
               : v;
  }

  /// The pattern-estimator cache, guarded by mu. Pattern estimators depend
  /// only on the residual pattern and this stage's training matrix, so one
  /// trained estimator serves every plan sharing the stage — an
  /// intervention sweep, every When-variant of a query, and every branch
  /// whose delta misses the training attributes.
  mutable Mutex mu;
  mutable std::unordered_map<std::string, PatternEstimators> patterns
      GUARDED_BY(mu);

  /// Trains (or fetches) the pattern estimators for one residual pattern.
  /// `exact` is the caller's compiled residual (bound to the caller's own
  /// cview — identical indicator values on every scope sharing this stage,
  /// by the stage key's restricted-fingerprint contract). `was_cached`
  /// reports whether training was skipped; `train_time` accrues the cost
  /// actually incurred by this call; the residual's mask kernel runs on at
  /// most `threads` threads, and a forest trains on `train_threads`
  /// (TrainThreads). Thread-safe; a pattern is trained by exactly the first
  /// caller that needs it.
  Result<const PatternEstimators*> EnsurePattern(
      const std::string& key, bool is_literal, bool literal_value,
      const relational::ColumnBoundExpr* exact, bool* was_cached,
      Stopwatch::Clock::duration* train_time,
      const governance::ExecGuard* guard, size_t threads,
      size_t train_threads) const EXCLUDES(mu) {
    MutexLock lock(&mu);
    auto it = patterns.find(key);
    if (it != patterns.end()) {
      *was_cached = true;
      return &it->second;
    }
    *was_cached = false;
    const learn::FeatureMatrix& tx = train_x();
    const size_t m = tx.num_rows();
    // A governed abort below unwinds before the emplace, so the pattern
    // cache never holds a partially trained estimator.
    if (guard != nullptr) {
      HYPER_RETURN_NOT_OK(guard->ChargeRows(m, "whatif.train"));
    }
    Stopwatch train_timer;
    PatternEstimators pat;
    pat.literal = is_literal;
    pat.literal_value = literal_value;

    const learn::BinnedMatrix* binned =
        train_binned.has_value() ? &*train_binned : nullptr;
    std::vector<double> ind(m, 1.0);
    governance::LoopCheck gov_loop(guard);
    if (!is_literal) {
      // Indicator of the residual pattern over the training rows. The mask
      // kernel evaluates all rows branch-free and the gather keeps exactly
      // the training ones; on ineligible trees the per-row loop (which can
      // also surface evaluation errors) runs instead.
      std::vector<uint8_t> ind_mask;
      if (exact->TryMaskKernel(&ind_mask, threads)) {
        for (size_t i = 0; i < m; ++i) {
          ind[i] = ind_mask[train_row(i)] != 0 ? 1.0 : 0.0;
        }
      } else {
        for (size_t i = 0; i < m; ++i) {
          if (gov_loop.Due()) {
            HYPER_RETURN_NOT_OK(guard->Check("whatif.train"));
          }
          HYPER_ASSIGN_OR_RETURN(bool b, exact->EvalBool(train_row(i)));
          ind[i] = b ? 1.0 : 0.0;
        }
      }
      HYPER_ASSIGN_OR_RETURN(
          pat.weight,
          TrainEstimator(estimator, train_threads, tx, binned, ind));
    }
    if (has_output && !(is_literal && !literal_value)) {
      if (guard != nullptr) {
        HYPER_RETURN_NOT_OK(guard->Check("whatif.train"));
      }
      std::vector<double> value_target(m);
      for (size_t i = 0; i < m; ++i) value_target[i] = y_obs[i] * ind[i];
      HYPER_ASSIGN_OR_RETURN(
          pat.value,
          TrainEstimator(estimator, train_threads, tx, binned, value_target));
    }
    *train_time += train_timer.Elapsed();
    auto [ins, inserted] = patterns.emplace(key, std::move(pat));
    (void)inserted;
    return &ins->second;
  }
};

/// QueryStage — the plan: the per-query leaves (compiled statement ASTs,
/// the When mask, per-row output constants and the compiled residual (hole)
/// plan, plus the residual-entry cache and, for holes that read no post
/// image, each row's entry id) and shared pointers to the Scope, Causal and
/// Learn stages it was built from. A PreparedWhatIf owns exactly one, and
/// the query section of a stage cache stores that PreparedWhatIf. The
/// cheapest stage to rebuild, and the only one a When-variant pays for.
struct PreparedWhatIf::Impl {
  std::shared_ptr<const ScopeStageData> scope;
  std::shared_ptr<const CausalStageData> causal;
  std::shared_ptr<const LearnStageData> learn;
  CompiledWhatIf q;
  /// 0/1 When mask (same byte layout EvalPredicateMask produces, so it feeds
  /// PostImage::set_active and the SIMD mask kernels without conversion).
  std::vector<uint8_t> in_s;
  size_t updated = 0;

  std::optional<relational::ColumnBoundExpr> out_eval;
  /// Per-row observed output values (pre image), precomputed once per
  /// stage. Rows whose output expression errors carry out_err = 1; the
  /// error is reproduced by re-evaluating only if such a row is actually
  /// consulted — identical behavior to per-row evaluation.
  std::vector<double> out_all;
  std::vector<uint8_t> out_err;

  /// Hole plan: compiled maximal determined subtrees of the For predicate.
  /// Binding against a concrete post image happens per evaluation.
  std::vector<const Expr*> hole_exprs;  // point into q.for_pred (owned here)
  std::unordered_map<const Expr*, size_t> hole_of;
  std::vector<relational::CompiledExpr> hole_compiled;
  /// True when every hole is row-invariant (no column references — e.g.
  /// constant thresholds): all rows then share one residual entry, resolved
  /// on the first evaluation, and that entry caches its exact qualification
  /// mask across evaluations. Holes that vary by row resolve per row once
  /// per plan (row_entry) unless they read a post image.
  bool holes_row_invariant = false;
  /// Each view row's residual entry id, resolved once by BuildQueryStage
  /// when the holes vary by row but none reads a post image: their values
  /// are then the same under every intervention. Empty otherwise (and when
  /// some row's hole evaluation or entry resolution fails), so Evaluate
  /// evaluates the holes per row against the intervention's post image.
  std::vector<uint32_t> row_entry;

  /// One folded residual per distinct hole-value vector. Entries are
  /// append-only and individually immutable once published, so evaluations
  /// snapshot raw pointers and read them lock-free afterwards. A plan with
  /// `row_entry` holds every entry it will ever use from Prepare on; the
  /// list grows lazily only for row-invariant holes (the one shared entry)
  /// and on the per-row path. (Trained pattern estimators live on the
  /// LearnStage — a QueryStage can be shared by plans with different
  /// estimator configs.)
  struct Entry {
    bool is_literal = false;
    bool literal_value = false;
    std::string key;
    ExprPtr residual;
    std::optional<relational::ColumnBoundExpr> exact;  // absent for literals
    /// Pre-image qualification per row (0/1, 2 = evaluation error), built
    /// once per entry when holes are row-invariant (then one entry serves
    /// every row, so the mask is O(n) per stage, amortized across every
    /// evaluation of the sweep). Empty otherwise — Pass B evaluates per row.
    std::vector<uint8_t> exact_vals;
  };

  // The residual-entry cache, guarded by mu (never held together with a
  // LearnStage's pattern lock).
  mutable Mutex mu;
  mutable std::vector<std::unique_ptr<Entry>> entries GUARDED_BY(mu);
  mutable std::unordered_map<std::vector<Value>, uint32_t, ValueVectorHash,
                             ValueVectorEq>
      entry_cache GUARDED_BY(mu);

  /// Resolves (or creates) the entry for one hole-value vector; a new
  /// entry's qualification mask runs on at most `threads` threads. Caller
  /// holds `mu`. An empty For predicate resolves to the literal-true entry
  /// via the empty hole vector.
  Result<uint32_t> ResolveEntryLocked(const std::vector<Value>& holes,
                                      size_t threads) const REQUIRES(mu) {
    auto it = entry_cache.find(holes);
    if (it != entry_cache.end()) return it->second;
    ExprPtr residual = q.for_pred == nullptr
                           ? sql::MakeLiteral(Value::Bool(true))
                           : FoldFromHoles(*q.for_pred, hole_of, holes);
    auto e = std::make_unique<Entry>();
    bool lit = false;
    e->is_literal = IsBoolLiteral(*residual, &lit);
    e->literal_value = lit;
    e->key = residual->ToString();
    if (!e->is_literal) {
      HYPER_ASSIGN_OR_RETURN(
          relational::CompiledExpr ce,
          relational::CompiledExpr::Compile(*residual, scope->scope));
      HYPER_ASSIGN_OR_RETURN(
          relational::ColumnBoundExpr be,
          relational::ColumnBoundExpr::Bind(ce, scope->cview));
      e->exact = std::move(be);
      if (holes_row_invariant) {
        // One entry serves every row: cache the pre-image qualification so
        // repeated evaluations of this plan skip the per-row re-evaluation.
        // The mask kernel only fires on trees it can prove error-free, so
        // its 0/1 output is exactly the scalar tri-state without any 2s.
        const size_t n = scope->cview.num_rows();
        if (e->exact->TryMaskKernel(&e->exact_vals, threads)) {
          // done: exact_vals[r] == (EvalBool(r) ? 1 : 0) for every row.
        } else {
          e->exact_vals.resize(n);
          for (size_t r = 0; r < n; ++r) {
            auto qr = e->exact->EvalBool(r);
            e->exact_vals[r] = qr.ok() ? (*qr ? 1 : 0) : 2;
          }
        }
      }
    }
    e->residual = std::move(residual);
    entries.push_back(std::move(e));
    const auto id = static_cast<uint32_t>(entries.size() - 1);
    entry_cache.emplace(holes, id);
    return id;
  }
};

// ---------------------------------------------------------------------------
// Stage builders + keys. Each builder is a pure function of its key's
// inputs; Prepare looks the QueryStage (the plan) up first and, on a miss,
// runs the upstream builders in dependency order, consulting the
// StageContext's stage cache when there is one. Keys length-prefix every
// free-form field so the concatenation is injective: a string literal
// inside a predicate can never forge a neighbouring field.
// ---------------------------------------------------------------------------

namespace {

std::string KeyField(const char* tag, const std::string& text) {
  return StrFormat("|%s[%zu]=", tag, text.size()) + text;
}

/// The view is a function of (data, Use clause, update relation) — NOT of
/// which update attribute selected that relation — so the key uses the
/// relation: every per-attribute plan of a how-to run (and the baseline)
/// shares one ScopeStage.
std::string ScopeStageKey(const std::string& data_scope,
                          const sql::UseClause& use,
                          const std::string& update_relation) {
  std::string key = "scope";
  key += KeyField("d", data_scope);
  key += KeyField("use", use.ToString());
  key += KeyField("rel", update_relation);
  return key;
}

/// The backdoor plan and blocks read the data only through `causal_scope`
/// (the shape scope where Prepare allows it), plus the update attributes,
/// the For/Output shape and the backdoor mode.
std::string CausalStageKey(const std::string& causal_scope,
                           const sql::WhatIfStmt& stmt,
                           const std::string& update_relation,
                           const WhatIfOptions& options) {
  std::string key = "causal";
  key += KeyField("d", causal_scope);
  key += KeyField("use", stmt.use.ToString());
  key += KeyField("rel", update_relation);
  for (const sql::UpdateClause& u : stmt.updates) {
    key += KeyField("upd", u.attribute);
  }
  key += KeyField("out", stmt.output.ToString());
  key += KeyField("for",
                  stmt.for_pred != nullptr ? stmt.for_pred->ToString() : "");
  key += StrFormat("|mode=%d|blocks=%d", static_cast<int>(options.backdoor),
                   options.use_blocks ? 1 : 0);
  return key;
}

/// Injective text encoding of every option that can change what estimator
/// training produces (estimator kind, smoothing, forest hyperparameters,
/// sample size, seed). Shared by the LearnStage and QueryStage keys.
std::string EstimatorConfigKey(const WhatIfOptions& options) {
  std::string key = StrFormat(
      "|est=%d|smooth=%.17g|sample=%zu|seed=%llu",
      static_cast<int>(options.estimator), options.frequency_smoothing,
      options.sample_size, static_cast<unsigned long long>(options.seed));
  // No forest.seed: EstimatorConfigOf derives every forest's seed from
  // options.seed, so requests that differ only there train the same bits.
  const learn::ForestOptions& f = options.forest;
  key += StrFormat(
      "|forest=%zu,%d,%d,%zu,%zu,%zu,%d", f.num_trees,
      f.sqrt_features ? 1 : 0, f.tree.max_depth, f.tree.min_samples_leaf,
      f.tree.max_features, f.tree.max_thresholds,
      f.tree.use_histograms ? 1 : 0);
  return key;
}

/// Training reads the causal shape, the cells `learn_scope` fingerprints
/// (the delta restricted to the attributes training reads) and the
/// estimator config.
std::string LearnStageKey(const std::string& causal_key,
                          const std::string& learn_scope,
                          const WhatIfOptions& options) {
  std::string key = "learn";
  key += KeyField("c", causal_key);
  key += KeyField("d", learn_scope);
  key += EstimatorConfigKey(options);
  return key;
}

/// The plan: the causal key plus the When text over the full data snapshot
/// and the estimator config. It determines every upstream key (the scope
/// and learn scopes are functions of the data snapshot), so a hit needs no
/// upstream lookup.
std::string QueryStageKey(const std::string& causal_key,
                          const std::string& data_scope,
                          const sql::WhatIfStmt& stmt,
                          const WhatIfOptions& options) {
  std::string key = "query";
  key += KeyField("c", causal_key);
  key += KeyField("d", data_scope);
  key += KeyField("when", stmt.when != nullptr ? stmt.when->ToString() : "");
  key += EstimatorConfigKey(options);
  return key;
}

/// The rows of the context's data snapshot: its row source's when it has
/// one, else `db`, which then is the snapshot. `hold` keeps the row
/// source's Database alive while the caller reads it.
Result<const Database*> SnapshotRows(const Database& db,
                                     const StageContext* ctx,
                                     std::shared_ptr<const Database>* hold) {
  if (ctx == nullptr || ctx->rows == nullptr) return &db;
  HYPER_ASSIGN_OR_RETURN(*hold, ctx->rows->Rows());
  return hold->get();
}

Result<std::shared_ptr<const ScopeStageData>> ScopeStageFor(
    const Database& db, const sql::UseClause& use,
    const std::string& update_attr0, const std::string& update_relation,
    const StageContext* ctx, const ExecGuard* guard);

/// Builds the ScopeStage: relevant view + columnar image.
///
/// A table view whose context carries override cells is the base world's
/// ScopeStage (got or built through the scope section under base_scope,
/// from `db`, the base) with the cells patched in copy-on-write
/// (ApplyOverrides): it shares the base's view and every column the cells
/// do not write, and is value-for-value what re-encoding the snapshot's
/// rows gives, at O(columns + the written columns' rows). Only a
/// kind-changing override, which the base image cannot take, re-encodes
/// the relation, from the snapshot's rows.
///
/// Any other view is built whole: a table view over `db` (the snapshot
/// itself when the context carries no cells), an embedded select by
/// executing it over the snapshot's rows.
Result<std::shared_ptr<const ScopeStageData>> BuildScopeStage(
    const Database& db, const sql::UseClause& use,
    const std::string& update_attr0, const std::string& update_relation,
    const StageContext* ctx, const ExecGuard* guard) {
  // Charges the view scan and (approximately) the columnar image before it
  // is materialized, so an over-budget request aborts without paying the
  // allocation. Meters charge work actually done: a stage-cache hit skips
  // the builder and charges nothing.
  const auto charge = [guard](size_t rows, size_t columns) -> Status {
    if (guard == nullptr) return Status::OK();
    HYPER_RETURN_NOT_OK(guard->ChargeRows(rows, "whatif.prepare.scope"));
    return guard->ChargeBytes(rows * columns * sizeof(double),
                              "whatif.prepare.scope");
  };
  auto stage = std::make_shared<ScopeStageData>();
  if (use.is_table() && ctx != nullptr && ctx->overrides != nullptr &&
      !ctx->base_scope.empty() && ctx->base_scope != ctx->data_scope) {
    // The table view is the relation image itself (row == tid, same
    // attribute order), so overrides in base-table coordinates patch the
    // base image directly. The base build carries no cells, so it never
    // re-enters this branch: a scope build waits on at most one other.
    StageContext base_ctx;
    base_ctx.stages = ctx->stages;
    base_ctx.data_scope = ctx->base_scope;
    HYPER_ASSIGN_OR_RETURN(std::shared_ptr<const ScopeStageData> base,
                           ScopeStageFor(db, use, update_attr0,
                                         update_relation, &base_ctx, guard));
    HYPER_RETURN_NOT_OK(
        charge(base->cview.num_rows(), base->cview.num_columns()));
    stage->view_info = base->view_info;
    stage->cview = base->cview;  // shares every column and the dict
    auto cells = ctx->overrides->find(update_relation);
    if (cells != ctx->overrides->end() &&
        !stage->cview.ApplyOverrides(cells->second).ok()) {
      // A kind-changing override: re-encode the snapshot's relation, which
      // re-infers column kinds from the patched values. A column mixing
      // strings with numbers has no image: FromTable's InvalidArgument
      // names it.
      std::shared_ptr<const Database> hold;
      HYPER_ASSIGN_OR_RETURN(const Database* rows,
                             SnapshotRows(db, ctx, &hold));
      HYPER_ASSIGN_OR_RETURN(const Table* table,
                             rows->GetTable(update_relation));
      HYPER_ASSIGN_OR_RETURN(stage->cview, ColumnTable::FromTable(*table));
    }
  } else {
    std::shared_ptr<const Database> hold;
    const Database* source = &db;
    if (!use.is_table()) {
      HYPER_ASSIGN_OR_RETURN(source, SnapshotRows(db, ctx, &hold));
    }
    HYPER_ASSIGN_OR_RETURN(ViewInfo info,
                           BuildRelevantView(*source, use, update_attr0));
    stage->view_info = std::make_shared<const ViewInfo>(std::move(info));
    const Table& view = *stage->view_info->view;
    HYPER_RETURN_NOT_OK(
        charge(view.num_rows(), view.schema().num_attributes()));
    HYPER_ASSIGN_OR_RETURN(stage->cview, ColumnTable::FromTable(view));
  }
  const Schema& vschema = stage->view_info->view->schema();
  stage->scope = {relational::ScopedTuple{vschema.relation_name(), &vschema}};
  return std::shared_ptr<const ScopeStageData>(std::move(stage));
}

/// Block-independent decomposition (§3.3): view rows grouped by the
/// ground-graph component of their base tuple, which cross-tuple edges
/// read from the snapshot's rows. Leaves the single block of every row
/// when the components are unavailable.
Status BuildBlocks(const CompiledWhatIf& q, const Database& db,
                   const StageContext* ctx, const causal::CausalGraph& graph,
                   size_t n, CausalStageData* stage) {
  // Without cross-tuple edges the ground graph never connects two tuples:
  // every base tuple is its own component, so the blocks are the view rows
  // grouped by base tid — no need to materialize the ground graph.
  const std::vector<size_t>& tid = q.view_info->view_row_to_tid;
  std::vector<size_t> block_of_row(tid.begin(), tid.begin() + n);
  if (graph.HasCrossTupleEdges()) {
    std::shared_ptr<const Database> hold;
    HYPER_ASSIGN_OR_RETURN(const Database* rows, SnapshotRows(db, ctx, &hold));
    auto components = causal::TupleComponents::Build(graph, *rows);
    if (!components.ok()) return Status::OK();
    causal::TupleId tuple{q.view_info->update_relation, 0};
    for (size_t r = 0; r < n; ++r) {
      tuple.tid = tid[r];
      auto block = components->BlockOf(tuple);
      block_of_row[r] = block.ok() ? *block : 0;
    }
  }
  // Number the blocks by first appearance in row order.
  size_t max_key = 0;
  for (size_t key : block_of_row) max_key = std::max(max_key, key);
  std::vector<size_t> id_of_key(max_key + 1, SIZE_MAX);
  size_t num_blocks = 0;
  for (size_t& b : block_of_row) {
    size_t& id = id_of_key[b];
    if (id == SIZE_MAX) id = num_blocks++;
    b = id;
  }
  if (num_blocks <= 1 || num_blocks == n) {
    // One block of every row, or every row its own block in row order.
    stage->num_blocks = std::max<size_t>(num_blocks, 1);
    return Status::OK();
  }
  // Counting sort: block_end[b] first counts block b's rows, then becomes
  // its end offset; `next` walks each block's slots in row order.
  stage->num_blocks = num_blocks;
  stage->block_end.assign(num_blocks, 0);
  for (size_t b : block_of_row) ++stage->block_end[b];
  std::vector<size_t> next(num_blocks);
  for (size_t b = 0, end = 0; b < num_blocks; ++b) {
    next[b] = end;
    end += stage->block_end[b];
    stage->block_end[b] = end;
  }
  stage->block_rows.resize(n);
  for (size_t r = 0; r < n; ++r) {
    stage->block_rows[next[block_of_row[r]]++] = r;
  }
  return Status::OK();
}

Result<std::shared_ptr<const CausalStageData>> BuildCausalStage(
    const ScopeStageData& scope, const CompiledWhatIf& q, const Database& db,
    const StageContext* ctx, const causal::CausalGraph* graph,
    const WhatIfOptions& options, const ExecGuard* guard) {
  auto stage = std::make_shared<CausalStageData>();
  HYPER_ASSIGN_OR_RETURN(stage->plan,
                         BuildWhatIfPlan(q, graph, options.backdoor));
  if (guard != nullptr) {
    // The block decomposition walks every view row.
    HYPER_RETURN_NOT_OK(guard->ChargeRows(scope.cview.num_rows(),
                                          "whatif.prepare.causal"));
  }
  if (options.use_blocks && graph != nullptr) {
    HYPER_RETURN_NOT_OK(BuildBlocks(q, db, ctx, *graph,
                                    scope.cview.num_rows(), stage.get()));
  }
  return std::shared_ptr<const CausalStageData>(std::move(stage));
}

/// The view columns whose cell values the LearnStage reads: features
/// (update attributes + adjustment set + For conditioning), psi link
/// columns, and every column the For/Output expressions reference (residual
/// indicators and training targets evaluate them on the pre image). A
/// branch delta confined to other attributes cannot change anything this
/// stage computes.
std::vector<std::string> LearnDependencyColumns(const CompiledWhatIf& q,
                                                const WhatIfPlan& plan) {
  std::set<std::string> cols(plan.feature_cols.begin(),
                             plan.feature_cols.end());
  const Schema& vschema = q.view_info->view->schema();
  for (const WhatIfPlan::PsiSpec& spec : plan.psi_specs) {
    cols.insert(vschema.attribute(spec.link_col).name);
  }
  std::vector<std::string> refs;
  if (q.for_pred != nullptr) sql::CollectColumnRefs(*q.for_pred, &refs);
  if (q.output_value != nullptr) {
    sql::CollectColumnRefs(*q.output_value, &refs);
  }
  for (const std::string& c : refs) cols.insert(c);
  return std::vector<std::string>(cols.begin(), cols.end());
}

/// The LearnStage's data scope on a table view: the shape scope and an FNV
/// over the context's override cells of `attrs` (resolved in `relation`'s
/// schema, hashed in the order given). It is a function of the current
/// cells alone, not of the order the updates wrote them in, and a delta
/// that misses `attrs` scopes like an untouched branch: it shares the
/// trunk's LearnStage.
std::string RestrictedDeltaScope(const Database& db, const StageContext& ctx,
                                 const std::string& relation,
                                 const std::vector<std::string>& attrs) {
  Fnv1a fnv;
  auto table = db.GetTable(relation);
  auto relation_cells = ctx.overrides->find(relation);
  if (table.ok() && relation_cells != ctx.overrides->end()) {
    for (const std::string& attr : attrs) {
      auto idx = (*table)->schema().IndexOf(attr);
      if (!idx.ok()) continue;
      auto cells = relation_cells->second.find(*idx);
      if (cells == relation_cells->second.end()) continue;
      fnv.Mix(*idx);
      for (const auto& [tid, value] : cells->second) {
        fnv.Mix(tid);
        fnv.Mix(value.Hash());
      }
    }
  }
  return StrFormat("%s|r%016llx", ctx.shape_scope.c_str(),
                   static_cast<unsigned long long>(fnv.hash()));
}

/// Reads `scope` only while it builds: the stage keeps no reference to it,
/// so a cached LearnStage never pins a (branch) columnar image.
Result<std::shared_ptr<const LearnStageData>> BuildLearnStage(
    const ScopeStageData& scope, const CausalStageData& causal,
    const CompiledWhatIf& q, const WhatIfOptions& options,
    const ExecGuard* guard) {
  auto stage = std::make_shared<LearnStageData>();
  stage->estimator = EstimatorConfigOf(options);
  stage->has_output = q.output_value != nullptr;
  const ColumnTable& cview = scope.cview;
  const Schema& vschema = q.view_info->view->schema();
  const size_t n = cview.num_rows();
  const WhatIfPlan& plan = causal.plan;
  const std::vector<WhatIfPlan::PsiSpec>& psi_specs = plan.psi_specs;
  // Feature layout from the shared plan: update attributes, then backdoor
  // columns, then For conditioning columns, then psi.
  const std::vector<std::string>& feature_cols = plan.feature_cols;
  const size_t num_features = feature_cols.size();
  const size_t dims = num_features + psi_specs.size();
  if (guard != nullptr) {
    HYPER_RETURN_NOT_OK(guard->ChargeRows(n, "whatif.prepare.learn"));
    HYPER_RETURN_NOT_OK(
        guard->ChargeBytes(n * dims * sizeof(double), "whatif.prepare.learn"));
  }
  stage->x = learn::FeatureMatrix(n, dims);

  // psi prep: link groups and pre-update sums, accumulated in row order.
  stage->psi.resize(psi_specs.size());
  for (size_t p = 0; p < psi_specs.size(); ++p) {
    const WhatIfPlan::PsiSpec& spec = psi_specs[p];
    const Column& bc = cview.col(plan.update_cols[spec.update_index]);
    LearnStageData::PsiPrep& prep = stage->psi[p];
    prep.pre_b.resize(n);
    if (!bc.has_nulls() && bc.kind != ColumnKind::kCode) {
      WidenColumn(bc, n, prep.pre_b.data());
    } else {
      for (size_t r = 0; r < n; ++r) {
        HYPER_ASSIGN_OR_RETURN(prep.pre_b[r], ReadColumnDouble(cview, bc, r));
      }
    }
    uint32_t num_groups = 0;
    HYPER_ASSIGN_OR_RETURN(prep.gid,
                           GroupIdsForColumn(cview, spec.link_col, &num_groups));
    prep.sum_pre.assign(num_groups, 0.0);
    prep.counts.assign(num_groups, 0);
    for (size_t r = 0; r < n; ++r) {
      prep.sum_pre[prep.gid[r]] += prep.pre_b[r];
      ++prep.counts[prep.gid[r]];
    }
    for (size_t r = 0; r < n; ++r) {
      const uint32_t g = prep.gid[r];
      stage->x.Set(r, num_features + p,
                   prep.sum_pre[g] / static_cast<double>(prep.counts[g]));
    }
  }

  HYPER_ASSIGN_OR_RETURN(learn::FeatureEncoder encoder,
                         learn::FeatureEncoder::Fit(cview, feature_cols));
  stage->encoder = std::move(encoder);

  // Quantile grids for the frequency estimator's continuous features.
  stage->feature_disc.resize(num_features);
  if (options.estimator == learn::EstimatorKind::kFrequency) {
    for (size_t j = 0; j < num_features; ++j) {
      const size_t col = vschema.IndexOf(feature_cols[j]).value();
      if (vschema.attribute(col).type != ValueType::kDouble) continue;
      const Column& c = cview.col(col);
      if (c.kind == ColumnKind::kCode) continue;
      std::vector<double> values;
      values.reserve(n);
      for (size_t r = 0; r < n; ++r) {
        if (c.is_null(r)) continue;
        auto v = ReadColumnDouble(cview, c, r);
        if (v.ok()) values.push_back(*v);
      }
      auto disc = learn::QuantileDiscretizer::FitToData(std::move(values), 16);
      if (disc.ok()) stage->feature_disc[j] = *disc;
    }
  }

  // Encoded (and snapped) features, one typed pass per feature into its
  // column of x.
  for (size_t j = 0; j < num_features; ++j) {
    HYPER_ASSIGN_OR_RETURN(std::vector<double> column,
                           stage->encoder->EncodeColumn(cview, j));
    for (size_t r = 0; r < n; ++r) {
      stage->x.Set(r, j, stage->SnapFeature(j, column[r]));
    }
  }

  // Residual groups: rows numbered by first appearance of their residual
  // key, the bits of their non-update features (update features come first
  // in the layout). A Set-update evaluation with no psi features then
  // resolves each affected row's batch slot from its group id instead of
  // grouping the full feature point per row; both groupings compare bits,
  // so the slot assignment is identical.
  const size_t first = q.updates.size();
  GroupingTable residual(num_features - first);
  stage->residual_gid.resize(n);
  for (size_t r = 0; r < n; ++r) {
    stage->residual_gid[r] = residual.Insert(stage->x.row(r) + first);
  }
  stage->residual_groups = static_cast<uint32_t>(residual.size());

  // HypeR-sampled training rows, gathered from x.
  if (options.sample_size > 0 && options.sample_size < n) {
    Rng rng(options.seed);
    stage->train_rows = rng.SampleWithoutReplacement(n, options.sample_size);
    const size_t m = stage->train_rows.size();
    if (guard != nullptr) {
      HYPER_RETURN_NOT_OK(guard->ChargeBytes(m * dims * sizeof(double),
                                             "whatif.prepare.learn"));
    }
    stage->sampled_x = learn::FeatureMatrix(m, dims);
    for (size_t i = 0; i < m; ++i) {
      std::copy_n(stage->x.row(stage->train_rows[i]), dims,
                  stage->sampled_x.mutable_row(i));
    }
  }
  const learn::FeatureMatrix& train_x = stage->train_x();
  const size_t m = train_x.num_rows();

  // Bin the training matrix once for histogram forest training; every
  // pattern estimator and every tree shares these codes. (Binning is
  // deterministic in the matrix alone, so plans trained from a shared
  // binned image are bit-identical to independently trained ones.)
  if (options.estimator == learn::EstimatorKind::kForest &&
      options.forest.tree.use_histograms) {
    HYPER_ASSIGN_OR_RETURN(learn::BinnedMatrix binned,
                           learn::BinnedMatrix::Build(train_x));
    stage->train_binned = std::move(binned);
  }

  // Training targets for the value estimators: the output expression
  // evaluated observationally over the training rows (Post reads the pre
  // image). A training row must evaluate cleanly — errors fail the build.
  if (q.output_value != nullptr) {
    HYPER_ASSIGN_OR_RETURN(
        relational::CompiledExpr ce,
        relational::CompiledExpr::Compile(*q.output_value, scope.scope));
    HYPER_ASSIGN_OR_RETURN(relational::ColumnBoundExpr be,
                           relational::ColumnBoundExpr::Bind(ce, cview));
    stage->y_obs.resize(m);
    // Evaluate the full column once, then gather the training rows. If the
    // tree is kernel-ineligible or any training row errored (division by
    // zero is the only error an eligible tree can raise), the per-row loop
    // runs instead, so the build fails with the per-row error and ordering.
    bool done = false;
    std::vector<double> all;
    std::vector<uint8_t> err;
    if (be.TryEvalDoubleKernel(&all, &err,
                               ThreadPool::ResolveBudget(options.num_threads))) {
      bool any_err = false;
      for (size_t i = 0; i < m; ++i) any_err |= err[stage->train_row(i)] != 0;
      if (!any_err) {
        for (size_t i = 0; i < m; ++i) {
          stage->y_obs[i] = all[stage->train_row(i)];
        }
        done = true;
      }
    }
    if (!done) {
      LoopCheck gov_loop(guard);
      for (size_t i = 0; i < m; ++i) {
        if (gov_loop.Due()) {
          HYPER_RETURN_NOT_OK(guard->Check("whatif.prepare.learn"));
        }
        HYPER_ASSIGN_OR_RETURN(relational::Scalar v,
                               be.Eval(stage->train_row(i)));
        HYPER_ASSIGN_OR_RETURN(stage->y_obs[i], v.AsDouble());
      }
    }
  }
  return std::shared_ptr<const LearnStageData>(std::move(stage));
}

/// Fills stage->row_entry for holes that read no post image: evaluates them
/// once per row over the pre image and resolves each distinct hole vector
/// to its entry, in row order. If any row's hole evaluation or entry
/// resolution fails, no ids are stored and the plan still builds: Evaluate
/// then takes the per-row path, which reports that error at that row. Only
/// a governance abort fails the build.
Status ResolveRowEntries(PreparedWhatIf::Impl* stage, const ExecGuard* guard,
                         size_t threads) {
  const ColumnTable& cview = stage->scope->cview;
  const size_t n = cview.num_rows();
  std::vector<relational::ColumnBoundExpr> hole_eval;
  hole_eval.reserve(stage->hole_compiled.size());
  for (const relational::CompiledExpr& ce : stage->hole_compiled) {
    auto be = relational::ColumnBoundExpr::Bind(ce, cview);
    if (!be.ok()) return Status::OK();
    hole_eval.push_back(std::move(be).value());
  }
  std::vector<uint32_t> row_entry(n);
  std::vector<Value> holes;
  LoopCheck gov_loop(guard);
  // The stage is not published yet, so the entry lock is uncontended.
  MutexLock lock(&stage->mu);
  for (size_t r = 0; r < n; ++r) {
    if (gov_loop.Due()) {
      HYPER_RETURN_NOT_OK(guard->Check("whatif.prepare.query"));
    }
    holes.clear();
    for (const relational::ColumnBoundExpr& he : hole_eval) {
      auto s = he.Eval(r);
      if (!s.ok()) return Status::OK();
      holes.push_back(s->ToValue());
    }
    auto id = stage->ResolveEntryLocked(holes, threads);
    if (!id.ok()) return Status::OK();
    row_entry[r] = *id;
  }
  stage->row_entry = std::move(row_entry);
  return Status::OK();
}

/// Builds the QueryStage payload into `stage`, whose upstream stage
/// pointers the caller has already set; its segment kernels run on at most
/// `threads` threads.
Status BuildQueryStage(PreparedWhatIf::Impl* stage, CompiledWhatIf q,
                       const ExecGuard* guard, size_t threads) {
  stage->q = std::move(q);
  const ColumnTable& cview = stage->scope->cview;
  const size_t n = cview.num_rows();
  if (guard != nullptr) {
    HYPER_RETURN_NOT_OK(guard->ChargeRows(n, "whatif.prepare.query"));
  }

  // S membership from the When predicate, via the vectorized mask kernel.
  // The mask is kept in its 0/1-byte form: it feeds PostImage::set_active
  // and the branch-free per-row loops directly.
  HYPER_ASSIGN_OR_RETURN(
      stage->in_s,
      relational::EvalPredicateMask(stage->q.when.get(), cview, threads));
  stage->updated = simd::MaskCount(stage->in_s.data(), n);

  // Observed output values (Sum/Avg only), via the compiled output
  // expression evaluated observationally (Post reads the pre image).
  if (stage->q.output_value != nullptr) {
    HYPER_ASSIGN_OR_RETURN(
        relational::CompiledExpr ce,
        relational::CompiledExpr::Compile(*stage->q.output_value,
                                          stage->scope->scope));
    HYPER_ASSIGN_OR_RETURN(relational::ColumnBoundExpr be,
                           relational::ColumnBoundExpr::Bind(ce, cview));
    stage->out_eval = std::move(be);
    // All-row output values, evaluated once: the Evaluate hot loop reads
    // them directly. Errors do not fail the build — they are recorded and
    // reproduced only if Evaluate actually consults that row. The numeric
    // kernel only fires on trees whose sole reachable error is division by
    // zero, and it reports exactly those rows in out_err; ineligible trees
    // fill the same (out_all, out_err) pair row by row.
    if (!stage->out_eval->TryEvalDoubleKernel(&stage->out_all,
                                              &stage->out_err, threads)) {
      stage->out_all.assign(n, 0.0);
      stage->out_err.assign(n, 0);
      LoopCheck gov_loop(guard);
      for (size_t r = 0; r < n; ++r) {
        if (gov_loop.Due()) {
          HYPER_RETURN_NOT_OK(guard->Check("whatif.prepare.query"));
        }
        auto vr = stage->out_eval->Eval(r);
        if (vr.ok()) {
          auto dr = vr->AsDouble();
          if (dr.ok()) {
            stage->out_all[r] = *dr;
            continue;
          }
        }
        stage->out_err[r] = 1;
      }
    }
  }

  // Hole plan for the For predicate: compile every maximal determined
  // subtree once. Binding against the intervention's post image happens per
  // evaluation (bindings are cheap; compilation is not).
  stage->holes_row_invariant = true;
  if (stage->q.for_pred != nullptr) {
    std::unordered_set<const Expr*> random_nodes;
    MarkRandom(*stage->q.for_pred, stage->causal->plan.random_cols,
               &random_nodes);
    CollectHoles(*stage->q.for_pred, random_nodes, &stage->hole_exprs,
                 &stage->hole_of);
    stage->hole_compiled.reserve(stage->hole_exprs.size());
    for (const Expr* h : stage->hole_exprs) {
      HYPER_ASSIGN_OR_RETURN(
          relational::CompiledExpr ce,
          relational::CompiledExpr::Compile(*h, stage->scope->scope));
      stage->hole_compiled.push_back(std::move(ce));
      // A hole without column references (a constant threshold, an
      // arithmetic of literals) folds to the same value for every tuple.
      std::vector<std::string> refs;
      sql::CollectColumnRefs(*h, &refs);
      if (!refs.empty()) stage->holes_row_invariant = false;
    }
  }
  const bool reads_post = std::any_of(
      stage->hole_compiled.begin(), stage->hole_compiled.end(),
      [](const relational::CompiledExpr& ce) { return ce.references_post(); });
  if (!stage->holes_row_invariant && !reads_post) {
    HYPER_RETURN_NOT_OK(ResolveRowEntries(stage, guard, threads));
  }
  return Status::OK();
}

/// GetOrBuild through the context's stage cache when Prepare has one, a
/// plain build otherwise.
template <typename T, typename Factory>
Result<std::shared_ptr<const T>> StagedOrFresh(const StageContext* ctx,
                                               bool staged, StageKind kind,
                                               const std::string& key,
                                               const Factory& factory,
                                               bool* hit = nullptr) {
  if (!staged) return factory();
  HYPER_ASSIGN_OR_RETURN(
      StageProvider::StagePtr ptr,
      ctx->stages->GetOrBuild(
          kind, key,
          [&]() -> Result<StageProvider::StagePtr> {
            HYPER_ASSIGN_OR_RETURN(std::shared_ptr<const T> stage, factory());
            return std::static_pointer_cast<const void>(stage);
          },
          hit));
  return std::static_pointer_cast<const T>(ptr);
}

/// The relation holding `update_attr0`, with BuildRelevantView's
/// cross-relation check mirrored: it is the one attr0-specific validation a
/// relation-keyed ScopeStage hit would skip.
Result<std::string> UpdateRelationOf(const Database& db,
                                     const sql::UseClause& use,
                                     const std::string& update_attr0) {
  HYPER_ASSIGN_OR_RETURN(std::string update_relation,
                         db.RelationOfAttribute(update_attr0));
  if (use.is_table() && use.table != update_relation) {
    HYPER_ASSIGN_OR_RETURN(const Table* named, db.GetTable(use.table));
    if (!named->schema().Contains(update_attr0)) {
      return Status::InvalidArgument(
          "Use relation '" + use.table + "' does not contain the update "
          "attribute '" + update_attr0 + "'");
    }
  }
  return update_relation;
}

/// The ScopeStage of (`use`, update relation) for the context's data
/// snapshot, through its scope section when there is a stage cache.
Result<std::shared_ptr<const ScopeStageData>> ScopeStageFor(
    const Database& db, const sql::UseClause& use,
    const std::string& update_attr0, const std::string& update_relation,
    const StageContext* ctx, const ExecGuard* guard) {
  const bool staged = ctx != nullptr && ctx->stages != nullptr;
  return StagedOrFresh<ScopeStageData>(
      ctx, staged, StageKind::kScope,
      staged ? ScopeStageKey(ctx->data_scope, use, update_relation)
             : std::string(),
      [&] {
        return BuildScopeStage(db, use, update_attr0, update_relation, ctx,
                               guard);
      });
}

}  // namespace

PreparedWhatIf::PreparedWhatIf() : impl_(std::make_unique<Impl>()) {}
PreparedWhatIf::~PreparedWhatIf() = default;

Result<std::shared_ptr<const PreparedWhatIf>> WhatIfEngine::Prepare(
    const sql::WhatIfStmt& stmt, const StageContext* ctx,
    bool* cache_hit) const {
  if (cache_hit != nullptr) *cache_hit = false;
  if (stmt.updates.empty()) {
    return Status::InvalidArgument("what-if query requires an Update clause");
  }
  const bool staged = ctx != nullptr && ctx->stages != nullptr;
  const std::string& update_attr0 = stmt.updates[0].attribute;
  HYPER_ASSIGN_OR_RETURN(std::string update_relation,
                         UpdateRelationOf(*db_, stmt.use, update_attr0));

  // The CausalStage is value-independent for table views without
  // cross-tuple edges (overrides never change the data shape), so its key
  // then carries only the shape scope and every branch of a generation
  // shares one entry. Cross-tuple edges or select views make blocks (or the
  // view shape itself) depend on cell values: fall back to the full data
  // scope.
  std::string causal_key;
  if (staged) {
    const bool any_cross_tuple =
        graph_ != nullptr && graph_->HasCrossTupleEdges();
    const bool shape_keyed =
        stmt.use.is_table() && !any_cross_tuple && !ctx->shape_scope.empty();
    causal_key =
        CausalStageKey(shape_keyed ? ctx->shape_scope : ctx->data_scope, stmt,
                       update_relation, options_);
  }

  return StagedOrFresh<PreparedWhatIf>(
      ctx, staged, StageKind::kQuery,
      staged ? QueryStageKey(causal_key, ctx->data_scope, stmt, options_)
             : std::string(),
      [&] { return BuildPlan(stmt, ctx, update_relation, causal_key); },
      cache_hit);
}

Result<std::shared_ptr<const PreparedWhatIf>> WhatIfEngine::BuildPlan(
    const sql::WhatIfStmt& stmt, const StageContext* ctx,
    const std::string& update_relation, const std::string& causal_key) const {
  Stopwatch prep_timer;
  const bool staged = ctx != nullptr && ctx->stages != nullptr;
  const std::string& update_attr0 = stmt.updates[0].attribute;

  // One guard for the whole prepare (pre-armed by the caller when a single
  // deadline must span more than this call). Checked before every stage and
  // inside the builders' hot loops. An abort inside a stage factory returns
  // a typed error Result, which the stage cache propagates to every
  // coalesced waiter exactly once and never stores — so a governed abort
  // cannot leave a partial stage behind, and a retry rebuilds from scratch.
  const ExecGuardPtr guard = GuardFor(options_);

  // --- ScopeStage: relevant view + columnar image --------------------------
  if (guard != nullptr) {
    HYPER_RETURN_NOT_OK(guard->Check("whatif.prepare.scope"));
  }
  HYPER_ASSIGN_OR_RETURN(
      std::shared_ptr<const ScopeStageData> scope_stage,
      ScopeStageFor(*db_, stmt.use, update_attr0, update_relation, ctx,
                    guard.get()));
  const size_t n = scope_stage->cview.num_rows();
  if (n == 0) {
    return Status::InvalidArgument("relevant view is empty");
  }

  // Statement compilation against the shared view is cheap (AST clones +
  // validation); it runs per build so every stage below can consult the
  // compiled shape.
  HYPER_ASSIGN_OR_RETURN(CompiledWhatIf q,
                         CompileWhatIfAgainst(scope_stage->view_info, stmt));

  // --- CausalStage: backdoor plan + ground blocks --------------------------
  if (guard != nullptr) {
    HYPER_RETURN_NOT_OK(guard->Check("whatif.prepare.causal"));
  }
  HYPER_ASSIGN_OR_RETURN(
      std::shared_ptr<const CausalStageData> causal_stage,
      (StagedOrFresh<CausalStageData>(
          ctx, staged, StageKind::kCausal, causal_key, [&] {
            return BuildCausalStage(*scope_stage, q, *db_, ctx, graph_,
                                    options_, guard.get());
          })));

  // --- LearnStage: encoders + training matrix + estimator cache -----------
  // Keyed by the delta restricted to the attributes training reads: a
  // branch whose delta misses the adjustment set / features / For-Output
  // references reuses the parent's LearnStage (and its trained estimators)
  // outright.
  std::string learn_key;
  if (staged) {
    const bool restricted = stmt.use.is_table() && ctx->overrides != nullptr &&
                            !ctx->shape_scope.empty();
    learn_key = LearnStageKey(
        causal_key,
        restricted ? RestrictedDeltaScope(
                         *db_, *ctx, q.view_info->update_relation,
                         LearnDependencyColumns(q, causal_stage->plan))
                   : ctx->data_scope,
        options_);
  }
  if (guard != nullptr) {
    HYPER_RETURN_NOT_OK(guard->Check("whatif.prepare.learn"));
  }
  HYPER_ASSIGN_OR_RETURN(
      std::shared_ptr<const LearnStageData> learn_stage,
      (StagedOrFresh<LearnStageData>(
          ctx, staged, StageKind::kLearn, learn_key, [&] {
            return BuildLearnStage(*scope_stage, *causal_stage, q, options_,
                                   guard.get());
          })));

  // --- QueryStage: hole plan + per-row constants ---------------------------
  if (guard != nullptr) {
    HYPER_RETURN_NOT_OK(guard->Check("whatif.prepare.query"));
  }
  std::shared_ptr<PreparedWhatIf> prepared(new PreparedWhatIf());
  PreparedWhatIf::Impl& im = *prepared->impl_;
  im.scope = std::move(scope_stage);
  im.causal = std::move(causal_stage);
  im.learn = std::move(learn_stage);
  HYPER_RETURN_NOT_OK(
      BuildQueryStage(&im, std::move(q), guard.get(),
                      ThreadPool::ResolveBudget(options_.num_threads)));

  for (const UpdateSpec& u : im.q.updates) {
    prepared->update_attributes_.push_back(u.attribute);
  }
  prepared->backdoor_ = im.causal->plan.backdoor_causal;
  prepared->view_rows_ = n;
  prepared->updated_rows_ = im.updated;
  prepared->prepare_seconds_ = prep_timer.ElapsedSeconds();
  return std::shared_ptr<const PreparedWhatIf>(std::move(prepared));
}

Result<ScopeSelection> WhatIfEngine::SelectScope(
    const sql::UseClause& use, const std::string& update_attr0,
    const sql::Expr* when, const StageContext* ctx) const {
  HYPER_ASSIGN_OR_RETURN(std::string update_relation,
                         UpdateRelationOf(*db_, use, update_attr0));
  const ExecGuardPtr guard = GuardFor(options_);
  HYPER_ASSIGN_OR_RETURN(
      std::shared_ptr<const ScopeStageData> stage,
      ScopeStageFor(*db_, use, update_attr0, update_relation, ctx,
                    guard.get()));
  HYPER_ASSIGN_OR_RETURN(
      std::vector<uint8_t> in_s,
      relational::EvalPredicateMask(
          when, stage->cview, ThreadPool::ResolveBudget(options_.num_threads)));
  ScopeSelection out;
  out.rows.reserve(simd::MaskCount(in_s.data(), in_s.size()));
  for (size_t r = 0; r < in_s.size(); ++r) {
    if (in_s[r] != 0) out.rows.push_back(r);
  }
  out.image = std::shared_ptr<const ColumnTable>(stage, &stage->cview);
  return out;
}

Result<std::string> WhatIfEngine::ExplainSql(const std::string& text) const {
  HYPER_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseSql(text));
  if (stmt.whatif == nullptr) {
    return Status::InvalidArgument("expected a what-if statement");
  }
  return Explain(*stmt.whatif);
}

Result<std::string> WhatIfEngine::Explain(const sql::WhatIfStmt& stmt) const {
  HYPER_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedWhatIf> prepared,
                         Prepare(stmt));
  const PreparedWhatIf::Impl& im = *prepared->impl_;
  const WhatIfPlan& plan = im.causal->plan;
  const Schema& vschema = im.scope->cview.schema();

  std::string out;
  out += StrFormat("relevant view: %s over relation '%s' (%zu rows, %zu "
                   "attributes)\n",
                   vschema.relation_name().c_str(),
                   im.q.view_info->update_relation.c_str(),
                   prepared->view_rows(), vschema.num_attributes());
  if (im.q.when != nullptr) {
    out += "when: " + im.q.when->ToString() +
           StrFormat("  -> S has %zu tuple(s)\n", prepared->updated_rows());
  } else {
    out += StrFormat("when: (absent) -> S = all %zu tuples\n",
                     prepared->updated_rows());
  }
  // The plan ignores update constants; the statement carries them.
  for (const UpdateSpec& u : SpecsOfStatement(stmt)) {
    out += StrFormat("update: %s <- %s(%s)\n", u.attribute.c_str(),
                     sql::UpdateFuncKindName(u.func),
                     u.constant.ToString().c_str());
  }
  out += std::string("output: ") + sql::AggKindName(im.q.output_agg);
  if (im.q.output_value != nullptr) {
    out += " of " + im.q.output_value->ToString();
  }
  out += "\n";
  if (im.q.for_pred != nullptr) {
    out += "for: " + im.q.for_pred->ToString() + "\n";
  }

  out += std::string("backdoor mode: ") + BackdoorModeName(plan.mode) + "\n";
  const std::vector<std::string> targets(plan.target_cols.begin(),
                                         plan.target_cols.end());
  out += "  adjust (" + Join(prepared->update_attributes(), ", ") + " -> " +
         (targets.empty() ? std::string("(none)") : Join(targets, ", ")) +
         "): {" + Join(prepared->backdoor(), ", ") + "}\n";
  out += std::string("estimator: ") +
         learn::EstimatorKindName(options_.estimator);
  if (options_.sample_size > 0) {
    out += StrFormat(" (training sample %zu)", options_.sample_size);
  }
  out += "\n";
  return out;
}

namespace {

/// The per-intervention fifth of a what-if run, against a prepared plan.
/// Its row-order passes fold per ColumnTable::kSegmentRows segment on at
/// most `threads` threads, the calling thread included; a pattern it trains
/// trains its forest on `train_threads` (TrainThreads).
Result<WhatIfResult> EvaluatePrepared(const PreparedWhatIf::Impl& im,
                                      const std::vector<UpdateSpec>& updates,
                                      const ExecGuard* guard, size_t threads,
                                      size_t train_threads) {
  Stopwatch eval_timer;
  WhatIfResult result;
  const ScopeStageData& sc = *im.scope;
  const CausalStageData& ca = *im.causal;
  const LearnStageData& le = *im.learn;
  const PreparedWhatIf::Impl& qs = im;  // the QueryStage
  using Entry = PreparedWhatIf::Impl::Entry;
  const CompiledWhatIf& q = qs.q;
  const ColumnTable& cview = sc.cview;
  const size_t n = cview.num_rows();
  const std::vector<size_t>& update_cols = ca.plan.update_cols;
  const std::vector<WhatIfPlan::PsiSpec>& psi_specs = ca.plan.psi_specs;
  const std::vector<uint8_t>& in_s = qs.in_s;
  const size_t updated = qs.updated;
  const size_t num_features = ca.plan.feature_cols.size();

  result.view_rows = n;
  result.updated_rows = updated;
  result.num_blocks = ca.num_blocks;
  result.backdoor = ca.plan.backdoor_causal;

  if (guard != nullptr) {
    HYPER_RETURN_NOT_OK(guard->ChargeRows(n, "whatif.eval.rows"));
  }

  // The intervention must target the plan's update attributes in order;
  // constants and update functions are free.
  if (updates.size() != q.updates.size()) {
    return Status::InvalidArgument(StrFormat(
        "intervention has %zu update(s); the prepared plan expects %zu",
        updates.size(), q.updates.size()));
  }
  for (size_t j = 0; j < updates.size(); ++j) {
    if (updates[j].attribute != q.updates[j].attribute) {
      return Status::InvalidArgument(
          "intervention update attribute '" + updates[j].attribute +
          "' does not match the prepared plan's '" + q.updates[j].attribute +
          "'");
    }
  }

  // Deterministic post image u = f(b) on S, held as per-attribute overrides
  // instead of materialized post rows: Set updates are a constant, scale and
  // shift are per-row doubles over S.
  struct UpdatePost {
    bool is_set = true;
    std::vector<double> per_row;  // valid on S rows for scale/shift
  };
  std::vector<UpdatePost> upost(updates.size());
  relational::PostImage post_image;
  for (size_t j = 0; j < updates.size(); ++j) {
    const UpdateSpec& u = updates[j];
    if (u.func == sql::UpdateFuncKind::kSet) {
      upost[j].is_set = true;
      post_image.SetConst(update_cols[j], u.constant);
      continue;
    }
    upost[j].is_set = false;
    upost[j].per_row.assign(n, 0.0);
    if (updated > 0) {
      HYPER_ASSIGN_OR_RETURN(double c, u.constant.AsDouble());
      const Column& col = cview.col(update_cols[j]);
      if (!col.has_nulls() && col.kind != ColumnKind::kCode) {
        // Null-free numeric column: widen once, then a branch-free select.
        // Rows outside S keep the 0.0 the assign above wrote, exactly like
        // the skipping loop below.
        std::vector<double> pre(n);
        WidenColumn(col, n, pre.data());
        const bool is_scale = u.func == sql::UpdateFuncKind::kScale;
        double* out = upost[j].per_row.data();
        for (size_t r = 0; r < n; ++r) {
          const double v = is_scale ? c * pre[r] : c + pre[r];
          out[r] = in_s[r] != 0 ? v : 0.0;
        }
      } else {
        // NULLs and strings: only S rows are read, so only they can fail.
        for (size_t r = 0; r < n; ++r) {
          if (!in_s[r]) continue;
          HYPER_ASSIGN_OR_RETURN(double p, ReadColumnDouble(cview, col, r));
          upost[j].per_row[r] =
              u.func == sql::UpdateFuncKind::kScale ? c * p : c + p;
        }
      }
    }
    post_image.SetPerRowDouble(update_cols[j], upost[j].per_row);
  }
  post_image.set_active(&in_s);

  // Post-update psi group means from the precomputed pre sums. Without psi
  // features the changed mask stays unallocated — readers treat empty as
  // all-zero — so psi-free evaluations skip an n-byte zeroed allocation.
  std::vector<std::vector<double>> psi_post(psi_specs.size());
  std::vector<uint8_t> psi_changed(psi_specs.empty() ? 0 : n, 0);
  for (size_t p = 0; p < psi_specs.size(); ++p) {
    const WhatIfPlan::PsiSpec& spec = psi_specs[p];
    const LearnStageData::PsiPrep& prep = le.psi[p];
    const UpdatePost& up = upost[spec.update_index];
    double set_double = 0.0;
    if (up.is_set && updated > 0) {
      HYPER_ASSIGN_OR_RETURN(set_double,
                             updates[spec.update_index].constant.AsDouble());
    }
    std::vector<double> sum_post(prep.counts.size(), 0.0);
    for (size_t r = 0; r < n; ++r) {
      const double post_b =
          in_s[r] ? (up.is_set ? set_double : up.per_row[r]) : prep.pre_b[r];
      sum_post[prep.gid[r]] += post_b;
    }
    psi_post[p].resize(n);
    for (size_t r = 0; r < n; ++r) {
      const uint32_t g = prep.gid[r];
      psi_post[p][r] = sum_post[g] / static_cast<double>(prep.counts[g]);
      if (std::fabs(le.x.At(r, num_features + p) - psi_post[p][r]) > 1e-12) {
        psi_changed[r] = 1;
      }
    }
  }

  const uint8_t* psic = psi_changed.empty() ? nullptr : psi_changed.data();

  // Encoded Set-update feature values (one per update, not per row).
  std::vector<double> set_feature(updates.size(), 0.0);
  if (updated > 0) {
    for (size_t j = 0; j < updates.size(); ++j) {
      if (!upost[j].is_set) continue;
      HYPER_ASSIGN_OR_RETURN(double f,
                             le.encoder->EncodeValue(j, updates[j].constant));
      set_feature[j] = le.SnapFeature(j, f);
    }
  }

  // Bind the hole plan against this intervention's post image.
  std::vector<relational::ColumnBoundExpr> hole_eval;
  hole_eval.reserve(qs.hole_compiled.size());
  for (const relational::CompiledExpr& ce : qs.hole_compiled) {
    HYPER_ASSIGN_OR_RETURN(
        relational::ColumnBoundExpr be,
        relational::ColumnBoundExpr::Bind(ce, cview, &post_image));
    hole_eval.push_back(std::move(be));
  }

  /// Post-update feature point of row r, written into dst[0..dims).
  const size_t dims = num_features + psi_specs.size();
  auto emit_features = [&](size_t r, double* dst) {
    const double* pre = le.x.row(r);
    for (size_t j = 0; j < updates.size(); ++j) {
      if (!in_s[r]) {
        dst[j] = pre[j];
      } else if (upost[j].is_set) {
        dst[j] = set_feature[j];
      } else {
        dst[j] = le.SnapFeature(j, upost[j].per_row[r]);
      }
    }
    std::copy(pre + updates.size(), pre + num_features, dst + updates.size());
    for (size_t p = 0; p < psi_specs.size(); ++p) {
      dst[num_features + p] = psi_post[p][r];
    }
  };

  // Batched-inference state, spanning the whole evaluation (predictions are
  // block-independent; only the accumulation is per block). Affected rows
  // are deduplicated per residual pattern — rows sharing a post-update
  // feature point (common with discrete adjustment sets and a Set
  // intervention) share one prediction slot, since estimators are pure
  // functions of the point. One PredictBatch per estimator then covers the
  // distinct points (PredictBatch returns exactly what Predict returns per
  // point); Pass B just reads its row's slot.
  struct EntryBatch {
    std::vector<double> feat;  // row-major distinct points, dims wide
    std::vector<double> weights, values;  // per slot
  };
  std::vector<EntryBatch> batches;

  // The row-order passes run per fixed segment of kSegmentRows rows (a
  // union of whole blocks in the row-order layouts). A view of one segment
  // runs each pass as one loop on the calling thread; a larger view runs
  // its segments on the pool, at most `threads` at once, and merges their
  // results in segment order. Segment bounds depend on n alone, so no
  // result depends on the budget.
  constexpr size_t kSegmentRows = ColumnTable::kSegmentRows;
  const size_t num_segments = (n + kSegmentRows - 1) / kSegmentRows;
  const auto for_each_segment = [&](const auto& pass) {
    const auto run = [&](size_t first, size_t last) {
      for (size_t s = first; s < last; ++s) {
        pass(s, s * kSegmentRows, std::min(n, (s + 1) * kSegmentRows));
      }
    };
    if (num_segments <= 1 || threads <= 1) {
      run(0, num_segments);
    } else {
      ThreadPool::Shared().ParallelForRange(num_segments, /*grain=*/1, run,
                                            threads);
    }
  };
  // Guard checkpoints per stride instead of per row in the hot loops: the
  // bodies are a few loads, so a stride keeps cancellation latency in the
  // microseconds while removing the per-row counter. Segments start on a
  // stride boundary.
  constexpr size_t kGuardStride = 4096;

  // Pass A: resolve each row to its residual entry, make sure the pattern
  // estimators needed by affected rows are trained, and gather the
  // deduplicated feature points. The entry cache lives on the
  // QueryStage, the pattern-estimator cache on the LearnStage (shared
  // across every plan assembled on it); evaluations snapshot raw pointers
  // so Pass B runs lock-free.
  Stopwatch::Clock::duration train_time{};
  // Row-invariant holes (constant thresholds, or no For predicate at all):
  // every row folds to the same residual, so resolve the shared entry once
  // and skip the per-row hole evaluation + cache lookup entirely.
  const bool uniform = qs.holes_row_invariant;
  // Holes that read no post image: Prepare resolved every row's entry, so
  // a row's entry is one array read and the plan's entry list is complete.
  const bool resolved = !qs.row_entry.empty();
  const bool all_set = [&] {
    for (const UpdatePost& u : upost) {
      if (!u.is_set) return false;
    }
    return true;
  }();
  // Only the per-row path (holes over a post image) needs a row -> entry
  // map of its own; the others read uniform_id or qs.row_entry.
  std::vector<uint32_t> entry_of_row(uniform || resolved ? 0 : n);
  std::vector<const Entry*> local_entries;
  std::vector<const PatternEstimators*> pattern_of_entry;
  std::unordered_map<std::vector<Value>, uint32_t, ValueVectorHash,
                     ValueVectorEq>
      local_cache;
  std::unordered_set<const PatternEstimators*> used_patterns;
  size_t pattern_hits = 0;
  std::vector<Value> scratch;
  std::vector<double> point(dims);
  auto grow_local = [&](uint32_t id) {
    if (id >= local_entries.size()) {
      local_entries.resize(id + 1, nullptr);
      pattern_of_entry.resize(id + 1, nullptr);
    }
  };
  uint32_t uniform_id = 0;
  if (uniform) {
    for (const relational::ColumnBoundExpr& he : hole_eval) {
      HYPER_ASSIGN_OR_RETURN(relational::Scalar s, he.Eval(0));
      scratch.push_back(s.ToValue());
    }
    MutexLock lock(&qs.mu);
    HYPER_ASSIGN_OR_RETURN(uniform_id,
                           qs.ResolveEntryLocked(scratch, threads));
    grow_local(uniform_id);
    local_entries[uniform_id] = qs.entries[uniform_id].get();
  } else if (resolved) {
    MutexLock lock(&qs.mu);
    for (const auto& e : qs.entries) local_entries.push_back(e.get());
    pattern_of_entry.resize(local_entries.size(), nullptr);
  }
  const uint32_t* row_entry =
      resolved ? qs.row_entry.data() : entry_of_row.data();
  const size_t num_entries = local_entries.size();

  // Trains (or fetches) the pattern estimators of entry `id` on the
  // LearnStage. Entries are immutable once published, so the residual
  // evaluates outside the entry lock.
  auto ensure_pattern = [&](uint32_t id) -> Result<const PatternEstimators*> {
    const Entry& e = *local_entries[id];
    bool was_cached = false;
    HYPER_ASSIGN_OR_RETURN(
        const PatternEstimators* pat,
        le.EnsurePattern(e.key, e.is_literal, e.literal_value,
                         e.exact.has_value() ? &*e.exact : nullptr,
                         &was_cached, &train_time, guard, threads,
                         train_threads));
    pattern_of_entry[id] = pat;
    if (used_patterns.insert(pat).second && was_cached) ++pattern_hits;
    return pat;
  };

  // Grouped Pass A — entries known per row (row-invariant or resolved
  // holes), Set updates only, no psi features: every affected row's
  // post-update point is (constant set features) ++ (its non-update feature
  // bytes), so within one entry the LearnStage's residual grouping IS the
  // dedup, and a row's batch slot is its (entry, residual group) key's.
  // Each segment lists, in row order, the affected rows that first meet a
  // key within it; one sequential merge over the segments in order then
  // meets every key at its first affected row in the view, so per entry
  // the patterns trained, the slots, the gathered feature points and their
  // order are identical to the hashing loop in the else branch below
  // (first appearance in row order, byte equality). The key tables are
  // used while they total at most one key per view row, so a plan with
  // very many entries keeps O(n) scratch by hashing instead.
  const size_t groups = le.residual_groups;
  const uint32_t* gid = le.residual_gid.data();
  const bool grouped = all_set && psi_specs.empty() &&
                       (uniform || (resolved && num_entries * groups <= n));
  // A key is entry * key_stride + group: the group alone for the shared
  // entry, entry * groups + group for resolved entries.
  const size_t key_stride = uniform ? 0 : groups;
  // The batch slot of each key on the grouped path.
  std::vector<uint32_t> slot_of_key;
  // The batch slot of each affected row on the hashing path.
  std::vector<uint32_t> slot_of_row;
  if (grouped) {
    // Sized before the merge: references into it stay valid.
    batches.resize(num_entries);
    slot_of_key.assign(uniform ? groups : num_entries * groups, UINT32_MAX);
    // Per entry: not yet met on an affected row, gathering, or nothing to
    // batch (disqualified, or a literal pattern without an estimator).
    enum : uint8_t { kUnseen, kGather, kSkip };
    std::vector<uint8_t> state(num_entries, kSkip);
    bool any_live = false;
    for (size_t id = 0; id < num_entries; ++id) {
      const Entry* e = local_entries[id];
      if (e != nullptr && !(e->is_literal && !e->literal_value)) {
        state[id] = kUnseen;
        any_live = true;
      }
    }
    if (uniform && any_live) {
      // Without psi the shared entry meets an affected row iff S is not
      // empty; its pattern is fetched up front, as its first affected row
      // would fetch it, and a pattern without an estimator skips the scan.
      any_live = updated > 0;
      if (any_live) {
        HYPER_ASSIGN_OR_RETURN(const PatternEstimators* pat,
                               ensure_pattern(uniform_id));
        any_live = pat->weight != nullptr || pat->value != nullptr;
        state[uniform_id] = any_live ? kGather : kSkip;
      }
    }
    std::vector<std::vector<size_t>> firsts(num_segments);
    std::vector<Status> failed(num_segments);
    // Lists segment s's affected rows that first meet a key in [begin,
    // end); key_of(r) is a row's key, or kNoKey when its entry is skipped.
    // The loop reads local copies only (see Pass B's row body).
    constexpr size_t kNoKey = SIZE_MAX;
    const auto scan = [&](size_t s, size_t begin, size_t end, auto key_of) {
      const uint8_t* affected = in_s.data();
      const ExecGuard* const check = guard;
      std::vector<uint8_t> met(slot_of_key.size(), 0);
      uint8_t* const seen = met.data();
      std::vector<size_t> out;
      for (size_t base = begin; base < end; base += kGuardStride) {
        if (check != nullptr) {
          Status st = check->Check("whatif.eval.rows");
          if (!st.ok()) {
            failed[s] = std::move(st);
            return;
          }
        }
        const size_t lim = std::min(end, base + kGuardStride);
        for (size_t r = base; r < lim; ++r) {
          if (!affected[r]) continue;  // psi_changed is all-zero with no psi
          const size_t key = key_of(r);
          if (key == kNoKey || seen[key] != 0) continue;
          seen[key] = 1;
          out.push_back(r);
        }
      }
      firsts[s] = std::move(out);
    };
    if (!any_live) {
      // No affected row can batch: nothing to scan.
    } else if (uniform) {
      // One shared entry, in a scan of its own so that the key is the
      // row's group alone.
      for_each_segment([&](size_t s, size_t begin, size_t end) {
        scan(s, begin, end, [gid](size_t r) -> size_t { return gid[r]; });
      });
    } else {
      const uint8_t* entry_state = state.data();
      for_each_segment([&](size_t s, size_t begin, size_t end) {
        scan(s, begin, end,
             [row_entry, entry_state, key_stride, gid](size_t r) -> size_t {
               const uint32_t id = row_entry[r];
               return entry_state[id] == kSkip
                          ? kNoKey
                          : size_t{id} * key_stride + gid[r];
             });
      });
    }
    for (const Status& st : failed) HYPER_RETURN_NOT_OK(st);
    for (const std::vector<size_t>& rows : firsts) {
      for (const size_t r : rows) {
        const uint32_t id = uniform ? uniform_id : row_entry[r];
        uint32_t& slot = slot_of_key[size_t{id} * key_stride + gid[r]];
        if (slot != UINT32_MAX) continue;  // met in an earlier segment
        if (state[id] == kUnseen) {
          HYPER_ASSIGN_OR_RETURN(const PatternEstimators* pat,
                                 ensure_pattern(id));
          state[id] = pat->weight == nullptr && pat->value == nullptr
                          ? kSkip
                          : kGather;
        }
        if (state[id] == kSkip) continue;
        EntryBatch& eb = batches[id];
        slot = static_cast<uint32_t>(eb.feat.size() / dims);
        emit_features(r, point.data());
        eb.feat.insert(eb.feat.end(), point.begin(), point.end());
      }
    }
  } else {
    // Scale/shift updates or psi features (the feature point varies within
    // a residual group), holes over a post image, or too many entries for
    // the key tables: group each affected row's feature point, one row at a
    // time on the calling thread. A row's slot is its point's id in its
    // entry's table.
    std::vector<GroupingTable> points;
    slot_of_row.assign(n, 0);
    LoopCheck pass_a_check(guard);
    for (size_t r = 0; r < n; ++r) {
      if (pass_a_check.Due()) {
        HYPER_RETURN_NOT_OK(guard->Check("whatif.eval.rows"));
      }
      uint32_t id;
      if (uniform) {
        id = uniform_id;
      } else if (resolved) {
        id = row_entry[r];
      } else {
        scratch.clear();
        for (const relational::ColumnBoundExpr& he : hole_eval) {
          HYPER_ASSIGN_OR_RETURN(relational::Scalar s, he.Eval(r));
          scratch.push_back(s.ToValue());
        }
        auto it = local_cache.find(scratch);
        if (it != local_cache.end()) {
          id = it->second;
        } else {
          MutexLock lock(&qs.mu);
          HYPER_ASSIGN_OR_RETURN(id, qs.ResolveEntryLocked(scratch, threads));
          grow_local(id);
          local_entries[id] = qs.entries[id].get();
          local_cache.emplace(scratch, id);
        }
        entry_of_row[r] = id;
      }
      const Entry& e = *local_entries[id];
      if (e.is_literal && !e.literal_value) continue;  // disqualified
      if (!(in_s[r] || (psic != nullptr && psic[r]))) continue;  // Pass B
      const PatternEstimators* pat = pattern_of_entry[id];
      if (pat == nullptr) {
        HYPER_ASSIGN_OR_RETURN(pat, ensure_pattern(id));
      }
      if (pat->weight == nullptr && pat->value == nullptr) continue;
      if (id >= points.size()) points.resize(id + 1, GroupingTable(dims));
      emit_features(r, point.data());
      slot_of_row[r] = points[id].Insert(point.data());
    }
    batches.resize(points.size());
    for (size_t id = 0; id < points.size(); ++id) {
      const std::vector<uint64_t> bits = std::move(points[id]).TakeKeys();
      batches[id].feat.resize(bits.size());
      std::transform(bits.begin(), bits.end(), batches[id].feat.begin(),
                     [](uint64_t b) { return std::bit_cast<double>(b); });
    }
  }

  // Batched inference: one PredictBatch per (pattern, estimator) over the
  // distinct feature points collected above.
  for (uint32_t id = 0; id < batches.size(); ++id) {
    EntryBatch& eb = batches[id];
    if (eb.feat.empty()) continue;
    const PatternEstimators* pat = pattern_of_entry[id];
    const learn::FeatureMatrix points(dims, std::move(eb.feat));
    if (pat->weight != nullptr) {
      eb.weights.resize(points.num_rows());
      pat->weight->PredictBatch(points, eb.weights);
    }
    if (pat->value != nullptr) {
      eb.values.resize(points.num_rows());
      pat->value->PredictBatch(points, eb.values);
    }
  }

  // Pass B: the row body every loop below runs. It folds tuple r (resolved
  // to entry `id`) into (*num, *den) with prob::AddTuple. An unchanged
  // tuple is exact — weight 1 and its observed output, read from the
  // stage-level caches; a tri-state error mark re-evaluates the row,
  // reproducing its per-row error. An affected tuple reads its pattern's
  // batch slot: its key's on the grouped path, its own on the hashing
  // path. Returns false with *error set when a re-evaluated row fails.
  //
  // The body captures plain pointers and scalars by value, and each fold
  // runs a local copy of it: the segment closures handed to the pool make
  // every local they capture by reference escape, and a value read through
  // such a capture would be re-read on every row.
  const Entry* const* entry_at = local_entries.data();
  const PatternEstimators* const* pattern_at = pattern_of_entry.data();
  const EntryBatch* batch_at = batches.data();
  const uint8_t* affected = in_s.data();
  const relational::ColumnBoundExpr* out_eval =
      qs.out_eval.has_value() ? &*qs.out_eval : nullptr;
  const uint8_t* out_err = qs.out_err.data();
  const double* out_all = qs.out_all.data();
  const uint32_t* key_slot = grouped ? slot_of_key.data() : nullptr;
  const uint32_t* row_slot = slot_of_row.data();
  const sql::AggKind agg = q.output_agg;
  const auto add_row = [entry_at, pattern_at, batch_at, affected, psic,
                        out_eval, out_err, out_all, key_stride, key_slot, gid,
                        row_slot, agg](size_t r, uint32_t id, double* num,
                                       double* den, Status* error)
      __attribute__((always_inline)) {
    const auto slot = [&] {
      return key_slot != nullptr ? key_slot[size_t{id} * key_stride + gid[r]]
                                 : row_slot[r];
    };
    const Entry& e = *entry_at[id];
    if (e.is_literal && !e.literal_value) return true;  // disqualified
    double weight = 1.0, weighted_value = 0.0;
    if (!(affected[r] || (psic != nullptr && psic[r]))) {
      bool qualifies = e.literal_value;
      if (!e.is_literal) {
        const uint8_t v = e.exact_vals.empty() ? 2 : e.exact_vals[r];
        if (v == 2) {
          auto qr = e.exact->EvalBool(r);
          if (!qr.ok()) {
            *error = qr.status();
            return false;
          }
          qualifies = *qr;
        } else {
          qualifies = v != 0;
        }
      }
      if (!qualifies) return true;
      if (out_eval != nullptr) {
        if (out_err[r]) {
          auto vr = out_eval->Eval(r);
          if (!vr.ok()) {
            *error = vr.status();
            return false;
          }
          auto dr = vr->AsDouble();
          if (!dr.ok()) {
            *error = dr.status();
            return false;
          }
          weighted_value = *dr;
        } else {
          weighted_value = out_all[r];
        }
      }
    } else {
      const PatternEstimators* pat = pattern_at[id];
      weight = pat->literal ? (pat->literal_value ? 1.0 : 0.0)
                            : Clamp01(batch_at[id].weights[slot()]);
      if (weight <= 0.0) return true;
      if (pat->value != nullptr) {
        weighted_value = batch_at[id].values[slot()];
      }
    }
    prob::AddTuple(agg, weight, weighted_value, num, den);
    return true;
  };

  prob::BlockAccumulator acc(q.output_agg);
  if (ca.block_rows.empty()) {
    // Row-order fold: one block per row in row order, or one block of every
    // row, folded per segment. A segment's partial starts at +0.0, takes
    // its rows in row order with the same row body and the same += sequence
    // as the block-ordered merge (starting from +0.0 the partial can never
    // be -0.0, so one merge of the segment's flat totals is bit-identical to
    // its singleton merges), and merges into the accumulator in segment
    // order: a view of one segment is one loop and one merge. Errors
    // surface as the first failing row, which is the first failing
    // segment's first failing row.
    struct Partial {
      double num = 0.0, den = 0.0;
      Status status;
    };
    std::vector<Partial> partials(num_segments);
    // Branchless specialization for the dominant serving shape: one shared
    // entry, Count with a trained weight estimator and a cached
    // qualification mask. Every row adds exactly what the generic body
    // adds — non-qualifying and zero-weight rows contribute +0.0, which is
    // bit-identical to skipping them because the partial starts at +0.0 and
    // only ever accumulates non-negative clamped weights (it can never be
    // -0.0). Replacing the affected/unaffected branch with a select removes
    // the data-dependent mispredictions that dominate this loop on mixed
    // selections.
    const Entry* ue = uniform ? local_entries[uniform_id] : nullptr;
    const PatternEstimators* upat =
        uniform ? pattern_of_entry[uniform_id] : nullptr;
    const bool table_disqualified =
        uniform && ue->is_literal && !ue->literal_value;
    const bool turbo_count =
        uniform && !table_disqualified && psi_specs.empty() &&
        q.output_agg == sql::AggKind::kCount && !ue->is_literal &&
        !ue->exact_vals.empty() && upat != nullptr && !upat->literal &&
        upat->weight != nullptr && uniform_id < batches.size() &&
        !batches[uniform_id].weights.empty() && !qs.out_eval.has_value();
    if (table_disqualified) {
      // Every tuple resolves to a disqualified literal entry: the fold is
      // empty and the zero partials below are all that remains.
    } else if (turbo_count) {
      const uint8_t* qual = ue->exact_vals.data();
      const uint8_t* aff = in_s.data();
      // The clamped weight of each key (grouped) or slot (hashing), read
      // per row through index[r]. An unaffected row reads an entry
      // harmlessly — its group's, or slot 0's (weights is non-empty) — and
      // the select keeps only the arm the generic body would take.
      const std::vector<double>& w = batches[uniform_id].weights;
      std::vector<double> clamped;
      const uint32_t* index = nullptr;
      if (grouped) {
        clamped.assign(slot_of_key.size(), 0.0);
        for (size_t g = 0; g < slot_of_key.size(); ++g) {
          if (slot_of_key[g] != UINT32_MAX) {
            clamped[g] = Clamp01(w[slot_of_key[g]]);
          }
        }
        index = gid;
      } else {
        clamped.resize(w.size());
        for (size_t i = 0; i < w.size(); ++i) clamped[i] = Clamp01(w[i]);
        index = slot_of_row.data();
      }
      const double* clamped_at = clamped.data();
      for_each_segment([&](size_t s, size_t begin, size_t end) {
        // Local copies only (see the row body).
        const uint8_t* const qual_at = qual;
        const uint8_t* const aff_at = aff;
        const double* const cw = clamped_at;
        const uint32_t* const index_at = index;
        const relational::ColumnBoundExpr* const exact = &*ue->exact;
        const ExecGuard* const check = guard;
        Partial& p = partials[s];
        double num = 0.0;
        for (size_t base = begin; base < end; base += kGuardStride) {
          if (check != nullptr) {
            Status st = check->Check("whatif.eval.blocks");
            if (!st.ok()) {
              p.status = std::move(st);
              return;
            }
          }
          const size_t lim = std::min(end, base + kGuardStride);
          for (size_t r = base; r < lim; ++r) {
            const bool affd = aff_at[r] != 0;
            const uint8_t v = qual_at[r];
            if (v == 2 && !affd) {  // cache miss: per-row evaluator decides
              Result<bool> qb = exact->EvalBool(r);
              if (!qb.ok()) {
                p.status = qb.status();
                return;
              }
              num += *qb ? 1.0 : 0.0;
              continue;
            }
            const double unw = v != 0 ? 1.0 : 0.0;
            num += affd ? cw[index_at[r]] : unw;
          }
        }
        p.num = num;
      });
    } else {
      for_each_segment([&](size_t s, size_t begin, size_t end) {
        // Local copies only (see the row body).
        const auto row = add_row;
        const uint32_t* const entry_of = uniform ? nullptr : row_entry;
        const uint32_t shared = uniform_id;
        const ExecGuard* const check = guard;
        Partial& p = partials[s];
        double num = 0.0, den = 0.0;
        for (size_t r = begin; r < end; ++r) {
          if (check != nullptr && (r & 63) == 0) {
            Status st = check->Check("whatif.eval.blocks");
            if (!st.ok()) {
              p.status = std::move(st);
              return;
            }
          }
          const uint32_t id = entry_of == nullptr ? shared : entry_of[r];
          if (!row(r, id, &num, &den, &p.status)) return;
        }
        p.num = num;
        p.den = den;
      });
    }
    for (const Partial& p : partials) {
      HYPER_RETURN_NOT_OK(p.status);
      acc.MergeBlockPartial(p.num, p.den);
    }
  } else {
    // Multi-row blocks, on the calling thread: the first failing block
    // returns its status, as the first failing row of the block-ordered
    // scan.
    const auto row = add_row;
    Status error;
    size_t k = 0;
    for (size_t b = 0; b < ca.num_blocks; ++b) {
      double num = 0.0, den = 0.0;
      for (; k < ca.block_end[b]; ++k) {
        if (guard != nullptr && (k & 63) == 0) {
          HYPER_RETURN_NOT_OK(guard->Check("whatif.eval.blocks"));
        }
        const size_t r = ca.block_rows[k];
        const uint32_t id = uniform ? uniform_id : row_entry[r];
        if (!row(r, id, &num, &den, &error)) return error;
      }
      acc.MergeBlockPartial(num, den);
    }
  }

  result.num_patterns = used_patterns.size();
  result.pattern_cache_hits = pattern_hits;
  HYPER_ASSIGN_OR_RETURN(result.value, acc.Finish());
  // Training ran inside this call; it is reported apart from evaluation.
  // Ticks, not seconds, are subtracted, so each figure converts exactly.
  const Stopwatch::Clock::duration wall = eval_timer.Elapsed();
  result.total_seconds = std::chrono::duration<double>(wall).count();
  result.train_seconds = std::chrono::duration<double>(train_time).count();
  result.eval_seconds =
      std::chrono::duration<double>(wall - train_time).count();
  return result;
}

}  // namespace

Result<WhatIfResult> WhatIfEngine::Evaluate(
    const PreparedWhatIf& plan, const std::vector<UpdateSpec>& updates) const {
  const ExecGuardPtr guard = GuardFor(options_);
  return EvaluatePrepared(*plan.impl_, updates, guard.get(),
                          ThreadPool::ResolveBudget(options_.num_threads),
                          TrainThreads(options_, options_.num_threads));
}

Result<std::vector<WhatIfResult>> WhatIfEngine::EvaluateBatch(
    const PreparedWhatIf& plan,
    const std::vector<std::vector<UpdateSpec>>& interventions,
    std::vector<Status>* statuses) const {
  std::vector<WhatIfResult> results(interventions.size());
  // One guard spans the whole batch; a per-item pre-check keeps governance
  // failures per-item when the caller collects statuses, and the sticky
  // abort means every item after the trip reports the same typed status.
  const ExecGuardPtr guard = GuardFor(options_);
  std::vector<Status> item_status(interventions.size());
  // The budget is spent once: across the interventions when there are
  // several, else on the one intervention's segments and training. Every
  // evaluation is deterministic at any budget, so results[i] is bit-for-bit
  // identical to Evaluate(interventions[i]).
  const size_t budget = ThreadPool::ResolveBudget(options_.num_threads);
  const size_t item_budget =
      interventions.size() > 1 ? 1 : options_.num_threads;
  const size_t item_threads = ThreadPool::ResolveBudget(item_budget);
  const size_t train_threads = TrainThreads(options_, item_budget);
  ThreadPool::Shared().ParallelFor(
      interventions.size(),
      [&](size_t i) {
        if (guard != nullptr) {
          Status gs = guard->Check("whatif.eval.batch");
          if (!gs.ok()) {
            item_status[i] = std::move(gs);
            return;
          }
        }
        auto r = EvaluatePrepared(*plan.impl_, interventions[i], guard.get(),
                                  item_threads, train_threads);
        if (!r.ok()) {
          item_status[i] = r.status();
        } else {
          results[i] = std::move(r).value();
        }
      },
      /*max_parallelism=*/budget);
  if (statuses != nullptr) {
    *statuses = std::move(item_status);
    return results;
  }
  for (const Status& s : item_status) {
    HYPER_RETURN_NOT_OK(s);
  }
  return results;
}

}  // namespace hyper::whatif
