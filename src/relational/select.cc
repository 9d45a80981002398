#include "relational/select.h"

#include <unordered_map>

#include "common/logging.h"
#include "common/strings.h"
#include "relational/compiled.h"

namespace hyper::relational {

using sql::AggKind;
using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::SelectStmt;

namespace {

struct Source {
  std::string alias;
  const Table* table = nullptr;
};

/// A joined tuple: row index per source (aligned with the sources vector).
using JoinedTuple = std::vector<size_t>;

/// An equi-join conjunct `a.X = b.Y` between two distinct sources.
struct JoinCondition {
  ResolvedRef lhs;
  ResolvedRef rhs;
};

std::vector<ScopedTuple> MakeScope(const std::vector<Source>& sources) {
  std::vector<ScopedTuple> scope;
  scope.reserve(sources.size());
  for (const Source& s : sources) {
    scope.push_back(ScopedTuple{s.alias, &s.table->schema()});
  }
  return scope;
}

/// Fills the per-slot row frame for one joined tuple (no post images in the
/// select executor).
void FillFrame(const std::vector<Source>& sources, const JoinedTuple& tuple,
               std::vector<BoundRow>* frame) {
  for (size_t s = 0; s < sources.size(); ++s) {
    (*frame)[s].pre = &sources[s].table->row(tuple[s]);
  }
}

/// Derives the output column name for a select item.
std::string ItemName(const sql::SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.agg != AggKind::kNone) {
    std::string base = AggKindName(item.agg);
    if (item.expr != nullptr && item.expr->kind == ExprKind::kColumnRef) {
      base += "_" + item.expr->name;
    }
    return base;
  }
  if (item.expr != nullptr && item.expr->kind == ExprKind::kColumnRef) {
    return item.expr->name;
  }
  return StrFormat("col%zu", index);
}

/// Accumulator for one aggregate select item within one group.
struct AggAccumulator {
  double sum = 0.0;
  size_t count = 0;      // rows contributing to sum (non-null)
  size_t count_rows = 0; // all rows (COUNT(*))

  /// `v` is the already-evaluated item expression (null pointer for
  /// COUNT(*) / '*' items, which have no expression).
  Status Add(const sql::SelectItem& item, const Value* vp) {
    ++count_rows;
    if (vp == nullptr) {
      return Status::OK();
    }
    const Value& v = *vp;
    if (v.is_null()) return Status::OK();
    if (item.agg == AggKind::kCount) {
      // COUNT over a boolean expression counts satisfying rows (the paper's
      // Count(Credit = 'Good') form); over non-boolean it counts non-NULLs.
      if (v.type() == ValueType::kBool) {
        if (v.bool_value()) ++count;
      } else {
        ++count;
      }
      return Status::OK();
    }
    HYPER_ASSIGN_OR_RETURN(double d, v.AsDouble());
    sum += d;
    ++count;
    return Status::OK();
  }

  Value Finish(const sql::SelectItem& item) const {
    switch (item.agg) {
      case AggKind::kCount:
        if (item.expr == nullptr || item.expr->kind == ExprKind::kStar) {
          return Value::Int(static_cast<int64_t>(count_rows));
        }
        return Value::Int(static_cast<int64_t>(count));
      case AggKind::kSum:
        return Value::Double(sum);
      case AggKind::kAvg:
        return count == 0 ? Value::Null()
                          : Value::Double(sum / static_cast<double>(count));
      default:
        return Value::Null();
    }
  }
};

/// The attribute a plain column-reference item reads, or null for any other
/// item (and for a reference the scope does not resolve).
const AttributeDef* ItemAttribute(const sql::SelectItem& item,
                                  const std::vector<ScopedTuple>& scope) {
  if (item.agg != AggKind::kNone || item.expr->kind != ExprKind::kColumnRef) {
    return nullptr;
  }
  auto ref = ResolveRef(scope, item.expr->qualifier, item.expr->name);
  if (!ref.ok()) return nullptr;
  return &scope[ref->slot].schema->attribute(ref->attr);
}

ValueType OutputTypeFor(const sql::SelectItem& item,
                        const std::vector<ScopedTuple>& scope) {
  if (item.agg == AggKind::kCount) return ValueType::kInt;
  const AttributeDef* attr = ItemAttribute(item, scope);
  return attr != nullptr ? attr->type : ValueType::kDouble;
}

Mutability OutputMutabilityFor(const sql::SelectItem& item,
                               const std::vector<ScopedTuple>& scope) {
  const AttributeDef* attr = ItemAttribute(item, scope);
  return attr != nullptr ? attr->mutability : Mutability::kMutable;
}

}  // namespace

Result<Table> ExecuteSelect(const Database& db, const SelectStmt& stmt,
                            const std::string& view_name) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("select requires a From clause");
  }

  // Resolve sources.
  std::vector<Source> sources;
  for (const sql::TableRef& ref : stmt.from) {
    HYPER_ASSIGN_OR_RETURN(const Table* table, db.GetTable(ref.table));
    sources.push_back(
        Source{ref.alias.empty() ? ref.table : ref.alias, table});
  }

  // Every expression below resolves its references against this scope.
  const std::vector<ScopedTuple> scope = MakeScope(sources);

  // Classify where-conjuncts into hash-joinable equi-joins and residuals.
  std::vector<JoinCondition> join_conditions;
  std::vector<sql::ExprPtr> residual;
  if (stmt.where != nullptr) {
    for (sql::ExprPtr& term : sql::SplitConjunction(*stmt.where)) {
      bool is_join = false;
      if (term->kind == ExprKind::kBinary && term->op == BinaryOp::kEq &&
          term->children[0]->kind == ExprKind::kColumnRef &&
          term->children[1]->kind == ExprKind::kColumnRef) {
        auto lhs = ResolveRef(scope, term->children[0]->qualifier,
                              term->children[0]->name);
        auto rhs = ResolveRef(scope, term->children[1]->qualifier,
                              term->children[1]->name);
        if (lhs.ok() && rhs.ok() && lhs->slot != rhs->slot) {
          join_conditions.push_back(JoinCondition{*lhs, *rhs});
          is_join = true;
        }
      }
      if (!is_join) residual.push_back(std::move(term));
    }
  }

  // Left-deep join pipeline. `joined[k]` holds row ids for sources[0..k].
  std::vector<JoinedTuple> current;
  current.reserve(sources[0].table->num_rows());
  for (size_t r = 0; r < sources[0].table->num_rows(); ++r) {
    current.push_back({r});
  }

  std::vector<bool> condition_used(join_conditions.size(), false);
  for (size_t next = 1; next < sources.size(); ++next) {
    // Find a join condition connecting `next` to an already-joined source.
    int use_idx = -1;
    for (size_t c = 0; c < join_conditions.size(); ++c) {
      if (condition_used[c]) continue;
      const JoinCondition& jc = join_conditions[c];
      const bool connects =
          (jc.lhs.slot == next && jc.rhs.slot < next) ||
          (jc.rhs.slot == next && jc.lhs.slot < next);
      if (connects) {
        use_idx = static_cast<int>(c);
        break;
      }
    }

    std::vector<JoinedTuple> merged;
    const Table& next_table = *sources[next].table;
    if (use_idx >= 0) {
      condition_used[use_idx] = true;
      const JoinCondition& jc = join_conditions[use_idx];
      const ResolvedRef& probe_col = jc.lhs.slot == next ? jc.rhs : jc.lhs;
      const ResolvedRef& build_col = jc.lhs.slot == next ? jc.lhs : jc.rhs;
      // Build a hash table on the new source.
      std::unordered_multimap<size_t, size_t> hash;
      hash.reserve(next_table.num_rows());
      for (size_t r = 0; r < next_table.num_rows(); ++r) {
        hash.emplace(next_table.At(r, build_col.attr).Hash(), r);
      }
      for (const JoinedTuple& tuple : current) {
        const Value& probe = sources[probe_col.slot].table->At(
            tuple[probe_col.slot], probe_col.attr);
        auto [begin, end] = hash.equal_range(probe.Hash());
        for (auto it = begin; it != end; ++it) {
          if (!next_table.At(it->second, build_col.attr).Equals(probe)) {
            continue;  // hash collision
          }
          JoinedTuple extended = tuple;
          extended.push_back(it->second);
          merged.push_back(std::move(extended));
        }
      }
    } else {
      // No equi-join condition: cartesian product.
      merged.reserve(current.size() * next_table.num_rows());
      for (const JoinedTuple& tuple : current) {
        for (size_t r = 0; r < next_table.num_rows(); ++r) {
          JoinedTuple extended = tuple;
          extended.push_back(r);
          merged.push_back(std::move(extended));
        }
      }
    }
    current = std::move(merged);
  }

  // Any join conditions not consumed by the pipeline become residual filters.
  for (size_t c = 0; c < join_conditions.size(); ++c) {
    if (condition_used[c]) continue;
    const JoinCondition& jc = join_conditions[c];
    std::vector<JoinedTuple> kept;
    for (JoinedTuple& tuple : current) {
      const Value& a =
          sources[jc.lhs.slot].table->At(tuple[jc.lhs.slot], jc.lhs.attr);
      const Value& b =
          sources[jc.rhs.slot].table->At(tuple[jc.rhs.slot], jc.rhs.attr);
      if (a.Equals(b)) kept.push_back(std::move(tuple));
    }
    current = std::move(kept);
  }

  // Residual predicates, compiled once: references resolve to (slot, attr)
  // here instead of by name per row.
  std::vector<BoundRow> frame(sources.size());
  for (const sql::ExprPtr& pred : residual) {
    HYPER_ASSIGN_OR_RETURN(CompiledExpr compiled,
                           CompiledExpr::Compile(*pred, scope));
    std::vector<JoinedTuple> kept;
    for (JoinedTuple& tuple : current) {
      FillFrame(sources, tuple, &frame);
      HYPER_ASSIGN_OR_RETURN(bool pass, compiled.EvalRowBool(frame.data()));
      if (pass) kept.push_back(std::move(tuple));
    }
    current = std::move(kept);
  }

  // Output schema. Derived names that collide get a positional suffix.
  std::vector<AttributeDef> out_attrs;
  std::unordered_map<std::string, size_t> name_counts;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    AttributeDef def;
    def.name = ItemName(stmt.items[i], i);
    if (name_counts[def.name]++ > 0) {
      def.name += StrFormat("_%zu", i);
    }
    def.type = OutputTypeFor(stmt.items[i], scope);
    def.mutability = OutputMutabilityFor(stmt.items[i], scope);
    out_attrs.push_back(std::move(def));
  }
  Table out(Schema(view_name, std::move(out_attrs), /*key=*/{}));

  const bool has_aggregates = [&] {
    for (const auto& item : stmt.items) {
      if (item.agg != AggKind::kNone) return true;
    }
    return false;
  }();

  // Select-item and group-key expressions, compiled once. '*' items carry
  // no expression.
  std::vector<std::optional<CompiledExpr>> item_exprs(stmt.items.size());
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const auto& item = stmt.items[i];
    if (item.expr == nullptr || item.expr->kind == ExprKind::kStar) continue;
    HYPER_ASSIGN_OR_RETURN(CompiledExpr compiled,
                           CompiledExpr::Compile(*item.expr, scope));
    item_exprs[i] = std::move(compiled);
  }

  if (!has_aggregates && stmt.group_by.empty()) {
    // Plain projection.
    for (const JoinedTuple& tuple : current) {
      FillFrame(sources, tuple, &frame);
      Row row;
      row.reserve(stmt.items.size());
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (!item_exprs[i].has_value()) {
          return Status::InvalidArgument("'*' is only valid inside Count(*)");
        }
        HYPER_ASSIGN_OR_RETURN(Value v,
                               item_exprs[i]->EvalRowValue(frame.data()));
        row.push_back(std::move(v));
      }
      HYPER_RETURN_NOT_OK(out.Append(std::move(row)));
    }
    return out;
  }

  // Grouped (or single-group) aggregation.
  struct Group {
    Row representative;  // select-item values taken from the first row
    std::vector<AggAccumulator> accumulators;
  };
  std::unordered_map<std::vector<Value>, Group, ValueVectorHash, ValueVectorEq>
      groups;
  std::vector<std::vector<Value>> group_order;

  std::vector<CompiledExpr> group_exprs;
  group_exprs.reserve(stmt.group_by.size());
  for (const auto& g : stmt.group_by) {
    HYPER_ASSIGN_OR_RETURN(CompiledExpr compiled,
                           CompiledExpr::Compile(*g, scope));
    group_exprs.push_back(std::move(compiled));
  }

  std::vector<Value> key;
  for (const JoinedTuple& tuple : current) {
    FillFrame(sources, tuple, &frame);
    key.clear();
    key.reserve(group_exprs.size());
    for (const CompiledExpr& g : group_exprs) {
      HYPER_ASSIGN_OR_RETURN(Value v, g.EvalRowValue(frame.data()));
      key.push_back(std::move(v));
    }
    auto it = groups.find(key);
    if (it == groups.end()) {
      Group group;
      group.accumulators.resize(stmt.items.size());
      group.representative.resize(stmt.items.size());
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (stmt.items[i].agg == AggKind::kNone) {
          if (!item_exprs[i].has_value()) {
            return Status::InvalidArgument(
                "'*' is only valid inside Count(*)");
          }
          HYPER_ASSIGN_OR_RETURN(Value v,
                                 item_exprs[i]->EvalRowValue(frame.data()));
          group.representative[i] = std::move(v);
        }
      }
      it = groups.emplace(key, std::move(group)).first;
      group_order.push_back(key);
    }
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      if (stmt.items[i].agg != AggKind::kNone) {
        const Value* vp = nullptr;
        Value v;
        if (item_exprs[i].has_value()) {
          HYPER_ASSIGN_OR_RETURN(v, item_exprs[i]->EvalRowValue(frame.data()));
          vp = &v;
        }
        HYPER_RETURN_NOT_OK(it->second.accumulators[i].Add(stmt.items[i], vp));
      }
    }
  }

  if (groups.empty() && stmt.group_by.empty()) {
    // Aggregates over an empty input produce one row of neutral values.
    Row row;
    for (const auto& item : stmt.items) {
      AggAccumulator empty;
      row.push_back(empty.Finish(item));
    }
    HYPER_RETURN_NOT_OK(out.Append(std::move(row)));
    return out;
  }

  for (const std::vector<Value>& key : group_order) {
    const Group& group = groups.at(key);
    Row row;
    row.reserve(stmt.items.size());
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      if (stmt.items[i].agg == AggKind::kNone) {
        row.push_back(group.representative[i]);
      } else {
        row.push_back(group.accumulators[i].Finish(stmt.items[i]));
      }
    }
    HYPER_RETURN_NOT_OK(out.Append(std::move(row)));
  }
  return out;
}

}  // namespace hyper::relational
