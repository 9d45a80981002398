#include "sql/ast.h"

#include "common/logging.h"
#include "common/strings.h"

namespace hyper::sql {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kOr: return "Or";
    case BinaryOp::kAnd: return "And";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
  }
  return "?";
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kNone: return "";
    case AggKind::kSum: return "Sum";
    case AggKind::kAvg: return "Avg";
    case AggKind::kCount: return "Count";
  }
  return "?";
}

const char* UpdateFuncKindName(UpdateFuncKind kind) {
  switch (kind) {
    case UpdateFuncKind::kSet: return "set";
    case UpdateFuncKind::kScale: return "scale";
    case UpdateFuncKind::kShift: return "shift";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->literal = literal;
  out->qualifier = qualifier;
  out->name = name;
  out->op = op;
  out->children.reserve(children.size());
  for (const auto& child : children) {
    out->children.push_back(child->Clone());
  }
  return out;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kColumnRef:
      return qualifier.empty() ? name : qualifier + "." + name;
    case ExprKind::kStar:
      return "*";
    case ExprKind::kPre:
      return "Pre(" + children[0]->ToString() + ")";
    case ExprKind::kPost:
      return "Post(" + children[0]->ToString() + ")";
    case ExprKind::kNot:
      return "Not (" + children[0]->ToString() + ")";
    case ExprKind::kNeg:
      return "-(" + children[0]->ToString() + ")";
    case ExprKind::kBinary: {
      const std::string lhs = children[0]->ToString();
      const std::string rhs = children[1]->ToString();
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        return "(" + lhs + " " + BinaryOpName(op) + " " + rhs + ")";
      }
      return lhs + " " + BinaryOpName(op) + " " + rhs;
    }
    case ExprKind::kInList: {
      std::vector<std::string> items;
      for (size_t i = 1; i < children.size(); ++i) {
        items.push_back(children[i]->ToString());
      }
      return children[0]->ToString() + " In (" + Join(items, ", ") + ")";
    }
    case ExprKind::kFuncCall: {
      std::vector<std::string> args;
      for (const auto& arg : children) args.push_back(arg->ToString());
      return name + "(" + Join(args, ", ") + ")";
    }
  }
  return "?";
}

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumnRef(std::string qualifier, std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->name = std::move(name);
  return e;
}

ExprPtr MakeStar() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStar;
  return e;
}

namespace {
ExprPtr MakeUnary(ExprKind kind, ExprPtr inner) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->children.push_back(std::move(inner));
  return e;
}
}  // namespace

ExprPtr MakePre(ExprPtr inner) { return MakeUnary(ExprKind::kPre, std::move(inner)); }
ExprPtr MakePost(ExprPtr inner) { return MakeUnary(ExprKind::kPost, std::move(inner)); }
ExprPtr MakeNot(ExprPtr inner) { return MakeUnary(ExprKind::kNot, std::move(inner)); }
ExprPtr MakeNeg(ExprPtr inner) { return MakeUnary(ExprKind::kNeg, std::move(inner)); }

ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr MakeInList(ExprPtr needle, std::vector<ExprPtr> items) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kInList;
  e->children.push_back(std::move(needle));
  for (auto& item : items) e->children.push_back(std::move(item));
  return e;
}

ExprPtr MakeFuncCall(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFuncCall;
  e->name = std::move(name);
  e->children = std::move(args);
  return e;
}

std::string SelectStmt::ToString() const {
  std::vector<std::string> item_strs;
  for (const auto& item : items) {
    std::string s;
    if (item.agg != AggKind::kNone) {
      s = std::string(AggKindName(item.agg)) + "(" +
          (item.expr ? item.expr->ToString() : "*") + ")";
    } else {
      s = item.expr->ToString();
    }
    if (!item.alias.empty()) s += " As " + item.alias;
    item_strs.push_back(s);
  }
  std::vector<std::string> from_strs;
  for (const auto& tr : from) {
    from_strs.push_back(tr.alias.empty() ? tr.table
                                         : tr.table + " As " + tr.alias);
  }
  std::string out = "Select " + Join(item_strs, ", ") + " From " +
                    Join(from_strs, ", ");
  if (where) out += " Where " + where->ToString();
  if (!group_by.empty()) {
    std::vector<std::string> gb;
    for (const auto& g : group_by) gb.push_back(g->ToString());
    out += " Group By " + Join(gb, ", ");
  }
  return out;
}

std::string UseClause::ToString() const {
  if (is_table()) return "Use " + table;
  std::string out = "Use ";
  if (!view_name.empty()) out += view_name + " As ";
  out += "(" + select->ToString() + ")";
  return out;
}

std::string UpdateClause::ToString() const {
  std::string rhs;
  switch (func) {
    case UpdateFuncKind::kSet:
      rhs = constant.ToString();
      break;
    case UpdateFuncKind::kScale:
      rhs = constant.ToString() + " * Pre(" + attribute + ")";
      break;
    case UpdateFuncKind::kShift:
      rhs = constant.ToString() + " + Pre(" + attribute + ")";
      break;
  }
  return "Update(" + attribute + ") = " + rhs;
}

std::string OutputClause::ToString() const {
  return std::string("Output ") + AggKindName(agg) + "(" +
         (inner ? inner->ToString() : "*") + ")";
}

std::string WhatIfStmt::ToString() const {
  std::string out = use.ToString();
  if (when) out += " When " + when->ToString();
  for (const auto& u : updates) out += " " + u.ToString();
  out += " " + output.ToString();
  if (for_pred) out += " For " + for_pred->ToString();
  return out;
}

std::string LimitItem::ToString() const {
  switch (kind) {
    case LimitKind::kAbsRange: {
      std::string out;
      if (lo.has_value()) out += StrFormat("%g <= ", *lo);
      out += "Post(" + attribute + ")";
      if (hi.has_value()) out += StrFormat(" <= %g", *hi);
      return out;
    }
    case LimitKind::kRelShift:
      return "Post(" + attribute + (upper_is_bound ? ") <= Pre(" : ") >= Pre(") +
             attribute + ") + " + StrFormat("%g", hi.value_or(0));
    case LimitKind::kRelScale:
      return "Post(" + attribute + (upper_is_bound ? ") <= Pre(" : ") >= Pre(") +
             attribute + ") * " + StrFormat("%g", hi.value_or(0));
    case LimitKind::kL1:
      return "L1(Pre(" + attribute + "), Post(" + attribute + ")) <= " +
             StrFormat("%g", hi.value_or(0));
    case LimitKind::kInSet: {
      std::vector<std::string> vals;
      for (const auto& v : values) vals.push_back(v.ToString());
      return "Post(" + attribute + ") In (" + Join(vals, ", ") + ")";
    }
  }
  return "?";
}

std::string HowToStmt::ToString() const {
  std::string out = use.ToString();
  if (when) out += " When " + when->ToString();
  out += " HowToUpdate " + Join(update_attributes, ", ");
  if (!limits.empty()) {
    std::vector<std::string> ls;
    for (const auto& l : limits) ls.push_back(l.ToString());
    out += " Limit " + Join(ls, " And ");
  }
  out += maximize ? " ToMaximize " : " ToMinimize ";
  out += std::string(AggKindName(objective_agg)) + "(" +
         (objective_inner ? objective_inner->ToString() : "*") + ")";
  if (for_pred) out += " For " + for_pred->ToString();
  return out;
}

std::string Statement::ToString() const {
  if (select) return select->ToString();
  if (whatif) return whatif->ToString();
  if (howto) return howto->ToString();
  return "<empty>";
}

void CollectColumnRefs(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind == ExprKind::kColumnRef) {
    for (const std::string& existing : *out) {
      if (existing == expr.name) return;
    }
    out->push_back(expr.name);
    return;
  }
  for (const auto& child : expr.children) CollectColumnRefs(*child, out);
}

bool ContainsPost(const Expr& expr) {
  if (expr.kind == ExprKind::kPost) return true;
  for (const auto& child : expr.children) {
    if (ContainsPost(*child)) return true;
  }
  return false;
}

std::vector<ExprPtr> SplitConjunction(const Expr& expr) {
  std::vector<ExprPtr> out;
  if (expr.kind == ExprKind::kBinary && expr.op == BinaryOp::kAnd) {
    auto lhs = SplitConjunction(*expr.children[0]);
    auto rhs = SplitConjunction(*expr.children[1]);
    for (auto& e : lhs) out.push_back(std::move(e));
    for (auto& e : rhs) out.push_back(std::move(e));
    return out;
  }
  out.push_back(expr.Clone());
  return out;
}

}  // namespace hyper::sql
