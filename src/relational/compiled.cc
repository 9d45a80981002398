#include "relational/compiled.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/simd.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace hyper::relational {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;

// ---------------------------------------------------------------------------
// Scalar
// ---------------------------------------------------------------------------

Scalar Scalar::FromValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return Null();
    case ValueType::kBool: return Bool(v.bool_value());
    case ValueType::kInt: return Int(v.int_value());
    case ValueType::kDouble: return Double(v.double_value());
    case ValueType::kString: return Str(&v.string_value());
  }
  return Null();
}

Value Scalar::ToValue() const {
  switch (kind) {
    case K::kNull: return Value::Null();
    case K::kBool: return Value::Bool(b);
    case K::kInt: return Value::Int(i);
    case K::kDouble: return Value::Double(d);
    case K::kStr: return Value::String(*s);
  }
  return Value::Null();
}

Result<double> Scalar::AsDouble() const {
  switch (kind) {
    case K::kBool: return b ? 1.0 : 0.0;
    case K::kInt: return static_cast<double>(i);
    case K::kDouble: return d;
    case K::kNull:
      return Status::InvalidArgument("cannot coerce NULL to a number");
    case K::kStr:
      return Status::InvalidArgument("cannot coerce string '" + *s +
                                     "' to a number");
  }
  return Status::Internal("unreachable");
}

Result<bool> Scalar::AsBool() const {
  switch (kind) {
    case K::kBool: return b;
    case K::kInt: return i != 0;
    case K::kDouble: return d != 0.0;
    case K::kNull:
      return Status::InvalidArgument("cannot coerce NULL to a boolean");
    case K::kStr:
      return Status::InvalidArgument("cannot coerce string '" + *s +
                                     "' to a boolean");
  }
  return Status::Internal("unreachable");
}

bool Scalar::Equals(const Scalar& other) const {
  if (kind == K::kNull || other.kind == K::kNull) {
    return kind == other.kind;
  }
  if (kind == K::kStr || other.kind == K::kStr) {
    if (kind != other.kind) return false;
    if (code >= 0 && other.code >= 0) return code == other.code;
    return *s == *other.s;
  }
  return AsDouble().value() == other.AsDouble().value();
}

namespace {

const char* ScalarTypeName(Scalar::K k) {
  switch (k) {
    case Scalar::K::kNull: return "NULL";
    case Scalar::K::kBool: return "BOOL";
    case Scalar::K::kInt: return "INT";
    case Scalar::K::kDouble: return "DOUBLE";
    case Scalar::K::kStr: return "STRING";
  }
  return "UNKNOWN";
}

}  // namespace

Result<int> Scalar::Compare(const Scalar& other) const {
  if (kind == K::kNull && other.kind == K::kNull) return 0;
  if (kind == K::kNull) return -1;
  if (other.kind == K::kNull) return 1;
  if (kind == K::kStr && other.kind == K::kStr) {
    if (code >= 0 && code == other.code) return 0;
    const int c = s->compare(*other.s);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (kind == K::kStr || other.kind == K::kStr) {
    return Status::InvalidArgument(
        "cannot compare " + std::string(ScalarTypeName(kind)) + " with " +
        std::string(ScalarTypeName(other.kind)));
  }
  const double x = AsDouble().value();
  const double y = other.AsDouble().value();
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

Result<ResolvedRef> ResolveRef(const std::vector<ScopedTuple>& scope,
                               const std::string& qualifier,
                               const std::string& name) {
  bool found = false;
  ResolvedRef out;
  for (size_t t = 0; t < scope.size(); ++t) {
    if (!qualifier.empty() && !EqualsIgnoreCase(scope[t].alias, qualifier)) {
      continue;
    }
    if (!scope[t].schema->Contains(name)) continue;
    if (found) {
      return Status::InvalidArgument("ambiguous column reference '" + name +
                                     "'");
    }
    found = true;
    out.slot = static_cast<uint16_t>(t);
    out.attr = static_cast<uint32_t>(scope[t].schema->IndexOf(name).value());
  }
  if (!found) {
    return Status::NotFound(
        "unresolved column reference '" +
        (qualifier.empty() ? name : qualifier + "." + name) + "'");
  }
  return out;
}

namespace {

Result<uint32_t> CompileNode(const Expr& expr,
                             const std::vector<ScopedTuple>& scope,
                             bool post_mode,
                             std::vector<CompiledExpr::Node>* nodes,
                             bool* references_post) {
  using Node = CompiledExpr::Node;
  using Op = CompiledExpr::Node::Op;

  // Pre/Post wrappers set the ambient mode and emit no node of their own.
  if (expr.kind == ExprKind::kPre) {
    return CompileNode(*expr.children[0], scope, /*post_mode=*/false, nodes,
                       references_post);
  }
  if (expr.kind == ExprKind::kPost) {
    return CompileNode(*expr.children[0], scope, /*post_mode=*/true, nodes,
                       references_post);
  }

  const uint32_t idx = static_cast<uint32_t>(nodes->size());
  nodes->emplace_back();

  switch (expr.kind) {
    case ExprKind::kLiteral:
      (*nodes)[idx].op = Op::kLiteral;
      (*nodes)[idx].literal = expr.literal;
      return idx;
    case ExprKind::kColumnRef: {
      HYPER_ASSIGN_OR_RETURN(ResolvedRef ref,
                             ResolveRef(scope, expr.qualifier, expr.name));
      Node& n = (*nodes)[idx];
      n.op = Op::kColumnRef;
      n.slot = ref.slot;
      n.attr = ref.attr;
      n.post = post_mode;
      if (post_mode) *references_post = true;
      return idx;
    }
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' is only valid inside Count(*)");
    case ExprKind::kNot:
    case ExprKind::kNeg: {
      (*nodes)[idx].op = expr.kind == ExprKind::kNot ? Op::kNot : Op::kNeg;
      HYPER_ASSIGN_OR_RETURN(
          uint32_t child, CompileNode(*expr.children[0], scope, post_mode,
                                      nodes, references_post));
      (*nodes)[idx].children.push_back(child);
      return idx;
    }
    case ExprKind::kBinary: {
      Op op;
      if (expr.op == BinaryOp::kAnd) {
        op = Op::kAnd;
      } else if (expr.op == BinaryOp::kOr) {
        op = Op::kOr;
      } else if (sql::IsComparisonOp(expr.op)) {
        op = Op::kCompare;
      } else {
        op = Op::kArith;
      }
      (*nodes)[idx].op = op;
      (*nodes)[idx].cmp = expr.op;
      HYPER_ASSIGN_OR_RETURN(
          uint32_t lhs, CompileNode(*expr.children[0], scope, post_mode,
                                    nodes, references_post));
      HYPER_ASSIGN_OR_RETURN(
          uint32_t rhs, CompileNode(*expr.children[1], scope, post_mode,
                                    nodes, references_post));
      (*nodes)[idx].children.push_back(lhs);
      (*nodes)[idx].children.push_back(rhs);
      return idx;
    }
    case ExprKind::kInList: {
      (*nodes)[idx].op = Op::kInList;
      for (const auto& child : expr.children) {
        HYPER_ASSIGN_OR_RETURN(uint32_t c,
                               CompileNode(*child, scope, post_mode, nodes,
                                           references_post));
        (*nodes)[idx].children.push_back(c);
      }
      return idx;
    }
    case ExprKind::kFuncCall: {
      if (EqualsIgnoreCase(expr.name, "ABS")) {
        if (expr.children.size() != 1) {
          return Status::InvalidArgument("Abs takes one argument");
        }
        (*nodes)[idx].op = Op::kAbs;
      } else if (EqualsIgnoreCase(expr.name, "L1")) {
        if (expr.children.size() != 2) {
          return Status::InvalidArgument("L1 takes two arguments");
        }
        (*nodes)[idx].op = Op::kL1;
      } else {
        return Status::InvalidArgument(
            "aggregate/function '" + expr.name +
            "' is not valid in a per-row expression");
      }
      for (const auto& child : expr.children) {
        HYPER_ASSIGN_OR_RETURN(uint32_t c,
                               CompileNode(*child, scope, post_mode, nodes,
                                           references_post));
        (*nodes)[idx].children.push_back(c);
      }
      return idx;
    }
    default:
      return Status::Internal("unhandled expression kind in compilation");
  }
}

}  // namespace

Result<CompiledExpr> CompiledExpr::Compile(
    const Expr& expr, const std::vector<ScopedTuple>& scope) {
  CompiledExpr out;
  HYPER_ASSIGN_OR_RETURN(uint32_t root,
                         CompileNode(expr, scope, /*post_mode=*/false,
                                     &out.nodes_, &out.references_post_));
  if (root != 0) {
    return Status::Internal("compiled expression root is not node 0");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Evaluation: one walk over the compiled nodes (mirrors relational::EvalExpr
// exactly), two cell readers for its leaves.
// ---------------------------------------------------------------------------

namespace {

/// Evaluates node `idx`. `cells` reads the leaves: `Literal(idx, n)` and
/// `Column(idx, n)` return node idx's Scalar (a row frame's pre or post Row,
/// or a bound column read through its post image).
template <typename Cells>
Result<Scalar> EvalTree(const std::vector<CompiledExpr::Node>& nodes,
                        uint32_t idx, const Cells& cells) {
  using Op = CompiledExpr::Node::Op;
  const CompiledExpr::Node& n = nodes[idx];
  switch (n.op) {
    case Op::kLiteral:
      return cells.Literal(idx, n);
    case Op::kColumnRef:
      return cells.Column(idx, n);
    case Op::kNot: {
      HYPER_ASSIGN_OR_RETURN(Scalar inner,
                             EvalTree(nodes, n.children[0], cells));
      HYPER_ASSIGN_OR_RETURN(bool b, inner.AsBool());
      return Scalar::Bool(!b);
    }
    case Op::kNeg: {
      HYPER_ASSIGN_OR_RETURN(Scalar inner,
                             EvalTree(nodes, n.children[0], cells));
      if (inner.kind == Scalar::K::kInt) return Scalar::Int(-inner.i);
      HYPER_ASSIGN_OR_RETURN(double d, inner.AsDouble());
      return Scalar::Double(-d);
    }
    case Op::kAnd:
    case Op::kOr: {
      HYPER_ASSIGN_OR_RETURN(Scalar lhs_val,
                             EvalTree(nodes, n.children[0], cells));
      HYPER_ASSIGN_OR_RETURN(bool lhs, lhs_val.AsBool());
      if (n.op == Op::kAnd && !lhs) return Scalar::Bool(false);
      if (n.op == Op::kOr && lhs) return Scalar::Bool(true);
      HYPER_ASSIGN_OR_RETURN(Scalar rhs_val,
                             EvalTree(nodes, n.children[1], cells));
      HYPER_ASSIGN_OR_RETURN(bool rhs, rhs_val.AsBool());
      return Scalar::Bool(rhs);
    }
    case Op::kCompare: {
      HYPER_ASSIGN_OR_RETURN(Scalar lhs, EvalTree(nodes, n.children[0], cells));
      HYPER_ASSIGN_OR_RETURN(Scalar rhs, EvalTree(nodes, n.children[1], cells));
      if (n.cmp == BinaryOp::kEq) return Scalar::Bool(lhs.Equals(rhs));
      if (n.cmp == BinaryOp::kNe) return Scalar::Bool(!lhs.Equals(rhs));
      HYPER_ASSIGN_OR_RETURN(int cmp, lhs.Compare(rhs));
      switch (n.cmp) {
        case BinaryOp::kLt: return Scalar::Bool(cmp < 0);
        case BinaryOp::kLe: return Scalar::Bool(cmp <= 0);
        case BinaryOp::kGt: return Scalar::Bool(cmp > 0);
        case BinaryOp::kGe: return Scalar::Bool(cmp >= 0);
        default: return Status::Internal("unhandled comparison");
      }
    }
    case Op::kArith: {
      HYPER_ASSIGN_OR_RETURN(Scalar lhs, EvalTree(nodes, n.children[0], cells));
      HYPER_ASSIGN_OR_RETURN(Scalar rhs, EvalTree(nodes, n.children[1], cells));
      HYPER_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
      HYPER_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
      const bool both_int =
          lhs.kind == Scalar::K::kInt && rhs.kind == Scalar::K::kInt;
      switch (n.cmp) {
        case BinaryOp::kAdd:
          return both_int ? Scalar::Int(lhs.i + rhs.i) : Scalar::Double(a + b);
        case BinaryOp::kSub:
          return both_int ? Scalar::Int(lhs.i - rhs.i) : Scalar::Double(a - b);
        case BinaryOp::kMul:
          return both_int ? Scalar::Int(lhs.i * rhs.i) : Scalar::Double(a * b);
        case BinaryOp::kDiv:
          if (b == 0.0) {
            return Status::InvalidArgument("division by zero");
          }
          return Scalar::Double(a / b);
        default:
          return Status::Internal("unhandled binary operator");
      }
    }
    case Op::kInList: {
      HYPER_ASSIGN_OR_RETURN(Scalar needle,
                             EvalTree(nodes, n.children[0], cells));
      for (size_t c = 1; c < n.children.size(); ++c) {
        HYPER_ASSIGN_OR_RETURN(Scalar item,
                               EvalTree(nodes, n.children[c], cells));
        if (needle.Equals(item)) return Scalar::Bool(true);
      }
      return Scalar::Bool(false);
    }
    case Op::kAbs: {
      HYPER_ASSIGN_OR_RETURN(Scalar inner,
                             EvalTree(nodes, n.children[0], cells));
      HYPER_ASSIGN_OR_RETURN(double d, inner.AsDouble());
      return Scalar::Double(std::fabs(d));
    }
    case Op::kL1: {
      HYPER_ASSIGN_OR_RETURN(Scalar a, EvalTree(nodes, n.children[0], cells));
      HYPER_ASSIGN_OR_RETURN(Scalar b, EvalTree(nodes, n.children[1], cells));
      HYPER_ASSIGN_OR_RETURN(double da, a.AsDouble());
      HYPER_ASSIGN_OR_RETURN(double db, b.AsDouble());
      return Scalar::Double(std::fabs(da - db));
    }
  }
  return Status::Internal("unhandled compiled node");
}

}  // namespace

/// A row frame's cells: each slot's pre Row, or its post Row under Post(...)
/// when the frame has one.
struct CompiledExpr::Cells {
  const BoundRow* frame;
  Scalar Literal(uint32_t, const Node& n) const {
    return Scalar::FromValue(n.literal);
  }
  Scalar Column(uint32_t, const Node& n) const {
    const BoundRow& br = frame[n.slot];
    const Row* src =
        n.post ? (br.post != nullptr ? br.post : br.pre) : br.pre;
    return Scalar::FromValue((*src)[n.attr]);
  }
};

Result<Scalar> CompiledExpr::EvalRow(const BoundRow* frame) const {
  return EvalTree(nodes_, 0, Cells{frame});
}

Result<bool> CompiledExpr::EvalRowBool(const BoundRow* frame) const {
  HYPER_ASSIGN_OR_RETURN(Scalar v, EvalRow(frame));
  return v.AsBool();
}

Result<Value> CompiledExpr::EvalRowValue(const BoundRow* frame) const {
  HYPER_ASSIGN_OR_RETURN(Scalar v, EvalRow(frame));
  return v.ToValue();
}

// ---------------------------------------------------------------------------
// PostImage
// ---------------------------------------------------------------------------

void PostImage::SetConst(size_t attr, Value v) {
  if (overrides_.size() <= attr) overrides_.resize(attr + 1);
  overrides_[attr].kind = OvKind::kConst;
  overrides_[attr].constant = std::move(v);
}

void PostImage::SetPerRowDouble(size_t attr, std::vector<double> values) {
  if (overrides_.size() <= attr) overrides_.resize(attr + 1);
  overrides_[attr].kind = OvKind::kPerRowDouble;
  overrides_[attr].per_row = std::move(values);
}

// ---------------------------------------------------------------------------
// Columnar binding
// ---------------------------------------------------------------------------

Result<ColumnBoundExpr> ColumnBoundExpr::Bind(const CompiledExpr& expr,
                                              const ColumnTable& table,
                                              const PostImage* post) {
  ColumnBoundExpr out;
  out.table_ = &table;
  out.post_ = post;
  out.nodes_ = expr.nodes();
  out.bound_.resize(out.nodes_.size());
  for (size_t i = 0; i < out.nodes_.size(); ++i) {
    const CompiledExpr::Node& n = out.nodes_[i];
    BoundNode& b = out.bound_[i];
    if (n.op == CompiledExpr::Node::Op::kColumnRef) {
      if (n.slot != 0) {
        return Status::InvalidArgument(
            "columnar binding requires a single-tuple scope");
      }
      if (n.attr >= table.num_columns()) {
        return Status::OutOfRange("attribute index out of range");
      }
      b.column = &table.col(n.attr);
      if (n.post && post != nullptr && post->has_override(n.attr)) {
        b.override_ = &post->overrides_[n.attr];
        if (b.override_->kind == PostImage::OvKind::kConst) {
          const Value& v = b.override_->constant;
          b.override_const =
              v.type() == ValueType::kString
                  ? Scalar::Str(&v.string_value(),
                                table.dict().Find(v.string_value()))
                  : Scalar::FromValue(v);
        }
      }
    } else if (n.op == CompiledExpr::Node::Op::kLiteral &&
               n.literal.type() == ValueType::kString) {
      b.literal_code = table.dict().Find(n.literal.string_value());
    }
  }
  return out;
}

Result<Scalar> ColumnBoundExpr::ReadColumn(uint32_t idx, size_t row) const {
  const BoundNode& b = bound_[idx];
  if (b.override_ != nullptr) {
    const bool active =
        post_->active_ == nullptr || (*post_->active_)[row];
    if (active) {
      if (b.override_->kind == PostImage::OvKind::kConst) {
        return b.override_const;
      }
      return Scalar::Double(b.override_->per_row[row]);
    }
  }
  const Column& col = *b.column;
  if (col.is_null(row)) return Scalar::Null();
  switch (col.kind) {
    case ColumnKind::kInt64: return Scalar::Int(col.i64[row]);
    case ColumnKind::kDouble: return Scalar::Double(col.f64[row]);
    case ColumnKind::kBool: return Scalar::Bool(col.b8[row] != 0);
    case ColumnKind::kCode: {
      const int32_t code = col.codes[row];
      if (code == Dictionary::kNullCode) return Scalar::Null();
      return Scalar::Str(&table_->dict().at(code), code);
    }
  }
  return Status::Internal("unhandled column kind");
}

/// One row of a bound table: string literals carry their dictionary code,
/// column references read through the post image.
struct ColumnBoundExpr::Cells {
  const ColumnBoundExpr* expr;
  size_t row;
  Scalar Literal(uint32_t idx, const CompiledExpr::Node& n) const {
    Scalar v = Scalar::FromValue(n.literal);
    if (v.kind == Scalar::K::kStr) v.code = expr->bound_[idx].literal_code;
    return v;
  }
  Result<Scalar> Column(uint32_t idx, const CompiledExpr::Node&) const {
    return expr->ReadColumn(idx, row);
  }
};

Result<Scalar> ColumnBoundExpr::Eval(size_t row) const {
  return EvalTree(nodes_, 0, Cells{this, row});
}

Result<bool> ColumnBoundExpr::EvalBool(size_t row) const {
  HYPER_ASSIGN_OR_RETURN(Scalar v, Eval(row));
  return v.AsBool();
}

// ---------------------------------------------------------------------------
// Vectorized mask kernel
//
// Split into a row-independent eligibility walk (MaskEligible) and a range
// runner (MaskRun) so large tables shard the run per ColumnTable segment:
// every kernel is element-wise, so the mask is bit-identical at any thread
// count, SIMD level, and range decomposition. Eligibility failing is the
// complete set of per-row error sources, so an eligible tree's EvalBool
// succeeds on every row — callers rely on that (e.g. tri-state caches).
// ---------------------------------------------------------------------------

namespace {

/// Conversion chunk: big enough to amortize dispatch, small enough that the
/// double scratch stays in L1/L2.
constexpr size_t kNumChunk = 4096;

/// The kernel comparison of a comparison operator (kCompare nodes hold
/// nothing else).
simd::Cmp SimdCmpOf(BinaryOp op) {
  switch (op) {
    case BinaryOp::kNe: return simd::Cmp::kNe;
    case BinaryOp::kLt: return simd::Cmp::kLt;
    case BinaryOp::kLe: return simd::Cmp::kLe;
    case BinaryOp::kGt: return simd::Cmp::kGt;
    case BinaryOp::kGe: return simd::Cmp::kGe;
    default: return simd::Cmp::kEq;
  }
}

/// Numeric image of rows [begin, begin + len) of a null-free numeric
/// column — exactly Scalar::AsDouble per element.
void ToF64Span(const Column& col, size_t begin, size_t len, double* out) {
  switch (col.kind) {
    case ColumnKind::kInt64:
      simd::I64ToF64(col.i64.data() + begin, len, out);
      break;
    case ColumnKind::kDouble:
      std::memcpy(out, col.f64.data() + begin, len * sizeof(double));
      break;
    case ColumnKind::kBool:
      simd::U8ToF64(col.b8.data() + begin, len, out);
      break;
    case ColumnKind::kCode:
      break;  // excluded by eligibility
  }
}

/// Chunked column-vs-constant comparison through the double image (an int64
/// column against a fractional or out-of-range literal must compare as
/// doubles, exactly like the scalar path).
void CmpNumericConst(const Column& col, size_t begin, size_t len, double c,
                     simd::Cmp op, uint8_t* out) {
  if (col.kind == ColumnKind::kDouble) {
    simd::CmpF64Const(col.f64.data() + begin, len, c, op, out);
    return;
  }
  double buf[kNumChunk];
  for (size_t off = 0; off < len; off += kNumChunk) {
    const size_t m = std::min(kNumChunk, len - off);
    ToF64Span(col, begin + off, m, buf);
    simd::CmpF64Const(buf, m, c, op, out + off);
  }
}

}  // namespace

bool ColumnBoundExpr::MaskEligible(uint32_t idx) const {
  using Node = CompiledExpr::Node;
  const Node& n = nodes_[idx];

  // A column reference is kernel-eligible when it reads the pre image
  // directly: no NULLs, no post override.
  auto eligible_col = [&](uint32_t node_idx) -> const Column* {
    const Node& cn = nodes_[node_idx];
    if (cn.op != Node::Op::kColumnRef) return nullptr;
    if (bound_[node_idx].override_ != nullptr) return nullptr;
    const Column* col = bound_[node_idx].column;
    if (col->has_nulls()) return nullptr;
    return col;
  };

  switch (n.op) {
    case Node::Op::kLiteral:
      return n.literal.AsBool().ok();
    case Node::Op::kColumnRef: {
      const Column* col = eligible_col(idx);
      return col != nullptr && col->kind != ColumnKind::kCode;
    }
    case Node::Op::kNot:
      return MaskEligible(n.children[0]);
    case Node::Op::kAnd:
    case Node::Op::kOr:
      return MaskEligible(n.children[0]) && MaskEligible(n.children[1]);
    case Node::Op::kCompare: {
      const uint32_t li = n.children[0], ri = n.children[1];
      const Column* lcol = eligible_col(li);
      const Column* rcol = eligible_col(ri);
      const bool eq_ne = n.cmp == BinaryOp::kEq || n.cmp == BinaryOp::kNe;

      if (lcol != nullptr && rcol != nullptr) {
        if (lcol->kind == ColumnKind::kCode ||
            rcol->kind == ColumnKind::kCode) {
          // Same-dictionary code equality; ordered comparisons need strings.
          return lcol->kind == rcol->kind && eq_ne;
        }
        return true;
      }
      const Column* col = lcol != nullptr ? lcol : rcol;
      const Node* lit = lcol != nullptr ? &nodes_[ri] : &nodes_[li];
      if (col == nullptr || lit->op != Node::Op::kLiteral) return false;
      const Value& lv = lit->literal;
      if (lv.is_null()) return false;  // NULL ordering: leave to fallback
      if (col->kind == ColumnKind::kCode) {
        // String literal: code compare. Number literal: Equals is false
        // without error (constant fill); ordered comparisons error.
        return eq_ne;
      }
      if (lv.type() == ValueType::kString) return eq_ne;  // constant fill
      return true;
    }
    case Node::Op::kInList: {
      if (eligible_col(n.children[0]) == nullptr) return false;
      for (size_t c = 1; c < n.children.size(); ++c) {
        if (nodes_[n.children[c]].op != Node::Op::kLiteral) return false;
        if (nodes_[n.children[c]].literal.is_null()) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

void ColumnBoundExpr::MaskRun(uint32_t idx, size_t begin, size_t end,
                              uint8_t* out) const {
  using Node = CompiledExpr::Node;
  const Node& n = nodes_[idx];
  const size_t len = end - begin;

  switch (n.op) {
    case Node::Op::kLiteral: {
      std::memset(out, *n.literal.AsBool() ? 1 : 0, len);
      return;
    }
    case Node::Op::kColumnRef: {
      const Column& col = *bound_[idx].column;
      if (col.kind == ColumnKind::kBool) {
        std::memcpy(out, col.b8.data() + begin, len);  // already 0/1
        return;
      }
      CmpNumericConst(col, begin, len, 0.0, simd::Cmp::kNe, out);
      return;
    }
    case Node::Op::kNot: {
      MaskRun(n.children[0], begin, end, out);
      simd::MaskNot(out, len, out);
      return;
    }
    case Node::Op::kAnd:
    case Node::Op::kOr: {
      // Eager evaluation is safe here: kernel-eligible subtrees cannot error,
      // so the mask matches the short-circuit semantics bit for bit.
      MaskRun(n.children[0], begin, end, out);
      std::vector<uint8_t> rhs(len);
      MaskRun(n.children[1], begin, end, rhs.data());
      if (n.op == Node::Op::kAnd) {
        simd::MaskAnd(out, rhs.data(), len, out);
      } else {
        simd::MaskOr(out, rhs.data(), len, out);
      }
      return;
    }
    case Node::Op::kCompare: {
      const uint32_t li = n.children[0], ri = n.children[1];
      const Column* lcol = nodes_[li].op == Node::Op::kColumnRef
                               ? bound_[li].column
                               : nullptr;
      const Column* rcol = nodes_[ri].op == Node::Op::kColumnRef
                               ? bound_[ri].column
                               : nullptr;

      // column vs column.
      if (lcol != nullptr && rcol != nullptr) {
        if (lcol->kind == ColumnKind::kCode) {
          simd::CmpI32Cols(lcol->codes.data() + begin,
                           rcol->codes.data() + begin, len,
                           n.cmp == BinaryOp::kEq, out);
          return;
        }
        const simd::Cmp op = SimdCmpOf(n.cmp);
        if (lcol->kind == ColumnKind::kDouble &&
            rcol->kind == ColumnKind::kDouble) {
          simd::CmpF64Cols(lcol->f64.data() + begin, rcol->f64.data() + begin,
                           len, op, out);
          return;
        }
        double la[kNumChunk], ra[kNumChunk];
        for (size_t off = 0; off < len; off += kNumChunk) {
          const size_t m = std::min(kNumChunk, len - off);
          ToF64Span(*lcol, begin + off, m, la);
          ToF64Span(*rcol, begin + off, m, ra);
          simd::CmpF64Cols(la, ra, m, op, out + off);
        }
        return;
      }

      // column vs literal (either side).
      const Column* col = lcol != nullptr ? lcol : rcol;
      const uint32_t lit_idx = lcol != nullptr ? ri : li;
      const bool col_is_lhs = lcol != nullptr;
      const Value& lv = nodes_[lit_idx].literal;

      if (col->kind == ColumnKind::kCode) {
        if (lv.type() != ValueType::kString) {
          // Equals(string, number) is false without error.
          std::memset(out, n.cmp == BinaryOp::kNe ? 1 : 0, len);
          return;
        }
        simd::CmpI32Const(col->codes.data() + begin, len,
                          bound_[lit_idx].literal_code,
                          n.cmp == BinaryOp::kEq, out);
        return;
      }
      if (lv.type() == ValueType::kString) {
        std::memset(out, n.cmp == BinaryOp::kNe ? 1 : 0, len);
        return;
      }
      simd::Cmp op = SimdCmpOf(n.cmp);
      if (!col_is_lhs) op = simd::Mirror(op);  // lit OP col == col ROP lit
      CmpNumericConst(*col, begin, len, lv.AsDouble().value(), op, out);
      return;
    }
    case Node::Op::kInList: {
      const Column& col = *bound_[n.children[0]].column;
      std::memset(out, 0, len);
      std::vector<uint8_t> tmp(len);
      if (col.kind == ColumnKind::kCode) {
        for (size_t c = 1; c < n.children.size(); ++c) {
          const Node& item = nodes_[n.children[c]];
          if (item.literal.type() != ValueType::kString) continue;  // never eq
          simd::CmpI32Const(col.codes.data() + begin, len,
                            bound_[n.children[c]].literal_code,
                            /*want_eq=*/true, tmp.data());
          simd::MaskOr(out, tmp.data(), len, out);
        }
        return;
      }
      for (size_t c = 1; c < n.children.size(); ++c) {
        const Node& item = nodes_[n.children[c]];
        if (item.literal.type() == ValueType::kString) continue;  // never eq
        CmpNumericConst(col, begin, len, item.literal.AsDouble().value(),
                        simd::Cmp::kEq, tmp.data());
        simd::MaskOr(out, tmp.data(), len, out);
      }
      return;
    }
    default:
      return;  // unreachable on eligible trees
  }
}

bool ColumnBoundExpr::TryMaskKernel(std::vector<uint8_t>* mask) const {
  if (!MaskEligible(0)) return false;
  const size_t n = table_->num_rows();
  mask->assign(n, 0);
  if (n >= 2 * ColumnTable::kSegmentRows) {
    uint8_t* data = mask->data();
    ThreadPool::Shared().ParallelForRange(
        n, ColumnTable::kSegmentRows,
        [this, data](size_t begin, size_t end) {
          MaskRun(0, begin, end, data + begin);
        });
  } else {
    MaskRun(0, 0, n, mask->data());
  }
  return true;
}

Result<std::vector<uint8_t>> ColumnBoundExpr::EvalMask() const {
  std::vector<uint8_t> mask;
  if (TryMaskKernel(&mask)) return mask;
  const size_t n = table_->num_rows();
  mask.assign(n, 0);
  for (size_t r = 0; r < n; ++r) {
    HYPER_ASSIGN_OR_RETURN(bool b, EvalBool(r));
    mask[r] = b ? 1 : 0;
  }
  return mask;
}

// ---------------------------------------------------------------------------
// Vectorized numeric kernel
// ---------------------------------------------------------------------------

bool ColumnBoundExpr::NumEligible(uint32_t idx) const {
  using Node = CompiledExpr::Node;
  const Node& n = nodes_[idx];
  switch (n.op) {
    case Node::Op::kLiteral:
      switch (n.literal.type()) {
        case ValueType::kBool:
        case ValueType::kInt:
        case ValueType::kDouble:
          return true;
        default:
          return false;  // NULL / string literals error through AsDouble
      }
    case Node::Op::kColumnRef: {
      if (bound_[idx].override_ != nullptr) return false;
      const Column* col = bound_[idx].column;
      return !col->has_nulls() && col->kind != ColumnKind::kCode;
    }
    case Node::Op::kNeg:
    case Node::Op::kAbs:
      return NumEligible(n.children[0]);
    case Node::Op::kArith:
    case Node::Op::kL1:
      return NumEligible(n.children[0]) && NumEligible(n.children[1]);
    case Node::Op::kNot:
    case Node::Op::kAnd:
    case Node::Op::kOr:
    case Node::Op::kCompare:
    case Node::Op::kInList:
      // Boolean subtrees route through the mask kernel; Scalar::Bool widens
      // to 0.0/1.0 exactly like the mask bytes.
      return MaskEligible(idx);
  }
  return false;
}

ColumnBoundExpr::NumType ColumnBoundExpr::NumNodeType(uint32_t idx) const {
  using Node = CompiledExpr::Node;
  const Node& n = nodes_[idx];
  switch (n.op) {
    case Node::Op::kLiteral:
      switch (n.literal.type()) {
        case ValueType::kInt: return NumType::kInt;
        case ValueType::kBool: return NumType::kBool;
        default: return NumType::kDouble;
      }
    case Node::Op::kColumnRef:
      switch (bound_[idx].column->kind) {
        case ColumnKind::kInt64: return NumType::kInt;
        case ColumnKind::kBool: return NumType::kBool;
        default: return NumType::kDouble;
      }
    case Node::Op::kNeg:
      // Scalar: Int stays Int, everything else widens to double.
      return NumNodeType(n.children[0]) == NumType::kInt ? NumType::kInt
                                                         : NumType::kDouble;
    case Node::Op::kArith:
      if (n.cmp == BinaryOp::kDiv) return NumType::kDouble;
      return NumNodeType(n.children[0]) == NumType::kInt &&
                     NumNodeType(n.children[1]) == NumType::kInt
                 ? NumType::kInt
                 : NumType::kDouble;
    case Node::Op::kNot:
    case Node::Op::kAnd:
    case Node::Op::kOr:
    case Node::Op::kCompare:
    case Node::Op::kInList:
      return NumType::kBool;
    default:
      return NumType::kDouble;  // kAbs / kL1
  }
}

void ColumnBoundExpr::EvalNumChunk(uint32_t idx, size_t begin, size_t len,
                                   std::vector<int64_t>* out_i,
                                   std::vector<double>* out_d,
                                   std::vector<uint8_t>* out_m,
                                   uint8_t* err) const {
  using Node = CompiledExpr::Node;
  const Node& n = nodes_[idx];
  const NumType t = NumNodeType(idx);

  // Double image of a child's chunk result (reuses its double buffer when
  // it already is one) — exactly Scalar::AsDouble element-wise.
  const auto as_f64 = [len](NumType ct, std::vector<int64_t>& ci,
                            std::vector<double>& cd,
                            std::vector<uint8_t>& cm) -> const double* {
    if (ct == NumType::kDouble) return cd.data();
    cd.resize(len);
    if (ct == NumType::kInt) {
      simd::I64ToF64(ci.data(), len, cd.data());
    } else {
      simd::U8ToF64(cm.data(), len, cd.data());
    }
    return cd.data();
  };

  switch (n.op) {
    case Node::Op::kLiteral:
      if (t == NumType::kInt) {
        out_i->assign(len, n.literal.int_value());
      } else if (t == NumType::kBool) {
        out_m->assign(len, n.literal.bool_value() ? 1 : 0);
      } else {
        out_d->assign(len, n.literal.double_value());
      }
      return;
    case Node::Op::kColumnRef: {
      const Column& col = *bound_[idx].column;
      if (t == NumType::kInt) {
        out_i->assign(col.i64.begin() + begin, col.i64.begin() + begin + len);
      } else if (t == NumType::kBool) {
        out_m->assign(col.b8.begin() + begin, col.b8.begin() + begin + len);
      } else {
        out_d->assign(col.f64.begin() + begin, col.f64.begin() + begin + len);
      }
      return;
    }
    case Node::Op::kNot:
    case Node::Op::kAnd:
    case Node::Op::kOr:
    case Node::Op::kCompare:
    case Node::Op::kInList:
      out_m->resize(len);
      MaskRun(idx, begin, begin + len, out_m->data());
      return;
    case Node::Op::kNeg: {
      std::vector<int64_t> ci;
      std::vector<double> cd;
      std::vector<uint8_t> cm;
      EvalNumChunk(n.children[0], begin, len, &ci, &cd, &cm, err);
      if (t == NumType::kInt) {
        out_i->resize(len);
        for (size_t k = 0; k < len; ++k) (*out_i)[k] = -ci[k];
        return;
      }
      const double* c = as_f64(NumNodeType(n.children[0]), ci, cd, cm);
      out_d->resize(len);
      for (size_t k = 0; k < len; ++k) (*out_d)[k] = -c[k];
      return;
    }
    case Node::Op::kAbs: {
      std::vector<int64_t> ci;
      std::vector<double> cd;
      std::vector<uint8_t> cm;
      EvalNumChunk(n.children[0], begin, len, &ci, &cd, &cm, err);
      const double* c = as_f64(NumNodeType(n.children[0]), ci, cd, cm);
      out_d->resize(len);
      for (size_t k = 0; k < len; ++k) (*out_d)[k] = std::fabs(c[k]);
      return;
    }
    case Node::Op::kL1: {
      std::vector<int64_t> li, ri;
      std::vector<double> ld, rd;
      std::vector<uint8_t> lm, rm;
      EvalNumChunk(n.children[0], begin, len, &li, &ld, &lm, err);
      EvalNumChunk(n.children[1], begin, len, &ri, &rd, &rm, err);
      const double* a = as_f64(NumNodeType(n.children[0]), li, ld, lm);
      const double* b = as_f64(NumNodeType(n.children[1]), ri, rd, rm);
      out_d->resize(len);
      for (size_t k = 0; k < len; ++k) (*out_d)[k] = std::fabs(a[k] - b[k]);
      return;
    }
    case Node::Op::kArith: {
      std::vector<int64_t> li, ri;
      std::vector<double> ld, rd;
      std::vector<uint8_t> lm, rm;
      EvalNumChunk(n.children[0], begin, len, &li, &ld, &lm, err);
      EvalNumChunk(n.children[1], begin, len, &ri, &rd, &rm, err);
      if (t == NumType::kInt) {
        // Both children are int chunks: exactly the Scalar::Int arithmetic
        // (int64 wraparound and all), then the caller widens once.
        out_i->resize(len);
        switch (n.cmp) {
          case BinaryOp::kAdd:
            for (size_t k = 0; k < len; ++k) (*out_i)[k] = li[k] + ri[k];
            break;
          case BinaryOp::kSub:
            for (size_t k = 0; k < len; ++k) (*out_i)[k] = li[k] - ri[k];
            break;
          default:  // kMul (kDiv is never kInt)
            for (size_t k = 0; k < len; ++k) (*out_i)[k] = li[k] * ri[k];
            break;
        }
        return;
      }
      const double* a = as_f64(NumNodeType(n.children[0]), li, ld, lm);
      const double* b = as_f64(NumNodeType(n.children[1]), ri, rd, rm);
      out_d->resize(len);
      switch (n.cmp) {
        case BinaryOp::kAdd:
          for (size_t k = 0; k < len; ++k) (*out_d)[k] = a[k] + b[k];
          break;
        case BinaryOp::kSub:
          for (size_t k = 0; k < len; ++k) (*out_d)[k] = a[k] - b[k];
          break;
        case BinaryOp::kMul:
          for (size_t k = 0; k < len; ++k) (*out_d)[k] = a[k] * b[k];
          break;
        case BinaryOp::kDiv:
          // "division by zero" is the only per-row error an eligible tree
          // can hit; rows already errored upstream stay errored (err is
          // sticky) and their garbage values are never read.
          for (size_t k = 0; k < len; ++k) {
            err[k] |= (b[k] == 0.0);
            (*out_d)[k] = a[k] / b[k];
          }
          break;
        default:
          break;
      }
      return;
    }
    default:
      return;  // unreachable on eligible trees
  }
}

bool ColumnBoundExpr::TryEvalDoubleKernel(std::vector<double>* out,
                                          std::vector<uint8_t>* err) const {
  if (!NumEligible(0)) return false;
  const size_t n = table_->num_rows();
  out->assign(n, 0.0);
  err->assign(n, 0);
  const NumType root_t = NumNodeType(0);
  double* out_data = out->data();
  uint8_t* err_data = err->data();
  const auto run = [this, root_t, out_data, err_data](size_t begin,
                                                      size_t end) {
    std::vector<int64_t> bi;
    std::vector<double> bd;
    std::vector<uint8_t> bm;
    for (size_t off = begin; off < end; off += kNumChunk) {
      const size_t len = std::min(kNumChunk, end - off);
      EvalNumChunk(0, off, len, &bi, &bd, &bm, err_data + off);
      double* dst = out_data + off;
      if (root_t == NumType::kInt) {
        simd::I64ToF64(bi.data(), len, dst);
      } else if (root_t == NumType::kBool) {
        simd::U8ToF64(bm.data(), len, dst);
      } else {
        std::memcpy(dst, bd.data(), len * sizeof(double));
      }
      const uint8_t* e = err_data + off;
      for (size_t k = 0; k < len; ++k) {
        if (e[k]) dst[k] = 0.0;  // defined value on errored rows
      }
    }
  };
  if (n >= 2 * ColumnTable::kSegmentRows) {
    ThreadPool::Shared().ParallelForRange(n, ColumnTable::kSegmentRows, run);
  } else {
    run(0, n);
  }
  return true;
}

Result<std::vector<uint8_t>> EvalPredicateMask(const sql::Expr* pred,
                                               const ColumnTable& table) {
  if (pred == nullptr) {
    return std::vector<uint8_t>(table.num_rows(), 1);
  }
  std::vector<ScopedTuple> scope{
      ScopedTuple{table.schema().relation_name(), &table.schema()}};
  HYPER_ASSIGN_OR_RETURN(CompiledExpr compiled,
                         CompiledExpr::Compile(*pred, scope));
  HYPER_ASSIGN_OR_RETURN(ColumnBoundExpr bound,
                         ColumnBoundExpr::Bind(compiled, table));
  return bound.EvalMask();
}

}  // namespace hyper::relational
