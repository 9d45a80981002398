#ifndef HYPER_SQL_AST_H_
#define HYPER_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/value.h"

namespace hyper::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,    // 42, 3.14, 'Asus', TRUE, NULL
  kColumnRef,  // Price or T1.Price
  kStar,       // '*' inside COUNT(*)
  kPre,        // Pre(<expr>)   — pre-update value (paper §3.1)
  kPost,       // Post(<expr>)  — post-update value
  kNot,        // NOT <expr>
  kNeg,        // -<expr>
  kBinary,     // <expr> op <expr>
  kInList,     // <expr> IN (v1, v2, ...)
  kFuncCall,   // SUM(x), AVG(x), COUNT(x|*), L1(a, b), ...
};

enum class BinaryOp {
  kOr,
  kAnd,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
};

const char* BinaryOpName(BinaryOp op);
bool IsComparisonOp(BinaryOp op);

/// A node of the expression tree. One struct with a kind tag keeps the tree
/// cheap to build, clone and walk; only the fields relevant to `kind` are
/// meaningful.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  Value literal;                      // kLiteral
  std::string qualifier;              // kColumnRef: optional table alias
  std::string name;                   // kColumnRef column / kFuncCall name
  BinaryOp op = BinaryOp::kEq;        // kBinary
  std::vector<std::unique_ptr<Expr>> children;  // operands / args / IN items

  std::unique_ptr<Expr> Clone() const;

  /// Renders the expression back to dialect text.
  std::string ToString() const;
};

using ExprPtr = std::unique_ptr<Expr>;

// Factory helpers -----------------------------------------------------------

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string qualifier, std::string name);
ExprPtr MakeStar();
ExprPtr MakePre(ExprPtr inner);
ExprPtr MakePost(ExprPtr inner);
ExprPtr MakeNot(ExprPtr inner);
ExprPtr MakeNeg(ExprPtr inner);
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeInList(ExprPtr needle, std::vector<ExprPtr> items);
ExprPtr MakeFuncCall(std::string name, std::vector<ExprPtr> args);

// ---------------------------------------------------------------------------
// SELECT (the SQL subset allowed inside Use)
// ---------------------------------------------------------------------------

enum class AggKind { kNone = 0, kSum, kAvg, kCount };

const char* AggKindName(AggKind kind);

/// One item of a select list; aggregate items carry their AggKind so the
/// planner does not have to re-derive it from the call name.
struct SelectItem {
  ExprPtr expr;
  std::string alias;        // empty if none
  AggKind agg = AggKind::kNone;  // aggregate applied to expr, if any
};

struct TableRef {
  std::string table;
  std::string alias;  // empty if none
};

/// SELECT ... FROM ... [WHERE ...] [GROUP BY ...]
struct SelectStmt {
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ExprPtr where;                 // nullable
  std::vector<ExprPtr> group_by;

  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// What-if (§3.1)
// ---------------------------------------------------------------------------

/// The Use operator: either a bare relation name or an embedded SELECT that
/// defines the relevant view (optionally named: `Use V As (Select ...)`).
struct UseClause {
  std::string view_name;              // optional name before As
  std::string table;                  // bare-table form
  std::unique_ptr<SelectStmt> select; // embedded-select form (exclusive)

  bool is_table() const { return select == nullptr; }
  std::string ToString() const;
};

/// The shape of an update function f (Definition 2 / §3.1):
///   kSet:   Update(B) = <const>
///   kScale: Update(B) = <const> * Pre(B)
///   kShift: Update(B) = <const> + Pre(B)
enum class UpdateFuncKind { kSet, kScale, kShift };

const char* UpdateFuncKindName(UpdateFuncKind kind);

struct UpdateClause {
  std::string attribute;
  UpdateFuncKind func = UpdateFuncKind::kSet;
  Value constant;

  std::string ToString() const;
};

struct OutputClause {
  AggKind agg = AggKind::kCount;
  ExprPtr inner;  // expression (or predicate, for COUNT) under the aggregate;
                  // nullptr encodes COUNT(*)

  std::string ToString() const;
};

/// A full what-if statement:
///   Use ... [When ...] Update(B)=f [And Update(B2)=f2 ...]
///   Output agg(...) [For ...]
struct WhatIfStmt {
  UseClause use;
  ExprPtr when;  // nullable
  std::vector<UpdateClause> updates;
  OutputClause output;
  ExprPtr for_pred;  // nullable

  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// How-to (§4.1)
// ---------------------------------------------------------------------------

/// One atom of the Limit operator.
enum class LimitKind {
  kAbsRange,   // l <= Post(A) <= h (either side optional)
  kRelShift,   // Post(A) <= Pre(A) + c   /  >=
  kRelScale,   // Post(A) <= Pre(A) * c   /  >=
  kL1,         // L1(Pre(A), Post(A)) <= theta
  kInSet,      // Post(A) In (v1, v2, ...)
};

struct LimitItem {
  LimitKind kind = LimitKind::kAbsRange;
  std::string attribute;
  std::optional<double> lo;       // kAbsRange lower bound
  std::optional<double> hi;       // kAbsRange upper bound / kL1 theta /
                                  // kRelShift-kRelScale upper constant
  bool upper_is_bound = true;     // kRelShift/kRelScale: true for <=
  std::vector<Value> values;      // kInSet

  std::string ToString() const;
};

/// A full how-to statement:
///   Use ... [When ...] HowToUpdate A1, A2 [Limit ...]
///   ToMaximize|ToMinimize agg(Post(Y)) [For ...]
struct HowToStmt {
  UseClause use;
  ExprPtr when;  // nullable
  std::vector<std::string> update_attributes;
  std::vector<LimitItem> limits;
  bool maximize = true;
  AggKind objective_agg = AggKind::kAvg;
  ExprPtr objective_inner;  // expression under the aggregate
  ExprPtr for_pred;         // nullable

  std::string ToString() const;
};

/// Top-level parse result: exactly one of these is set.
struct Statement {
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<WhatIfStmt> whatif;
  std::unique_ptr<HowToStmt> howto;

  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Expression utilities used by the compiler layers
// ---------------------------------------------------------------------------

/// Collects the column names referenced under `expr` (ignoring qualifiers),
/// appending to `out`, de-duplicated, preserving first-seen order.
void CollectColumnRefs(const Expr& expr, std::vector<std::string>* out);

/// True if any node under `expr` is Post(...).
bool ContainsPost(const Expr& expr);

/// Splits a conjunction into its top-level AND terms (each term cloned).
std::vector<ExprPtr> SplitConjunction(const Expr& expr);

}  // namespace hyper::sql

#endif  // HYPER_SQL_AST_H_
