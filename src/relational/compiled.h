#ifndef HYPER_RELATIONAL_COMPILED_H_
#define HYPER_RELATIONAL_COMPILED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/column.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace hyper::relational {

// ---------------------------------------------------------------------------
// Scalar: the compiled evaluator's runtime value. Mirrors Value semantics
// (storage/value.cc) exactly — coercions, NULL ordering, error cases — but
// never owns a string: strings are borrowed pointers, optionally tagged with
// the dictionary code they were read from so equality is an int compare.
// ---------------------------------------------------------------------------

struct Scalar {
  enum class K : uint8_t { kNull = 0, kBool, kInt, kDouble, kStr };

  K kind = K::kNull;
  union {
    bool b;
    int64_t i;
    double d;
  };
  const std::string* s = nullptr;  // kStr: borrowed
  int32_t code = -1;               // kStr: dictionary code when known

  static Scalar Null() { return Scalar(); }
  static Scalar Bool(bool v) { Scalar x; x.kind = K::kBool; x.b = v; return x; }
  static Scalar Int(int64_t v) { Scalar x; x.kind = K::kInt; x.i = v; return x; }
  static Scalar Double(double v) {
    Scalar x; x.kind = K::kDouble; x.d = v; return x;
  }
  static Scalar Str(const std::string* sp, int32_t dict_code = -1) {
    Scalar x; x.kind = K::kStr; x.s = sp; x.code = dict_code; return x;
  }
  /// Borrows from `v`: the Value must outlive the Scalar for strings.
  static Scalar FromValue(const Value& v);
  Value ToValue() const;

  bool is_null() const { return kind == K::kNull; }
  Result<double> AsDouble() const;
  Result<bool> AsBool() const;
  bool Equals(const Scalar& other) const;
  Result<int> Compare(const Scalar& other) const;
};

// ---------------------------------------------------------------------------
// Compilation: resolve column references once per query.
// ---------------------------------------------------------------------------

/// One tuple visible during compilation: alias (or relation name) + schema.
/// The position in the scope vector is the tuple slot used at evaluation.
struct ScopedTuple {
  std::string alias;
  const Schema* schema = nullptr;
};

/// A column reference resolved against a scope: tuple slot and attribute.
struct ResolvedRef {
  uint16_t slot = 0;
  uint32_t attr = 0;
};

/// Resolves `qualifier.name` (or an unqualified `name`) the way Env::Lookup
/// does: qualified references match aliases case-insensitively, unqualified
/// references must be unique across the scope.
Result<ResolvedRef> ResolveRef(const std::vector<ScopedTuple>& scope,
                               const std::string& qualifier,
                               const std::string& name);

/// Row-mode evaluation frame entry for one tuple slot: pre image and
/// (optionally) the post-update image. A null `post` makes Post(...) read
/// the pre image — the observational evaluation mode of training harvests.
struct BoundRow {
  const Row* pre = nullptr;
  const Row* post = nullptr;
};

/// An expression with every ColumnRef resolved to (tuple_slot, attr_index)
/// and Pre/Post wrappers folded into a per-reference flag. Compile once per
/// query; evaluation never touches attribute names again.
class CompiledExpr {
 public:
  struct Node {
    enum class Op : uint8_t {
      kLiteral,
      kColumnRef,
      kNot,
      kNeg,
      kAnd,
      kOr,
      kCompare,   // cmp holds the comparison operator
      kArith,     // cmp holds the arithmetic operator
      kInList,
      kAbs,
      kL1,
    };
    Op op = Op::kLiteral;
    sql::BinaryOp cmp = sql::BinaryOp::kEq;
    Value literal;         // kLiteral
    uint16_t slot = 0;     // kColumnRef
    uint32_t attr = 0;     // kColumnRef
    bool post = false;     // kColumnRef: read the post image
    std::vector<uint32_t> children;
  };

  /// Compiles `expr` against the ordered tuple scope; references resolve as
  /// ResolveRef does. Bare references read the pre image, references
  /// inside Post(...) the post image. Aggregates and '*' are compile errors
  /// (they are not per-row expressions).
  static Result<CompiledExpr> Compile(const sql::Expr& expr,
                                      const std::vector<ScopedTuple>& scope);

  /// Row-mode evaluation; `frame[slot]` supplies each tuple's images.
  Result<Scalar> EvalRow(const BoundRow* frame) const;
  Result<bool> EvalRowBool(const BoundRow* frame) const;
  Result<Value> EvalRowValue(const BoundRow* frame) const;

  const std::vector<Node>& nodes() const { return nodes_; }
  bool references_post() const { return references_post_; }

 private:
  struct Cells;  // a row frame's cell reader for the evaluation walk

  std::vector<Node> nodes_;  // nodes_[0] is the root
  bool references_post_ = false;
};

// ---------------------------------------------------------------------------
// Columnar binding: evaluate a single-slot compiled expression directly over
// a ColumnTable's typed vectors.
// ---------------------------------------------------------------------------

/// Deterministic post-update image of a bound ColumnTable, described as
/// per-attribute overrides instead of materialized rows: Post(...) column
/// reads go through the override for *active* rows and fall back to the pre
/// image otherwise. This is how the what-if engine represents "update
/// attributes set to f(b) on S" without copying every row.
class PostImage {
 public:
  /// Post value of `attr` is `v` for every active row (Update(B) = c).
  void SetConst(size_t attr, Value v);
  /// Post value of `attr` is `values[row]` for active rows (scale/shift).
  void SetPerRowDouble(size_t attr, std::vector<double> values);
  /// Rows where `active` is 0 keep their pre image everywhere. A null
  /// active set means every row is updated. The 0/1 byte mask is the same
  /// shape EvalMask produces, so selection masks feed in without conversion
  /// (and the kernels can read it branch-free).
  void set_active(const std::vector<uint8_t>* active) { active_ = active; }

  bool has_override(size_t attr) const {
    return attr < overrides_.size() && overrides_[attr].kind != OvKind::kNone;
  }

 private:
  friend class ColumnBoundExpr;
  enum class OvKind : uint8_t { kNone = 0, kConst, kPerRowDouble };
  struct Override {
    OvKind kind = OvKind::kNone;
    Value constant;
    std::vector<double> per_row;
  };
  std::vector<Override> overrides_;
  const std::vector<uint8_t>* active_ = nullptr;
};

/// A compiled expression bound to one ColumnTable (tuple slot 0): column
/// references carry raw pointers into the typed vectors and string literals
/// are pre-interned against the table's dictionary. `post` may be null, in
/// which case Post(...) reads the pre image.
class ColumnBoundExpr {
 public:
  ColumnBoundExpr() = default;

  static Result<ColumnBoundExpr> Bind(const CompiledExpr& expr,
                                      const ColumnTable& table,
                                      const PostImage* post = nullptr);

  Result<Scalar> Eval(size_t row) const;
  Result<bool> EvalBool(size_t row) const;

  /// Batch predicate evaluation over every row of the bound table. Uses
  /// SIMD-dispatched typed kernels (common/simd.h) for comparisons / logical
  /// connectives over null-free, non-overridden columns — sharded per
  /// ColumnTable segment on large tables, on at most `max_threads` threads
  /// including the caller (the request's thread budget; 0 = the whole
  /// pool) — and falls back to per-row EvalBool for anything else; the
  /// produced mask is identical either way (the kernels are element-wise,
  /// so the mask is bit-identical at any thread count and SIMD level).
  Result<std::vector<uint8_t>> EvalMask(size_t max_threads) const;

  /// Vectorized boolean evaluation when the whole tree is kernel-eligible:
  /// resizes `mask` and fills mask[r] == (EvalBool(r) ? 1 : 0), returning
  /// true. Returns false (mask unspecified) when any part of the tree needs
  /// the per-row path. Eligibility is row-independent, so a true return
  /// also guarantees EvalBool succeeds on every row. Segments shard as in
  /// EvalMask, on at most `max_threads` threads.
  bool TryMaskKernel(std::vector<uint8_t>* mask, size_t max_threads) const;

  /// Vectorized numeric evaluation when the whole tree is numeric-kernel
  /// eligible: resizes the outputs and fills out[r] with exactly
  /// Eval(r).AsDouble() (including the int64-arithmetic-then-widen cases)
  /// and err[r] = 1 where Eval(r) errors — on an eligible tree the only
  /// reachable error is division by zero; out[r] is 0.0 on errored rows.
  /// Returns false (outputs unspecified) when the tree needs the per-row
  /// path. Segments shard as in EvalMask, on at most `max_threads` threads.
  bool TryEvalDoubleKernel(std::vector<double>* out, std::vector<uint8_t>* err,
                           size_t max_threads) const;

 private:
  struct BoundNode {
    const Column* column = nullptr;   // kColumnRef
    const PostImage::Override* override_ = nullptr;  // kColumnRef with post
    int32_t literal_code = -1;        // kLiteral string: code in table dict
    Scalar override_const;            // kConst override, pre-resolved at Bind
  };

  /// Static value type of a numeric-kernel node; valid only on eligible
  /// trees, where every row of a node yields the same Scalar kind.
  enum class NumType : uint8_t { kInt, kDouble, kBool };

  struct Cells;  // one row's cell reader for the evaluation walk

  Result<Scalar> ReadColumn(uint32_t idx, size_t row) const;
  /// Row-independent eligibility for the boolean mask kernel.
  bool MaskEligible(uint32_t idx) const;
  /// Fills out[0 .. end-begin) with the mask of rows [begin, end); the tree
  /// rooted at idx must be MaskEligible.
  void MaskRun(uint32_t idx, size_t begin, size_t end, uint8_t* out) const;
  bool NumEligible(uint32_t idx) const;
  NumType NumNodeType(uint32_t idx) const;
  void EvalNumChunk(uint32_t idx, size_t begin, size_t len,
                    std::vector<int64_t>* out_i, std::vector<double>* out_d,
                    std::vector<uint8_t>* out_m, uint8_t* err) const;

  const ColumnTable* table_ = nullptr;
  const PostImage* post_ = nullptr;
  std::vector<CompiledExpr::Node> nodes_;
  std::vector<BoundNode> bound_;
};

/// Convenience: compiles `pred` against `table` (single tuple named after
/// the table's relation) and returns the selection mask (EvalMask on at
/// most `max_threads` threads); a null `pred` selects every row.
Result<std::vector<uint8_t>> EvalPredicateMask(const sql::Expr* pred,
                                               const ColumnTable& table,
                                               size_t max_threads);

}  // namespace hyper::relational

#endif  // HYPER_RELATIONAL_COMPILED_H_
