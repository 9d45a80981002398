#ifndef HYPER_RELATIONAL_EVAL_H_
#define HYPER_RELATIONAL_EVAL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace hyper::relational {

/// One named tuple visible to an expression: `alias` (or relation name) plus
/// the schema and the row values. `post_row`, when present, carries the
/// hypothetical post-update image of the same tuple so `Post(...)` can be
/// evaluated; `Pre(...)` and bare references read `row`.
struct BoundTuple {
  std::string alias;
  const Schema* schema = nullptr;
  const Row* row = nullptr;
  const Row* post_row = nullptr;  // nullable: Post() unavailable when null
};

/// Evaluation environment: the set of tuples in scope.
class Env {
 public:
  Env() = default;

  void Bind(std::string alias, const Schema* schema, const Row* row,
            const Row* post_row = nullptr) {
    tuples_.push_back(BoundTuple{std::move(alias), schema, row, post_row});
  }

  /// Resolves `qualifier.name` (or unqualified `name`, which must be unique
  /// across bound tuples). `want_post` selects the post-update image.
  Result<Value> Lookup(const std::string& qualifier, const std::string& name,
                       bool want_post) const;

  const std::vector<BoundTuple>& tuples() const { return tuples_; }

 private:
  std::vector<BoundTuple> tuples_;
};

/// Evaluates a scalar expression. `post_mode` is the ambient Pre/Post state:
/// bare column references read the pre image by default; inside `Post(...)`
/// they read the post image. Aggregate calls are not per-row expressions;
/// hitting one is an error.
Result<Value> EvalExpr(const sql::Expr& expr, const Env& env,
                       bool post_mode = false);

/// Evaluates a predicate to a boolean.
Result<bool> EvalPredicate(const sql::Expr& expr, const Env& env,
                           bool post_mode = false);

}  // namespace hyper::relational

#endif  // HYPER_RELATIONAL_EVAL_H_
