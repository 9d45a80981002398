// Fixture (under whatif/, not an oracle): engine code on the AST
// interpreter — must FIRE ast-interpreter.
#include "relational/eval.h"

bool Selected(const hyper::sql::Expr& when, const hyper::relational::Env& env) {
  return hyper::relational::EvalPredicate(when, env).value();
}
