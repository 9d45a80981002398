#ifndef HYPER_WHATIF_NAIVE_H_
#define HYPER_WHATIF_NAIVE_H_

#include "causal/scm.h"
#include "common/status.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace hyper::whatif {

/// Exact what-if query evaluation by possible-world enumeration — a literal
/// implementation of Definitions 4 and 5:
///
///   valwhatif(Q, D) = sum over possible worlds I of
///                       Pr_{D,U}(I) * aggr({Y_I[t] : mu_For(t)})
///
/// The post-update distribution Pr_{D,U} comes from the ground SCM
/// (GroundScm::PostUpdateWorlds). Exponential in the number of affected
/// ground variables: this is the correctness oracle the efficient engine is
/// tested against, not a production path.
///
/// Avg over a world with an empty qualifying set contributes 0 for that
/// world (and its probability is excluded from the normalization).
// lint:allow(unreferenced): oracle — whatif_test compares the engine with it.
Result<double> NaiveWhatIf(const Database& db, const causal::Scm& scm,
                           const sql::WhatIfStmt& stmt);

}  // namespace hyper::whatif

#endif  // HYPER_WHATIF_NAIVE_H_
