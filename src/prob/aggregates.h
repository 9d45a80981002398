#ifndef HYPER_PROB_AGGREGATES_H_
#define HYPER_PROB_AGGREGATES_H_

#include "common/status.h"
#include "sql/ast.h"

namespace hyper::prob {

/// Folds one tuple's contribution into its block partial (num, den):
///   `weight`         — the tuple's qualification probability
///                      Pr(mu_For,Post | mu_For,Pre) (1.0/0.0 when
///                      deterministic),
///   `weighted_value` — the expected *qualified* output contribution
///                      E[Y * 1{mu_For,Post}] (ignored for Count).
/// Keeping the joint expectation (not value * weight) avoids dividing by
/// near-zero qualification probabilities. Inline: the what-if engine calls
/// it once per view row.
inline void AddTuple(sql::AggKind agg, double weight, double weighted_value,
                     double* num, double* den) {
  switch (agg) {
    case sql::AggKind::kCount:
      *num += weight;
      break;
    case sql::AggKind::kSum:
      *num += weighted_value;
      break;
    case sql::AggKind::kAvg:
      *num += weighted_value;
      *den += weight;
      break;
    case sql::AggKind::kNone:
      break;
  }
}

/// Accumulates a decomposable aggregate (Definition 6) across blocks.
///
/// Every aggregate HypeR supports decomposes as
///     aggr(D) = g({f'(D_i)})           with g = Sum,
/// where f'(D_i) is a per-block partial, folded tuple by tuple with
/// AddTuple from (+0.0, +0.0):
///   Count: partial = expected number of qualifying tuples in the block
///   Sum:   partial = expected sum of Y over qualifying tuples
///   Avg:   tracked as a (numerator, denominator) pair and finished as
///          numerator / denominator. With no post-update conditions in For,
///          the denominator is the deterministic count of qualifying tuples
///          (the paper's 1/|D| decomposition in Example 8); with post-update
///          conditions it is the expected qualifying count, making Avg a
///          ratio of expectations (documented deviation, FIDELITY.md §2).
///
/// The combination properties of Definition 6 (alpha-homogeneity and
/// additivity of g) hold because g is Sum; tests exercise them directly.
class BlockAccumulator {
 public:
  explicit BlockAccumulator(sql::AggKind agg) : agg_(agg) {}

  /// Folds a block partial into g. Because g is Sum, merging the partials
  /// in block order fixes the value bit for bit.
  void MergeBlockPartial(double block_numerator, double block_denominator) {
    numerator_ += block_numerator;
    denominator_ += block_denominator;
  }

  /// Final aggregate value over all blocks. NULL-like cases (Avg of an
  /// empty set) surface as an error.
  Result<double> Finish() const;

 private:
  sql::AggKind agg_;
  double numerator_ = 0.0;    // g-folded partial numerators
  double denominator_ = 0.0;  // g-folded partial denominators (Avg)
};

}  // namespace hyper::prob

#endif  // HYPER_PROB_AGGREGATES_H_
