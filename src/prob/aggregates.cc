#include "prob/aggregates.h"

namespace hyper::prob {

Result<double> BlockAccumulator::Finish() const {
  switch (agg_) {
    case sql::AggKind::kCount:
    case sql::AggKind::kSum:
      return numerator_;
    case sql::AggKind::kAvg:
      if (denominator_ <= 0.0) {
        return Status::InvalidArgument(
            "Avg over an empty (or zero-probability) qualifying set");
      }
      return numerator_ / denominator_;
    case sql::AggKind::kNone:
      break;
  }
  return Status::InvalidArgument("unsupported aggregate");
}

}  // namespace hyper::prob
