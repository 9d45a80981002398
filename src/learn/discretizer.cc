#include "learn/discretizer.h"

#include <algorithm>

#include "common/strings.h"

namespace hyper::learn {

Result<EquiWidthDiscretizer> EquiWidthDiscretizer::Create(double lo, double hi,
                                                          size_t num_buckets) {
  if (num_buckets == 0) {
    return Status::InvalidArgument("need at least one bucket");
  }
  if (!(lo <= hi)) {
    return Status::InvalidArgument(
        StrFormat("invalid range [%g, %g]", lo, hi));
  }
  EquiWidthDiscretizer d;
  d.lo_ = lo;
  d.num_buckets_ = num_buckets;
  d.width_ = (hi - lo) / static_cast<double>(num_buckets);
  if (d.width_ <= 0.0) d.width_ = 1.0;  // degenerate range: one cell
  return d;
}

double EquiWidthDiscretizer::Representative(size_t b) const {
  b = std::min(b, num_buckets_ - 1);
  return lo_ + (static_cast<double>(b) + 0.5) * width_;
}

std::vector<double> EquiWidthDiscretizer::Representatives() const {
  std::vector<double> out;
  out.reserve(num_buckets_);
  for (size_t b = 0; b < num_buckets_; ++b) out.push_back(Representative(b));
  return out;
}


Result<QuantileDiscretizer> QuantileDiscretizer::FitToData(
    std::vector<double> values, size_t num_buckets) {
  if (values.empty()) {
    return Status::InvalidArgument("cannot fit discretizer to empty data");
  }
  if (num_buckets == 0) {
    return Status::InvalidArgument("need at least one bucket");
  }
  std::sort(values.begin(), values.end());

  QuantileDiscretizer d;
  const size_t n = values.size();
  size_t begin = 0;
  for (size_t b = 0; b < num_buckets && begin < n; ++b) {
    size_t end = (b + 1) * n / num_buckets;
    if (end <= begin) end = begin + 1;
    // Extend over ties so equal values never straddle a boundary.
    while (end < n && values[end] == values[end - 1]) ++end;
    double sum = 0.0;
    for (size_t i = begin; i < end; ++i) sum += values[i];
    d.representatives_.push_back(sum / static_cast<double>(end - begin));
    if (end < n) d.upper_bounds_.push_back(values[end - 1]);
    begin = end;
  }
  return d;
}

size_t QuantileDiscretizer::BucketOf(double v) const {
  // upper_bounds_[b] is the maximum sample of bucket b (inclusive): the
  // first boundary >= v identifies the bucket.
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), v);
  return static_cast<size_t>(it - upper_bounds_.begin());
}

double QuantileDiscretizer::Representative(size_t b) const {
  return representatives_[std::min(b, representatives_.size() - 1)];
}

}  // namespace hyper::learn
