#include "learn/binning.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/grouping.h"

namespace hyper::learn {

Result<BinnedMatrix> BinnedMatrix::Build(const FeatureMatrix& x,
                                         size_t max_bins) {
  if (max_bins == 0) {
    return Status::InvalidArgument("max_bins must be positive");
  }
  max_bins = std::min<size_t>(max_bins, 256);  // codes are uint8_t

  const size_t n = x.num_rows();
  if (n >= std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("too many rows to bin");
  }
  BinnedMatrix out;
  out.num_features_ = x.num_cols();
  out.offsets_.assign(out.num_features_ + 1, 0);
  // Code rows are zero-padded to whole 8-byte words: the grouping table's
  // keys.
  out.words_ = (out.num_features_ + 7) / 8;
  const size_t stride = 8 * out.words_;
  std::vector<uint64_t> code_rows(n * out.words_);  // row-major until grouped
  uint8_t* const codes = reinterpret_cast<uint8_t*>(code_rows.data());

  // A feature's distinct values, found in one pass over the column through
  // an open-addressing table over value bits, with room for max_bins (at
  // most 256) values at a load of at most one half. NaN never enters, so a
  // NaN bit pattern marks a free slot. Each row's code is first its value's
  // index in order of first appearance, then that value's rank.
  constexpr size_t kSlots = 512;
  constexpr uint64_t kFreeSlot = 0x7ff8000000000001ULL;
  std::vector<uint64_t> slot_bits(kSlots);
  std::vector<uint8_t> slot_index(kSlots);
  std::vector<double> seen;  // distinct values in order of first appearance
  std::vector<uint16_t> order;
  std::vector<uint8_t> rank;
  std::vector<double> sorted;  // quantile regime only
  for (size_t f = 0; f < out.num_features_; ++f) {
    const size_t feature_offset = out.bin_min_.size();
    out.offsets_[f] = feature_offset;
    if (n == 0) continue;

    std::fill(slot_bits.begin(), slot_bits.end(), kFreeSlot);
    seen.clear();
    const double* column = x.row(0) + f;
    const size_t cols = x.num_cols();
    uint64_t* keys = slot_bits.data();
    uint8_t* index = slot_index.data();
    uint8_t* code = codes + f;
    bool dense = false;
    for (size_t r = 0; r < n; ++r) {
      const double v = column[r * cols];
      if (std::isnan(v)) {
        return Status::InvalidArgument("cannot bin NaN feature values");
      }
      // -0.0 and +0.0 are one value, as a sort's tie run treats them:
      // adding +0.0 turns -0.0 into +0.0 and keeps every other value (in the
      // default rounding mode, which nothing here changes), with no branch
      // on the data.
      const double key = v + 0.0;
      const uint64_t bits = std::bit_cast<uint64_t>(key);
      size_t s = ((bits ^ (bits >> 32)) * 0x9e3779b97f4a7c15ULL) >> 55;
      while (keys[s] != bits && keys[s] != kFreeSlot) s = (s + 1) % kSlots;
      if (keys[s] == kFreeSlot) {
        if (seen.size() == max_bins) {
          dense = true;
          break;
        }
        keys[s] = bits;
        index[s] = static_cast<uint8_t>(seen.size());
        seen.push_back(key);
      }
      code[r * stride] = index[s];
    }

    if (!dense) {
      // At most max_bins distinct values: each is its own bin, and the
      // bins are the distinct values in order.
      const size_t k = seen.size();
      order.resize(k);
      for (size_t i = 0; i < k; ++i) order[i] = static_cast<uint16_t>(i);
      std::sort(order.begin(), order.end(),
                [&](uint16_t a, uint16_t b) { return seen[a] < seen[b]; });
      rank.resize(k);
      for (size_t b = 0; b < k; ++b) {
        rank[order[b]] = static_cast<uint8_t>(b);
        out.bin_min_.push_back(seen[order[b]]);
        out.bin_max_.push_back(seen[order[b]]);
      }
      for (size_t r = 0; r < n; ++r) code[r * stride] = rank[code[r * stride]];
      continue;
    }

    // More than max_bins distinct values: equal-count (quantile) bins over
    // the sorted column.
    sorted.resize(n);
    for (size_t r = 0; r < n; ++r) {
      const double v = x.At(r, f);
      if (std::isnan(v)) {
        // Checked before the sort: NaN breaks strict weak ordering, so it
        // must never reach std::sort or the lower_bound code assignment.
        return Status::InvalidArgument("cannot bin NaN feature values");
      }
      sorted[r] = v;
    }
    std::sort(sorted.begin(), sorted.end());

    // Walk the sorted column once, closing a bin when it has reached its
    // equal-count share AND the next value differs (bins never split a tie
    // run, so every raw value maps to exactly one bin).
    size_t bin_start = 0;  // first sorted index of the open bin
    size_t bins_made = 0;
    for (size_t r = 0; r < n; ++r) {
      const bool last = r + 1 == n;
      const bool tie = !last && sorted[r + 1] == sorted[r];
      // Close after index r when we're at the end, or the bin has consumed
      // its share of rows.
      const size_t filled = r + 1 - bin_start;
      const size_t remaining_bins = max_bins - bins_made;
      const size_t remaining_rows = n - bin_start;
      const bool quota = filled * remaining_bins >= remaining_rows;
      if (last || (!tie && quota)) {
        if (!last && remaining_bins == 1) continue;  // rest joins last bin
        out.bin_min_.push_back(sorted[bin_start]);
        out.bin_max_.push_back(sorted[r]);
        ++bins_made;
        bin_start = r + 1;
      }
    }
    const size_t bins = out.bin_min_.size() - feature_offset;
    if (bins > 256) {
      return Status::Internal("binning produced more than 256 bins");
    }

    // Assign codes: first bin whose max covers the value. Values outside the
    // build range clamp into the end bins (only reachable if callers bin one
    // matrix and code another, which the engine never does).
    const double* bmax = out.bin_max_.data() + feature_offset;
    for (size_t r = 0; r < n; ++r) {
      const double v = x.At(r, f);
      const size_t b =
          std::lower_bound(bmax, bmax + bins, v) - bmax;
      code[r * stride] = static_cast<uint8_t>(b < bins ? b : bins - 1);
    }
  }
  out.offsets_[out.num_features_] = out.bin_min_.size();

  // Group rows by code row, numbering groups in order of first appearance.
  GroupingTable groups(out.words_);
  out.group_of_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    out.group_of_[r] = groups.Insert(code_rows.data() + r * out.words_);
  }
  out.num_groups_ = groups.size();
  out.group_codes_ = std::move(groups).TakeKeys();
  return out;
}

}  // namespace hyper::learn
