#include "learn/binning.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace hyper::learn {

namespace {

/// Hash of one code row stored as `words` zero-padded 8-byte words.
uint64_t HashCodeRow(const uint8_t* codes, size_t words) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t w = 0; w < words; ++w) {
    uint64_t word;
    std::memcpy(&word, codes + 8 * w, 8);
    h = (h ^ word) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

bool SameCodeRow(const uint8_t* a, const uint8_t* b, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    uint64_t wa, wb;
    std::memcpy(&wa, a + 8 * w, 8);
    std::memcpy(&wb, b + 8 * w, 8);
    if (wa != wb) return false;
  }
  return true;
}

}  // namespace

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
  // Code rows are zero-padded to whole 8-byte words, so grouping hashes and
  // compares words.
  const size_t words = (out.num_features_ + 7) / 8;
  out.stride_ = 8 * words;
  std::vector<uint8_t> codes(n * out.stride_);  // row-major until grouped

  std::vector<double> sorted(n);
  for (size_t f = 0; f < out.num_features_; ++f) {
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
    // run, so every raw value maps to exactly one bin). With <= max_bins
    // distinct values every distinct value closes its own bin.
    const size_t feature_offset = out.bin_min_.size();
    out.offsets_[f] = feature_offset;
    if (n == 0) continue;
    size_t distinct = 1;
    for (size_t r = 1; r < n; ++r) {
      if (sorted[r] != sorted[r - 1]) ++distinct;
    }
    const size_t target_bins = std::min(distinct, max_bins);
    size_t bin_start = 0;  // first sorted index of the open bin
    size_t bins_made = 0;
    for (size_t r = 0; r < n; ++r) {
      const bool last = r + 1 == n;
      const bool tie = !last && sorted[r + 1] == sorted[r];
      // Close after index r when we're at the end, or the bin has consumed
      // its share of rows, or one bin per distinct value is wanted.
      const size_t filled = r + 1 - bin_start;
      const size_t remaining_bins = target_bins - bins_made;
      const size_t remaining_rows = n - bin_start;
      const bool quota = filled * remaining_bins >= remaining_rows;
      if (last || (!tie && (quota || target_bins == distinct))) {
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
      codes[r * out.stride_ + f] =
          static_cast<uint8_t>(b < bins ? b : bins - 1);
    }
  }
  out.offsets_[out.num_features_] = out.bin_min_.size();

  // Group rows by code row, numbering groups in order of first appearance.
  // The open-addressing table holds group ids; a group's code row, stored
  // once, is its key. The table doubles when half full.
  out.group_of_.assign(n, 0);
  if (words == 0) {
    out.num_groups_ = n > 0 ? 1 : 0;  // every row has the empty code row
    return out;
  }
  constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> slots(64, kEmpty);
  for (size_t r = 0; r < n; ++r) {
    const uint8_t* row = codes.data() + r * out.stride_;
    size_t mask = slots.size() - 1;
    size_t s = HashCodeRow(row, words) & mask;
    uint32_t g;
    while ((g = slots[s]) != kEmpty &&
           !SameCodeRow(out.group_codes(g), row, words)) {
      s = (s + 1) & mask;
    }
    if (g == kEmpty) {
      g = static_cast<uint32_t>(out.num_groups_++);
      out.group_codes_.insert(out.group_codes_.end(), row, row + out.stride_);
      slots[s] = g;
      if (2 * out.num_groups_ > slots.size()) {
        slots.assign(2 * slots.size(), kEmpty);
        mask = slots.size() - 1;
        for (uint32_t other = 0; other < out.num_groups_; ++other) {
          size_t t = HashCodeRow(out.group_codes(other), words) & mask;
          while (slots[t] != kEmpty) t = (t + 1) & mask;
          slots[t] = other;
        }
      }
    }
    out.group_of_[r] = g;
  }
  return out;
}

}  // namespace hyper::learn
