#ifndef HYPER_COMMON_GROUPING_H_
#define HYPER_COMMON_GROUPING_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

namespace hyper {

/// Numbers fixed-width keys by first appearance: the first distinct key
/// inserted gets id 0, the next id 1, and so on. A key is `words` 8-byte
/// words, equal to another when every word is bitwise equal, as memcmp
/// compares: -0.0 and +0.0 are two keys, and NaNs of one bit pattern are
/// one. Zero-word keys are all one key.
///
/// Each distinct key is stored once, in id order in one contiguous array.
/// An open-addressing slot array of ids finds them: allocated by the first
/// insert, so an unused table costs no allocation, and doubled when more
/// than half full. Ids are independent of the hash, so a grouping is a
/// function of the key sequence alone.
///
/// It numbers a BinnedMatrix's code rows (learn/binning.h), a LearnStage's
/// residual groups and an evaluation's distinct feature points per residual
/// entry (whatif/engine.cc).
class GroupingTable {
 public:
  explicit GroupingTable(size_t words) : words_(words) {}

  /// Distinct keys inserted, which is the id the next new key gets.
  size_t size() const { return size_; }

  /// The id of the key at `key`: `words` words, read bytewise, so a row
  /// of doubles or of zero-padded code bytes serves as it is. A new key
  /// gets id size(). At most 2^32 - 1 distinct keys.
  uint32_t Insert(const void* key) {
    const auto* bytes = static_cast<const unsigned char*>(key);
    if (slots_.empty()) slots_.assign(kInitialSlots, kEmpty);
    const size_t mask = slots_.size() - 1;
    size_t s = SlotOf(bytes);
    for (uint32_t id; (id = slots_[s]) != kEmpty; s = (s + 1) & mask) {
      if (Equal(id, bytes)) return id;
    }
    const uint32_t id = static_cast<uint32_t>(size_++);
    if (words_ != 0) {
      keys_.resize(keys_.size() + words_);
      std::memcpy(keys_.data() + size_t{id} * words_, bytes, 8 * words_);
    }
    slots_[s] = id;
    if (2 * size_ > slots_.size()) Grow();
    return id;
  }

  /// The words of key `id`.
  const uint64_t* key(uint32_t id) const {
    return keys_.data() + size_t{id} * words_;
  }

  /// Hands the keys over, in id order: size() x `words` words.
  std::vector<uint64_t> TakeKeys() && { return std::move(keys_); }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  static constexpr size_t kInitialSlots = 64;

  /// A slot from the top bits of a multiplicative mix of every word, so
  /// keys that differ only in high bits (small integers as doubles) spread
  /// as well as keys that differ in low bytes.
  size_t SlotOf(const unsigned char* bytes) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t w = 0; w < words_; ++w) {
      uint64_t word;
      std::memcpy(&word, bytes + 8 * w, 8);
      h = (h ^ word) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 31;
    }
    return static_cast<size_t>((h * 0x94d049bb133111ebULL) >> shift_);
  }

  bool Equal(uint32_t id, const unsigned char* bytes) const {
    const uint64_t* stored = key(id);
    for (size_t w = 0; w < words_; ++w) {
      uint64_t word;
      std::memcpy(&word, bytes + 8 * w, 8);
      if (word != stored[w]) return false;
    }
    return true;
  }

  void Grow() {
    slots_.assign(2 * slots_.size(), kEmpty);
    --shift_;
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < size_; ++id) {
      size_t s = SlotOf(reinterpret_cast<const unsigned char*>(key(id)));
      while (slots_[s] != kEmpty) s = (s + 1) & mask;
      slots_[s] = id;
    }
  }

  size_t words_;
  size_t size_ = 0;
  std::vector<uint64_t> keys_;  // size_ x words_, in id order
  std::vector<uint32_t> slots_;
  int shift_ = 64 - std::countr_zero(kInitialSlots);  // top log2(slots) bits
};

}  // namespace hyper

#endif  // HYPER_COMMON_GROUPING_H_
