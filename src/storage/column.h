#ifndef HYPER_STORAGE_COLUMN_H_
#define HYPER_STORAGE_COLUMN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace hyper {

/// Sparse cell overrides for one table: attribute index -> row -> value.
/// Ordered maps keep patch application (and anything fingerprinting the
/// cells) deterministic. Structurally identical to the scenario-branch
/// delta maps, so branch overrides flow into ColumnTable::ApplyOverrides
/// without conversion.
using AttributeCellOverrides = std::map<size_t, Value>;
using TableCellOverrides = std::map<size_t, AttributeCellOverrides>;

/// Shared string interner: every distinct string is stored once and addressed
/// by a dense int32 code. Codes are assigned in first-intern order, so two
/// ColumnTables built over the same Dictionary agree on codes and equi-joins /
/// group-bys can hash 4-byte codes instead of strings. Code order is NOT
/// lexicographic — ordered comparisons must go through the strings.
class Dictionary {
 public:
  static constexpr int32_t kNullCode = -1;

  /// Returns the code of `s`, interning it first when absent.
  int32_t Intern(const std::string& s);

  /// Returns the code of `s`, or kNullCode when it was never interned.
  int32_t Find(const std::string& s) const;

  const std::string& at(int32_t code) const { return strings_[code]; }
  size_t size() const { return strings_.size(); }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, int32_t> index_;
};

/// Physical representation of one column of a ColumnTable.
enum class ColumnKind {
  kInt64 = 0,  // data in i64
  kDouble,     // data in f64
  kBool,       // data in b8 (0/1)
  kCode,       // dictionary codes in codes (kNullCode for NULL)
};

const char* ColumnKindName(ColumnKind kind);

/// One typed column. Exactly one of the payload vectors is populated
/// (matching `kind`); `nulls` is empty when the column has no NULLs,
/// otherwise a parallel 0/1 mask.
struct Column {
  ColumnKind kind = ColumnKind::kDouble;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<uint8_t> b8;
  std::vector<int32_t> codes;
  std::vector<uint8_t> nulls;

  bool has_nulls() const { return !nulls.empty(); }
  bool is_null(size_t row) const { return !nulls.empty() && nulls[row] != 0; }
};

/// Column-major image of a Table: typed vectors per attribute with string
/// columns dictionary-encoded against a (shareable) interner.
///
/// ColumnTable is a read-optimized projection, not a second source of truth:
/// engines build one from the row store once per query and stream over the
/// typed vectors. The physical kind of each column is inferred from the
/// stored values (the row store is loosely typed); a column mixing ints and
/// doubles is promoted to kDouble, which preserves Equals/Compare/Hash
/// semantics for every value the generators produce (|int| < 2^53).
///
/// Columns are immutable once built and held through shared pointers: a
/// copy of a ColumnTable shares every column with its source (O(columns),
/// not O(cells)), and ApplyOverrides replaces only the columns it writes.
class ColumnTable {
 public:
  /// Builds the columnar image of `table`. `dict` may be shared across
  /// tables; when null a fresh dictionary is created. Errors when a column
  /// mixes strings with non-strings.
  static Result<ColumnTable> FromTable(
      const Table& table, std::shared_ptr<Dictionary> dict = nullptr);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& col(size_t attr) const { return *columns_[attr]; }
  const Dictionary& dict() const { return *dict_; }
  const std::shared_ptr<Dictionary>& shared_dict() const { return dict_; }

  /// Reconstructs the Value at (row, attr). Mixed int/double columns come
  /// back as kDouble (Equals-compatible with the original ints).
  Value GetValue(size_t row, size_t attr) const;

  /// Patches this image from sparse cell overrides (attribute -> row ->
  /// value), the delta-aware alternative to re-encoding a whole patched
  /// table through FromTable. Copy-on-write: each column holding at least
  /// one in-shape cell is copied once and patched; every other column stays
  /// shared with the images this one was copied from, which never see the
  /// patch. Cells beyond the table shape are skipped (matching the scenario
  /// service's stale-override semantics).
  ///
  /// Every patched cell must fit the column's physical kind as inferred at
  /// build time — int into kInt64/kDouble, double into kDouble, bool into
  /// kBool, string into kCode, NULL anywhere; anything else (e.g. a double
  /// landing in an all-int column, which FromTable would have promoted to
  /// kDouble) returns FailedPrecondition, and the caller must rebuild from
  /// the table instead (only the dictionary may have grown). On OK the
  /// image is value-for-value (Equals) identical to FromTable over the
  /// patched rows; the physical kind may stay wider than a rebuild would
  /// infer (overrides erasing a column's only double keep it kDouble),
  /// which preserves Equals/Compare/Hash semantics per the mixed-column
  /// contract.
  ///
  /// A string override absent from the dictionary triggers a private copy of
  /// the dictionary before interning, so images sharing the original
  /// dictionary (the patch source) are never mutated under concurrent reads.
  ///
  /// Overrides are validated (and strings interned) in one pass before any
  /// cell is written, so FailedPrecondition leaves the image untouched; a
  /// second pass then copies the touched columns and writes the cells. A
  /// branch's scope image is its base image with the branch delta patched
  /// in: it owns the columns the delta writes and shares the rest.
  Status ApplyOverrides(const TableCellOverrides& overrides);

  /// Fixed segment size of the parallel expression kernels: the When-mask
  /// and double-projection kernels shard a view of two or more segments.
  static constexpr size_t kSegmentRows = 65536;

  /// Number of kSegmentRows-sized segments covering the rows (0 when empty).
  size_t num_segments() const {
    return (num_rows_ + kSegmentRows - 1) / kSegmentRows;
  }

 private:
  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<std::shared_ptr<const Column>> columns_;
  std::shared_ptr<Dictionary> dict_;
};

}  // namespace hyper

#endif  // HYPER_STORAGE_COLUMN_H_
