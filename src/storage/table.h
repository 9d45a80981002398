#ifndef HYPER_STORAGE_TABLE_H_
#define HYPER_STORAGE_TABLE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace hyper {

/// A row of values; position i corresponds to schema attribute i.
using Row = std::vector<Value>;

/// In-memory row store for one relation.
///
/// Rows are indexed by a dense tuple id (their position); the paper's tuple
/// identifiers p_i / r_j map onto these ids. The store is append-only except
/// for SetValue, which what-if machinery uses to materialize hypothetical
/// worlds on copies.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }

  /// Appends a row after checking arity and (loosely) types: NULL is allowed
  /// anywhere, ints are accepted for double columns.
  Status Append(Row row);

  /// Unchecked append for generators on hot paths.
  void AppendUnchecked(Row row) { rows_.push_back(std::move(row)); }

  /// Pre-sizes the row vector; the million-row generators reserve up front
  /// so growth never copies the row headers repeatedly.
  void Reserve(size_t rows) { rows_.reserve(rows); }

  const Row& row(size_t tid) const { return rows_[tid]; }
  Row& mutable_row(size_t tid) { return rows_[tid]; }

  const Value& At(size_t tid, size_t attr) const { return rows_[tid][attr]; }
  void SetValue(size_t tid, size_t attr, Value v) {
    rows_[tid][attr] = std::move(v);
  }

  /// Renders at most `max_rows` rows for debugging.
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

}  // namespace hyper

#endif  // HYPER_STORAGE_TABLE_H_
