#include "storage/column.h"

#include "common/strings.h"

namespace hyper {

int32_t Dictionary::Intern(const std::string& s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const int32_t code = static_cast<int32_t>(strings_.size());
  strings_.push_back(s);
  index_.emplace(s, code);
  return code;
}

int32_t Dictionary::Find(const std::string& s) const {
  auto it = index_.find(s);
  return it == index_.end() ? kNullCode : it->second;
}

const char* ColumnKindName(ColumnKind kind) {
  switch (kind) {
    case ColumnKind::kInt64: return "int64";
    case ColumnKind::kDouble: return "double";
    case ColumnKind::kBool: return "bool";
    case ColumnKind::kCode: return "code";
  }
  return "?";
}

namespace {

/// Physical kind for a column given the value types it actually holds,
/// falling back to the declared type for all-NULL columns.
Result<ColumnKind> InferKind(const Table& table, size_t attr) {
  bool saw_string = false, saw_double = false, saw_int = false,
       saw_bool = false, saw_numeric = false;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    switch (table.At(r, attr).type()) {
      case ValueType::kNull: break;
      case ValueType::kBool: saw_bool = true; saw_numeric = true; break;
      case ValueType::kInt: saw_int = true; saw_numeric = true; break;
      case ValueType::kDouble: saw_double = true; saw_numeric = true; break;
      case ValueType::kString: saw_string = true; break;
    }
  }
  if (saw_string && saw_numeric) {
    return Status::InvalidArgument(
        "column '" + table.schema().attribute(attr).name +
        "' mixes strings with numeric values; cannot columnarize");
  }
  if (saw_string) return ColumnKind::kCode;
  if (saw_double) return ColumnKind::kDouble;
  if (saw_int && saw_bool) return ColumnKind::kDouble;
  if (saw_int) return ColumnKind::kInt64;
  if (saw_bool) return ColumnKind::kBool;
  // All NULL: shape after the declared type.
  switch (table.schema().attribute(attr).type) {
    case ValueType::kString: return ColumnKind::kCode;
    case ValueType::kInt: return ColumnKind::kInt64;
    case ValueType::kBool: return ColumnKind::kBool;
    default: return ColumnKind::kDouble;
  }
}

}  // namespace

Result<ColumnTable> ColumnTable::FromTable(const Table& table,
                                           std::shared_ptr<Dictionary> dict) {
  ColumnTable out;
  out.schema_ = table.schema();
  out.num_rows_ = table.num_rows();
  out.dict_ = dict != nullptr ? std::move(dict)
                              : std::make_shared<Dictionary>();
  const size_t n = table.num_rows();
  const size_t num_attrs = table.schema().num_attributes();
  out.columns_.reserve(num_attrs);

  for (size_t a = 0; a < num_attrs; ++a) {
    auto built = std::make_shared<Column>();
    Column& col = *built;
    HYPER_ASSIGN_OR_RETURN(col.kind, InferKind(table, a));
    switch (col.kind) {
      case ColumnKind::kInt64: col.i64.resize(n); break;
      case ColumnKind::kDouble: col.f64.resize(n); break;
      case ColumnKind::kBool: col.b8.resize(n); break;
      case ColumnKind::kCode: col.codes.resize(n); break;
    }
    for (size_t r = 0; r < n; ++r) {
      const Value& v = table.At(r, a);
      if (v.is_null()) {
        if (col.nulls.empty()) col.nulls.resize(n, 0);
        col.nulls[r] = 1;
        switch (col.kind) {
          case ColumnKind::kInt64: col.i64[r] = 0; break;
          case ColumnKind::kDouble: col.f64[r] = 0.0; break;
          case ColumnKind::kBool: col.b8[r] = 0; break;
          case ColumnKind::kCode: col.codes[r] = Dictionary::kNullCode; break;
        }
        continue;
      }
      switch (col.kind) {
        case ColumnKind::kInt64:
          col.i64[r] = v.int_value();
          break;
        case ColumnKind::kDouble:
          col.f64[r] = v.AsDouble().value();
          break;
        case ColumnKind::kBool:
          col.b8[r] = v.bool_value() ? 1 : 0;
          break;
        case ColumnKind::kCode:
          col.codes[r] = out.dict_->Intern(v.string_value());
          break;
      }
    }
    out.columns_.push_back(std::move(built));
  }
  return out;
}

Value ColumnTable::GetValue(size_t row, size_t attr) const {
  const Column& col = *columns_[attr];
  if (col.is_null(row)) return Value::Null();
  switch (col.kind) {
    case ColumnKind::kInt64: return Value::Int(col.i64[row]);
    case ColumnKind::kDouble: return Value::Double(col.f64[row]);
    case ColumnKind::kBool: return Value::Bool(col.b8[row] != 0);
    case ColumnKind::kCode: return Value::String(dict_->at(col.codes[row]));
  }
  return Value::Null();
}

Status ColumnTable::ApplyOverrides(const TableCellOverrides& overrides) {
  // Pass 1: validate every in-shape cell and intern unseen strings before
  // anything is written, so a kind mismatch rejects the whole patch with the
  // image untouched. The dictionary is detached at most once: the first
  // unseen string pays one deep copy (so the patch source, which shares
  // dict_, is never mutated), every later one interns into the
  // already-private copy.
  struct PatchCell {
    size_t attr;
    size_t row;
    const Value* value;
    int32_t code;  // resolved dictionary code for kCode cells
  };
  std::vector<PatchCell> cells_flat;
  bool dict_private = false;
  for (const auto& [attr, cells] : overrides) {
    if (attr >= columns_.size()) continue;  // stale override beyond the shape
    const Column& col = *columns_[attr];
    for (const auto& [row, value] : cells) {
      if (row >= num_rows_) continue;  // stale override beyond the shape
      int32_t code = Dictionary::kNullCode;
      if (!value.is_null()) {
        bool fits = false;
        switch (col.kind) {
          case ColumnKind::kInt64:
            fits = value.type() == ValueType::kInt;
            break;
          case ColumnKind::kDouble:
            // kDouble already means "numeric, possibly mixed": FromTable
            // stores every numeric value through AsDouble here, so ints and
            // bools patch in without changing the inferred kind.
            fits = value.is_numeric();
            break;
          case ColumnKind::kBool:
            fits = value.type() == ValueType::kBool;
            break;
          case ColumnKind::kCode:
            fits = value.type() == ValueType::kString;
            if (fits) {
              code = dict_->Find(value.string_value());
              if (code == Dictionary::kNullCode) {
                if (!dict_private) {
                  dict_ = std::make_shared<Dictionary>(*dict_);
                  dict_private = true;
                }
                code = dict_->Intern(value.string_value());
              }
            }
            break;
        }
        if (!fits) {
          return Status::FailedPrecondition(
              "override value " + value.ToString() + " does not fit " +
              ColumnKindName(col.kind) + " column '" +
              schema_.attribute(attr).name + "'; rebuild from the table");
        }
      }
      cells_flat.push_back(PatchCell{attr, row, &value, code});
    }
  }

  // Pass 2: copy each touched column once (images sharing it keep the
  // original), then patch the copy.
  std::vector<std::shared_ptr<Column>> written(columns_.size());
  for (const PatchCell& cell : cells_flat) {
    std::shared_ptr<Column>& owned = written[cell.attr];
    if (owned == nullptr) {
      owned = std::make_shared<Column>(*columns_[cell.attr]);
    }
    Column& col = *owned;
    const Value& value = *cell.value;
    if (value.is_null()) {
      if (col.nulls.empty()) col.nulls.resize(num_rows_, 0);
      col.nulls[cell.row] = 1;
      switch (col.kind) {
        case ColumnKind::kInt64: col.i64[cell.row] = 0; break;
        case ColumnKind::kDouble: col.f64[cell.row] = 0.0; break;
        case ColumnKind::kBool: col.b8[cell.row] = 0; break;
        case ColumnKind::kCode:
          col.codes[cell.row] = Dictionary::kNullCode;
          break;
      }
      continue;
    }
    switch (col.kind) {
      case ColumnKind::kInt64: col.i64[cell.row] = value.int_value(); break;
      case ColumnKind::kDouble:
        col.f64[cell.row] = value.AsDouble().value();
        break;
      case ColumnKind::kBool:
        col.b8[cell.row] = value.bool_value() ? 1 : 0;
        break;
      case ColumnKind::kCode: col.codes[cell.row] = cell.code; break;
    }
    if (!col.nulls.empty()) col.nulls[cell.row] = 0;
  }
  for (size_t a = 0; a < columns_.size(); ++a) {
    if (written[a] != nullptr) columns_[a] = std::move(written[a]);
  }
  return Status::OK();
}

}  // namespace hyper
