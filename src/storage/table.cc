#include "storage/table.h"

#include <sstream>

#include "common/strings.h"

namespace hyper {

namespace {

bool TypeAccepts(ValueType declared, ValueType actual) {
  if (actual == ValueType::kNull) return true;
  if (declared == actual) return true;
  // SQL-style widening: int literals land in double columns.
  if (declared == ValueType::kDouble && actual == ValueType::kInt) return true;
  if (declared == ValueType::kInt && actual == ValueType::kBool) return true;
  if (declared == ValueType::kDouble && actual == ValueType::kBool) return true;
  return false;
}

}  // namespace

Status Table::Append(Row row) {
  if (row.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(StrFormat(
        "row arity %zu does not match schema arity %zu of relation '%s'",
        row.size(), schema_.num_attributes(),
        schema_.relation_name().c_str()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!TypeAccepts(schema_.attribute(i).type, row[i].type())) {
      return Status::InvalidArgument(StrFormat(
          "value %s has type %s but attribute '%s' is declared %s",
          row[i].ToString().c_str(), ValueTypeName(row[i].type()),
          schema_.attribute(i).name.c_str(),
          ValueTypeName(schema_.attribute(i).type)));
    }
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << schema_.ToString() << " [" << num_rows() << " rows]\n";
  const size_t n = std::min(max_rows, num_rows());
  for (size_t t = 0; t < n; ++t) {
    os << "  #" << t << ": (";
    for (size_t i = 0; i < rows_[t].size(); ++i) {
      if (i > 0) os << ", ";
      os << rows_[t][i].ToString();
    }
    os << ")\n";
  }
  if (n < num_rows()) os << "  ... (" << (num_rows() - n) << " more)\n";
  return os.str();
}

}  // namespace hyper
