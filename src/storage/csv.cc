#include "storage/csv.h"

#include <cctype>
#include <charconv>
#include <fstream>

#include "common/strings.h"

namespace hyper {

namespace {

bool ParseInt(const std::string& text, int64_t* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

}  // namespace

std::vector<std::string> SplitCsvLine(const std::string& line,
                                      char delimiter) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == delimiter) {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c != '\r') {
      field.push_back(c);
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

Result<Table> ReadCsv(std::istream& in, const std::string& relation,
                      const CsvReadOptions& options) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("CSV input is empty (no header row)");
  }
  const std::vector<std::string> header =
      SplitCsvLine(line, options.delimiter);
  if (header.empty() || (header.size() == 1 && header[0].empty())) {
    return Status::InvalidArgument("CSV header row is empty");
  }

  // Load raw fields.
  std::vector<std::vector<std::string>> rows;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line, options.delimiter);
    if (fields.size() != header.size()) {
      return Status::ParseError(StrFormat(
          "CSV line %zu has %zu fields, header has %zu", line_number,
          fields.size(), header.size()));
    }
    rows.push_back(std::move(fields));
  }

  // Infer per-column types.
  std::vector<ValueType> types(header.size(), ValueType::kString);
  if (options.infer_types) {
    for (size_t c = 0; c < header.size(); ++c) {
      bool all_int = true;
      bool all_double = true;
      bool any_value = false;
      for (const auto& row : rows) {
        const std::string& field = row[c];
        if (field.empty()) continue;
        any_value = true;
        int64_t i;
        double d;
        if (!ParseInt(field, &i)) all_int = false;
        if (!ParseDouble(field, &d)) all_double = false;
        if (!all_double) break;
      }
      if (!any_value) {
        types[c] = ValueType::kString;
      } else if (all_int) {
        types[c] = ValueType::kInt;
      } else if (all_double) {
        types[c] = ValueType::kDouble;
      }
    }
  }

  // Build the schema.
  auto contains = [](const std::vector<std::string>& list,
                     const std::string& name) {
    for (const std::string& item : list) {
      if (EqualsIgnoreCase(item, name)) return true;
    }
    return false;
  };
  std::vector<AttributeDef> attrs;
  for (size_t c = 0; c < header.size(); ++c) {
    AttributeDef def;
    def.name = header[c];
    def.type = types[c];
    def.mutability = contains(options.immutable, header[c])
                         ? Mutability::kImmutable
                         : Mutability::kMutable;
    attrs.push_back(std::move(def));
  }
  for (const std::string& k : options.key) {
    bool found = false;
    for (const auto& attr : attrs) {
      if (attr.name == k) found = true;
    }
    if (!found) {
      return Status::InvalidArgument("key attribute '" + k +
                                     "' not in CSV header");
    }
  }
  Table table(Schema(relation, std::move(attrs), options.key));

  // Convert and append.
  for (size_t r = 0; r < rows.size(); ++r) {
    Row row;
    row.reserve(header.size());
    for (size_t c = 0; c < header.size(); ++c) {
      const std::string& field = rows[r][c];
      if (field.empty()) {
        row.push_back(Value::Null());
        continue;
      }
      switch (types[c]) {
        case ValueType::kInt: {
          int64_t i = 0;
          ParseInt(field, &i);
          row.push_back(Value::Int(i));
          break;
        }
        case ValueType::kDouble: {
          double d = 0;
          ParseDouble(field, &d);
          row.push_back(Value::Double(d));
          break;
        }
        default:
          row.push_back(Value::String(field));
      }
    }
    HYPER_RETURN_NOT_OK(table.Append(std::move(row)));
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path,
                          const std::string& relation,
                          const CsvReadOptions& options) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open CSV file '" + path + "'");
  }
  return ReadCsv(in, relation, options);
}

}  // namespace hyper
