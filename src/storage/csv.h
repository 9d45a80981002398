#ifndef HYPER_STORAGE_CSV_H_
#define HYPER_STORAGE_CSV_H_

#include <istream>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace hyper {

/// Options for loading a CSV into a Table.
struct CsvReadOptions {
  char delimiter = ',';
  /// Attributes to treat as the primary key (must exist in the header).
  std::vector<std::string> key;
  /// Attributes to mark immutable beyond the key (e.g. demographics).
  std::vector<std::string> immutable;
  /// When true (default), column types are inferred from the data: a column
  /// is INT if every non-empty field parses as an integer, DOUBLE if every
  /// field parses as a number, else STRING. Empty fields load as NULL.
  bool infer_types = true;
};

/// Parses one CSV line honoring double-quote quoting ("" escapes a quote).
std::vector<std::string> SplitCsvLine(const std::string& line,
                                      char delimiter);

/// Reads a CSV stream with a header row into a Table named `relation`.
/// Deterministic type inference happens in a first pass over the data.
Result<Table> ReadCsv(std::istream& in, const std::string& relation,
                      const CsvReadOptions& options = {});

/// Convenience file wrapper.
Result<Table> ReadCsvFile(const std::string& path,
                          const std::string& relation,
                          const CsvReadOptions& options = {});

}  // namespace hyper

#endif  // HYPER_STORAGE_CSV_H_
