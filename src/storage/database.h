#ifndef HYPER_STORAGE_DATABASE_H_
#define HYPER_STORAGE_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace hyper {

/// A named collection of relations — the paper's multi-relational database D.
///
/// The map is ordered so iteration (and thus block decomposition, ground-graph
/// construction, benchmarks) is deterministic.
///
/// Relations are held through shared ownership so hypothetical worlds can be
/// structurally shared: `ShallowCopy` produces a Database whose tables alias
/// the original's storage, and `GetMutableTable` detaches (copies) a relation
/// before handing out mutable access — the scenario service's branch
/// materialization rides on this to serve many hypothetical worlds without
/// duplicating untouched relations.
class Database {
 public:
  Database() = default;

  /// Copying shares table storage (copy-on-write through GetMutableTable).
  /// Use Clone() for an eagerly independent deep copy.
  Database(const Database&) = default;
  Database& operator=(const Database&) = default;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Adds an empty relation with the given schema.
  Status AddTable(Schema schema);

  /// Adds a fully-built table.
  Status AddTable(Table table);

  /// Inserts or replaces a relation, sharing ownership with the caller. The
  /// database may later copy-on-write through this pointer, so callers must
  /// treat the pointee as frozen once handed over.
  Status PutTable(std::shared_ptr<Table> table);

  Result<const Table*> GetTable(const std::string& name) const;

  /// Shared-ownership read access: the returned handle stays valid (with the
  /// content it had at call time) even if this database later detaches the
  /// relation through copy-on-write or is destroyed — snapshot semantics for
  /// long-lived readers like prepared what-if plans.
  Result<std::shared_ptr<const Table>> GetTableShared(
      const std::string& name) const;

  /// Mutable access with copy-on-write: when the relation's storage is shared
  /// with another Database (via ShallowCopy or copy construction), it is
  /// detached first so mutation never leaks across copies. The returned
  /// pointer is invalidated by any subsequent copy/detach of this relation.
  Result<Table*> GetMutableTable(const std::string& name);

  /// Relation names in deterministic (sorted) order.
  std::vector<std::string> TableNames() const;

  /// Total number of tuples across all relations.
  size_t TotalRows() const;

  /// Finds the unique relation containing attribute `attr`. Errors when the
  /// attribute is absent or ambiguous (the paper assumes update and output
  /// attributes appear in a single relation, §2).
  Result<std::string> RelationOfAttribute(const std::string& attr) const;

  /// Eager deep copy: every relation's storage is duplicated immediately.
  /// Used to materialize hypothetical worlds whose tables are then mutated
  /// through raw pointers (see causal/scm.cc).
  Database Clone() const;

  /// Structural-sharing copy: O(#relations) handles, no row data copied.
  /// Safe because mutation goes through GetMutableTable's copy-on-write.
  Database ShallowCopy() const { return *this; }

  /// Order-independent-of-identity content hash over schemas and cell values:
  /// two databases with Equals-equal relations fingerprint identically. Used
  /// to scope stage-cache keys to a data snapshot.
  uint64_t ContentFingerprint() const;

 private:
  std::map<std::string, std::shared_ptr<Table>> tables_;
};

}  // namespace hyper

#endif  // HYPER_STORAGE_DATABASE_H_
