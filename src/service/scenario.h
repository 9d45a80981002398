#ifndef HYPER_SERVICE_SCENARIO_H_
#define HYPER_SERVICE_SCENARIO_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "storage/column.h"
#include "storage/value.h"

namespace hyper::service {

/// One scenario branch: a named chain of hypothetical updates over a base
/// database, held as sparse copy-on-write per-attribute override deltas —
/// never a materialized copy of the data. A branch created from a parent
/// starts with the parent's deltas (chaining); later updates merge cell by
/// cell, later writes winning.
///
/// Overrides are relative to the *base* database. The ScenarioService
/// snapshots them into one World per branch version. Its requests run over
/// the base relations and the base's columnar images patched with these
/// cells; only the few reads that need the branch's rows make the World
/// patch a copy of each touched base table, once, outside the service
/// lock (untouched relations are shared with the base via
/// Database::ShallowCopy).
class ScenarioBranch {
 public:
  /// tid -> value overrides of one attribute. Aliases the storage-layer
  /// cell-override types so branch deltas feed ColumnTable::ApplyOverrides
  /// (delta-aware columnar materialization) without conversion.
  using AttributeCells = AttributeCellOverrides;
  /// attr index -> cells, for one relation.
  using RelationOverrides = TableCellOverrides;
  /// relation -> overrides: a branch's whole delta, base-relative.
  using OverrideMap = std::map<std::string, RelationOverrides>;

  ScenarioBranch(std::string name, std::string parent)
      : name_(std::move(name)), parent_(std::move(parent)) {}

  /// Chaining: start from another branch's deltas.
  ScenarioBranch(std::string name, const ScenarioBranch& parent)
      : name_(std::move(name)),
        parent_(parent.name_),
        overrides_(parent.overrides_),
        updates_applied_(parent.updates_applied_),
        version_(0),
        fnv_(parent.fnv_) {}

  /// Rehydrates a branch from durable state (src/durability/). The delta
  /// fingerprint mixes in Override() *call order*, so it cannot be
  /// recomputed from the cell map alone — the snapshot carries the raw FNV
  /// state and this factory reseeds it, making post-recovery fingerprints
  /// bit-identical to the pre-crash ones.
  static ScenarioBranch Restore(std::string name, std::string parent,
                                OverrideMap overrides, size_t updates_applied,
                                uint64_t version, uint64_t fnv_state) {
    ScenarioBranch branch(std::move(name), std::move(parent));
    branch.overrides_ = std::move(overrides);
    branch.updates_applied_ = updates_applied;
    branch.version_ = version;
    branch.fnv_ = Fnv1a(fnv_state);
    return branch;
  }

  const std::string& name() const { return name_; }
  const std::string& parent() const { return parent_; }

  /// Bumps on every non-empty Override batch; materialization and plan
  /// scoping key on it.
  uint64_t version() const { return version_; }

  /// Deterministic hash of every override cell (relation, attribute, tid,
  /// value). Two branches with identical deltas fingerprint identically, so
  /// they share stage-cache entries.
  uint64_t delta_fingerprint() const { return fnv_.hash(); }

  size_t updates_applied() const { return updates_applied_; }
  size_t overridden_cells() const;

  /// The branch's whole delta (base-relative), by const reference — callers
  /// needing a lock-free snapshot copy it (O(cells)).
  const OverrideMap& overrides() const { return overrides_; }

  /// Merges one batch of cell overrides for (relation, attr index). Cells
  /// overwrite earlier values at the same coordinates. An empty batch is a
  /// no-op: it must not bump the version, change the fingerprint or mark
  /// the relation touched (a data-identical world keeps its cached plans).
  void Override(const std::string& relation, size_t attr,
                const std::vector<std::pair<size_t, Value>>& cells);

  /// What a delta_fingerprint() of `fnv_state` would become after
  /// Override(relation, attr, cells) — without mutating. Chain it across
  /// the batches of one hypothetical (the state IS the fingerprint). The
  /// durability layer journals this post-image so replay can verify each
  /// record landed on the exact fingerprint the live run produced.
  static uint64_t PreviewFingerprint(
      uint64_t fnv_state, const std::string& relation, size_t attr,
      const std::vector<std::pair<size_t, Value>>& cells);

  /// Counts one applied hypothetical statement (which may Override several
  /// attributes).
  void RecordUpdateApplied() { ++updates_applied_; }

 private:
  std::string name_;
  std::string parent_;
  /// relation -> attr index -> tid -> value. Ordered maps keep the
  /// fingerprint and materialization deterministic.
  OverrideMap overrides_;
  size_t updates_applied_ = 0;
  uint64_t version_ = 0;
  Fnv1a fnv_;
};

}  // namespace hyper::service

#endif  // HYPER_SERVICE_SCENARIO_H_
