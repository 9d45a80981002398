#include "service/scenario_service.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "relational/select.h"
#include "service/service_metrics.h"
#include "sql/parser.h"

namespace hyper::service {

namespace {

/// The stage-cache scope of a data snapshot: the generation and the delta
/// fingerprint of the branch.
std::string DataScope(uint64_t generation, uint64_t delta_fingerprint) {
  return StrFormat("g%llu|d%016llx",
                   static_cast<unsigned long long>(generation),
                   static_cast<unsigned long long>(delta_fingerprint));
}

/// The kind of answer `statement` gets under a request expecting `expected`.
Response::Kind KindOf(const sql::Statement& statement,
                      Response::Kind expected) {
  if (statement.whatif != nullptr) {
    return expected == Response::Kind::kWhatIfBatch
               ? Response::Kind::kWhatIfBatch
               : Response::Kind::kWhatIf;
  }
  if (statement.howto != nullptr) return Response::Kind::kHowTo;
  if (statement.select != nullptr) return Response::Kind::kSelect;
  return Response::Kind::kNone;
}

}  // namespace

const char* KindName(Response::Kind kind) {
  switch (kind) {
    case Response::Kind::kWhatIf:
    case Response::Kind::kWhatIfBatch:
      return "what-if";
    case Response::Kind::kHowTo:
      return "how-to";
    case Response::Kind::kSelect:
      return "select";
    case Response::Kind::kNone:
      break;
  }
  return "none";
}

/// One branch version: the hypothetical world D' (§3, Definition 5) that the
/// branch's applied updates make of the base. The base relations (shared
/// through Database::ShallowCopy), the branch's override cells and the
/// stage context are fixed at construction, under the service lock.
/// Requests run their engines over the base with the stage context, whose
/// table-view images are the base images patched with the override cells;
/// the context hands the engine this World as its row source for the reads
/// that need the patched rows. Those rows are built at most once, by the
/// first caller of Rows, under the World's own lock, never the service's.
class ScenarioService::World : public whatif::RowSource {
 public:
  World(Database base, const ScenarioBranch& branch, uint64_t branch_id,
        uint64_t generation, whatif::StageProvider* stages,
        std::atomic<uint64_t>* row_builds)
      : base_(std::move(base)),
        overrides_(branch.overrides()),
        branch_id_(branch_id),
        branch_version_(branch.version()),
        row_builds_(row_builds) {
    context_.stages = stages;
    context_.data_scope = DataScope(generation, branch.delta_fingerprint());
    // Cell overrides never add or remove rows, so the generation alone
    // scopes the shape-keyed stages every branch shares.
    context_.shape_scope =
        StrFormat("g%llu", static_cast<unsigned long long>(generation));
    // Overrides are base-relative: any branch's columnar image is the
    // untouched trunk's image plus its own cells.
    context_.base_scope = DataScope(generation, Fnv1a().hash());
    context_.overrides = &overrides_;
    // Without cells the base is the snapshot, and the engine reads it.
    context_.rows = overrides_.empty() ? nullptr : this;
  }

  uint64_t branch_id() const { return branch_id_; }
  uint64_t branch_version() const { return branch_version_; }
  const whatif::StageContext& stage_context() const { return context_; }
  /// The base relations the World's engines run over.
  const Database& base() const { return base_; }

  /// The base with each touched relation replaced by a patched copy;
  /// untouched relations share the base storage. Each build counts in the
  /// service's row-build counter.
  Result<std::shared_ptr<const Database>> Rows() const override
      EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (rows_ != nullptr) return rows_;
    auto rows = std::make_shared<Database>(base_.ShallowCopy());
    for (const auto& [relation, attrs] : overrides_) {
      HYPER_ASSIGN_OR_RETURN(const Table* base_table,
                             rows->GetTable(relation));
      auto patched = std::make_shared<Table>(*base_table);
      for (const auto& [attr, cells] : attrs) {
        for (const auto& [tid, value] : cells) {
          if (tid >= patched->num_rows() ||
              attr >= patched->schema().num_attributes()) {
            continue;  // stale override beyond the base shape
          }
          patched->SetValue(tid, attr, value);
        }
      }
      HYPER_RETURN_NOT_OK(rows->PutTable(std::move(patched)));
    }
    row_builds_->fetch_add(1, std::memory_order_relaxed);
    rows_ = std::move(rows);
    return rows_;
  }

 private:
  const Database base_;
  const ScenarioBranch::OverrideMap overrides_;
  const uint64_t branch_id_;
  const uint64_t branch_version_;
  std::atomic<uint64_t>* const row_builds_;
  whatif::StageContext context_;
  mutable Mutex mu_;
  mutable std::shared_ptr<const Database> rows_ GUARDED_BY(mu_);
};

ScenarioService::ScenarioService(Database base, ServiceOptions options)
    : ScenarioService(std::move(base), std::nullopt, std::move(options)) {}

ScenarioService::ScenarioService(Database base,
                                 std::optional<causal::CausalGraph> graph,
                                 ServiceOptions options)
    : base_(std::move(base)),
      graph_(std::move(graph)),
      options_(options),
      cache_(options.plan_cache_capacity) {
  branches_.try_emplace("main", ScenarioBranch("main", ""), next_branch_id_++);
  if (options_.metrics != nullptr) {
    instruments_ = std::make_unique<ServiceInstruments>(options_.metrics);
  }
  InitDurability();
}

void ScenarioService::InitDurability() {
  if (options_.data_dir.empty()) return;
  durability::DurabilityOptions dopts;
  dopts.dir = options_.data_dir;
  dopts.fsync = options_.wal_fsync;
  dopts.fsync_interval_seconds = options_.wal_fsync_interval_seconds;
  dopts.snapshot_every_records = options_.snapshot_every_records;
  dopts.metrics = options_.metrics;
  Stopwatch timer;
  auto opened =
      durability::Manager::Open(std::move(dopts), base_.ContentFingerprint());
  if (!opened.ok()) {
    recovery_status_ = opened.status();
    return;
  }
  recovery_info_ = opened->info;
  Status replayed = ReplayDurable(&*opened);
  if (!replayed.ok()) {
    // Refuse to serve from a half-replayed state: the gate holds the typed
    // status and no manager exists to journal against.
    recovery_status_ = std::move(replayed);
    return;
  }
  recovery_info_.seconds = timer.ElapsedSeconds();
  durable_ = std::move(opened->manager);
  durable_->NoteRecoveryComplete(recovery_info_);
}

Status ScenarioService::ReplayDurable(durability::Manager::OpenResult* opened) {
  // Constructor-only: no concurrent access, mu_ not needed.
  if (opened->snapshot.found) {
    branches_.clear();
    for (durability::DurableBranch& image : opened->snapshot.state.branches) {
      std::string name = image.name;
      ScenarioBranch branch = ScenarioBranch::Restore(
          std::move(image.name), std::move(image.parent),
          std::move(image.overrides), image.updates_applied, image.version,
          image.fnv_state);
      branches_.try_emplace(std::move(name), std::move(branch),
                            next_branch_id_++);
    }
    if (branches_.count("main") == 0) {
      return Status::DataLoss("snapshot " + opened->snapshot.path +
                              " is missing the trunk scenario 'main'");
    }
  }
  generation_ = opened->info.generation;

  // Replay the tail through the SAME mutation path that produced it
  // (ScenarioBranch::Override), verifying each record lands on the exact
  // fingerprint the live run journaled. Any divergence means the log and
  // the code disagree about history — refuse rather than serve wrong state.
  for (durability::RecoveredOp& op : opened->ops) {
    const std::string at = " (WAL lsn " + std::to_string(op.lsn) + ")";
    switch (op.type) {
      case durability::WalRecordType::kCreate: {
        auto& r = std::get<durability::CreateRecord>(op.op);
        if (branches_.count(r.name) > 0) {
          return Status::DataLoss("replay divergence: scenario '" + r.name +
                                  "' already exists at its create record" +
                                  at);
        }
        auto parent = branches_.find(r.parent);
        if (parent == branches_.end()) {
          return Status::DataLoss("replay divergence: parent scenario '" +
                                  r.parent + "' missing" + at);
        }
        ScenarioBranch branch(r.name, parent->second.branch);
        if (branch.delta_fingerprint() != r.post_fingerprint) {
          return Status::DataLoss(
              "replay divergence: created scenario '" + r.name +
              "' fingerprints differently than journaled" + at);
        }
        branches_.try_emplace(r.name, std::move(branch), next_branch_id_++);
        break;
      }
      case durability::WalRecordType::kApply: {
        auto& r = std::get<durability::ApplyRecord>(op.op);
        auto it = branches_.find(r.branch);
        if (it == branches_.end()) {
          return Status::DataLoss("replay divergence: scenario '" + r.branch +
                                  "' missing at its apply record" + at);
        }
        ScenarioBranch& branch = it->second.branch;
        if (branch.delta_fingerprint() != r.pre_fingerprint) {
          return Status::DataLoss(
              "replay divergence: scenario '" + r.branch +
              "' does not match the journaled pre-apply fingerprint" + at);
        }
        for (const durability::ApplyBatch& batch : r.batches) {
          std::vector<std::pair<size_t, Value>> cells;
          cells.reserve(batch.cells.size());
          for (const auto& [tid, value] : batch.cells) {
            cells.emplace_back(static_cast<size_t>(tid), value);
          }
          branch.Override(batch.relation, static_cast<size_t>(batch.attr),
                          cells);
        }
        branch.RecordUpdateApplied();
        if (branch.delta_fingerprint() != r.post_fingerprint) {
          return Status::DataLoss(
              "replay divergence: scenario '" + r.branch +
              "' does not match the journaled post-apply fingerprint" + at);
        }
        break;
      }
      case durability::WalRecordType::kDrop: {
        auto& r = std::get<durability::DropRecord>(op.op);
        // Tombstone: the branch must exist here and must not survive. A
        // missing branch means history diverged.
        if (branches_.erase(r.name) == 0) {
          return Status::DataLoss("replay divergence: drop tombstone for "
                                  "unknown scenario '" +
                                  r.name + "'" + at);
        }
        break;
      }
      case durability::WalRecordType::kReload: {
        // The base data itself is never journaled; Manager::Open already
        // verified the final base fingerprint against the live dataset.
        // Override replay is base-independent (journaled physical cells),
        // so everything before this record was exact — and is now wiped,
        // exactly as the live reload wiped it.
        auto& r = std::get<durability::ReloadRecord>(op.op);
        generation_ = r.generation;
        branches_.clear();
        branches_.try_emplace("main", ScenarioBranch("main", ""),
                              next_branch_id_++);
        break;
      }
      case durability::WalRecordType::kHeader:
        return Status::DataLoss("unexpected header record in replay" + at);
    }
  }
  return Status::OK();
}

std::vector<durability::DurableBranch> ScenarioService::ImageBranchesLocked()
    const {
  std::vector<durability::DurableBranch> images;
  images.reserve(branches_.size());
  for (const auto& [name, state] : branches_) {
    durability::DurableBranch image;
    image.name = name;
    image.parent = state.branch.parent();
    image.overrides = state.branch.overrides();
    image.updates_applied = state.branch.updates_applied();
    image.version = state.branch.version();
    image.fnv_state = state.branch.delta_fingerprint();
    images.push_back(std::move(image));
  }
  return images;
}

Status ScenarioService::SnapshotLocked() {
  return durable_->WriteSnapshot(ImageBranchesLocked());
}

Status ScenarioService::SnapshotNow() {
  HYPER_RETURN_NOT_OK(recovery_status_);
  MutexLock lock(&mu_);
  if (durable_ == nullptr) return Status::OK();
  return SnapshotLocked();
}

Status ScenarioService::SyncWal() {
  HYPER_RETURN_NOT_OK(recovery_status_);
  if (durable_ == nullptr) return Status::OK();
  return durable_->Sync();
}

durability::WalStats ScenarioService::wal_stats() const {
  if (durable_ == nullptr) {
    durability::WalStats stats;
    stats.enabled = false;
    stats.dir = options_.data_dir;
    stats.recovery = recovery_info_;
    return stats;
  }
  return durable_->Stats();
}

ScenarioService::~ScenarioService() = default;

Status ScenarioService::CreateScenario(const std::string& name,
                                       const std::string& parent) {
  HYPER_RETURN_NOT_OK(recovery_status_);
  if (name.empty()) {
    return Status::InvalidArgument("scenario name must not be empty");
  }
  MutexLock lock(&mu_);
  if (branches_.count(name) > 0) {
    return Status::AlreadyExists("scenario '" + name + "' already exists");
  }
  auto it = branches_.find(parent);
  if (it == branches_.end()) {
    return Status::NotFound("parent scenario '" + parent +
                            "' does not exist");
  }
  ScenarioBranch branch(name, it->second.branch);
  if (durable_ != nullptr) {
    // Journal-before-visible: an append failure leaves the service exactly
    // as it was — the branch object above is simply discarded.
    durability::CreateRecord record;
    record.name = name;
    record.parent = parent;
    record.post_fingerprint = branch.delta_fingerprint();
    HYPER_RETURN_NOT_OK(durable_->AppendCreate(record));
  }
  branches_.try_emplace(name, std::move(branch), next_branch_id_++);
  if (durable_ != nullptr && durable_->ShouldSnapshot()) {
    // Cadence only: a failed snapshot just leaves more WAL to replay.
    (void)SnapshotLocked();
  }
  return Status::OK();
}

Status ScenarioService::DropScenario(const std::string& name) {
  HYPER_RETURN_NOT_OK(recovery_status_);
  if (name == "main") {
    return Status::InvalidArgument("cannot drop the trunk scenario 'main'");
  }
  std::string scope_tag;
  {
    MutexLock lock(&mu_);
    auto it = branches_.find(name);
    if (it == branches_.end()) {
      return Status::NotFound("scenario '" + name + "' does not exist");
    }
    if (durable_ != nullptr) {
      // Tombstone-before-erase: once acknowledged, recovery must never
      // resurrect this branch.
      durability::DropRecord record;
      record.name = name;
      HYPER_RETURN_NOT_OK(durable_->AppendDrop(record));
    }
    // The branch's World dies with the BranchState; its data scope tags
    // the cache entries to evict. Skip the eviction when the delta
    // fingerprints like the trunk's (an untouched branch shares every entry
    // with it).
    const uint64_t fingerprint = it->second.branch.delta_fingerprint();
    if (fingerprint != branches_.at("main").branch.delta_fingerprint()) {
      scope_tag = DataScope(generation_, fingerprint);
    }
    branches_.erase(it);
    if (durable_ != nullptr && durable_->ShouldSnapshot()) {
      // Cadence only: failure just leaves more WAL to replay.
      (void)SnapshotLocked();
    }
  }
  // Eager eviction outside the service lock (the cache has its own): drop
  // the branch-scoped scope / query (plan) entries now instead of letting
  // them squat in the LRU until capacity pressure pushes them out.
  if (!scope_tag.empty()) cache_.EvictTagged(scope_tag);
  return Status::OK();
}

bool ScenarioService::HasScenario(const std::string& name) const {
  MutexLock lock(&mu_);
  return branches_.count(name) > 0;
}

std::vector<ScenarioInfo> ScenarioService::ListScenarios() const {
  MutexLock lock(&mu_);
  std::vector<ScenarioInfo> out;
  out.reserve(branches_.size());
  for (const auto& [name, state] : branches_) {
    ScenarioInfo info;
    info.name = name;
    info.parent = state.branch.parent();
    info.updates_applied = state.branch.updates_applied();
    info.overridden_cells = state.branch.overridden_cells();
    info.version = state.branch.version();
    info.delta_fingerprint = state.branch.delta_fingerprint();
    out.push_back(std::move(info));
  }
  return out;
}

Result<ScenarioService::BranchState*> ScenarioService::FindBranchLocked(
    const std::string& name) {
  auto it = branches_.find(name);
  if (it == branches_.end()) {
    return Status::NotFound("scenario '" + name + "' does not exist");
  }
  return &it->second;
}

Result<std::shared_ptr<const ScenarioService::World>>
ScenarioService::SnapshotWorld(const std::string& scenario) {
  MutexLock lock(&mu_);
  HYPER_ASSIGN_OR_RETURN(BranchState * state, FindBranchLocked(scenario));
  if (state->world == nullptr ||
      state->world->branch_version() != state->branch.version()) {
    state->world = std::make_shared<const World>(
        base_.ShallowCopy(), state->branch, state->id, generation_, &cache_,
        &world_row_builds_);
  }
  return state->world;
}

Result<std::shared_ptr<const Database>> ScenarioService::EffectiveDatabase(
    const std::string& scenario) {
  HYPER_RETURN_NOT_OK(recovery_status_);
  HYPER_ASSIGN_OR_RETURN(std::shared_ptr<const World> world,
                         SnapshotWorld(scenario));
  return world->Rows();
}

Result<size_t> ScenarioService::ApplyHypotheticalSql(
    const std::string& scenario, const std::string& whatif_sql) {
  HYPER_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseSql(whatif_sql));
  if (stmt.whatif == nullptr) {
    return Status::InvalidArgument(
        "ApplyHypothetical expects a what-if statement (its Use / When / "
        "Update clauses define the branch update)");
  }
  return ApplyHypothetical(scenario, *stmt.whatif);
}

namespace {

/// The deterministic delta of a hypothetical update against one world:
/// target relation, attribute indices, and the f(pre) cell batches.
struct HypotheticalDelta {
  std::string relation;
  std::vector<size_t> attr_of_update;
  std::vector<std::vector<std::pair<size_t, Value>>> cells;  // per update
  size_t updated_rows = 0;
};

/// `engine` runs over the world's `base`; `ctx` is the world's stage
/// context, through which S and the pre-update values come from the
/// world's columnar image: the base image patched with the world's cells.
Result<HypotheticalDelta> ComputeHypotheticalDelta(
    const Database& base, const sql::WhatIfStmt& stmt,
    const whatif::WhatIfEngine& engine, const whatif::StageContext& ctx) {
  HypotheticalDelta delta;
  // All update attributes must live in one relation (the engine's relevant
  // view has the same contract).
  HYPER_ASSIGN_OR_RETURN(delta.relation,
                         base.RelationOfAttribute(stmt.updates[0].attribute));
  HYPER_ASSIGN_OR_RETURN(const Table* table, base.GetTable(delta.relation));
  // Only the schema: the base holds none of the branch's cells.
  const Schema& schema = table->schema();
  for (const sql::UpdateClause& u : stmt.updates) {
    if (!schema.Contains(u.attribute)) {
      return Status::InvalidArgument(
          "update attributes span multiple relations: '" + u.attribute +
          "' is not in '" + delta.relation + "'");
    }
    HYPER_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(u.attribute));
    if (schema.attribute(idx).mutability == Mutability::kImmutable) {
      return Status::InvalidArgument("update attribute '" + u.attribute +
                                     "' is immutable");
    }
    delta.attr_of_update.push_back(idx);
  }

  // S from the When predicate, over the *branch-effective* relation so
  // chained updates compose: the same mask kernel a query's When runs, over
  // the world's ScopeStage image of `Use R` (When reads R whatever the
  // statement's Use clause says; a table view's row r is tid r).
  sql::UseClause use;
  use.table = delta.relation;
  HYPER_ASSIGN_OR_RETURN(
      whatif::ScopeSelection scope,
      engine.SelectScope(use, stmt.updates[0].attribute, stmt.when.get(),
                         &ctx));
  const std::vector<size_t>& s_rows = scope.rows;
  const ColumnTable& image = *scope.image;
  delta.updated_rows = s_rows.size();

  // Deterministic post image f(pre), all updates from the same pre state.
  // A post value must keep its column's string/number kind: a string in a
  // numeric column (or a number in a string column) would leave a column no
  // columnar image can hold, failing every later query on the branch.
  // Numeric widening (a scaled int becoming a double) stays allowed. A Set
  // constant is checked even when S is empty, so the answer does not depend
  // on the data.
  delta.cells.resize(stmt.updates.size());
  for (size_t j = 0; j < stmt.updates.size(); ++j) {
    whatif::UpdateSpec spec;
    spec.attribute = stmt.updates[j].attribute;
    spec.func = stmt.updates[j].func;
    spec.constant = stmt.updates[j].constant;
    const AttributeDef& attr = schema.attribute(delta.attr_of_update[j]);
    const auto check_kind = [&](const Value& post) -> Status {
      if (post.is_null() || (post.type() == ValueType::kString) ==
                                (attr.type == ValueType::kString)) {
        return Status::OK();
      }
      return Status::InvalidArgument(StrFormat(
          "update of '%s' writes %s (%s) into a column declared %s; strings "
          "and numbers cannot share a column",
          attr.name.c_str(), post.ToString().c_str(),
          ValueTypeName(post.type()), ValueTypeName(attr.type)));
    };
    if (spec.func == sql::UpdateFuncKind::kSet) {
      HYPER_RETURN_NOT_OK(check_kind(spec.constant));
    }
    delta.cells[j].reserve(s_rows.size());
    for (size_t r : s_rows) {
      HYPER_ASSIGN_OR_RETURN(
          Value post, spec.Apply(image.GetValue(r, delta.attr_of_update[j])));
      HYPER_RETURN_NOT_OK(check_kind(post));
      delta.cells[j].emplace_back(r, std::move(post));
    }
  }
  return delta;
}

}  // namespace

Result<size_t> ScenarioService::ApplyHypothetical(
    const std::string& scenario, const sql::WhatIfStmt& stmt) {
  HYPER_RETURN_NOT_OK(recovery_status_);
  if (stmt.updates.empty()) {
    return Status::InvalidArgument("hypothetical update needs an Update "
                                   "clause");
  }
  if (stmt.when != nullptr && sql::ContainsPost(*stmt.when)) {
    return Status::InvalidArgument(
        "the When operator selects tuples by pre-update values only (§3.1); "
        "Post(...) is not allowed");
  }

  // Optimistic concurrency: the When mask and post-image build run outside
  // the service lock against an immutable snapshot, so concurrent Submits
  // never stall behind a branch mutation. If another update lands on this
  // branch meanwhile — the (id, version) pair moved; the id guards against
  // a drop-and-recreate under the same name — recompute from the new world.
  for (int attempt = 0; attempt < 8; ++attempt) {
    HYPER_ASSIGN_OR_RETURN(std::shared_ptr<const World> world,
                           SnapshotWorld(scenario));
    // Default options: S and the pre-values read only the scope stage, and
    // a branch update is not a governed request.
    const whatif::WhatIfEngine engine(&world->base(), graph(),
                                      whatif::WhatIfOptions{});
    HYPER_ASSIGN_OR_RETURN(
        HypotheticalDelta delta,
        ComputeHypotheticalDelta(world->base(), stmt, engine,
                                 world->stage_context()));
    if (delta.updated_rows == 0) return size_t{0};  // nothing to record

    MutexLock lock(&mu_);
    HYPER_ASSIGN_OR_RETURN(BranchState * state, FindBranchLocked(scenario));
    if (state->id != world->branch_id() ||
        state->branch.version() != world->branch_version()) {
      continue;  // world moved; retry against the new state
    }
    if (durable_ != nullptr) {
      // Journal the PHYSICAL override batches (not the SQL): replay pushes
      // the same cells through the same Override() mixing, which is what
      // makes recovered fingerprints — and therefore answers — bit-identical.
      // Appended before the branch moves; a failed append mutates nothing.
      durability::ApplyRecord record;
      record.branch = scenario;
      record.pre_fingerprint = state->branch.delta_fingerprint();
      uint64_t fp = record.pre_fingerprint;
      record.batches.reserve(stmt.updates.size());
      for (size_t j = 0; j < stmt.updates.size(); ++j) {
        durability::ApplyBatch batch;
        batch.relation = delta.relation;
        batch.attr = delta.attr_of_update[j];
        batch.cells.reserve(delta.cells[j].size());
        for (const auto& [tid, value] : delta.cells[j]) {
          batch.cells.emplace_back(tid, value);
        }
        fp = ScenarioBranch::PreviewFingerprint(
            fp, delta.relation, delta.attr_of_update[j], delta.cells[j]);
        record.batches.push_back(std::move(batch));
      }
      record.post_fingerprint = fp;
      HYPER_RETURN_NOT_OK(durable_->AppendApply(record));
    }
    for (size_t j = 0; j < stmt.updates.size(); ++j) {
      state->branch.Override(delta.relation, delta.attr_of_update[j],
                             delta.cells[j]);
    }
    state->branch.RecordUpdateApplied();
    if (durable_ != nullptr && durable_->ShouldSnapshot()) {
      // Cadence only: failure just leaves more WAL to replay.
      (void)SnapshotLocked();
    }
    return delta.updated_rows;
  }
  return Status::FailedPrecondition(
      "scenario '" + scenario +
      "' is being updated concurrently; retry the hypothetical");
}

Status ScenarioService::Dispatch(const Request& request,
                                 const sql::Statement& statement,
                                 const whatif::WhatIfOptions& options,
                                 const World& world, Response* response) {
  const whatif::StageContext& stage_context = world.stage_context();
  switch (response->kind) {
    case Response::Kind::kWhatIf:
    case Response::Kind::kWhatIfBatch: {
      // One plan, then the interventions; a single statement is a sweep of
      // its own update constants.
      const whatif::WhatIfEngine engine(&world.base(), graph(), options);
      bool hit = false;
      HYPER_ASSIGN_OR_RETURN(
          std::shared_ptr<const whatif::PreparedWhatIf> plan,
          engine.Prepare(*statement.whatif, &stage_context, &hit));
      const bool sweep = response->kind == Response::Kind::kWhatIfBatch;
      std::vector<std::vector<whatif::UpdateSpec>> own;
      if (!sweep) own.push_back(whatif::SpecsOfStatement(*statement.whatif));
      std::vector<Status> statuses;
      HYPER_ASSIGN_OR_RETURN(
          std::vector<whatif::WhatIfResult> results,
          engine.EvaluateBatch(*plan, sweep ? request.interventions : own,
                               &statuses));
      std::vector<WhatIfBatchItem>& items = response->items;
      items.resize(results.size());
      for (size_t i = 0; i < results.size(); ++i) {
        items[i].status = std::move(statuses[i]);
        items[i].result = std::move(results[i]);
        items[i].result.plan_cache_hit = hit;
      }
      if (!hit) {
        // Plan construction is charged to the first answered item, so the
        // totals stay meaningful (a failed item's result is not read).
        for (WhatIfBatchItem& item : items) {
          if (!item.ok()) continue;
          item.result.prepare_seconds = plan->prepare_seconds();
          item.result.total_seconds += item.result.prepare_seconds;
          break;
        }
      }
      if (sweep) {
        // The request's guard bounds the whole sweep: an intervention it
        // cut short fails the request with its typed abort, as it fails a
        // single what-if. Items keep only their own failures.
        for (const WhatIfBatchItem& item : items) {
          if (!governance::IsGovernanceAbort(item.status)) continue;
          Status abort = item.status;
          items.clear();
          return abort;
        }
        return Status::OK();
      }
      response->whatif = std::move(items.front().result);
      Status status = std::move(items.front().status);
      items.clear();
      return status;
    }
    case Response::Kind::kHowTo: {
      howto::HowToOptions ho;
      ho.whatif = options;
      ho.num_buckets = options_.howto_num_buckets;
      ho.global_l1_budget = options_.howto_global_l1_budget;
      ho.prefer_mck = options_.howto_prefer_mck;
      ho.stage_context = &stage_context;
      const howto::HowToEngine engine(&world.base(), graph(), ho);
      HYPER_ASSIGN_OR_RETURN(response->howto, engine.Run(*statement.howto));
      return Status::OK();
    }
    case Response::Kind::kSelect: {
      // A select may read any cell of any relation: it runs over the rows.
      HYPER_ASSIGN_OR_RETURN(std::shared_ptr<const Database> rows,
                             world.Rows());
      HYPER_ASSIGN_OR_RETURN(
          response->table, relational::ExecuteSelect(*rows, *statement.select));
      return Status::OK();
    }
    case Response::Kind::kNone:
      break;
  }
  return Status::InvalidArgument(
      "statement is neither what-if, how-to nor select");
}

Status ScenarioService::Admit() {
  MutexLock lock(&admission_mu_);
  if (draining_) {
    ++gov_.rejected_draining;
    return Status::Unavailable("service is draining; new requests are "
                               "rejected");
  }
  if (options_.max_concurrent_requests == 0) {
    ++gov_.admitted;
    ++in_flight_;
    return Status::OK();
  }
  if (in_flight_ < options_.max_concurrent_requests) {
    ++gov_.admitted;
    ++in_flight_;
    return Status::OK();
  }
  if (queue_len_ >= options_.max_queued_requests) {
    ++gov_.shed;
    return Status::Unavailable(StrFormat(
        "service overloaded: %zu request(s) in flight and the wait queue "
        "(%zu) is full",
        in_flight_, options_.max_queued_requests));
  }
  ++queue_len_;
  while (!draining_ && in_flight_ >= options_.max_concurrent_requests) {
    admission_cv_.Wait(admission_mu_);
  }
  --queue_len_;
  if (draining_) {
    ++gov_.rejected_draining;
    admission_cv_.NotifyAll();  // AwaitIdle may be waiting on queue_len_
    return Status::Unavailable("service is draining; queued request "
                               "rejected");
  }
  ++gov_.admitted;
  ++gov_.queued;
  ++in_flight_;
  return Status::OK();
}

void ScenarioService::Release(const Status& status) {
  MutexLock lock(&admission_mu_);
  --in_flight_;
  ++gov_.completed;
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      ++gov_.deadline_exceeded;
      break;
    case StatusCode::kResourceExhausted:
      ++gov_.resource_exhausted;
      break;
    case StatusCode::kCancelled:
      ++gov_.cancelled;
      break;
    default:
      break;
  }
  admission_cv_.NotifyAll();
}

void ScenarioService::BeginDrain() {
  MutexLock lock(&admission_mu_);
  draining_ = true;
  admission_cv_.NotifyAll();
}

void ScenarioService::AwaitIdle() {
  MutexLock lock(&admission_mu_);
  while (in_flight_ != 0 || queue_len_ != 0) {
    admission_cv_.Wait(admission_mu_);
  }
}

bool ScenarioService::draining() const {
  MutexLock lock(&admission_mu_);
  return draining_;
}

GovernanceStats ScenarioService::governance_stats() const {
  MutexLock lock(&admission_mu_);
  GovernanceStats stats = gov_;
  stats.in_flight = in_flight_;
  stats.queued_now = queue_len_;
  stats.draining = draining_;
  return stats;
}

Response ScenarioService::GovernedDispatch(
    const Request& request, const Result<std::shared_ptr<const World>>& world) {
  Response response;
  governance::ExecGuardPtr guard;
  // The request's time: its parse, arming and dispatch, including the
  // World's row build when the request is the first of its version to need
  // the rows.
  Stopwatch timer;
  response.status = [&]() -> Status {
    HYPER_RETURN_NOT_OK(world.status());
    HYPER_ASSIGN_OR_RETURN(const sql::Statement statement,
                           sql::ParseSql(request.sql));
    response.kind = KindOf(statement, request.expected_kind);
    if (request.expected_kind != Response::Kind::kNone &&
        response.kind != request.expected_kind) {
      return Status::InvalidArgument(
          StrFormat("expected a %s statement, got a %s statement",
                    KindName(request.expected_kind), KindName(response.kind)));
    }
    // One guard for the request, injected through its what-if options: the
    // what-if engine and the how-to engine's scoring pass both use it
    // instead of arming their own, so one deadline and one pair of meters
    // span prepare and every evaluation. Stage-cache keys are built from
    // named option fields and never include governance state, so a governed
    // request hits exactly the entries an ungoverned one would.
    whatif::WhatIfOptions options =
        request.whatif_options.value_or(options_.whatif);
    if (!request.budget.Unlimited() || request.cancel_token.attached()) {
      options.budget = request.budget;
      options.cancel_token = request.cancel_token;
      options.exec_guard = nullptr;
    }
    if (options.exec_guard == nullptr) {
      options.exec_guard =
          governance::ExecGuard::Arm(options.budget, options.cancel_token);
    }
    guard = options.exec_guard;
    return Dispatch(request, statement, options, **world, &response);
  }();
  response.seconds = timer.ElapsedSeconds();
  if (instruments_ != nullptr) {
    instruments_->RecordRequest(response, guard.get(), response.seconds);
  }
  return response;
}

Response ScenarioService::Submit(const Request& request) {
  Response response;
  if (!recovery_status_.ok()) {
    // A service behind a failed recovery refuses to answer: serving the
    // in-memory default state would silently drop acknowledged history.
    response.status = recovery_status_;
    return response;
  }
  Status admitted = Admit();
  if (!admitted.ok()) {
    response.status = std::move(admitted);
    return response;
  }
  response = GovernedDispatch(request, SnapshotWorld(request.scenario));
  Release(response.status);
  return response;
}

std::vector<Response> ScenarioService::SubmitBatch(
    const std::vector<Request>& requests) {
  std::vector<Response> responses(requests.size());
  if (requests.empty()) return responses;
  if (!recovery_status_.ok()) {
    for (Response& response : responses) response.status = recovery_status_;
    return responses;
  }

  // Snapshot every request's world up front: the whole batch runs against
  // one consistent state per scenario.
  std::vector<Result<std::shared_ptr<const World>>> worlds;
  worlds.reserve(requests.size());
  for (const Request& request : requests) {
    worlds.push_back(SnapshotWorld(request.scenario));
  }

  // Each batch item is admitted individually: a batch wider than the
  // concurrency limit sheds (or queues) its surplus items exactly like
  // independent Submits would.
  auto run_one = [&](size_t i) {
    Status admitted = Admit();
    if (!admitted.ok()) {
      responses[i].status = std::move(admitted);
      return;
    }
    responses[i] = GovernedDispatch(requests[i], worlds[i]);
    Release(responses[i].status);
  };

  ThreadPool::Shared().ParallelFor(
      requests.size(), run_one,
      /*max_parallelism=*/ThreadPool::ResolveBudget(options_.num_threads));
  return responses;
}

Status ScenarioService::ReloadDataset(Database base) {
  HYPER_RETURN_NOT_OK(recovery_status_);
  MutexLock lock(&mu_);
  if (durable_ != nullptr) {
    // The new base's content is NOT journaled — only its fingerprint, which
    // recovery checks against whatever dataset the operator reloads. The
    // reload record makes the generation bump durable; the snapshot right
    // after re-anchors recovery so pre-reload records become prunable.
    durability::ReloadRecord record;
    record.generation = generation_ + 1;
    record.base_fingerprint = base.ContentFingerprint();
    HYPER_RETURN_NOT_OK(durable_->AppendReload(record));
  }
  base_ = std::move(base);
  ++generation_;
  branches_.clear();
  branches_.try_emplace("main", ScenarioBranch("main", ""), next_branch_id_++);
  cache_.Clear();
  if (durable_ != nullptr) {
    HYPER_RETURN_NOT_OK(SnapshotLocked());
  }
  return Status::OK();
}

}  // namespace hyper::service
