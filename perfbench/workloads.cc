// The four workloads. Each drives the engine only through its public entry
// points (ScenarioService, QueryHandler/HttpServer, sql::ParseSql) and
// checks answers against WhatIfEngine / HowToEngine run fresh.
#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "common/json.h"
#include "common/strings.h"
#include "data/datasets.h"
#include "howto/engine.h"
#include "http_client.h"
#include "net/listener.h"
#include "net/query_handler.h"
#include "obs/metrics.h"
#include "service/scenario_service.h"
#include "sql/parser.h"
#include "whatif/compile.h"
#include "whatif/engine.h"

namespace perfbench {

namespace {

using hyper::Database;
using hyper::StrFormat;
using hyper::service::Response;
using hyper::service::ScenarioService;
using hyper::service::ServiceOptions;
namespace whatif = hyper::whatif;
namespace howto = hyper::howto;
namespace learn = hyper::learn;
namespace sql = hyper::sql;

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Slot of operation `i` within its block of `block` operations: each block
/// is an independent seeded permutation of [0, block), so every block holds
/// each slot exactly once and the operation mix is exact over any whole
/// number of blocks.
uint64_t SlotOf(uint64_t seed, uint64_t salt, uint64_t i, uint64_t block) {
  const uint64_t b = i / block;
  std::vector<uint64_t> perm(block);
  for (uint64_t k = 0; k < block; ++k) perm[k] = k;
  for (uint64_t k = block; k > 1; --k) {
    std::swap(perm[k - 1], perm[Mix(seed, b * block + k, salt) % k]);
  }
  return perm[i % block];
}

size_t Rows(size_t full, double factor) {
  return std::max<size_t>(200, static_cast<size_t>(full * factor));
}

/// Every thread budget explicit and nonzero: the engine's block loop, the
/// forest trainer, and the service's batch sharding.
whatif::WhatIfOptions EngineOptions(learn::EstimatorKind kind,
                                    size_t threads) {
  whatif::WhatIfOptions o;
  o.estimator = kind;
  o.num_threads = threads;
  o.forest.num_threads = threads;
  return o;
}

ServiceOptions BaseServiceOptions(const whatif::WhatIfOptions& engine) {
  ServiceOptions o;
  o.whatif = engine;
  o.num_threads = 1;
  return o;
}

/// sql::ParseSql on the operation text, as its own span (traced runs only).
void TraceParse(Tracer* tracer, const std::string& text, uint64_t op,
                int64_t parent) {
  if (!tracer->enabled()) return;
  SpanScope span(tracer, "sql.parse", op, parent);
  auto parsed = sql::ParseSql(text);
  (void)parsed.ok();
}

/// The engine-reported intervals of one what-if answer below `parent`:
/// service (Response.seconds) > whatif (total) > prepare, eval.
void TraceWhatIf(Tracer* tracer, double service_seconds, double total,
                 double prepare, double eval, int64_t parent, uint64_t op) {
  if (!tracer->enabled()) return;
  const int64_t service = tracer->Reported("service", service_seconds, parent, op);
  const int64_t engine = tracer->Reported("whatif", total, service, op);
  tracer->Reported("whatif.eval", eval, engine, op);
  tracer->Reported("whatif.prepare", prepare, engine, op, eval);
}

void AddWhatIfSums(Sums& s, const whatif::WhatIfResult& r) {
  s.Add("whatif.rows", static_cast<double>(r.view_rows));
  s.Add("whatif.updated_rows", static_cast<double>(r.updated_rows));
  s.Add("whatif.patterns", static_cast<double>(r.num_patterns));
  s.Add("whatif.blocks", static_cast<double>(r.num_blocks));
  s.Add("learn.train_s", r.train_seconds);
  s.Add("learn.pattern_hits", static_cast<double>(r.pattern_cache_hits));
}

Counters ServiceCounters(const ScenarioService& service) {
  const hyper::service::PlanCacheStats c = service.cache_stats();
  const hyper::service::GovernanceStats g = service.governance_stats();
  Counters out = {
      {"plan.hits", static_cast<double>(c.hits)},
      {"plan.misses", static_cast<double>(c.misses)},
      {"plan.coalesced", static_cast<double>(c.coalesced)},
      {"stage.scope.builds", static_cast<double>(c.scope.misses)},
      {"stage.causal.builds", static_cast<double>(c.causal.misses)},
      {"stage.learn.builds", static_cast<double>(c.learn.misses)},
      {"stage.query.builds", static_cast<double>(c.query.misses)},
      {"stage.learn.entries", static_cast<double>(c.learn.entries)},
      {"stage.evictions",
       static_cast<double>(c.evictions + c.scope.evictions +
                           c.causal.evictions + c.learn.evictions +
                           c.query.evictions)},
      {"gov.admitted", static_cast<double>(g.admitted)},
      {"gov.queued", static_cast<double>(g.queued)},
  };
  if (service.durable()) {
    const hyper::durability::WalStats w = service.wal_stats();
    out["wal.appends"] = static_cast<double>(w.appends);
    out["wal.bytes"] = static_cast<double>(w.appended_bytes);
  }
  return out;
}

hyper::service::Request MakeRequest(const std::string& scenario,
                                    const std::string& text) {
  hyper::service::Request r;
  r.scenario = scenario;
  r.sql = text;
  return r;
}

/// Up to `per_kind` completed operations of each kind, visiting `done` in a
/// seeded order so the sample spreads over the window.
std::vector<uint64_t> SampleByKind(const Workload& w,
                                   const std::vector<uint64_t>& done,
                                   size_t per_kind) {
  std::vector<uint64_t> sample;
  if (done.empty()) return sample;
  std::map<std::string, size_t> taken;
  const UniqueDraw order(w.seed(), 99, done.size());
  for (uint64_t k = 0; k < done.size(); ++k) {
    const uint64_t index = done[order(k)];
    size_t& n = taken[w.Generate(index).kind];
    if (n < per_kind) {
      ++n;
      sample.push_back(index);
    }
  }
  std::sort(sample.begin(), sample.end());
  return sample;
}

void NoteMismatch(std::string* detail, const Op& op, const std::string& what) {
  *detail += StrFormat("  op %llu [%s] %s\n    %s\n",
                       static_cast<unsigned long long>(op.index),
                       op.kind.c_str(), what.c_str(), op.text.c_str());
}

std::string Bits(double v) { return StrFormat("%.17g", v); }

// ---------------------------------------------------------------------------
// whatif_scan_250k
// ---------------------------------------------------------------------------

/// Warm what-if shapes: Count, Sum and Avg outputs without For, and Avg and
/// Sum with For. `%d` is the fresh Update constant. Count with For is left
/// out: it costs about 1.4x the other For shapes, and a second cost mode in
/// the top tenth would put p95 on the edge between the two.
const char* const kScanShapes[] = {
    "Use German Update(Status) = %d Output Count(Credit = 1)",
    "Use German Update(Status) = %d Output Avg(Post(Credit))",
    "Use German Update(Status) = %d Output Sum(Post(Credit))",
    "Use German Update(Status) = %d Output Avg(Post(Credit)) "
    "For Pre(Age) = 1",
    "Use German Update(Status) = %d Output Sum(Post(Credit)) "
    "For Pre(Age) = 1",
};
/// Per block of kScanBlock operations: kScanFresh carry a When never seen
/// (each rebuilds its QueryStage), kScanFor ask a For shape (about 6x the
/// cost of the others, both at the same cost), and the rest ask the shapes
/// without For. The For share is exactly the top tenth of the latencies, so
/// p95 is the median of that mode and p50 lies inside the cheap one.
constexpr uint64_t kScanBlock = 20;
constexpr uint64_t kScanFresh = 2;
constexpr uint64_t kScanFor = 2;
constexpr uint64_t kScanNumFor = 2;
constexpr size_t kScanThreads = 4;
constexpr size_t kSpeedupSample = 40;

class ScanWorkload : public Workload {
 public:
  ScanWorkload(uint64_t seed, const WorkloadParams& params)
      : Workload(seed),
        scale_(0.25 * params.rows_factor),
        rows_(Rows(1000000, scale_)),
        fresh_(seed, 2, rows_ - 1) {}

  const char* name() const override { return "whatif_scan_250k"; }

  uint64_t block() const override { return kScanBlock; }

  Op Generate(uint64_t i) const override {
    const int c = static_cast<int>(Mix(seed_, i, 4) % 4);
    const uint64_t b = i / kScanBlock;
    const uint64_t slot = SlotOf(seed_, 1, i, kScanBlock);
    if (slot < kScanFresh) {
      const unsigned long long bound = 1 + fresh_(b * kScanFresh + slot);
      return {i, "fresh_when",
              StrFormat("Use German When Id < %llu Update(Status) = %d "
                        "Output Count(Credit = 1)",
                        bound, c)};
    }
    // Shapes rotate across blocks, so each keeps an exact share.
    const uint64_t shape =
        slot < kScanFresh + kScanFor
            ? 3 + (b * kScanFor + slot - kScanFresh) % kScanNumFor
            : (b * (kScanBlock - kScanFresh - kScanFor) + slot - kScanFresh -
               kScanFor) % 3;
    return {i, StrFormat("warm%llu", static_cast<unsigned long long>(shape)),
            StrFormat(kScanShapes[shape], c)};
  }

  bool Setup(std::string* error) override {
    service_.reset();
    auto ds = hyper::data::MakeByName("german-syn-1m", scale_);
    if (!ds.ok()) {
      *error = ds.status().ToString();
      return false;
    }
    service_ = std::make_unique<ScenarioService>(
        std::move(ds->db), std::move(ds->graph),
        BaseServiceOptions(
            EngineOptions(learn::EstimatorKind::kForest, kScanThreads)));
    std::vector<std::string> warm;
    for (const char* shape : kScanShapes) warm.push_back(StrFormat(shape, 0));
    // The fresh-When shape; bound 0 is never generated.
    warm.push_back(
        "Use German When Id < 0 Update(Status) = 0 Output Count(Credit = 1)");
    for (const std::string& text : warm) {
      const Response r = service_->Submit(MakeRequest("main", text));
      if (!r.ok()) {
        *error = text + ": " + r.status.ToString();
        return false;
      }
    }
    return true;
  }

  bool Run(size_t, const Op& op, Tracer* tracer, int64_t parent) override {
    TraceParse(tracer, op.text, op.index, parent);
    SpanScope span(tracer, "service.submit", op.index, parent);
    const Response r = service_->Submit(MakeRequest("main", op.text));
    span.Finish();
    if (!r.ok()) return false;
    const whatif::WhatIfResult& w = r.whatif;
    TraceWhatIf(tracer, r.seconds, w.total_seconds, w.prepare_seconds,
                w.eval_seconds, span.index(), op.index);
    AddWhatIfSums(sums_, w);
    RecordAnswer(op.index, {{w.value}, ""});
    return true;
  }

  std::vector<uint64_t> PickSample(
      const std::vector<uint64_t>& done) const override {
    return SampleByKind(*this, done, 1);
  }

  /// One fresh, uncached plan per sampled shape (Prepare without a stage
  /// cache, then Evaluate: exactly WhatIfEngine::Run).
  size_t Verify(const std::vector<uint64_t>& sample,
                std::string* detail) override {
    auto db = service_->EffectiveDatabase("main");
    if (!db.ok()) {
      *detail += db.status().ToString();
      return sample.size();
    }
    const whatif::WhatIfEngine engine(db->get(), service_->graph(),
                                      service_->options().whatif);
    size_t mismatches = 0;
    for (uint64_t index : sample) {
      const Op op = Generate(index);
      Answer answer;
      auto parsed = sql::ParseSql(op.text);
      auto fresh = parsed.ok() && parsed->whatif != nullptr
                       ? engine.Run(*parsed->whatif)
                       : hyper::Result<whatif::WhatIfResult>(
                             hyper::Status::Internal("not a what-if"));
      if (!FindAnswer(index, &answer) || !fresh.ok() ||
          !SameBits(answer.values.at(0), fresh->value)) {
        ++mismatches;
        NoteMismatch(detail, op,
                     fresh.ok() ? "served " + Bits(answer.values.empty()
                                                       ? 0.0
                                                       : answer.values[0]) +
                                      " fresh " + Bits(fresh->value)
                                : fresh.status().ToString());
      }
    }
    return mismatches;
  }

  Counters ReadCounters() const override { return ServiceCounters(*service_); }

  /// sched.speedup_4t: the eval time of warm operations re-submitted with a
  /// per-request budget of 1, over their eval time at budget 4.
  void ExtraLayerMetrics(std::vector<Metric>* out) override {
    whatif::WhatIfOptions one = service_->options().whatif;
    one.num_threads = 1;
    one.forest.num_threads = 1;
    whatif::WhatIfOptions four = service_->options().whatif;
    double eval1 = 0.0, eval4 = 0.0;
    size_t n = 0;
    for (uint64_t i = uint64_t{1} << 40; n < kSpeedupSample; ++i) {
      const Op op = Generate(i);
      if (op.kind == "fresh_when") continue;
      ++n;
      // Alternate which budget goes first, so drift cancels.
      for (int k = 0; k < 2; ++k) {
        const bool serial = (k == 0) == (n % 2 == 0);
        hyper::service::Request r = MakeRequest("main", op.text);
        r.whatif_options = serial ? one : four;
        const Response resp = service_->Submit(r);
        if (!resp.ok()) continue;
        (serial ? eval1 : eval4) += resp.whatif.eval_seconds;
      }
    }
    out->push_back({"sched.speedup_4t", eval4 > 0 ? eval1 / eval4 : 0.0, "x"});
  }

  void Teardown() override { service_.reset(); }

 private:
  const double scale_;
  const size_t rows_;
  const UniqueDraw fresh_;
  std::unique_ptr<ScenarioService> service_;
};

// ---------------------------------------------------------------------------
// howto_adult
// ---------------------------------------------------------------------------

/// How-to shapes over adult: attribute sets (no two causally related) and
/// objectives. Operations rotate through them in seeded blocks.
const char* const kHowToShapes[] = {
    "Use Adult HowToUpdate Marital ToMaximize Count(Income = 1)",
    "Use Adult HowToUpdate Marital, Occupation "
    "ToMaximize Avg(Post(Income))",
    "Use Adult HowToUpdate Education ToMaximize Avg(Post(Income))",
    "Use Adult HowToUpdate Occupation, Hours ToMaximize Count(Income = 1)",
    "Use Adult HowToUpdate Marital, Workclass ToMinimize Avg(Post(Income))",
};
constexpr uint64_t kHowToNumShapes = 5;

class HowToWorkload : public Workload {
 public:
  HowToWorkload(uint64_t seed, const WorkloadParams& params)
      : Workload(seed), scale_(params.rows_factor) {}

  const char* name() const override { return "howto_adult"; }
  uint64_t block() const override { return kHowToNumShapes; }

  Op Generate(uint64_t i) const override {
    const uint64_t shape = SlotOf(seed_, 1, i, kHowToNumShapes);
    return {i, StrFormat("shape%llu", static_cast<unsigned long long>(shape)),
            kHowToShapes[shape]};
  }

  bool Setup(std::string* error) override {
    service_.reset();
    auto ds = hyper::data::MakeByName("adult", scale_);
    if (!ds.ok()) {
      *error = ds.status().ToString();
      return false;
    }
    service_ = std::make_unique<ScenarioService>(
        std::move(ds->db), std::move(ds->graph),
        BaseServiceOptions(EngineOptions(learn::EstimatorKind::kForest, 1)));
    for (const char* text : kHowToShapes) {
      const Response r = service_->Submit(MakeRequest("main", text));
      if (!r.ok()) {
        *error = std::string(text) + ": " + r.status.ToString();
        return false;
      }
    }
    return true;
  }

  bool Run(size_t, const Op& op, Tracer* tracer, int64_t parent) override {
    TraceParse(tracer, op.text, op.index, parent);
    SpanScope span(tracer, "service.submit", op.index, parent);
    const Response r = service_->Submit(MakeRequest("main", op.text));
    span.Finish();
    if (!r.ok()) return false;
    const howto::HowToResult& h = r.howto;
    if (tracer->enabled()) {
      const int64_t service =
          tracer->Reported("service", r.seconds, span.index(), op.index);
      const int64_t engine =
          tracer->Reported("howto", h.total_seconds, service, op.index);
      tracer->Reported("howto.eval", h.eval_seconds, engine, op.index);
      tracer->Reported("howto.prepare", h.prepare_seconds, engine, op.index,
                       h.eval_seconds);
    }
    sums_.Add("howto.candidates", static_cast<double>(h.candidates_evaluated));
    sums_.Add("howto.pruned", static_cast<double>(h.candidates_pruned));
    sums_.Add("howto.plan_hits", static_cast<double>(h.plan_cache_hits));
    sums_.Add("opt.solver_nodes", static_cast<double>(h.solver_nodes));
    sums_.Add("opt.mck", h.used_mck ? 1.0 : 0.0);
    sums_.Add("learn.train_s", h.train_seconds);
    RecordAnswer(op.index, {{h.objective_value}, h.PlanToString()});
    return true;
  }

  std::vector<uint64_t> PickSample(
      const std::vector<uint64_t>& done) const override {
    return SampleByKind(*this, done, 1);
  }

  /// A fresh HowToEngine (no plan cache, no stage cache) with the service's
  /// how-to settings: the chosen plan and the objective must match.
  size_t Verify(const std::vector<uint64_t>& sample,
                std::string* detail) override {
    auto db = service_->EffectiveDatabase("main");
    if (!db.ok()) {
      *detail += db.status().ToString();
      return sample.size();
    }
    const ServiceOptions& so = service_->options();
    howto::HowToOptions ho;
    ho.whatif = so.whatif;
    ho.num_buckets = so.howto_num_buckets;
    ho.global_l1_budget = so.howto_global_l1_budget;
    ho.prefer_mck = so.howto_prefer_mck;
    const howto::HowToEngine engine(db->get(), service_->graph(), ho);
    size_t mismatches = 0;
    for (uint64_t index : sample) {
      const Op op = Generate(index);
      Answer answer;
      auto fresh = engine.RunSql(op.text);
      if (!FindAnswer(index, &answer) || !fresh.ok() ||
          !SameBits(answer.values.at(0), fresh->objective_value) ||
          answer.plan != fresh->PlanToString()) {
        ++mismatches;
        NoteMismatch(detail, op,
                     fresh.ok() ? "served " + answer.plan + " = " +
                                      Bits(answer.values.empty()
                                               ? 0.0
                                               : answer.values[0]) +
                                      ", fresh " + fresh->PlanToString() +
                                      " = " + Bits(fresh->objective_value)
                                : fresh.status().ToString());
      }
    }
    return mismatches;
  }

  Counters ReadCounters() const override { return ServiceCounters(*service_); }
  void Teardown() override { service_.reset(); }

 private:
  const double scale_;
  std::unique_ptr<ScenarioService> service_;
};

// ---------------------------------------------------------------------------
// branch_rw_20k
// ---------------------------------------------------------------------------

/// One Housing session (retrains: Housing is in the {Age, Housing}
/// adjustment set) in every block of kBranchBlock; the rest touch Savings,
/// which no estimator reads.
constexpr uint64_t kBranchBlock = 4;
constexpr const char* kBranchQuery =
    "Use German Update(Status) = %d Output Avg(Post(Credit))";

class BranchWorkload : public Workload {
 public:
  BranchWorkload(uint64_t seed, const WorkloadParams& params)
      : Workload(seed),
        rows_(Rows(20000, params.rows_factor)),
        housing_rows_(seed, 2, rows_),
        work_dir_(params.work_dir) {}

  const char* name() const override { return "branch_rw_20k"; }
  uint64_t block() const override { return kBranchBlock; }

  struct Session {
    std::string branch;
    std::string apply;
    std::string query;
  };

  /// Session `i`: a one-cell delta on a fresh branch, a what-if on it.
  /// Housing cells never repeat, so each Housing session retrains.
  Session Decode(uint64_t i, const std::string& prefix = "s") const {
    const bool housing = SlotOf(seed_, 1, i, kBranchBlock) == 0;
    const unsigned long long row =
        housing ? housing_rows_(i / kBranchBlock) : Mix(seed_, i, 3) % rows_;
    const int value = static_cast<int>(Mix(seed_, i, 4) % 3);
    const int c = static_cast<int>(Mix(seed_, i, 5) % 4);
    return {prefix + std::to_string(i),
            StrFormat("Use German When Id = %llu Update(%s) = %d "
                      "Output Count(*)",
                      row, housing ? "Housing" : "Savings", value),
            StrFormat(kBranchQuery, c)};
  }

  Op Generate(uint64_t i) const override {
    const Session s = Decode(i);
    const bool housing = s.apply.find("Housing") != std::string::npos;
    return {i, housing ? "housing" : "savings",
            "create " + s.branch + "\napply " + s.apply + "\nquery " +
                s.query + "\ndrop " + s.branch};
  }

  bool Setup(std::string* error) override {
    Teardown();
    auto ds = hyper::data::MakeByName("german-syn-20k", rows_ / 20000.0);
    if (!ds.ok()) {
      *error = ds.status().ToString();
      return false;
    }
    dir_ = work_dir_ + StrFormat("/wal-%d-%d", static_cast<int>(::getpid()),
                                 setups_++);
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    ServiceOptions o =
        BaseServiceOptions(EngineOptions(learn::EstimatorKind::kForest, 1));
    o.data_dir = dir_;
    o.wal_fsync = hyper::durability::FsyncPolicy::kOff;
    service_ = std::make_unique<ScenarioService>(std::move(ds->db),
                                                 std::move(ds->graph), o);
    if (!service_->recovery_status().ok()) {
      *error = service_->recovery_status().ToString();
      return false;
    }
    // Warm the trunk plan, then one session of each kind.
    const Response r =
        service_->Submit(MakeRequest("main", StrFormat(kBranchQuery, 0)));
    if (!r.ok()) {
      *error = r.status.ToString();
      return false;
    }
    Tracer off(false);
    for (uint64_t i = 0;; ++i) {
      const Op op = Generate((uint64_t{1} << 41) + i);
      if (!RunSession(op, "w", &off, -1, nullptr)) {
        *error = "warm-up session failed: " + op.text;
        return false;
      }
      if (op.kind == "housing") break;
    }
    return true;
  }

  bool Run(size_t, const Op& op, Tracer* tracer, int64_t parent) override {
    double value = 0.0;
    if (!RunSession(op, "s", tracer, parent, &value)) return false;
    RecordAnswer(op.index, {{value}, ""});
    return true;
  }

  std::vector<uint64_t> PickSample(
      const std::vector<uint64_t>& done) const override {
    return SampleByKind(*this, done, 2);
  }

  /// Re-creates each sampled branch, then answers its query with a fresh,
  /// uncached WhatIfEngine::Run over EffectiveDatabase(branch).
  size_t Verify(const std::vector<uint64_t>& sample,
                std::string* detail) override {
    size_t mismatches = 0;
    for (uint64_t index : sample) {
      const Op op = Generate(index);
      const Session s = Decode(index, "v");
      Answer answer;
      std::string what;
      if (!FindAnswer(index, &answer)) {
        what = "no recorded answer";
      } else if (!service_->CreateScenario(s.branch).ok() ||
                 !service_->ApplyHypotheticalSql(s.branch, s.apply).ok()) {
        what = "could not rebuild the branch";
      } else {
        auto db = service_->EffectiveDatabase(s.branch);
        auto parsed = sql::ParseSql(s.query);
        if (!db.ok() || !parsed.ok() || parsed->whatif == nullptr) {
          what = "could not read the branch";
        } else {
          const whatif::WhatIfEngine engine(db->get(), service_->graph(),
                                            service_->options().whatif);
          auto fresh = engine.Run(*parsed->whatif);
          if (!fresh.ok()) {
            what = fresh.status().ToString();
          } else if (!SameBits(answer.values.at(0), fresh->value)) {
            what = "served " + Bits(answer.values[0]) + " fresh " +
                   Bits(fresh->value);
          }
        }
      }
      (void)service_->DropScenario(s.branch);
      if (!what.empty()) {
        ++mismatches;
        NoteMismatch(detail, op, what);
      }
    }
    return mismatches;
  }

  Counters ReadCounters() const override { return ServiceCounters(*service_); }

  void Teardown() override {
    service_.reset();
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
      dir_.clear();
    }
  }

  ~BranchWorkload() override { Teardown(); }

 private:
  /// create -> apply -> query -> drop, each call its own span.
  bool RunSession(const Op& op, const std::string& prefix, Tracer* tracer,
                  int64_t parent, double* value) {
    const Session s = Decode(op.index, prefix);
    {
      SpanScope span(tracer, "branch.create", op.index, parent);
      if (!service_->CreateScenario(s.branch).ok()) return false;
    }
    {
      TraceParse(tracer, s.apply, op.index, parent);
      SpanScope span(tracer, "branch.apply", op.index, parent);
      auto updated = service_->ApplyHypotheticalSql(s.branch, s.apply);
      if (!updated.ok() || updated.value() != 1) return false;
    }
    Response r;
    {
      TraceParse(tracer, s.query, op.index, parent);
      SpanScope span(tracer, "branch.query", op.index, parent);
      r = service_->Submit(MakeRequest(s.branch, s.query));
      span.Finish();
      if (!r.ok()) return false;
      const whatif::WhatIfResult& w = r.whatif;
      TraceWhatIf(tracer, r.seconds, w.total_seconds, w.prepare_seconds,
                  w.eval_seconds, span.index(), op.index);
      AddWhatIfSums(sums_, w);
    }
    {
      SpanScope span(tracer, "branch.drop", op.index, parent);
      if (!service_->DropScenario(s.branch).ok()) return false;
    }
    if (value != nullptr) *value = r.whatif.value;
    return true;
  }

  const size_t rows_;
  const UniqueDraw housing_rows_;
  const std::string work_dir_;
  std::string dir_;
  int setups_ = 0;
  std::unique_ptr<ScenarioService> service_;
};

// ---------------------------------------------------------------------------
// http_serve
// ---------------------------------------------------------------------------

struct HttpShape {
  const char* text;  // %d = the intervention constant
  const char* attribute;
  int domain;
};
const HttpShape kHttpShapes[] = {
    {"Use German Update(Status) = %d Output Count(Credit = 1)", "Status", 4},
    {"Use German Update(Status) = %d Output Avg(Post(Credit))", "Status", 4},
    {"Use German Update(Savings) = %d Output Count(Credit = 1)", "Savings",
     3},
    {"Use German Update(Housing) = %d Output Avg(Post(Credit))", "Housing",
     3},
};
constexpr uint64_t kHttpNumShapes = 4;
/// One batch sweep in every block of kHttpBlock requests.
constexpr uint64_t kHttpBlock = 10;
constexpr size_t kHttpBatch = 8;
constexpr size_t kHttpClients = 1;
/// Answers are kept for the gate only in every kHttpKeepEvery-th block:
/// this workload answers thousands of requests a second, and keeping every
/// answer made peak RSS grow with throughput.
constexpr uint64_t kHttpKeepEvery = 16;

class HttpWorkload : public Workload {
 public:
  HttpWorkload(uint64_t seed, const WorkloadParams& params)
      : Workload(seed), scale_(0.25 * params.rows_factor) {}
  ~HttpWorkload() override { Teardown(); }

  const char* name() const override { return "http_serve"; }
  size_t clients() const override { return kHttpClients; }
  uint64_t block() const override { return kHttpBlock; }

  struct Request {
    bool batch = false;
    uint64_t shape = 0;
    std::vector<int> constants;  // 1, or kHttpBatch for a sweep
  };

  Request Decode(uint64_t i) const {
    Request r;
    r.batch = SlotOf(seed_, 1, i, kHttpBlock) == 0;
    r.shape = Mix(seed_, i, 2) % kHttpNumShapes;
    const size_t n = r.batch ? kHttpBatch : 1;
    for (size_t k = 0; k < n; ++k) {
      r.constants.push_back(static_cast<int>(
          Mix(seed_, i * kHttpBatch + k, 3) % kHttpShapes[r.shape].domain));
    }
    return r;
  }

  static std::string Body(const Request& r) {
    const HttpShape& shape = kHttpShapes[r.shape];
    hyper::JsonWriter w;
    w.BeginObject().Key("scenario").String("main");
    w.Key("sql").String(StrFormat(shape.text, r.constants[0]));
    if (r.batch) {
      w.Key("interventions").BeginArray();
      for (int c : r.constants) {
        w.BeginArray().BeginObject().Key("attribute").String(shape.attribute)
            .Key("value").Int(c).EndObject().EndArray();
      }
      w.EndArray();
    }
    w.EndObject();
    return w.Take();
  }

  Op Generate(uint64_t i) const override {
    const Request r = Decode(i);
    return {i, r.batch ? "batch" : "whatif", Body(r)};
  }

  bool Setup(std::string* error) override {
    Teardown();
    auto ds = hyper::data::MakeByName("german-syn-20k", scale_);
    if (!ds.ok()) {
      *error = ds.status().ToString();
      return false;
    }
    registry_ = std::make_unique<hyper::obs::MetricsRegistry>();
    ServiceOptions o = BaseServiceOptions(
        EngineOptions(learn::EstimatorKind::kFrequency, 1));
    o.metrics = registry_.get();
    o.max_concurrent_requests = kHttpClients;
    o.max_queued_requests = kHttpClients;
    service_ = std::make_unique<ScenarioService>(std::move(ds->db),
                                                 std::move(ds->graph), o);
    handler_ = std::make_unique<hyper::net::QueryHandler>(service_.get(),
                                                          registry_.get());
    hyper::net::HttpServerOptions so;
    so.port = 0;
    so.num_threads = kHttpClients;
    server_ = std::make_unique<hyper::net::HttpServer>(so);
    const hyper::Status started = server_->Start(
        [this](const hyper::net::HttpRequest& request,
               hyper::net::HttpResponse* response) {
          Serve(request, response);
        });
    if (!started.ok()) {
      *error = started.ToString();
      return false;
    }
    for (size_t c = 0; c < kHttpClients; ++c) {
      clients_.push_back(std::make_unique<HttpClient>());
      if (!clients_.back()->Connect(server_->port(), error)) return false;
    }
    // Warm every shape, single and as a sweep, on every connection.
    Tracer off(false);
    for (size_t c = 0; c < kHttpClients; ++c) {
      for (uint64_t s = 0; s < kHttpNumShapes; ++s) {
        for (bool batch : {false, true}) {
          Request r;
          r.batch = batch;
          r.shape = s;
          r.constants.assign(batch ? kHttpBatch : 1, 0);
          const Op op{0, batch ? "batch" : "whatif", Body(r)};
          if (!Send(c, op, &off, -1, nullptr)) {
            *error = "warm-up request failed: " + op.text;
            return false;
          }
        }
      }
    }
    return true;
  }

  bool Run(size_t client, const Op& op, Tracer* tracer,
           int64_t parent) override {
    std::vector<double> values;
    if (!Send(client, op, tracer, parent, &values)) return false;
    if (Kept(op.index)) RecordAnswer(op.index, {std::move(values), ""});
    return true;
  }

  std::vector<uint64_t> PickSample(
      const std::vector<uint64_t>& done) const override {
    std::vector<uint64_t> kept;
    for (uint64_t index : done) {
      if (Kept(index)) kept.push_back(index);
    }
    return SampleByKind(*this, kept, 8);
  }

  /// The served value of every sampled request (each sweep item too)
  /// against an in-process Submit of the same single statement.
  size_t Verify(const std::vector<uint64_t>& sample,
                std::string* detail) override {
    size_t mismatches = 0;
    for (uint64_t index : sample) {
      const Op op = Generate(index);
      const Request req = Decode(index);
      Answer answer;
      std::string what;
      if (!FindAnswer(index, &answer) ||
          answer.values.size() != req.constants.size()) {
        what = "no recorded answer";
      }
      for (size_t k = 0; what.empty() && k < req.constants.size(); ++k) {
        const Response r = service_->Submit(MakeRequest(
            "main", StrFormat(kHttpShapes[req.shape].text, req.constants[k])));
        if (!r.ok()) {
          what = r.status.ToString();
        } else if (!SameBits(answer.values[k], r.whatif.value)) {
          what = StrFormat("item %zu: served %s in-process %s", k,
                           Bits(answer.values[k]).c_str(),
                           Bits(r.whatif.value).c_str());
        }
      }
      if (!what.empty()) {
        ++mismatches;
        NoteMismatch(detail, op, what);
      }
    }
    return mismatches;
  }

  Counters ReadCounters() const override { return ServiceCounters(*service_); }

  /// HttpServer::Stats counts a connection's requests and parse errors only
  /// when the connection closes, so the connections are closed and the
  /// server stopped (joining its workers) before the stats are read. They
  /// cover this server's whole life: warm-up, untraced and traced halves.
  void ExtraLayerMetrics(std::vector<Metric>* out) override {
    clients_.clear();
    server_->Stop();
    const hyper::net::HttpServer::Stats s = server_->stats();
    out->push_back({"net.requests_per_conn",
                    s.connections_accepted > 0
                        ? static_cast<double>(s.requests_served) /
                              static_cast<double>(s.connections_accepted)
                        : 0.0,
                    "count"});
    out->push_back(
        {"net.parse_errors", static_cast<double>(s.parse_errors), "count"});
  }

  void Teardown() override {
    clients_.clear();  // closing the connections lets the workers exit
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    handler_.reset();
    service_.reset();
    registry_.reset();
  }

 private:
  static bool Kept(uint64_t index) {
    return (index / kHttpBlock) % kHttpKeepEvery == 0;
  }

  /// Server side: QueryHandler::Handle inside a "handler" span whose parent
  /// is the client's request span (passed in a header); the span index
  /// goes back in a reply header so the client can hang the engine-reported
  /// intervals below it.
  void Serve(const hyper::net::HttpRequest& request,
             hyper::net::HttpResponse* response) {
    Tracer* tracer = tracer_.load();
    if (tracer == nullptr || !tracer->enabled()) {
      handler_->Handle(request, response);
      return;
    }
    const int64_t parent =
        std::strtoll(std::string(request.Header("x-span")).c_str(), nullptr,
                     10);
    const uint64_t op =
        std::strtoull(std::string(request.Header("x-op")).c_str(), nullptr,
                      10);
    SpanScope span(tracer, "handler", op, parent);
    handler_->Handle(request, response);
    span.Finish();
    response->headers.emplace_back("x-handler-span",
                                   std::to_string(span.index()));
  }

  bool Send(size_t client, const Op& op, Tracer* tracer, int64_t parent,
            std::vector<double>* values) {
    tracer_.store(tracer);
    const Request req = Decode(op.index);
    const bool batch = op.kind == "batch";
    TraceParse(tracer, StrFormat(kHttpShapes[req.shape].text,
                                 req.constants[0]),
               op.index, parent);
    SpanScope span(tracer, "http.request", op.index, parent);
    HttpReply reply;
    std::string error;
    const bool sent = clients_[client]->Post(
        batch ? "/v1/whatif/batch" : "/v1/whatif", op.text,
        {{"X-Op", std::to_string(op.index)},
         {"X-Span", std::to_string(span.index())}},
        &reply, &error);
    span.Finish();
    if (!sent || reply.status != 200) return false;
    auto parsed = hyper::JsonValue::Parse(reply.body);
    if (!parsed.ok()) return false;
    sums_.Add("handler.bytes_out", static_cast<double>(reply.body.size()));

    std::vector<const hyper::JsonValue*> results;
    if (batch) {
      const hyper::JsonValue* items = parsed->Find("items");
      if (items == nullptr || !items->is_array()) return false;
      for (const hyper::JsonValue& item : items->array()) {
        if (item.GetString("status") != "ok") return false;
        results.push_back(&item);
      }
    } else {
      results.push_back(&*parsed);
    }
    const int64_t handler =
        tracer->enabled()
            ? std::strtoll(reply.Header("x-handler-span").c_str(), nullptr,
                           10)
            : -1;
    double total = 0.0, prepare = 0.0, eval = 0.0;
    for (const hyper::JsonValue* r : results) {
      const hyper::JsonValue* value = r->Find("value");
      const hyper::JsonValue* timing = r->Find("timing");
      if (value == nullptr || !value->is_number() || timing == nullptr) {
        return false;
      }
      if (values != nullptr) values->push_back(value->number_value());
      total += timing->GetNumber("total_seconds");
      prepare += timing->GetNumber("prepare_seconds");
      eval += timing->GetNumber("eval_seconds");
      sums_.Add("whatif.rows", r->GetNumber("view_rows"));
      sums_.Add("whatif.updated_rows", r->GetNumber("updated_rows"));
      sums_.Add("whatif.patterns", r->GetNumber("patterns"));
      sums_.Add("whatif.blocks", r->GetNumber("blocks"));
      sums_.Add("learn.train_s", timing->GetNumber("train_seconds"));
      sums_.Add("learn.pattern_hits", r->GetNumber("pattern_cache_hits"));
    }
    if (tracer->enabled() && handler >= 0) {
      if (batch) {
        // A sweep reports no service time; its items hang off the handler.
        const int64_t engine =
            tracer->Reported("whatif", total, handler, op.index);
        tracer->Reported("whatif.eval", eval, engine, op.index);
        tracer->Reported("whatif.prepare", prepare, engine, op.index, eval);
      } else {
        TraceWhatIf(tracer, parsed->GetNumber("seconds"), total, prepare,
                    eval, handler, op.index);
      }
    }
    return true;
  }

  const double scale_;
  std::unique_ptr<hyper::obs::MetricsRegistry> registry_;
  std::unique_ptr<ScenarioService> service_;
  std::unique_ptr<hyper::net::QueryHandler> handler_;
  std::unique_ptr<hyper::net::HttpServer> server_;
  std::vector<std::unique_ptr<HttpClient>> clients_;
  std::atomic<Tracer*> tracer_{nullptr};
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"whatif_scan_250k", "howto_adult", "branch_rw_20k", "http_serve"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const WorkloadParams& params) {
  if (name == "whatif_scan_250k") {
    return std::make_unique<ScanWorkload>(seed, params);
  }
  if (name == "howto_adult") {
    return std::make_unique<HowToWorkload>(seed, params);
  }
  if (name == "branch_rw_20k") {
    return std::make_unique<BranchWorkload>(seed, params);
  }
  if (name == "http_serve") {
    return std::make_unique<HttpWorkload>(seed, params);
  }
  return nullptr;
}

}  // namespace perfbench
