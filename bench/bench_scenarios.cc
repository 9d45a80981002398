// Scenario-service benchmark: what the serving layer saves.
//
//   ./build/bench_scenarios              # scaled-down german-syn
//   ./build/bench_scenarios --full       # paper-scale
//   ./build/bench_scenarios --smoke      # tiny + correctness gate only
//
// Three measurements, each gated on bit-for-bit equality with fresh
// single-query runs (any mismatch exits non-zero, so scripts/check.sh can
// use --smoke as a pre-merge gate):
//
//   1. whatif_cold_vs_warm   — the same what-if cold (prepare + train) vs
//                              warm (plan + estimators from the cache).
//   2. sweep_batch           — N interventions over one shared view: fresh
//                              engine runs vs warm-cache singles vs one
//                              SubmitWhatIfBatch against one prepared plan.
//   3. howto_shared          — one how-to run with shared-plan candidate
//                              scoring (estimators trained once, reused).
//   4. bench_howto           — parallel candidate scoring at 1/2/4/8 threads.
//   5. branch_fanout         — chained branch deltas, cold prepares vs
//                              staged reuse.
//   6. governance_overhead   — warm what-if with a generous budget armed vs
//                              ungoverned; gated within 2%.
//   7. durability_recovery   — journaled applies vs in-memory applies, then
//                              a crash (no snapshot, no drain) and the WAL
//                              replay time to a bit-identical service.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/datasets.h"
#include "howto/engine.h"
#include "service/scenario_service.h"
#include "sql/parser.h"
#include "whatif/engine.h"

using namespace hyper;
using bench::Banner;
using bench::CheckOk;
using bench::Fmt;
using bench::JsonLines;
using bench::TablePrinter;
using bench::Unwrap;

namespace {

size_t g_mismatches = 0;

void CheckEqual(double fresh, double served, const std::string& what) {
  // The service contract is bit-for-bit identity, not tolerance.
  if (std::memcmp(&fresh, &served, sizeof(double)) != 0) {
    std::fprintf(stderr,
                 "[bench_scenarios] MISMATCH %s: fresh %.17g vs served "
                 "%.17g\n",
                 what.c_str(), fresh, served);
    ++g_mismatches;
  }
}

whatif::WhatIfOptions ForestOptions(size_t num_trees) {
  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kForest;
  options.forest.num_trees = num_trees;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const double scale = flags.ScaleOr(smoke ? 0.05 : 0.35);
  const size_t num_trees = smoke ? 4 : 16;

  data::Dataset ds = Unwrap(
      data::MakeByName("german-syn-20k", scale, flags.seed), "make german");
  const whatif::WhatIfOptions options = ForestOptions(num_trees);
  JsonLines json("BENCH_scenarios.json");

  const std::string query =
      "Use German When Status = 1 Update(Status) = 2 "
      "Output Count(Credit = 1)";

  // -------------------------------------------------------------------
  Banner("1. repeated what-if: cold vs warm plan cache");
  service::ServiceOptions service_options;
  service_options.whatif = options;
  service_options.num_threads = 1;
  service::ScenarioService service(ds.db, ds.graph, service_options);

  whatif::WhatIfEngine fresh_engine(&ds.db, &ds.graph, options);
  const whatif::WhatIfResult fresh =
      Unwrap(fresh_engine.RunSql(query), "fresh what-if");

  service::Response cold = service.Submit({"main", query, {}});
  CheckOk(cold.status, "cold submit");
  CheckEqual(fresh.value, cold.whatif.value, "cold what-if");

  const size_t warm_reps = smoke ? 2 : 5;
  double warm_seconds = 0.0;
  for (size_t i = 0; i < warm_reps; ++i) {
    service::Response warm = service.Submit({"main", query, {}});
    CheckOk(warm.status, "warm submit");
    CheckEqual(fresh.value, warm.whatif.value, "warm what-if");
    if (!warm.whatif.plan_cache_hit) {
      std::fprintf(stderr, "[bench_scenarios] warm run missed the cache\n");
      ++g_mismatches;
    }
    warm_seconds += warm.whatif.total_seconds;
  }
  warm_seconds /= static_cast<double>(warm_reps);
  const double cold_seconds = cold.whatif.total_seconds;

  TablePrinter t1({"variant", "seconds", "speedup"});
  t1.PrintHeader();
  t1.PrintRow({"cold (prepare+train)", Fmt(cold_seconds), "1.0"});
  t1.PrintRow({"warm (cached plan)", Fmt(warm_seconds),
               Fmt(cold_seconds / warm_seconds, "%.1f")});
  json.Record("whatif_cold_vs_warm",
              {{"rows", static_cast<double>(fresh.view_rows)},
               {"cold_seconds", cold_seconds},
               {"warm_seconds", warm_seconds},
               {"speedup", cold_seconds / warm_seconds},
               {"equal", g_mismatches == 0 ? 1.0 : 0.0}});

  // -------------------------------------------------------------------
  Banner("2. intervention sweep: N singles vs batch on one prepared plan");
  const size_t sweep_n = smoke ? 4 : 12;
  std::vector<std::vector<whatif::UpdateSpec>> interventions;
  std::vector<std::string> sweep_sql;
  for (size_t i = 0; i < sweep_n; ++i) {
    whatif::UpdateSpec spec;
    spec.attribute = "Status";
    spec.func = sql::UpdateFuncKind::kSet;
    spec.constant = Value::Int(static_cast<int64_t>(i % 4));
    interventions.push_back({spec});
    sweep_sql.push_back(
        "Use German When Status = 1 Update(Status) = " +
        std::to_string(i % 4) + " Output Count(Credit = 1)");
  }

  // Fresh singles: a new engine run per intervention, nothing shared.
  std::vector<double> fresh_values(sweep_n);
  Stopwatch sweep_timer;
  for (size_t i = 0; i < sweep_n; ++i) {
    fresh_values[i] =
        Unwrap(fresh_engine.RunSql(sweep_sql[i]), "sweep fresh").value;
  }
  const double fresh_seconds = sweep_timer.ElapsedSeconds();

  // Warm-cache singles: one service, the plan is prepared once.
  service::ScenarioService sweep_service(ds.db, ds.graph, service_options);
  sweep_timer.Restart();
  for (size_t i = 0; i < sweep_n; ++i) {
    service::Response r = sweep_service.Submit({"main", sweep_sql[i], {}});
    CheckOk(r.status, "sweep single");
    CheckEqual(fresh_values[i], r.whatif.value, "sweep single " + sweep_sql[i]);
  }
  const double singles_seconds = sweep_timer.ElapsedSeconds();

  // Batch: one prepared plan, one sharded pass.
  service::ScenarioService batch_service(ds.db, ds.graph, service_options);
  sweep_timer.Restart();
  auto batch = Unwrap(
      batch_service.SubmitWhatIfBatch("main", query, interventions),
      "sweep batch");
  const double batch_seconds = sweep_timer.ElapsedSeconds();
  for (size_t i = 0; i < sweep_n; ++i) {
    CheckOk(batch[i].status, "sweep batch intervention status");
    CheckEqual(fresh_values[i], batch[i].result.value,
               "sweep batch intervention " + std::to_string(i));
  }

  TablePrinter t2({"variant", "seconds", "speedup"});
  t2.PrintHeader();
  t2.PrintRow({"fresh singles", Fmt(fresh_seconds), "1.0"});
  t2.PrintRow({"warm singles", Fmt(singles_seconds),
               Fmt(fresh_seconds / singles_seconds, "%.1f")});
  t2.PrintRow({"one batch", Fmt(batch_seconds),
               Fmt(fresh_seconds / batch_seconds, "%.1f")});
  json.Record("sweep_batch",
              {{"n", static_cast<double>(sweep_n)},
               {"fresh_seconds", fresh_seconds},
               {"warm_singles_seconds", singles_seconds},
               {"batch_seconds", batch_seconds},
               {"speedup_warm", fresh_seconds / singles_seconds},
               {"speedup_batch", fresh_seconds / batch_seconds},
               {"equal", g_mismatches == 0 ? 1.0 : 0.0}});

  // -------------------------------------------------------------------
  Banner("3. how-to: shared-plan candidate scoring");
  const std::string howto_sql =
      "Use German HowToUpdate Status, Savings "
      "ToMaximize Count(Credit = 1)";
  howto::HowToOptions shared_options;
  shared_options.whatif = options;
  howto::HowToEngine shared_engine(&ds.db, &ds.graph, shared_options);
  Stopwatch howto_timer;
  howto::HowToResult shared = Unwrap(shared_engine.RunSql(howto_sql),
                                     "how-to shared");
  const double shared_seconds = howto_timer.ElapsedSeconds();

  TablePrinter t3({"candidates", "seconds", "trainings-saved"});
  t3.PrintHeader();
  t3.PrintRow({Fmt(static_cast<double>(shared.candidates_evaluated), "%.0f"),
               Fmt(shared_seconds),
               Fmt(static_cast<double>(shared.pattern_cache_hits), "%.0f")});
  json.Record("howto_shared",
              {{"candidates", static_cast<double>(shared.candidates_evaluated)},
               {"shared_seconds", shared_seconds},
               {"pattern_cache_hits",
                static_cast<double>(shared.pattern_cache_hits)}});

  // -------------------------------------------------------------------
  Banner("4. bench_howto: parallel candidate scoring at 1/2/4/8 threads");
  // One shared stage cache, warmed once: the timed runs then measure the
  // candidate-scoring loop itself (per-candidate Evaluate sharded over the
  // pool), not plan construction or estimator training. Answers must be
  // bit-identical at every thread count.
  service::StageCache howto_cache(64);
  whatif::StageContext howto_context;
  howto_context.stages = &howto_cache;
  howto_context.data_scope =
      "bench|" + std::to_string(ds.db.ContentFingerprint());
  auto howto_engine_at = [&](size_t threads) {
    howto::HowToOptions ho;
    ho.whatif = options;
    ho.whatif.num_threads = threads;
    ho.stage_context = &howto_context;
    return howto::HowToEngine(&ds.db, &ds.graph, ho);
  };
  {
    // Warm: prepares the per-attribute plans and trains their estimators.
    Unwrap(howto_engine_at(1).RunSql(howto_sql), "how-to warm");
  }

  const size_t thread_counts[] = {1, 2, 4, 8};
  const size_t howto_reps = smoke ? 1 : 5;
  std::vector<double> howto_seconds;
  std::vector<howto::HowToResult> howto_results;
  for (size_t threads : thread_counts) {
    howto::HowToEngine engine = howto_engine_at(threads);
    double best = 0.0;
    for (size_t rep = 0; rep < howto_reps; ++rep) {
      howto_timer.Restart();
      howto::HowToResult r = Unwrap(engine.RunSql(howto_sql),
                                    "how-to parallel");
      const double seconds = howto_timer.ElapsedSeconds();
      if (rep == 0 || seconds < best) best = seconds;
      if (rep == 0) howto_results.push_back(std::move(r));
    }
    howto_seconds.push_back(best);
  }
  const size_t mismatches_before_howto = g_mismatches;
  const howto::HowToResult& serial = howto_results[0];
  for (size_t k = 1; k < howto_results.size(); ++k) {
    const howto::HowToResult& parallel = howto_results[k];
    const std::string tag =
        " @ " + std::to_string(thread_counts[k]) + " threads";
    CheckEqual(serial.baseline_value, parallel.baseline_value,
               "how-to parallel baseline" + tag);
    CheckEqual(serial.objective_value, parallel.objective_value,
               "how-to parallel objective" + tag);
    if (serial.PlanToString() != parallel.PlanToString()) {
      std::fprintf(stderr,
                   "[bench_scenarios] MISMATCH how-to plan%s: %s vs %s\n",
                   tag.c_str(), serial.PlanToString().c_str(),
                   parallel.PlanToString().c_str());
      ++g_mismatches;
    }
    if (serial.candidates.size() != parallel.candidates.size()) {
      std::fprintf(stderr,
                   "[bench_scenarios] MISMATCH how-to candidate shape%s\n",
                   tag.c_str());
      ++g_mismatches;
      continue;
    }
    for (size_t a = 0; a < serial.candidates.size(); ++a) {
      if (serial.candidates[a].size() != parallel.candidates[a].size()) {
        std::fprintf(stderr,
                     "[bench_scenarios] MISMATCH how-to candidate shape%s\n",
                     tag.c_str());
        ++g_mismatches;
        break;
      }
      for (size_t i = 0; i < serial.candidates[a].size(); ++i) {
        CheckEqual(serial.candidates[a][i].objective_value,
                   parallel.candidates[a][i].objective_value,
                   "how-to parallel candidate " + std::to_string(a) + "/" +
                       std::to_string(i) + tag);
      }
    }
  }

  TablePrinter t4({"threads", "seconds", "speedup"});
  t4.PrintHeader();
  std::vector<std::pair<std::string, double>> howto_record{
      {"candidates", static_cast<double>(serial.candidates_evaluated)},
      {"equal", 0.0}};  // patched below
  for (size_t k = 0; k < howto_results.size(); ++k) {
    t4.PrintRow({std::to_string(thread_counts[k]), Fmt(howto_seconds[k]),
                 Fmt(howto_seconds[0] / howto_seconds[k], "%.2f")});
    howto_record.emplace_back(
        "seconds_t" + std::to_string(thread_counts[k]), howto_seconds[k]);
    howto_record.emplace_back(
        "speedup_t" + std::to_string(thread_counts[k]),
        howto_seconds[0] / howto_seconds[k]);
  }
  howto_record[1].second = g_mismatches == mismatches_before_howto ? 1.0 : 0.0;
  json.Record("bench_howto", howto_record);

  // -------------------------------------------------------------------
  Banner("5. branch fan-out: chained 1-cell deltas, cold vs staged reuse");
  // Real branch traffic: N branches chained off main, each differing from
  // its parent by a single overridden cell on an attribute the measured
  // query's estimators never read (Savings is outside the {Age, Housing}
  // adjustment set, the update attribute and the For/Output references).
  // The staged pipeline must serve every branch's first query by patching
  // the trunk's columnar image and reusing its Causal/Learn stages — the
  // per-stage miss counters prove it. The cold arm prepares each branch's
  // world with no stage cache (all four stages built fresh, estimators
  // retrained). Answers are gated bit-identical across arms.
  const size_t fan_n = smoke ? 3 : 8;
  auto fan_branch_sql = [](size_t i) {
    return "Use German When Id = " + std::to_string(i) +
           " Update(Savings) = " + std::to_string(i % 3) + " Output Count(*)";
  };

  struct FanArm {
    std::vector<double> values;
    std::vector<double> prepare_seconds;
    double submit_seconds = 0.0;
  };
  service::ScenarioService staged_svc(ds.db, ds.graph, service_options);
  FanArm staged_arm;
  // Warm the trunk first: branch traffic rides on an already-serving world.
  CheckOk(staged_svc.Submit({"main", query, {}}).status, "fan-out trunk");
  std::vector<std::string> fan_names;
  for (size_t i = 0; i < fan_n; ++i) {
    const std::string name = "fan" + std::to_string(i);
    CheckOk(staged_svc.CreateScenario(name, i == 0 ? "main" : fan_names.back()),
            "fan-out create");
    auto updated = staged_svc.ApplyHypotheticalSql(name, fan_branch_sql(i));
    CheckOk(updated.status(), "fan-out delta");
    if (updated.ok() && *updated != 1) {
      std::fprintf(stderr, "[bench_scenarios] fan-out delta hit %zu rows\n",
                   *updated);
      ++g_mismatches;
    }
    Stopwatch branch_timer;
    service::Response r = staged_svc.Submit({name, query, {}});
    staged_arm.submit_seconds += branch_timer.ElapsedSeconds();
    CheckOk(r.status, "fan-out submit");
    staged_arm.values.push_back(r.whatif.value);
    staged_arm.prepare_seconds.push_back(r.whatif.prepare_seconds);
    fan_names.push_back(name);
  }

  FanArm cold_arm;
  const sql::Statement fan_stmt = Unwrap(sql::ParseSql(query), "parse");
  for (const std::string& name : fan_names) {
    const std::shared_ptr<const Database> world =
        Unwrap(staged_svc.EffectiveDatabase(name), "fan-out world");
    whatif::WhatIfEngine engine(world.get(), &ds.graph, options);
    Stopwatch branch_timer;
    auto plan = Unwrap(engine.Prepare(*fan_stmt.whatif), "fan-out prepare");
    const whatif::WhatIfResult r = Unwrap(
        engine.Evaluate(*plan, whatif::SpecsOfStatement(*fan_stmt.whatif)),
        "fan-out evaluate");
    cold_arm.submit_seconds += branch_timer.ElapsedSeconds();
    cold_arm.values.push_back(r.value);
    cold_arm.prepare_seconds.push_back(plan->prepare_seconds());
  }

  for (size_t i = 0; i < fan_n; ++i) {
    CheckEqual(cold_arm.values[i], staged_arm.values[i],
               "fan-out branch " + std::to_string(i));
  }
  // Per-stage prepare counters: N+1 plans (trunk + one per branch) were
  // assembled from ONE Causal build and ONE Learn build (training ran
  // exactly once); only the Scope image (patched, not re-encoded) and the
  // per-query constants rebuilt per branch.
  const service::PlanCacheStats fan_stats = staged_svc.cache_stats();
  auto gate_counter = [&](const char* what, size_t got, size_t want) {
    if (got != want) {
      std::fprintf(stderr,
                   "[bench_scenarios] stage counter %s = %zu, expected %zu\n",
                   what, got, want);
      ++g_mismatches;
    }
  };
  gate_counter("plan.misses", fan_stats.misses, fan_n + 1);
  gate_counter("scope.misses", fan_stats.scope.misses, fan_n + 1);
  gate_counter("causal.misses", fan_stats.causal.misses, 1);
  gate_counter("learn.misses", fan_stats.learn.misses, 1);
  gate_counter("query.misses", fan_stats.query.misses, fan_n + 1);

  double reuse_prepare = 0.0, cold_prepare = 0.0;
  for (size_t i = 0; i < fan_n; ++i) {
    reuse_prepare += staged_arm.prepare_seconds[i];
    cold_prepare += cold_arm.prepare_seconds[i];
  }
  const double fan_speedup = cold_prepare / reuse_prepare;

  TablePrinter t5({"variant", "prepare-s/branch", "submit-s/branch",
                   "speedup"});
  t5.PrintHeader();
  t5.PrintRow({"cold prepare",
               Fmt(cold_prepare / static_cast<double>(fan_n)),
               Fmt(cold_arm.submit_seconds / static_cast<double>(fan_n)),
               "1.0"});
  t5.PrintRow({"staged reuse",
               Fmt(reuse_prepare / static_cast<double>(fan_n)),
               Fmt(staged_arm.submit_seconds / static_cast<double>(fan_n)),
               Fmt(fan_speedup, "%.1f")});
  std::printf("staged stage misses: scope %zu | causal %zu | learn %zu | "
              "query %zu (plans %zu)\n",
              fan_stats.scope.misses, fan_stats.causal.misses,
              fan_stats.learn.misses, fan_stats.query.misses,
              fan_stats.misses);
  json.Record(
      "branch_fanout",
      {{"n", static_cast<double>(fan_n)},
       {"cold_prepare_seconds", cold_prepare},
       {"reuse_prepare_seconds", reuse_prepare},
       {"cold_submit_seconds", cold_arm.submit_seconds},
       {"reuse_submit_seconds", staged_arm.submit_seconds},
       {"speedup_prepare", fan_speedup},
       {"learn_prepares", static_cast<double>(fan_stats.learn.misses)},
       {"equal", g_mismatches == 0 ? 1.0 : 0.0}});

  // -------------------------------------------------------------------
  Banner("6. governance overhead: warm what-if, governed vs ungoverned");
  // A generous budget plus an attached (never tripped) cancel token arms
  // the full governance machinery — guard allocation, stage-boundary
  // checkpoints, row/byte meters, amortized loop checks — on a request
  // that never aborts. Gated: the governed warm path must stay within 2%
  // of the ungoverned one (rounds interleaved, best-of to shed scheduler
  // noise), and both must answer bit-identically. Reuses the section-1
  // service, whose plan cache is already warm for `query`: budgets never
  // enter cache keys, so both arms hit the same entries.
  const size_t gov_reps = smoke ? 150 : 300;
  service::Request ungoverned_req{"main", query, {}};
  service::Request governed_req{"main", query, {}};
  governed_req.budget.deadline_seconds = 3600.0;
  governed_req.budget.max_rows_touched = size_t{1} << 40;
  governed_req.budget.max_bytes_materialized = size_t{1} << 50;
  governed_req.cancel_token = CancelToken::Make();

  // Per-request minimum, arms interleaved pair-by-pair: the min over many
  // reps converges on each arm's no-interference floor, so the comparison
  // measures the intrinsic governed-path cost rather than scheduler noise
  // (per-round totals jitter more than the 2% budget being gated). At this
  // query's ~50us floor the 2% budget is ~1us — below scheduler resolution
  // on a loaded single-core box — so an over-budget measurement is
  // re-measured up to two more times and the gate takes the best attempt
  // (a real governed-path regression persists across attempts, a preempted
  // run does not), and the gate additionally grants a 3us absolute slack:
  // a delta that small is indistinguishable from timer granularity here,
  // while any real per-request regression worth failing the build over
  // clears it easily.
  Stopwatch gov_timer;
  double ungoverned_best = 1e30;
  double governed_best = 1e30;
  double gov_overhead = 1e30;
  for (int attempt = 0; attempt < 3; ++attempt) {
    for (size_t i = 0; i < gov_reps; ++i) {
      gov_timer.Restart();
      service::Response plain = service.Submit(ungoverned_req);
      ungoverned_best = std::min(ungoverned_best, gov_timer.ElapsedSeconds());
      CheckOk(plain.status, "governance ungoverned submit");
      CheckEqual(fresh.value, plain.whatif.value,
                 "governance ungoverned value");

      gov_timer.Restart();
      service::Response governed = service.Submit(governed_req);
      governed_best = std::min(governed_best, gov_timer.ElapsedSeconds());
      CheckOk(governed.status, "governance governed submit");
      CheckEqual(fresh.value, governed.whatif.value,
                 "governance governed value");
      if (!governed.whatif.plan_cache_hit) {
        std::fprintf(stderr,
                     "[bench_scenarios] governed run missed the warm cache "
                     "(budgets must not enter cache keys)\n");
        ++g_mismatches;
      }
    }
    gov_overhead =
        std::min(gov_overhead, governed_best / ungoverned_best - 1.0);
    if (gov_overhead <= 0.02) break;
  }
  const bool gov_within_budget =
      gov_overhead <= 0.02 || governed_best - ungoverned_best <= 3e-6;

  TablePrinter t6({"variant", "seconds", "overhead"});
  t6.PrintHeader();
  t6.PrintRow({"ungoverned warm", Fmt(ungoverned_best), "-"});
  t6.PrintRow({"governed warm", Fmt(governed_best),
               Fmt(gov_overhead * 100.0, "%.2f%%")});
  if (!gov_within_budget) {
    std::fprintf(stderr,
                 "[bench_scenarios] FAILED: governed warm path %.2f%% slower "
                 "than ungoverned (budget: 2%%)\n",
                 gov_overhead * 100.0);
    ++g_mismatches;
  }
  json.Record("governance_overhead",
              {{"reps", static_cast<double>(gov_reps)},
               {"ungoverned_seconds", ungoverned_best},
               {"governed_seconds", governed_best},
               {"overhead", gov_overhead},
               {"within_2pct", gov_within_budget ? 1.0 : 0.0},
               {"equal", g_mismatches == 0 ? 1.0 : 0.0}});

  // -------------------------------------------------------------------
  Banner("7. durability: WAL append overhead + crash-recovery time");
  // Same mutation traffic twice — once in-memory, once journaled — then a
  // simulated crash (service destroyed with no snapshot and no drain; only
  // the WAL survives) and a timed recovery that must land on bit-identical
  // branch fingerprints and answers.
  char dur_template[] = "/tmp/hyper_bench_dur_XXXXXX";
  const char* dur_dir = ::mkdtemp(dur_template);
  if (dur_dir == nullptr) {
    std::fprintf(stderr, "[bench_scenarios] cannot create durability dir\n");
    return 1;
  }
  const size_t dur_n = smoke ? 8 : 64;
  const auto apply_traffic = [&](service::ScenarioService& s) {
    CheckOk(s.CreateScenario("durable"), "create durable branch");
    for (size_t i = 0; i < dur_n; ++i) {
      const std::string sql =
          "Use German When Status = " + std::to_string(i % 3) +
          " Update(Savings) = " + std::to_string(i % 5) + " Output Count(*)";
      CheckOk(s.ApplyHypotheticalSql("durable", sql).status(),
              "durable apply");
    }
  };

  Stopwatch dur_timer;
  service::ServiceOptions mem_options = service_options;
  double mem_apply_seconds = 0.0;
  {
    service::ScenarioService mem_service(ds.db, ds.graph, mem_options);
    dur_timer.Restart();
    apply_traffic(mem_service);
    mem_apply_seconds = dur_timer.ElapsedSeconds();
  }

  service::ServiceOptions dur_options = service_options;
  dur_options.data_dir = dur_dir;
  dur_options.snapshot_every_records = 0;  // force a full-WAL replay below
  std::vector<service::ScenarioInfo> dur_live_infos;
  double dur_apply_seconds = 0.0;
  double dur_live_value = 0.0;
  uint64_t dur_wal_bytes = 0;
  {
    service::ScenarioService dur_service(ds.db, ds.graph, dur_options);
    CheckOk(dur_service.recovery_status(), "durable service construction");
    dur_timer.Restart();
    apply_traffic(dur_service);
    dur_apply_seconds = dur_timer.ElapsedSeconds();
    dur_live_infos = dur_service.ListScenarios();
    dur_wal_bytes = dur_service.wal_stats().appended_bytes;
    service::Response live = dur_service.Submit({"durable", query, {}});
    CheckOk(live.status, "durable live submit");
    dur_live_value = live.whatif.value;
  }  // crash: no snapshot, no drain

  dur_timer.Restart();
  service::ScenarioService recovered(ds.db, ds.graph, dur_options);
  const double recovery_wall = dur_timer.ElapsedSeconds();
  CheckOk(recovered.recovery_status(), "recovery");
  const double recovery_seconds = recovered.recovery_info().seconds;
  const auto recovered_infos = recovered.ListScenarios();
  if (recovered_infos.size() != dur_live_infos.size()) {
    std::fprintf(stderr, "[bench_scenarios] MISMATCH recovered %zu branches, "
                 "want %zu\n", recovered_infos.size(), dur_live_infos.size());
    ++g_mismatches;
  } else {
    for (size_t i = 0; i < recovered_infos.size(); ++i) {
      if (recovered_infos[i].delta_fingerprint !=
          dur_live_infos[i].delta_fingerprint) {
        std::fprintf(stderr,
                     "[bench_scenarios] MISMATCH fingerprint of '%s' after "
                     "recovery\n", recovered_infos[i].name.c_str());
        ++g_mismatches;
      }
    }
  }
  service::Response replayed = recovered.Submit({"durable", query, {}});
  CheckOk(replayed.status, "recovered submit");
  CheckEqual(dur_live_value, replayed.whatif.value, "recovered what-if");

  const uint64_t dur_records = recovered.recovery_info().records_replayed;
  TablePrinter t7({"measurement", "value"});
  t7.PrintHeader();
  t7.PrintRow({"applies in-memory", Fmt(mem_apply_seconds)});
  t7.PrintRow({"applies journaled (fsync=interval)", Fmt(dur_apply_seconds)});
  t7.PrintRow({"wal bytes", std::to_string(dur_wal_bytes)});
  t7.PrintRow({"recovery (replay " + std::to_string(dur_records) +
                   " records)",
               Fmt(recovery_seconds)});
  json.Record(
      "durability_recovery",
      {{"records", static_cast<double>(dur_records)},
       {"wal_bytes", static_cast<double>(dur_wal_bytes)},
       {"mem_apply_seconds", mem_apply_seconds},
       {"durable_apply_seconds", dur_apply_seconds},
       {"recovery_seconds", recovery_seconds},
       {"recovery_wall_seconds", recovery_wall},
       {"records_per_second",
        recovery_seconds > 0.0 ? static_cast<double>(dur_records) /
                                     recovery_seconds
                               : 0.0},
       {"equal", g_mismatches == 0 ? 1.0 : 0.0}});
  [[maybe_unused]] const int dur_rc =
      std::system(("rm -rf '" + std::string(dur_dir) + "'").c_str());

  if (g_mismatches > 0) {
    std::fprintf(stderr,
                 "[bench_scenarios] FAILED: %zu cached-vs-fresh mismatch(es)\n",
                 g_mismatches);
    return 1;
  }
  std::printf("\nall cached/batched answers bit-identical to fresh runs\n");
  return 0;
}
