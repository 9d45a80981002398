// Ablations listed in FIDELITY.md §6 (not in the paper):
//   1. estimator kind (frequency vs forest) — quality and time on discrete
//      data, against exact ground truth;
//   2. block decomposition on vs off — same value, time comparison;
//   3. MCK fast path vs general branch-and-bound on the how-to IP — same
//      plan, solver-node and time comparison.

#include <cmath>
#include <cstdio>

#include "baselines/ground_truth.h"
#include "bench/bench_util.h"
#include "data/datasets.h"
#include "howto/engine.h"
#include "sql/parser.h"
#include "whatif/engine.h"

int main(int argc, char** argv) {
  using namespace hyper;
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);

  auto ds = bench::Unwrap(
      data::MakeByName("german-syn-20k", flags.ScaleOr(0.5), flags.seed),
      "german-syn");
  std::printf("German-Syn rows: %zu\n", ds.db.TotalRows());
  const char* query =
      "Use German Update(Status) = 3 Output Avg(Post(Credit))";
  auto stmt = bench::Unwrap(sql::ParseSql(query), "parse");
  const double truth = bench::Unwrap(
      baselines::GroundTruthWhatIf(ds.flat, ds.scm, *stmt.whatif), "truth");

  // ------------------------------------------------ 1. estimator kind
  bench::Banner("Ablation 1: estimator kind (truth = " +
                bench::Fmt(truth, "%.4f") + ")");
  bench::TablePrinter est_table({"estimator", "value", "|err|", "time(s)"});
  est_table.PrintHeader();
  for (learn::EstimatorKind kind :
       {learn::EstimatorKind::kFrequency, learn::EstimatorKind::kForest}) {
    whatif::WhatIfOptions options;
    options.estimator = kind;
    options.forest.num_trees = 12;
    options.seed = flags.seed;
    whatif::WhatIfEngine engine(&ds.db, &ds.graph, options);
    Stopwatch timer;
    auto result = bench::Unwrap(engine.Run(*stmt.whatif), "what-if");
    est_table.PrintRow({learn::EstimatorKindName(kind),
                        bench::Fmt(result.value, "%.4f"),
                        bench::Fmt(std::abs(result.value - truth), "%.4f"),
                        bench::Fmt(timer.ElapsedSeconds(), "%.3f")});
  }
  std::printf("expected: both close to truth on discrete data; frequency "
              "faster (no tree building)\n");

  // ------------------------------------------------ 2. block decomposition
  bench::Banner("Ablation 2: block decomposition on/off");
  bench::TablePrinter block_table({"blocks", "value", "num_blocks",
                                   "time(s)"});
  block_table.PrintHeader();
  for (bool use_blocks : {true, false}) {
    whatif::WhatIfOptions options;
    options.estimator = learn::EstimatorKind::kFrequency;
    options.use_blocks = use_blocks;
    options.seed = flags.seed;
    whatif::WhatIfEngine engine(&ds.db, &ds.graph, options);
    Stopwatch timer;
    auto result = bench::Unwrap(engine.Run(*stmt.whatif), "what-if");
    block_table.PrintRow({use_blocks ? "on" : "off",
                          bench::Fmt(result.value, "%.4f"),
                          std::to_string(result.num_blocks),
                          bench::Fmt(timer.ElapsedSeconds(), "%.3f")});
  }
  std::printf("expected: identical values (decomposability, Prop. 1); "
              "per-tuple blocks here since the graph has no cross-tuple "
              "edges\n");

  // ------------------------------------------------ 3. MCK vs B&B
  bench::Banner("Ablation 3: how-to solver — MCK fast path vs B&B");
  bench::TablePrinter solver_table({"solver", "objective", "nodes",
                                    "time(s)"});
  solver_table.PrintHeader();
  const char* howto_query =
      "Use German HowToUpdate Status, Savings, Housing "
      "ToMaximize Avg(Post(Credit))";
  for (bool mck : {true, false}) {
    howto::HowToOptions options;
    options.whatif.estimator = learn::EstimatorKind::kFrequency;
    options.prefer_mck = mck;
    options.global_l1_budget = 2.0;
    howto::HowToEngine engine(&ds.db, &ds.graph, options);
    Stopwatch timer;
    auto result = bench::Unwrap(engine.RunSql(howto_query), "how-to");
    solver_table.PrintRow({mck ? "MCK" : "branch&bound",
                           bench::Fmt(result.objective_value, "%.4f"),
                           std::to_string(result.solver_nodes),
                           bench::Fmt(timer.ElapsedSeconds(), "%.3f")});
  }
  std::printf("expected: identical objectives (both exact); MCK explores "
              "fewer nodes\n");
  return 0;
}
