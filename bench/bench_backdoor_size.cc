// Reproduces the §5.5 backdoor-set-size experiment: what-if runtime as the
// adjustment set grows. The paper grew the backdoor set from 2 attributes
// (age, sex) to all attributes and saw runtime rise from 7.2s to 22.45s on
// German-Syn(20k); we sweep the number of adjustment attributes by padding
// the dataset with synthetic confounder-like attributes and running in
// all-attributes mode with increasing subsets exposed.
//
// Also reports the §5.5 For-interaction: conditions on backdoor attributes
// in the For operator *reduce* runtime (the support index prunes to the
// qualifying slice).

#include <cstdio>

#include "bench/bench_util.h"
#include "data/datasets.h"
#include "whatif/engine.h"

namespace hyper {
namespace {

/// German table padded with `count` synthetic binary attributes.
Database PadGerman(const Database& db, size_t count, uint64_t seed) {
  const Table& base = *db.GetTable("German").value();
  std::vector<AttributeDef> attrs = base.schema().attributes();
  for (size_t i = 0; i < count; ++i) {
    attrs.push_back({"Z" + std::to_string(i), ValueType::kInt,
                     Mutability::kMutable});
  }
  Table extended(Schema("German", std::move(attrs), {"Id"}));
  Rng rng(seed);
  for (size_t r = 0; r < base.num_rows(); ++r) {
    Row row = base.row(r);
    for (size_t i = 0; i < count; ++i) {
      row.push_back(Value::Int(rng.UniformInt(0, 1)));
    }
    extended.AppendUnchecked(std::move(row));
  }
  Database out;
  bench::CheckOk(out.AddTable(std::move(extended)), "pad german");
  return out;
}

}  // namespace
}  // namespace hyper

int main(int argc, char** argv) {
  using namespace hyper;
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);

  auto ds = bench::Unwrap(
      data::MakeByName("german-syn-20k", flags.ScaleOr(0.5), flags.seed),
      "german-syn");
  std::printf("German-Syn rows: %zu\n", ds.db.TotalRows());

  bench::Banner("§5.5: what-if runtime vs adjustment-set size");
  bench::TablePrinter table({"backdoor-attrs", "time(s)"});
  table.PrintHeader();

  // Sweep: expose 0..8 extra synthetic attributes; the all-attributes mode
  // adjusts on every non-target column, so the feature count (and forest
  // training cost) grows with the pad width.
  for (size_t pad : {0u, 2u, 4u, 6u}) {
    Database padded = PadGerman(ds.db, pad, flags.seed);
    whatif::WhatIfOptions options;
    options.estimator = learn::EstimatorKind::kForest;
    options.forest.num_trees = 10;
    // Paper parity (sklearn default): every feature is considered at every
    // split, so training cost scales with the adjustment-set size.
    options.forest.sqrt_features = false;
    options.backdoor = whatif::BackdoorMode::kAllAttributes;
    options.seed = flags.seed;
    whatif::WhatIfEngine engine(&padded, nullptr, options);
    Stopwatch timer;
    auto result = bench::Unwrap(
        engine.RunSql("Use German Update(Status) = 3 "
                      "Output Count(Credit = 1)"),
        "what-if");
    table.PrintRow({std::to_string(result.backdoor.size()),
                    bench::Fmt(timer.ElapsedSeconds(), "%.3f")});
  }
  std::printf("expected shape: time grows with the adjustment-set size\n");

  bench::Banner(
      "§5.5: For conditions on adjustment attributes (paper: reduces "
      "runtime; here within noise — see FIDELITY.md §4)");
  bench::TablePrinter for_table({"query", "time(s)"});
  for_table.PrintHeader();
  {
    Database padded = PadGerman(ds.db, 8, flags.seed);
    whatif::WhatIfOptions options;
    options.estimator = learn::EstimatorKind::kForest;
    options.forest.num_trees = 10;
    options.forest.sqrt_features = false;
    options.backdoor = whatif::BackdoorMode::kAllAttributes;
    options.seed = flags.seed;
    whatif::WhatIfEngine engine(&padded, nullptr, options);
    {
      Stopwatch timer;
      bench::Unwrap(engine.RunSql("Use German Update(Status) = 3 "
                                  "Output Count(Credit = 1)"),
                    "unconditioned");
      for_table.PrintRow({"no For conditions",
                          bench::Fmt(timer.ElapsedSeconds(), "%.3f")});
    }
    {
      Stopwatch timer;
      bench::Unwrap(
          engine.RunSql("Use German Update(Status) = 3 "
                        "Output Count(Credit = 1) "
                        "For Pre(Z0) = 1 And Pre(Z1) = 1 And Pre(Z2) = 1"),
          "conditioned");
      for_table.PrintRow({"3 For conditions on Z*",
                          bench::Fmt(timer.ElapsedSeconds(), "%.3f")});
    }
  }
  return 0;
}
