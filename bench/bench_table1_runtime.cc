// Reproduces Table 1: average runtime (seconds) of a Count what-if query per
// dataset, for HypeR (graph backdoor), HypeR-NB (no background knowledge)
// and the Indep baseline. The shape to check against the paper: Indep is the
// fastest, HypeR-NB is the slowest (its adjustment set is every attribute),
// and runtime grows with dataset size. The largest dataset also reports
// HypeR-sampled in parentheses, like the paper's last row.
//
// Default run scales the big datasets down; --full uses paper sizes
// (german-syn-1m -> 1M rows).

#include <cstdio>

#include "bench/bench_util.h"
#include "data/datasets.h"
#include "whatif/engine.h"

namespace hyper {
namespace {

struct Workload {
  const char* dataset;
  double default_scale;
  const char* query;
  bool report_sampled;  // add the HypeR-sampled figure (large datasets)
};

const Workload kWorkloads[] = {
    {"adult", 0.3,
     "Use Adult Update(Marital) = 1 Output Count(*) "
     "For Post(Income) = 1 And Pre(Age) = 1",
     false},
    {"german", 1.0,
     "Use German Update(Status) = 3 Output Count(Credit = 1) "
     "For Pre(Age) = 1",
     false},
    {"amazon", 0.3,
     "Use V As (Select T1.PID, T1.Category, T1.Brand, T1.Price, T1.Quality, "
     "Avg(T2.Rating) As Rtng From Product As T1, Review As T2 "
     "Where T1.PID = T2.PID Group By T1.PID, T1.Category, T1.Brand, "
     "T1.Price, T1.Quality) "
     "When Category = 'Laptop' Update(Price) = 1.1 * Pre(Price) "
     "Output Count(Rtng >= 4) For Pre(Category) = 'Laptop'",
     false},
    {"student-syn", 0.5,
     "Use V As (Select S.SID, S.Age, S.Gender, S.Country, S.Attendance, "
     "Avg(P.Grade) As AvgGrade From Student As S, Participation As P "
     "Where S.SID = P.SID "
     "Group By S.SID, S.Age, S.Gender, S.Country, S.Attendance) "
     "Update(Attendance) = 100 Output Count(AvgGrade >= 60)",
     false},
    {"german-syn-20k", 1.0,
     "Use German Update(Status) = 3 Output Count(Credit = 1) "
     "For Pre(Age) = 1",
     false},
    {"german-syn-1m", 0.1,
     "Use German Update(Status) = 3 Output Count(Credit = 1) "
     "For Pre(Age) = 1",
     true},
};

whatif::WhatIfOptions ModeOptions(whatif::BackdoorMode mode,
                                  size_t sample_size) {
  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kForest;
  options.forest.num_trees = 10;
  options.forest.tree.max_depth = 10;
  options.forest.tree.max_thresholds = 32;
  options.backdoor = mode;
  options.sample_size = sample_size;
  return options;
}

double TimeRun(const data::Dataset& ds, const char* query,
               const whatif::WhatIfOptions& options) {
  whatif::WhatIfEngine engine(&ds.db, &ds.graph, options);
  Stopwatch timer;
  auto result = engine.RunSql(query);
  const double seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "[bench] query failed on %s: %s\n", ds.name.c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return seconds;
}

}  // namespace
}  // namespace hyper

int main(int argc, char** argv) {
  using namespace hyper;
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);

  bench::Banner(
      "Table 1: average what-if (Count) runtime in seconds per dataset");
  std::printf("expected shape: Indep < HypeR < HypeR-NB; grows with rows\n\n");

  bench::TablePrinter table(
      {"dataset", "rows", "HypeR", "HypeR-NB", "Indep"});
  table.PrintHeader();

  for (const auto& workload : kWorkloads) {
    const double scale = flags.ScaleOr(workload.default_scale);
    auto ds = bench::Unwrap(
        data::MakeByName(workload.dataset, scale, flags.seed), "dataset");

    const double hyper_s = TimeRun(
        ds, workload.query, ModeOptions(whatif::BackdoorMode::kGraph, 0));
    const double nb_s = TimeRun(
        ds, workload.query,
        ModeOptions(whatif::BackdoorMode::kAllAttributes, 0));
    const double indep_s =
        TimeRun(ds, workload.query,
                ModeOptions(whatif::BackdoorMode::kUpdateOnly, 0));

    std::string hyper_cell = bench::Fmt(hyper_s, "%.3f");
    std::string nb_cell = bench::Fmt(nb_s, "%.3f");
    if (workload.report_sampled && ds.db.TotalRows() > 50000) {
      const double sampled_s =
          TimeRun(ds, workload.query,
                  ModeOptions(whatif::BackdoorMode::kGraph, 50000));
      const double sampled_nb_s = TimeRun(
          ds, workload.query,
          ModeOptions(whatif::BackdoorMode::kAllAttributes, 50000));
      hyper_cell += " (" + bench::Fmt(sampled_s, "%.3f") + ")";
      nb_cell += " (" + bench::Fmt(sampled_nb_s, "%.3f") + ")";
    }
    table.PrintRow({workload.dataset, std::to_string(ds.db.TotalRows()),
                    hyper_cell, nb_cell, bench::Fmt(indep_s, "%.3f")});
  }
  std::printf(
      "\n(values in parentheses: HypeR(-NB)-sampled with a 50k training "
      "sample)\n");
  return 0;
}
