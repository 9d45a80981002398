// Component-level micro-benchmarks (google-benchmark): relational executor,
// learners, causal machinery, and the IP solvers. Not tied to a paper
// figure; used to track regressions in the substrates.
//
// In addition to the google-benchmark registrations, this binary runs a
// comparison suite (row store vs columnar scan, group-by and predicate
// evaluation; estimator training and inference; what-if prepare/evaluate)
// and a scale sweep, and emits one JSON record per measurement to
// BENCH_micro.json. `--smoke` skips the google benchmarks and runs both at
// a reduced size — the pre-merge gate scripts/check.sh uses exactly that
// mode.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "causal/graph.h"
#include "causal/ground.h"
#include "common/simd.h"
#include "data/datasets.h"
#include "learn/forest.h"
#include "learn/frequency.h"
#include "opt/lp.h"
#include "opt/mck.h"
#include "opt/milp.h"
#include "relational/compiled.h"
#include "relational/eval.h"
#include "relational/select.h"
#include "sql/parser.h"
#include "storage/column.h"
#include "whatif/compile.h"
#include "whatif/engine.h"

namespace hyper {
namespace {

const data::Dataset& AmazonDataset() {
  static const data::Dataset* ds = [] {
    data::AmazonOptions opt;
    opt.products = 1000;
    opt.reviews_per_product = 10;
    return new data::Dataset(std::move(data::MakeAmazonSyn(opt).value()));
  }();
  return *ds;
}

const data::Dataset& GermanDataset() {
  static const data::Dataset* ds = [] {
    data::GermanOptions opt;
    opt.rows = 20000;
    return new data::Dataset(std::move(data::MakeGermanSyn(opt).value()));
  }();
  return *ds;
}

void BM_ParseWhatIf(benchmark::State& state) {
  const std::string query =
      "Use RelevantView As (Select T1.PID, T1.Category, T1.Price, T1.Brand, "
      "Avg(Sentiment) As Senti, Avg(T2.Rating) As Rtng "
      "From Product As T1, Review As T2 Where T1.PID = T2.PID "
      "Group By T1.PID, T1.Category, T1.Price, T1.Brand) "
      "When Brand = 'Asus' Update(Price) = 1.1 * Pre(Price) "
      "Output Avg(Post(Rtng)) For Pre(Category) = 'Laptop' "
      "And Post(Senti) > 0.5";
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::ParseSql(query));
  }
}
BENCHMARK(BM_ParseWhatIf);

void BM_HashJoinGroupBy(benchmark::State& state) {
  const data::Dataset& ds = AmazonDataset();
  auto stmt = sql::ParseSql(
                  "Select T1.PID, T1.Price, Avg(T2.Rating) As Rtng "
                  "From Product As T1, Review As T2 Where T1.PID = T2.PID "
                  "Group By T1.PID, T1.Price")
                  .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(relational::ExecuteSelect(ds.db, *stmt.select));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(ds.db.GetTable("Review").value()->num_rows()));
}
BENCHMARK(BM_HashJoinGroupBy);

void BM_ForestTrain(benchmark::State& state) {
  const data::Dataset& ds = GermanDataset();
  const Table& t = *ds.db.GetTable("German").value();
  auto encoder =
      learn::FeatureEncoder::Fit(t, {"Status", "Age", "Sex"}).value();
  learn::FeatureMatrix x = encoder.EncodeAll(t).value();
  std::vector<double> y = learn::ExtractTarget(t, "Credit").value();
  learn::ForestOptions options;
  options.num_trees = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    learn::RandomForestRegressor forest(options);
    benchmark::DoNotOptimize(forest.Fit(x, y));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.num_rows()));
}
BENCHMARK(BM_ForestTrain)->Arg(4)->Arg(16);

void BM_FrequencyFit(benchmark::State& state) {
  const data::Dataset& ds = GermanDataset();
  const Table& t = *ds.db.GetTable("German").value();
  auto encoder =
      learn::FeatureEncoder::Fit(t, {"Status", "Age", "Sex"}).value();
  learn::FeatureMatrix x = encoder.EncodeAll(t).value();
  std::vector<double> y = learn::ExtractTarget(t, "Credit").value();
  for (auto _ : state) {
    learn::FrequencyEstimator estimator;
    benchmark::DoNotOptimize(estimator.Fit(x, y));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.num_rows()));
}
BENCHMARK(BM_FrequencyFit);

void BM_BlockDecomposition(benchmark::State& state) {
  const data::Dataset& ds = AmazonDataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        causal::TupleComponents::Build(ds.graph, ds.db));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ds.db.TotalRows()));
}
BENCHMARK(BM_BlockDecomposition);

void BM_MinimalBackdoor(benchmark::State& state) {
  // A layered DAG with many candidate adjusters.
  causal::CausalGraph g;
  for (int i = 0; i < 12; ++i) {
    const std::string c = "C" + std::to_string(i);
    g.AddEdge(c, "B");
    g.AddEdge(c, "Y");
  }
  g.AddEdge("B", "Y");
  for (auto _ : state) {
    benchmark::DoNotOptimize(causal::MinimalBackdoorSet(g, "B", "Y"));
  }
}
BENCHMARK(BM_MinimalBackdoor);

void BM_SimplexLp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  opt::LpProblem p;
  for (int j = 0; j < n; ++j) p.objective.push_back(rng.Uniform(0, 1));
  for (int i = 0; i < n / 2; ++i) {
    std::vector<double> row(n);
    for (int j = 0; j < n; ++j) row[j] = rng.Uniform(0, 1);
    p.AddRow(std::move(row), 1.0 + rng.Uniform());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::SolveLp(p));
  }
}
BENCHMARK(BM_SimplexLp)->Arg(16)->Arg(64);

void BM_MckSolve(benchmark::State& state) {
  Rng rng(11);
  std::vector<opt::MckGroup> groups(8);
  for (auto& g : groups) {
    for (int i = 0; i < 10; ++i) {
      g.values.push_back(rng.Uniform(-1, 5));
      g.costs.push_back(rng.Uniform(0, 2));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::SolveMck(groups, 6.0));
  }
}
BENCHMARK(BM_MckSolve);

void BM_WhatIfEndToEnd(benchmark::State& state) {
  const data::Dataset& ds = GermanDataset();
  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kFrequency;
  whatif::WhatIfEngine engine(&ds.db, &ds.graph, options);
  auto stmt = sql::ParseSql(
                  "Use German Update(Status) = 3 Output Count(Credit = 1)")
                  .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(*stmt.whatif));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ds.db.TotalRows()));
}
BENCHMARK(BM_WhatIfEndToEnd);

}  // namespace

// ---------------------------------------------------------------------------
// Comparison suite (JSON lines): seconds per repetition for the row store
// vs the columnar / compiled substrate (records 1-3), exact vs histogram
// estimator training and per-row vs batched inference (4), and the what-if
// prepare/evaluate costs on the forest configuration (5).
// ---------------------------------------------------------------------------

void RunComparisonSuite(bool smoke, bench::JsonLines& out) {
  bench::Banner(smoke ? "row vs columnar comparison (smoke)"
                      : "row vs columnar comparison");

  data::AmazonOptions opt;
  opt.products = smoke ? 300 : 2000;
  opt.reviews_per_product = smoke ? 6 : 15;
  auto ds = bench::Unwrap(data::MakeAmazonSyn(opt), "amazon_syn");
  const Table& product = *ds.db.GetTable("Product").value();
  const Table& review = *ds.db.GetTable("Review").value();
  auto cproduct =
      bench::Unwrap(ColumnTable::FromTable(product), "columnarize Product");
  auto creview =
      bench::Unwrap(ColumnTable::FromTable(review), "columnarize Review");
  const size_t reps = smoke ? 10 : 30;
  double sink = 0.0;

  // 1. Full-column scan: sum Rating over every review tuple.
  {
    const size_t col = review.schema().IndexOf("Rating").value();
    const double row_s = bench::TimePerRep(reps, [&] {
      double s = 0.0;
      for (size_t r = 0; r < review.num_rows(); ++r) {
        s += review.At(r, col).AsDouble().value();
      }
      sink += s;
    });
    const Column& c = creview.col(col);
    const double col_s = bench::TimePerRep(reps, [&] {
      double s = 0.0;
      switch (c.kind) {
        case ColumnKind::kDouble:
          for (double v : c.f64) s += v;
          break;
        case ColumnKind::kInt64:
          for (int64_t v : c.i64) s += static_cast<double>(v);
          break;
        default:
          break;
      }
      sink += s;
    });
    out.Record("scan_sum_rating",
               {{"rows", static_cast<double>(review.num_rows())},
                {"row_store_s", row_s},
                {"columnar_s", col_s},
                {"speedup", row_s / col_s}});
  }

  // 2a. Group-by on a string column: average Price by Brand. The row path
  // hashes Value objects (string hashing per tuple); the columnar path
  // aggregates over dictionary codes with a dense per-code table.
  {
    const size_t brand = product.schema().IndexOf("Brand").value();
    const size_t price = product.schema().IndexOf("Price").value();
    const double row_s = bench::TimePerRep(reps, [&] {
      std::unordered_map<Value, std::pair<double, size_t>, ValueHash> groups;
      for (size_t r = 0; r < product.num_rows(); ++r) {
        auto& cell = groups[product.At(r, brand)];
        cell.first += product.At(r, price).AsDouble().value();
        cell.second += 1;
      }
      sink += static_cast<double>(groups.size());
    });
    const Column& bc = cproduct.col(brand);
    const Column& pc = cproduct.col(price);
    const double col_s = bench::TimePerRep(reps, [&] {
      std::vector<std::pair<double, size_t>> groups(cproduct.dict().size());
      for (size_t r = 0; r < bc.codes.size(); ++r) {
        auto& cell = groups[bc.codes[r]];
        cell.first += pc.f64[r];
        cell.second += 1;
      }
      sink += static_cast<double>(groups.size());
    });
    out.Record("groupby_brand_value_vs_dict",
               {{"rows", static_cast<double>(product.num_rows())},
                {"row_store_s", row_s},
                {"columnar_s", col_s},
                {"speedup", row_s / col_s}});
  }

  // 2b. Group-by on the join key: average Rating by PID (the psi group-mean
  // shape from the what-if engine).
  {
    const size_t pid = review.schema().IndexOf("PID").value();
    const size_t rating = review.schema().IndexOf("Rating").value();
    const double row_s = bench::TimePerRep(reps, [&] {
      std::unordered_map<Value, std::pair<double, size_t>, ValueHash> groups;
      for (size_t r = 0; r < review.num_rows(); ++r) {
        auto& cell = groups[review.At(r, pid)];
        cell.first += review.At(r, rating).AsDouble().value();
        cell.second += 1;
      }
      sink += static_cast<double>(groups.size());
    });
    const Column& kc = creview.col(pid);
    const Column& rc = creview.col(rating);
    const double col_s = bench::TimePerRep(reps, [&] {
      std::unordered_map<int64_t, std::pair<double, size_t>> groups;
      groups.reserve(kc.i64.size() / 4 + 1);
      for (size_t r = 0; r < kc.i64.size(); ++r) {
        auto& cell = groups[kc.i64[r]];
        cell.first += rc.kind == ColumnKind::kDouble
                          ? rc.f64[r]
                          : static_cast<double>(rc.i64[r]);
        cell.second += 1;
      }
      sink += static_cast<double>(groups.size());
    });
    out.Record("groupby_pid_value_vs_word",
               {{"rows", static_cast<double>(review.num_rows())},
                {"row_store_s", row_s},
                {"columnar_s", col_s},
                {"speedup", row_s / col_s}});
  }

  // 3. Predicate evaluation: the When-shaped filter
  //    Category = 'Laptop' And Price <= 800
  // interpreted per row (Env + name resolution), compiled per row, and as
  // a vectorized columnar mask.
  {
    auto pred = sql::MakeBinary(
        sql::BinaryOp::kAnd,
        sql::MakeBinary(sql::BinaryOp::kEq, sql::MakeColumnRef("", "Category"),
                        sql::MakeLiteral(Value::String("Laptop"))),
        sql::MakeBinary(sql::BinaryOp::kLe, sql::MakeColumnRef("", "Price"),
                        sql::MakeLiteral(Value::Double(800.0))));
    const Schema& schema = product.schema();
    const double interp_s = bench::TimePerRep(reps, [&] {
      size_t hits = 0;
      for (size_t r = 0; r < product.num_rows(); ++r) {
        relational::Env env;
        env.Bind(schema.relation_name(), &schema, &product.row(r));
        hits += relational::EvalPredicate(*pred, env).value() ? 1 : 0;
      }
      sink += static_cast<double>(hits);
    });
    const std::vector<relational::ScopedTuple> scope{
        relational::ScopedTuple{schema.relation_name(), &schema}};
    auto compiled =
        bench::Unwrap(relational::CompiledExpr::Compile(*pred, scope),
                      "compile predicate");
    const double compiled_s = bench::TimePerRep(reps, [&] {
      size_t hits = 0;
      for (size_t r = 0; r < product.num_rows(); ++r) {
        const relational::BoundRow frame{&product.row(r), nullptr};
        hits += compiled.EvalRowBool(&frame).value() ? 1 : 0;
      }
      sink += static_cast<double>(hits);
    });
    auto bound = bench::Unwrap(
        relational::ColumnBoundExpr::Bind(compiled, cproduct), "bind");
    const double mask_s = bench::TimePerRep(reps, [&] {
      auto mask = bound.EvalMask().value();
      size_t hits = 0;
      for (uint8_t m : mask) hits += m;
      sink += static_cast<double>(hits);
    });
    out.Record("predicate_interp_vs_compiled",
               {{"rows", static_cast<double>(product.num_rows())},
                {"interpreted_s", interp_s},
                {"compiled_s", compiled_s},
                {"columnar_mask_s", mask_s},
                {"speedup_compiled", interp_s / compiled_s},
                {"speedup_mask", interp_s / mask_s}});
  }

  // 4. Estimator training: exact sort-based tree splits vs pre-binned
  // histogram training, and per-row vs batched tree inference, on the
  // german-syn forest configuration (the what-if estimator workload).
  {
    data::GermanOptions gopt;
    gopt.rows = smoke ? 2000 : 7000;
    auto gds = bench::Unwrap(data::MakeGermanSyn(gopt), "german_syn");
    const Table& t = *gds.db.GetTable("German").value();
    auto encoder =
        bench::Unwrap(learn::FeatureEncoder::Fit(
                          t, {"Status", "Savings", "Housing", "CreditHistory",
                              "CreditAmount", "Age", "Sex"}),
                      "fit encoder");
    learn::FeatureMatrix x = bench::Unwrap(encoder.EncodeAll(t), "encode");
    std::vector<double> y =
        bench::Unwrap(learn::ExtractTarget(t, "Credit"), "target");

    learn::ForestOptions fo;
    fo.num_trees = 16;
    fo.num_threads = 1;  // single-core substrate measurement
    const size_t train_reps = smoke ? 3 : 5;

    fo.tree.use_histograms = false;
    const double exact_s = bench::TimePerRep(train_reps, [&] {
      learn::RandomForestRegressor forest(fo);
      bench::CheckOk(forest.Fit(x, y), "exact forest fit");
      sink += static_cast<double>(forest.num_trees());
    });
    fo.tree.use_histograms = true;
    const double hist_s = bench::TimePerRep(train_reps, [&] {
      learn::RandomForestRegressor forest(fo);
      bench::CheckOk(forest.Fit(x, y), "histogram forest fit");
      sink += static_cast<double>(forest.num_trees());
    });
    out.Record("estimator_train_forest",
               {{"rows", static_cast<double>(x.num_rows())},
                {"features", static_cast<double>(x.num_cols())},
                {"trees", static_cast<double>(fo.num_trees)},
                {"exact_s", exact_s},
                {"histogram_s", hist_s},
                {"speedup", exact_s / hist_s}});

    // Batched inference against per-row virtual Predict on the same forest,
    // with a bit-equality assertion (PredictBatch's contract).
    learn::RandomForestRegressor forest(fo);
    bench::CheckOk(forest.Fit(x, y), "forest fit");
    const size_t pred_reps = smoke ? 5 : 20;
    std::vector<double> per_row(x.num_rows());
    const double perrow_s = bench::TimePerRep(pred_reps, [&] {
      std::vector<double> point(x.num_cols());
      const learn::ConditionalMeanEstimator& est = forest;  // virtual per row
      for (size_t r = 0; r < x.num_rows(); ++r) {
        point.assign(x.row(r), x.row(r) + x.num_cols());
        per_row[r] = est.Predict(point);
      }
      sink += per_row.back();
    });
    std::vector<double> batched(x.num_rows());
    const double batch_s = bench::TimePerRep(pred_reps, [&] {
      forest.PredictBatch(x, batched);
      sink += batched.back();
    });
    if (std::memcmp(per_row.data(), batched.data(),
                    per_row.size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "[bench] PredictBatch diverges from per-row Predict\n");
      std::exit(1);
    }
    out.Record("predict_batch_forest",
               {{"rows", static_cast<double>(x.num_rows())},
                {"per_row_s", perrow_s},
                {"batched_s", batch_s},
                {"speedup", perrow_s / batch_s}});
  }

  // 5. What-if prepare/evaluate on the german-syn forest config: cold
  // prepare+train with exact vs histogram training, and warm Evaluate.
  {
    data::GermanOptions gopt;
    gopt.rows = smoke ? 2000 : 7000;
    auto gds = bench::Unwrap(data::MakeGermanSyn(gopt), "german_syn");
    auto stmt = bench::Unwrap(
        sql::ParseSql("Use German When Status = 1 Update(Status) = 2 "
                      "Output Count(Credit = 1)"),
        "parse");
    const std::vector<whatif::UpdateSpec> specs =
        whatif::SpecsOfStatement(*stmt.whatif);

    whatif::WhatIfOptions base;
    base.estimator = learn::EstimatorKind::kForest;
    base.forest.num_trees = 16;
    base.num_threads = 1;

    auto cold_seconds = [&](const whatif::WhatIfOptions& options,
                            double* value) {
      whatif::WhatIfEngine engine(&gds.db, &gds.graph, options);
      const size_t reps = smoke ? 2 : 3;
      return bench::TimePerRep(reps, [&] {
        auto plan = bench::Unwrap(engine.Prepare(*stmt.whatif), "prepare");
        auto result = bench::Unwrap(engine.Evaluate(*plan, specs), "eval");
        *value = result.value;
        sink += result.value;
      });
    };

    whatif::WhatIfOptions exact_opt = base;
    exact_opt.forest.tree.use_histograms = false;
    double exact_value = 0.0, hist_value = 0.0;
    const double cold_exact_s = cold_seconds(exact_opt, &exact_value);
    const double cold_hist_s = cold_seconds(base, &hist_value);
    // German's features are small-cardinality, so histogram training is in
    // its parity regime and the answers must agree exactly; guard loosely
    // anyway in case the dataset generator changes shape.
    if (std::fabs(exact_value - hist_value) >
        1e-6 * std::max(1.0, std::fabs(exact_value))) {
      std::fprintf(stderr,
                   "[bench] histogram what-if diverges: %.17g vs %.17g\n",
                   exact_value, hist_value);
      std::exit(1);
    }
    out.Record("whatif_prepare_forest",
               {{"rows", static_cast<double>(gds.db.TotalRows())},
                {"exact_cold_s", cold_exact_s},
                {"histogram_cold_s", cold_hist_s},
                {"speedup", cold_exact_s / cold_hist_s}});

    // Warm Evaluate on one shared plan (histogram-trained estimators).
    whatif::WhatIfEngine engine(&gds.db, &gds.graph, base);
    auto plan = bench::Unwrap(engine.Prepare(*stmt.whatif), "prepare");
    sink += bench::Unwrap(engine.Evaluate(*plan, specs), "train eval").value;
    const double warm_s = bench::TimePerRep(smoke ? 5 : 10, [&] {
      sink += bench::Unwrap(engine.Evaluate(*plan, specs), "eval").value;
    });
    out.Record("whatif_evaluate_forest",
               {{"rows", static_cast<double>(gds.db.TotalRows())},
                {"warm_s", warm_s}});
  }

  if (sink == 42.0) std::printf("(unlikely sink)\n");  // defeat DCE
}

// ---------------------------------------------------------------------------
// Scale sweep: per-kernel and end-to-end records at 10k / 100k / 1M rows on
// german-syn (1M only outside --smoke; scripts/check.sh runs the smoke
// sizes). The kernel records compare the per-row evaluator, the scalar
// kernel mirror and the SIMD kernel; each pair is a bit-equality contract,
// so any divergence aborts the bench with exit 1.
// ---------------------------------------------------------------------------

void RunScaleSweep(bool smoke, bench::JsonLines& out) {
  bench::Banner(smoke ? "scale sweep (smoke: 10k, 100k)"
                      : "scale sweep (10k, 100k, 1M)");
  std::vector<size_t> sizes{10000, 100000};
  if (!smoke) sizes.push_back(1000000);
  double sink = 0.0;

  for (size_t n : sizes) {
    data::GermanOptions gopt;
    gopt.rows = n;
    auto gds = bench::Unwrap(data::MakeGermanSyn(gopt), "german_syn");
    const Table& t = *gds.db.GetTable("German").value();
    auto ct = bench::Unwrap(ColumnTable::FromTable(t), "columnarize German");
    const size_t reps = n >= 1000000 ? 3 : (n >= 100000 ? 10 : 30);
    const double rows = static_cast<double>(n);

    // --- When-mask kernel: per-row EvalBool vs scalar-mirror vs SIMD. ---
    {
      auto pred = sql::MakeBinary(
          sql::BinaryOp::kAnd,
          sql::MakeBinary(sql::BinaryOp::kEq, sql::MakeColumnRef("", "Status"),
                          sql::MakeLiteral(Value::Int(1))),
          sql::MakeBinary(sql::BinaryOp::kGe, sql::MakeColumnRef("", "Age"),
                          sql::MakeLiteral(Value::Int(1))));
      const Schema& schema = t.schema();
      const std::vector<relational::ScopedTuple> scope{
          relational::ScopedTuple{schema.relation_name(), &schema}};
      auto compiled = bench::Unwrap(
          relational::CompiledExpr::Compile(*pred, scope), "compile when");
      auto bound = bench::Unwrap(
          relational::ColumnBoundExpr::Bind(compiled, ct), "bind when");

      std::vector<uint8_t> per_row(n);
      const double per_row_s = bench::TimePerRep(reps, [&] {
        for (size_t r = 0; r < n; ++r) {
          per_row[r] = bound.EvalBool(r).value() ? 1 : 0;
        }
        sink += per_row[n - 1];
      });
      std::vector<uint8_t> scalar_mask, simd_mask;
      simd::SetForceScalar(true);
      const double scalar_s = bench::TimePerRep(reps, [&] {
        if (!bound.TryMaskKernel(&scalar_mask)) {
          std::fprintf(stderr, "[bench] when mask not kernel-eligible\n");
          std::exit(1);
        }
        sink += scalar_mask[n - 1];
      });
      simd::SetForceScalar(false);
      const double simd_s = bench::TimePerRep(reps, [&] {
        if (!bound.TryMaskKernel(&simd_mask)) {
          std::fprintf(stderr, "[bench] when mask not kernel-eligible\n");
          std::exit(1);
        }
        sink += simd_mask[n - 1];
      });
      if (std::memcmp(per_row.data(), scalar_mask.data(), n) != 0 ||
          std::memcmp(scalar_mask.data(), simd_mask.data(), n) != 0) {
        std::fprintf(stderr, "[bench] when-mask kernels diverge at %zu\n", n);
        std::exit(1);
      }
      out.Record("scale_when_mask",
                 {{"rows", rows},
                  {"per_row_s", per_row_s},
                  {"scalar_kernel_s", scalar_s},
                  {"simd_kernel_s", simd_s},
                  {"speedup_vs_per_row", per_row_s / simd_s},
                  {"simd_vs_scalar", scalar_s / simd_s},
                  {"equal", 1.0}});
    }

    // --- Numeric kernel: per-row Eval().AsDouble() vs the vectorized
    // evaluator (int64 arithmetic widened exactly like the scalar path). ---
    {
      auto expr = sql::MakeBinary(
          sql::BinaryOp::kAdd, sql::MakeColumnRef("", "CreditAmount"),
          sql::MakeBinary(sql::BinaryOp::kMul, sql::MakeLiteral(Value::Int(2)),
                          sql::MakeColumnRef("", "Age")));
      const Schema& schema = t.schema();
      const std::vector<relational::ScopedTuple> scope{
          relational::ScopedTuple{schema.relation_name(), &schema}};
      auto compiled = bench::Unwrap(
          relational::CompiledExpr::Compile(*expr, scope), "compile out");
      auto bound = bench::Unwrap(
          relational::ColumnBoundExpr::Bind(compiled, ct), "bind out");

      std::vector<double> per_row(n);
      const double per_row_s = bench::TimePerRep(reps, [&] {
        for (size_t r = 0; r < n; ++r) {
          per_row[r] = bound.Eval(r).value().AsDouble().value();
        }
        sink += per_row[n - 1];
      });
      std::vector<double> scalar_out, simd_out;
      std::vector<uint8_t> err;
      simd::SetForceScalar(true);
      const double scalar_s = bench::TimePerRep(reps, [&] {
        if (!bound.TryEvalDoubleKernel(&scalar_out, &err)) {
          std::fprintf(stderr, "[bench] out expr not kernel-eligible\n");
          std::exit(1);
        }
        sink += scalar_out[n - 1];
      });
      simd::SetForceScalar(false);
      const double simd_s = bench::TimePerRep(reps, [&] {
        if (!bound.TryEvalDoubleKernel(&simd_out, &err)) {
          std::fprintf(stderr, "[bench] out expr not kernel-eligible\n");
          std::exit(1);
        }
        sink += simd_out[n - 1];
      });
      if (std::memcmp(per_row.data(), scalar_out.data(),
                      n * sizeof(double)) != 0 ||
          std::memcmp(scalar_out.data(), simd_out.data(),
                      n * sizeof(double)) != 0) {
        std::fprintf(stderr, "[bench] numeric kernels diverge at %zu\n", n);
        std::exit(1);
      }
      out.Record("scale_eval_double",
                 {{"rows", rows},
                  {"per_row_s", per_row_s},
                  {"scalar_kernel_s", scalar_s},
                  {"simd_kernel_s", simd_s},
                  {"speedup_vs_per_row", per_row_s / simd_s},
                  {"simd_vs_scalar", scalar_s / simd_s},
                  {"equal", 1.0}});
    }

    // --- Override patching: ~25% of rows get one Status cell each,
    // patched segment-parallel (morsel-scheduled). ---
    {
      TableCellOverrides overrides;
      const size_t status = t.schema().IndexOf("Status").value();
      AttributeCellOverrides& cells = overrides[status];
      for (size_t r = 0; r < n; r += 4) cells.emplace(r, Value::Int(2));

      auto patched = bench::Unwrap(ColumnTable::FromTable(t), "columnarize");
      const double morsel_s = bench::TimePerRep(reps, [&] {
        bench::CheckOk(patched.ApplyOverrides(overrides), "patch");
        sink += 1.0;
      });
      out.Record("scale_apply_overrides",
                 {{"rows", rows},
                  {"cells", static_cast<double>(cells.size())},
                  {"morsel_s", morsel_s}});
    }

    // --- Histogram training: SoA scatter + sibling subtraction at scale
    // (single-threaded substrate number; no scalar/SIMD A/B because the
    // scatter is inherently sequential per tree). ---
    {
      auto encoder =
          bench::Unwrap(learn::FeatureEncoder::Fit(
                            t, {"Status", "Savings", "Housing",
                                "CreditHistory", "CreditAmount", "Age", "Sex"}),
                        "fit encoder");
      learn::FeatureMatrix x = bench::Unwrap(encoder.EncodeAll(t), "encode");
      std::vector<double> y =
          bench::Unwrap(learn::ExtractTarget(t, "Credit"), "target");
      learn::ForestOptions fo;
      fo.num_trees = 2;
      fo.num_threads = 1;
      fo.tree.use_histograms = true;
      const size_t fit_reps = n >= 1000000 ? 1 : 3;
      const double hist_s = bench::TimePerRep(fit_reps, [&] {
        learn::RandomForestRegressor forest(fo);
        bench::CheckOk(forest.Fit(x, y), "histogram fit");
        sink += static_cast<double>(forest.num_trees());
      });
      out.Record("scale_hist_fit",
                 {{"rows", rows},
                  {"trees", static_cast<double>(fo.num_trees)},
                  {"histogram_s", hist_s},
                  {"rows_per_s", rows * fo.num_trees / hist_s}});
    }

    // --- End to end: cold Prepare+Evaluate and warm Evaluate at the
    // engine defaults. ---
    {
      auto stmt = bench::Unwrap(
          sql::ParseSql("Use German When Status = 1 Update(Status) = 2 "
                        "Output Count(Credit = 1)"),
          "parse");
      const std::vector<whatif::UpdateSpec> specs =
          whatif::SpecsOfStatement(*stmt.whatif);
      whatif::WhatIfOptions options;
      options.estimator = learn::EstimatorKind::kFrequency;

      const size_t cold_reps = n >= 1000000 ? 2 : 3;
      const double cold_s = bench::TimePerRep(cold_reps, [&] {
        whatif::WhatIfEngine engine(&gds.db, &gds.graph, options);
        auto plan = bench::Unwrap(engine.Prepare(*stmt.whatif), "prepare");
        sink += bench::Unwrap(engine.Evaluate(*plan, specs), "eval").value;
      });
      whatif::WhatIfEngine engine(&gds.db, &gds.graph, options);
      auto plan = bench::Unwrap(engine.Prepare(*stmt.whatif), "prepare");
      sink += bench::Unwrap(engine.Evaluate(*plan, specs), "warmup").value;
      const size_t warm_reps = n >= 1000000 ? 3 : 5;
      const double warm_s = bench::TimePerRep(warm_reps, [&] {
        sink += bench::Unwrap(engine.Evaluate(*plan, specs), "eval").value;
      });
      out.Record("scale_whatif_e2e",
                 {{"rows", rows}, {"cold_s", cold_s}, {"warm_s", warm_s}});
    }
  }

  if (sink == 42.0) std::printf("(unlikely sink)\n");  // defeat DCE
}

}  // namespace hyper

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  if (!smoke) {
    benchmark::Initialize(&filtered_argc, args.data());
    benchmark::RunSpecifiedBenchmarks();
  }
  hyper::bench::JsonLines out("BENCH_micro.json");
  hyper::RunComparisonSuite(smoke, out);
  hyper::RunScaleSweep(smoke, out);
  return 0;
}
