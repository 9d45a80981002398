// Reproduces the §5.3 real-world what-if narratives (query templates of
// Figure 7):
//   German: pushing Status / CreditHistory to their best values lifts most
//   individuals to good credit; to their worst values drops a large
//   fraction; updating both together moves even more (the paper reports
//   >81%, -30%, >70% respectively).
//   Adult:  everyone-married vs everyone-unmarried swings the >50K share
//   (paper: 38% vs <9%).
//   Amazon: pricing laptops at lower percentiles raises the share of
//   products with average rating > 4; Apple gains most from price cuts.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "data/datasets.h"
#include "whatif/engine.h"

namespace hyper {
namespace {

whatif::WhatIfOptions DefaultOptions(uint64_t seed) {
  whatif::WhatIfOptions options;
  options.estimator = learn::EstimatorKind::kForest;
  options.forest.num_trees = 12;
  options.seed = seed;
  return options;
}

}  // namespace
}  // namespace hyper

int main(int argc, char** argv) {
  using namespace hyper;
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);

  // --------------------------------------------------------------- German
  {
    auto ds = bench::Unwrap(
        data::MakeByName("german-syn-20k", flags.ScaleOr(0.5), flags.seed),
        "german");
    const double n = static_cast<double>(ds.db.TotalRows());
    whatif::WhatIfEngine engine(&ds.db, &ds.graph,
                                DefaultOptions(flags.seed));
    auto frac = [&](const std::string& update) {
      return bench::Unwrap(
                 engine.RunSql("Use German " + update +
                               " Output Count(Credit = 1)"),
                 "german query")
                 .value /
             n;
    };
    bench::Banner("§5.3 German: fraction with good credit after update");
    bench::TablePrinter table({"hypothetical update", "P(good credit)"});
    table.PrintHeader();
    const double observed = frac("When Age = 99 Update(Status) = 0");
    table.PrintRow({"none (observed)", bench::Fmt(observed, "%.3f")});
    table.PrintRow({"Status := max", bench::Fmt(frac("Update(Status) = 3"),
                                                "%.3f")});
    table.PrintRow({"Status := min", bench::Fmt(frac("Update(Status) = 0"),
                                                "%.3f")});
    table.PrintRow({"History := max",
                    bench::Fmt(frac("Update(CreditHistory) = 2"), "%.3f")});
    table.PrintRow({"History := min",
                    bench::Fmt(frac("Update(CreditHistory) = 0"), "%.3f")});
    table.PrintRow(
        {"Status+History := max",
         bench::Fmt(frac("Update(Status) = 3 And Update(CreditHistory) = 2"),
                    "%.3f")});
    table.PrintRow({"Housing := max", bench::Fmt(frac("Update(Housing) = 2"),
                                                 "%.3f")});
    std::printf(
        "expected shape: Status/History max >> observed; min << observed; "
        "the pair moves most; Housing small (§5.3)\n");
  }

  // ---------------------------------------------------------------- Adult
  {
    auto ds = bench::Unwrap(
        data::MakeByName("adult", flags.ScaleOr(0.3), flags.seed), "adult");
    const double n = static_cast<double>(ds.db.TotalRows());
    whatif::WhatIfEngine engine(&ds.db, &ds.graph,
                                DefaultOptions(flags.seed));
    auto frac = [&](const char* update) {
      return bench::Unwrap(
                 engine.RunSql(std::string("Use Adult ") + update +
                               " Output Count(Income = 1)"),
                 "adult query")
                 .value /
             n;
    };
    bench::Banner("§5.3 Adult: fraction with income > 50K after update");
    bench::TablePrinter table({"hypothetical update", "P(income > 50K)"});
    table.PrintHeader();
    table.PrintRow({"everyone married",
                    bench::Fmt(frac("Update(Marital) = 1"), "%.3f")});
    table.PrintRow({"everyone unmarried",
                    bench::Fmt(frac("Update(Marital) = 0"), "%.3f")});
    table.PrintRow({"everyone divorced",
                    bench::Fmt(frac("Update(Marital) = 2"), "%.3f")});
    std::printf(
        "expected shape: married ~0.38, unmarried/divorced under ~0.10 "
        "(§5.3 reports 38%% vs <9%%)\n");
  }

  // --------------------------------------------------------------- Amazon
  {
    auto ds = bench::Unwrap(
        data::MakeByName("amazon", flags.ScaleOr(0.3), flags.seed), "amazon");
    // Price percentiles over laptops.
    const Table& product = *ds.db.GetTable("Product").value();
    std::vector<double> laptop_prices;
    for (size_t r = 0; r < product.num_rows(); ++r) {
      if (product.At(r, 1).Equals(Value::String("Laptop"))) {
        laptop_prices.push_back(product.At(r, 5).double_value());
      }
    }
    std::sort(laptop_prices.begin(), laptop_prices.end());
    auto percentile = [&](double p) {
      return laptop_prices[static_cast<size_t>(p * (laptop_prices.size() - 1))];
    };

    whatif::WhatIfOptions options = DefaultOptions(flags.seed);
    whatif::WhatIfEngine engine(&ds.db, &ds.graph, options);
    const std::string view =
        "Use V As (Select T1.PID, T1.Category, T1.Brand, T1.Price, "
        "T1.Quality, Avg(T2.Rating) As Rtng From Product As T1, "
        "Review As T2 Where T1.PID = T2.PID Group By T1.PID, T1.Category, "
        "T1.Brand, T1.Price, T1.Quality) When Category = 'Laptop' ";

    bench::Banner(
        "§5.3 Amazon: share of laptops with avg rating > 4 after repricing");
    bench::TablePrinter table({"laptops priced at", "P(avg rating > 4)"});
    table.PrintHeader();
    double count_laptops = 0;
    {
      auto result = bench::Unwrap(
          engine.RunSql(view + "Update(Price) = 1 * Pre(Price) "
                               "Output Count(*) For Pre(Category) = 'Laptop'"),
          "laptop count");
      count_laptops = result.value;
    }
    for (double pct : {0.8, 0.6, 0.4}) {
      const std::string query = view +
                                StrFormat("Update(Price) = %.2f "
                                          "Output Count(Rtng >= 4) "
                                          "For Pre(Category) = 'Laptop'",
                                          percentile(pct));
      auto result = bench::Unwrap(engine.RunSql(query), "amazon query");
      table.PrintRow({StrFormat("p%.0f = $%.0f", pct * 100, percentile(pct)),
                      bench::Fmt(result.value / count_laptops, "%.3f")});
    }
    std::printf(
        "expected shape: the share rises as prices drop to lower "
        "percentiles (§5.3)\n");

    // Brand ranking by rating gain from a 25% price cut.
    bench::Banner("§5.3 Amazon: avg-rating gain per brand from a 25% cut");
    bench::TablePrinter brands({"brand", "avg rating gain"});
    brands.PrintHeader();
    for (const char* brand :
         {"Apple", "Dell", "Toshiba", "Acer", "Asus", "HP"}) {
      const std::string brand_view =
          "Use V As (Select T1.PID, T1.Category, T1.Brand, T1.Price, "
          "T1.Quality, Avg(T2.Rating) As Rtng From Product As T1, "
          "Review As T2 Where T1.PID = T2.PID Group By T1.PID, T1.Category, "
          "T1.Brand, T1.Price, T1.Quality) When Brand = '" +
          std::string(brand) + "' ";
      auto cut = bench::Unwrap(
          engine.RunSql(brand_view +
                        "Update(Price) = 0.75 * Pre(Price) "
                        "Output Avg(Post(Rtng)) For Pre(Brand) = '" +
                        std::string(brand) + "'"),
          "brand cut");
      auto keep = bench::Unwrap(
          engine.RunSql(brand_view +
                        "Update(Price) = 1 * Pre(Price) "
                        "Output Avg(Post(Rtng)) For Pre(Brand) = '" +
                        std::string(brand) + "'"),
          "brand keep");
      brands.PrintRow({brand, bench::Fmt(cut.value - keep.value, "%.4f")});
    }
    std::printf(
        "expected shape: every gain >= 0 (price cuts help ratings). Note: "
        "the paper names Apple first; in our synthetic catalog premium "
        "brands sit near the 5-star ceiling, so budget brands gain more — "
        "a documented generator deviation (see FIDELITY.md §3)\n");
  }
  return 0;
}
