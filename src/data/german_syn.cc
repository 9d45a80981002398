#include <memory>

#include "data/datasets.h"

namespace hyper::data {

namespace {

using causal::DiscreteMechanism;
using causal::LinearGaussianMechanism;
using causal::ParentRef;
using causal::Scm;

std::vector<Value> IntOutcomes(int n) {
  std::vector<Value> out;
  for (int i = 0; i < n; ++i) out.push_back(Value::Int(i));
  return out;
}

double AsD(const Value& v) { return v.AsDouble().value_or(0.0); }

/// P(Credit = good | parents): Status and CreditHistory dominate (§5.3),
/// Age contributes directly (confounding Status for the Indep baseline).
double GoodCreditProbability(double status, double history, double savings,
                             double housing, double amount_norm, double age) {
  double p = 0.04 + 0.26 * (status / 3.0) + 0.22 * (history / 2.0) +
             0.08 * (savings / 2.0) + 0.06 * (housing / 2.0) +
             0.15 * amount_norm + 0.09 * (age / 2.0);
  return std::min(0.97, std::max(0.02, p));
}

Result<Scm> BuildScm(bool continuous_amount) {
  Scm scm;
  auto discrete = [](std::vector<Value> outcomes,
                     DiscreteMechanism::WeightFn fn) {
    return std::make_unique<DiscreteMechanism>(std::move(outcomes),
                                               std::move(fn));
  };

  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Age", {},
      discrete(IntOutcomes(3), [](const std::vector<Value>&) {
        return std::vector<double>{0.30, 0.45, 0.25};
      })));
  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Sex", {},
      discrete(IntOutcomes(2), [](const std::vector<Value>&) {
        return std::vector<double>{0.55, 0.45};
      })));
  // Checking-account status: older and (slightly) male-coded individuals
  // hold better accounts in the generator.
  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Status", {{"Age", ""}, {"Sex", ""}},
      discrete(IntOutcomes(4), [](const std::vector<Value>& ps) {
        const double age = AsD(ps[0]);
        const double sex = AsD(ps[1]);
        return std::vector<double>{1.2 - 0.3 * age, 1.0,
                                   0.6 + 0.3 * age + 0.1 * sex,
                                   0.3 + 0.4 * age};
      })));
  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Savings", {{"Age", ""}},
      discrete(IntOutcomes(3), [](const std::vector<Value>& ps) {
        const double age = AsD(ps[0]);
        return std::vector<double>{1.0 - 0.2 * age, 0.8,
                                   0.4 + 0.3 * age};
      })));
  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Housing", {{"Age", ""}, {"Sex", ""}},
      discrete(IntOutcomes(3), [](const std::vector<Value>& ps) {
        const double age = AsD(ps[0]);
        return std::vector<double>{1.0 - 0.25 * age, 0.9,
                                   0.35 + 0.35 * age + 0.05 * AsD(ps[1])};
      })));
  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "CreditHistory", {{"Age", ""}},
      discrete(IntOutcomes(3), [](const std::vector<Value>& ps) {
        const double age = AsD(ps[0]);
        return std::vector<double>{0.9 - 0.25 * age, 1.0,
                                   0.4 + 0.45 * age};
      })));
  if (continuous_amount) {
    // Root continuous credit amount in the ballpark of [0, 10000].
    HYPER_RETURN_NOT_OK(scm.AddAttribute(
        "CreditAmount", {},
        std::make_unique<LinearGaussianMechanism>(std::vector<double>{},
                                                  4000.0, 2000.0)));
  } else {
    HYPER_RETURN_NOT_OK(scm.AddAttribute(
        "CreditAmount", {{"Savings", ""}},
        discrete(IntOutcomes(4), [](const std::vector<Value>& ps) {
          const double savings = AsD(ps[0]);
          return std::vector<double>{1.0, 0.9 + 0.2 * savings,
                                     0.5 + 0.3 * savings,
                                     0.2 + 0.3 * savings};
        })));
  }
  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Credit",
      {{"Status", ""},
       {"CreditHistory", ""},
       {"Savings", ""},
       {"Housing", ""},
       {"CreditAmount", ""},
       {"Age", ""}},
      discrete(IntOutcomes(2), [continuous_amount](
                                   const std::vector<Value>& ps) {
        const double amount = AsD(ps[4]);
        const double amount_norm =
            continuous_amount
                ? std::min(1.0, std::max(0.0, amount / 10000.0))
                : amount / 3.0;
        const double p = GoodCreditProbability(AsD(ps[0]), AsD(ps[1]),
                                               AsD(ps[2]), AsD(ps[3]),
                                               amount_norm, AsD(ps[5]));
        return std::vector<double>{1.0 - p, p};
      })));
  return scm;
}

}  // namespace

Result<Dataset> MakeGermanSyn(const GermanOptions& options) {
  Dataset ds;
  ds.name = "german-syn";
  ds.main_relation = "German";
  ds.flat_relation = "German";
  HYPER_ASSIGN_OR_RETURN(ds.scm, BuildScm(options.continuous_amount));
  ds.graph = ds.scm.Graph();

  Schema schema(
      "German",
      {{"Id", ValueType::kInt, Mutability::kImmutable},
       {"Age", ValueType::kInt, Mutability::kImmutable},
       {"Sex", ValueType::kInt, Mutability::kImmutable},
       {"Status", ValueType::kInt, Mutability::kMutable},
       {"Savings", ValueType::kInt, Mutability::kMutable},
       {"Housing", ValueType::kInt, Mutability::kMutable},
       {"CreditHistory", ValueType::kInt, Mutability::kMutable},
       {"CreditAmount",
        options.continuous_amount ? ValueType::kDouble : ValueType::kInt,
        Mutability::kMutable},
       {"Credit", ValueType::kInt, Mutability::kMutable}},
      {"Id"});
  Table table(std::move(schema));
  table.Reserve(options.rows);

  // Compiled flat sampler: no per-row Assignment maps, so million-row
  // variants generate in one linear allocation-light pass. Same RNG stream
  // as SampleEntity, so the data is identical at any size.
  HYPER_ASSIGN_OR_RETURN(causal::Scm::EntitySampler sampler,
                         ds.scm.CompileEntitySampler());
  const size_t ia = sampler.IndexOf("Age"), is = sampler.IndexOf("Sex"),
               ist = sampler.IndexOf("Status"), isv = sampler.IndexOf("Savings"),
               ih = sampler.IndexOf("Housing"),
               ich = sampler.IndexOf("CreditHistory"),
               ica = sampler.IndexOf("CreditAmount"),
               ic = sampler.IndexOf("Credit");
  Rng rng(options.seed);
  std::vector<Value> a;
  for (size_t i = 0; i < options.rows; ++i) {
    HYPER_RETURN_NOT_OK(sampler.Sample(rng, &a));
    table.AppendUnchecked({Value::Int(static_cast<int64_t>(i)), a[ia], a[is],
                           a[ist], a[isv], a[ih], a[ich], a[ica], a[ic]});
  }
  // One table serves as both the relation and its flat image; a write
  // through either database copies it first.
  auto shared = std::make_shared<Table>(std::move(table));
  HYPER_RETURN_NOT_OK(ds.db.PutTable(shared));
  HYPER_RETURN_NOT_OK(ds.flat.PutTable(std::move(shared)));
  return ds;
}

}  // namespace hyper::data
