#include <memory>

#include "data/datasets.h"

namespace hyper::data {

namespace {

using causal::DiscreteMechanism;
using causal::Scm;

std::vector<Value> IntOutcomes(int n) {
  std::vector<Value> out;
  for (int i = 0; i < n; ++i) out.push_back(Value::Int(i));
  return out;
}

double AsD(const Value& v) { return v.AsDouble().value_or(0.0); }

Result<Scm> BuildScm() {
  Scm scm;
  auto discrete = [](std::vector<Value> outcomes,
                     DiscreteMechanism::WeightFn fn) {
    return std::make_unique<DiscreteMechanism>(std::move(outcomes),
                                               std::move(fn));
  };

  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Age", {}, discrete(IntOutcomes(3), [](const std::vector<Value>&) {
        return std::vector<double>{0.35, 0.4, 0.25};
      })));
  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Sex", {}, discrete(IntOutcomes(2), [](const std::vector<Value>&) {
        return std::vector<double>{0.52, 0.48};
      })));
  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Education", {{"Age", ""}},
      discrete(IntOutcomes(4), [](const std::vector<Value>& ps) {
        const double age = AsD(ps[0]);
        return std::vector<double>{0.9 - 0.15 * age, 1.0,
                                   0.5 + 0.15 * age, 0.25 + 0.1 * age};
      })));
  // 0 = never married, 1 = married, 2 = divorced.
  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Marital", {{"Age", ""}, {"Sex", ""}},
      discrete(IntOutcomes(3), [](const std::vector<Value>& ps) {
        const double age = AsD(ps[0]);
        return std::vector<double>{1.2 - 0.45 * age,
                                   0.35 + 0.45 * age,
                                   0.1 + 0.15 * age + 0.05 * AsD(ps[1])};
      })));
  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Occupation", {{"Education", ""}, {"Sex", ""}},
      discrete(IntOutcomes(4), [](const std::vector<Value>& ps) {
        const double edu = AsD(ps[0]);
        return std::vector<double>{1.0 - 0.2 * edu, 0.9,
                                   0.35 + 0.25 * edu,
                                   0.15 + 0.25 * edu + 0.05 * AsD(ps[1])};
      })));
  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Hours", {{"Marital", ""}},
      discrete(IntOutcomes(3), [](const std::vector<Value>& ps) {
        const double married = AsD(ps[0]) == 1.0 ? 1.0 : 0.0;
        return std::vector<double>{0.8 - 0.2 * married, 1.0,
                                   0.4 + 0.3 * married};
      })));
  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Workclass", {{"Education", ""}},
      discrete(IntOutcomes(3), [](const std::vector<Value>& ps) {
        const double edu = AsD(ps[0]);
        return std::vector<double>{1.0, 0.6 + 0.1 * edu, 0.3 + 0.1 * edu};
      })));
  // Income > 50K: marital status dominates (§5.3: 38% married vs <9%
  // unmarried), then occupation and education; workclass is minor.
  HYPER_RETURN_NOT_OK(scm.AddAttribute(
      "Income",
      {{"Marital", ""},
       {"Occupation", ""},
       {"Education", ""},
       {"Workclass", ""},
       {"Hours", ""},
       {"Age", ""}},
      discrete(IntOutcomes(2), [](const std::vector<Value>& ps) {
        const double married = AsD(ps[0]) == 1.0 ? 1.0 : 0.0;
        double p = 0.02 + 0.28 * married + 0.07 * (AsD(ps[1]) / 3.0) +
                   0.06 * (AsD(ps[2]) / 3.0) + 0.015 * (AsD(ps[3]) / 2.0) +
                   0.025 * (AsD(ps[4]) / 2.0) + 0.015 * (AsD(ps[5]) / 2.0);
        p = std::min(0.95, std::max(0.02, p));
        return std::vector<double>{1.0 - p, p};
      })));
  return scm;
}

}  // namespace

Result<Dataset> MakeAdultSyn(const AdultOptions& options) {
  Dataset ds;
  ds.name = "adult-syn";
  ds.main_relation = "Adult";
  ds.flat_relation = "Adult";
  HYPER_ASSIGN_OR_RETURN(ds.scm, BuildScm());
  ds.graph = ds.scm.Graph();

  Schema schema("Adult",
                {{"Id", ValueType::kInt, Mutability::kImmutable},
                 {"Age", ValueType::kInt, Mutability::kImmutable},
                 {"Sex", ValueType::kInt, Mutability::kImmutable},
                 {"Education", ValueType::kInt, Mutability::kMutable},
                 {"Marital", ValueType::kInt, Mutability::kMutable},
                 {"Occupation", ValueType::kInt, Mutability::kMutable},
                 {"Hours", ValueType::kInt, Mutability::kMutable},
                 {"Workclass", ValueType::kInt, Mutability::kMutable},
                 {"Income", ValueType::kInt, Mutability::kMutable}},
                {"Id"});
  Table table(std::move(schema));
  table.Reserve(options.rows);

  // Compiled flat sampler (see german_syn.cc): identical data to the
  // SampleEntity path without per-row map allocations.
  HYPER_ASSIGN_OR_RETURN(causal::Scm::EntitySampler sampler,
                         ds.scm.CompileEntitySampler());
  const size_t ia = sampler.IndexOf("Age"), is = sampler.IndexOf("Sex"),
               ie = sampler.IndexOf("Education"),
               im = sampler.IndexOf("Marital"),
               io = sampler.IndexOf("Occupation"),
               ih = sampler.IndexOf("Hours"),
               iw = sampler.IndexOf("Workclass"),
               ii = sampler.IndexOf("Income");
  Rng rng(options.seed);
  std::vector<Value> a;
  for (size_t i = 0; i < options.rows; ++i) {
    HYPER_RETURN_NOT_OK(sampler.Sample(rng, &a));
    table.AppendUnchecked({Value::Int(static_cast<int64_t>(i)), a[ia], a[is],
                           a[ie], a[im], a[io], a[ih], a[iw], a[ii]});
  }
  // One table serves as both the relation and its flat image; a write
  // through either database copies it first.
  auto shared = std::make_shared<Table>(std::move(table));
  HYPER_RETURN_NOT_OK(ds.db.PutTable(shared));
  HYPER_RETURN_NOT_OK(ds.flat.PutTable(std::move(shared)));
  return ds;
}

}  // namespace hyper::data
