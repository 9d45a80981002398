// Golden answers shared by golden_test and service_test: the line format of
// tests/golden/answers.txt, its loader, and the scenario-branch case that
// both suites run.
//
// One line per case: "<id> <field>=<value> ...". Doubles are printed with
// %a (hex float), so a line matches only when every answer bit matches.

#ifndef HYPER_TESTS_GOLDEN_CASES_H_
#define HYPER_TESTS_GOLDEN_CASES_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/strings.h"
#include "data/datasets.h"
#include "howto/engine.h"
#include "service/scenario_service.h"
#include "whatif/engine.h"

namespace hyper::golden {

inline std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

inline std::string WhatIfLine(const std::string& id,
                              const whatif::WhatIfResult& r) {
  return id + " value=" + Hex(r.value) +
         " updated_rows=" + std::to_string(r.updated_rows) +
         " num_blocks=" + std::to_string(r.num_blocks) +
         " num_patterns=" + std::to_string(r.num_patterns) +
         " backdoor=" + Join(r.backdoor, ",");
}

/// Candidate objectives are listed per HowToUpdate attribute, attributes
/// separated by ';'.
inline std::string HowToLine(const std::string& id,
                             const howto::HowToResult& r) {
  std::vector<std::string> per_attribute;
  for (const auto& candidates : r.candidates) {
    std::vector<std::string> values;
    for (const howto::CandidateUpdate& c : candidates) {
      values.push_back(Hex(c.objective_value));
    }
    per_attribute.push_back(Join(values, ","));
  }
  return id + " baseline=" + Hex(r.baseline_value) +
         " objective=" + Hex(r.objective_value) +
         " candidates=" + Join(per_attribute, ";") +
         " plan=" + r.PlanToString();
}

/// A candidate constant: doubles in %a, other values as Value::ToString.
inline std::string ConstantText(const Value& v) {
  return v.type() == ValueType::kDouble ? Hex(v.double_value())
                                        : v.ToString();
}

/// The enumerated candidate space of a how-to run: per HowToUpdate
/// attribute (separated by ';'), each candidate as
/// constant/cost/objective/pruned, then the baseline, objective and plan.
inline std::string HowToEnumLine(const std::string& id,
                                 const howto::HowToResult& r) {
  std::vector<std::string> per_attribute;
  for (const auto& candidates : r.candidates) {
    std::vector<std::string> items;
    for (const howto::CandidateUpdate& c : candidates) {
      items.push_back(ConstantText(c.spec.constant) + "/" + Hex(c.cost) + "/" +
                      Hex(c.objective_value) + "/" + (c.pruned ? "1" : "0"));
    }
    per_attribute.push_back(
        (candidates.empty() ? std::string("-") : candidates[0].spec.attribute) +
        ":" + Join(items, ","));
  }
  return id + " baseline=" + Hex(r.baseline_value) +
         " objective=" + Hex(r.objective_value) +
         " candidates=" + Join(per_attribute, ";") +
         " plan=" + r.PlanToString();
}

/// The id of a golden line: everything before the first space.
inline std::string IdOf(const std::string& line) {
  return line.substr(0, line.find(' '));
}

struct GoldenFile {
  std::map<std::string, std::string> line_of;  // id -> full line
  std::vector<std::string> duplicate_ids;
};

inline GoldenFile LoadGoldens() {
  GoldenFile file;
  std::ifstream in(HYPER_GOLDEN_FILE);
  EXPECT_TRUE(in.good()) << "cannot open " << HYPER_GOLDEN_FILE;
  std::string line;
  while (std::getline(in, line)) {
    const std::string id = IdOf(line);
    if (!file.line_of.emplace(id, line).second) {
      file.duplicate_ids.push_back(id);
    }
  }
  return file;
}

/// Compares one computed line against the file. A mismatch (or a case the
/// file lacks) prints the computed line after "GOLDEN-ACTUAL ".
inline void ExpectGolden(const GoldenFile& file, const std::string& line,
                         const std::string& config) {
  const std::string id = IdOf(line);
  auto it = file.line_of.find(id);
  const std::string want = it == file.line_of.end() ? "(missing)" : it->second;
  if (want != line) {
    ADD_FAILURE() << "golden mismatch for " << id << " [" << config
                  << "]\n  golden: " << want << "\nGOLDEN-ACTUAL " << line;
  }
}

// ---------------------------------------------------------------------------
// Scenario-branch case: german-syn (800 rows, seed 11), a branch "b" whose
// delta moves one Housing cell, and three what-ifs answered through one
// ScenarioService::SubmitBatch on both main and b.
// ---------------------------------------------------------------------------

inline const data::Dataset& German800() {
  static const data::Dataset* ds = [] {
    data::GermanOptions options;
    options.rows = 800;
    options.seed = 11;
    return new data::Dataset(std::move(data::MakeGermanSyn(options).value()));
  }();
  return *ds;
}

inline const char* const kServiceQueries[] = {
    "Use German When Status = 1 Update(Status) = 2 Output Count(Credit = 1)",
    "Use German When Status = 2 Update(Status) = 3 Output Count(Credit = 1)",
    "Use German Update(Savings) = 2 Output Avg(Post(Credit))",
};

/// Forest (4 trees), graph backdoor mode: the service case's engine options.
inline whatif::WhatIfOptions ServiceCaseOptions() {
  whatif::WhatIfOptions options;
  options.backdoor = whatif::BackdoorMode::kGraph;
  options.estimator = learn::EstimatorKind::kForest;
  options.forest.num_trees = 4;
  return options;
}

/// Case ids of the scenario-branch case, in request order: each query on
/// main, then on b.
inline std::vector<std::string> ServiceCaseIds() {
  std::vector<std::string> ids;
  for (size_t q = 0; q < std::size(kServiceQueries); ++q) {
    for (const char* branch : {"main", "b"}) {
      ids.push_back(std::string("service.german800.") + branch + ".q" +
                    std::to_string(q));
    }
  }
  return ids;
}

/// Golden lines of the scenario-branch case, served with `options` (its
/// num_threads is the engine budget) and `threads` SubmitBatch workers.
inline std::vector<std::string> ServiceCaseLines(
    const whatif::WhatIfOptions& options, size_t threads) {
  const data::Dataset& ds = German800();
  service::ServiceOptions service_options;
  service_options.whatif = options;
  service_options.plan_cache_capacity = 64;
  service_options.num_threads = threads;
  service::ScenarioService service(ds.db, ds.graph, service_options);
  EXPECT_TRUE(service.CreateScenario("b").ok());
  EXPECT_TRUE(service
                  .ApplyHypotheticalSql("b",
                                        "Use German When Id = 2 "
                                        "Update(Housing) = 0 Output Count(*)")
                  .ok());
  std::vector<service::Request> requests;
  for (const char* query : kServiceQueries) {
    for (const char* branch : {"main", "b"}) {
      requests.push_back({branch, query, {}});
    }
  }
  const std::vector<std::string> ids = ServiceCaseIds();
  std::vector<std::string> lines;
  const std::vector<service::Response> responses =
      service.SubmitBatch(requests);
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].ok()) << ids[i] << ": " << responses[i].status;
    lines.push_back(WhatIfLine(ids[i], responses[i].whatif));
  }
  return lines;
}

}  // namespace hyper::golden

#endif  // HYPER_TESTS_GOLDEN_CASES_H_
