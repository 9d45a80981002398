// Interactive HypeR shell: load a built-in dataset (or your own CSVs) and
// run what-if / how-to / select statements against it — served through the
// ScenarioService, so queries hit the shared stage cache (prepared plans
// and trained estimators) and can target named scenario branches.
//
//   ./build/examples/hyper_shell                 # german-syn-20k by default
//   ./build/examples/hyper_shell student-syn --threads 4
//   ./build/examples/hyper_shell --csv products.csv=Product
//                                --csv reviews.csv=Review   (repeatable)
//
// Shell commands:
//   \tables               list relations and row counts (a scenario
//                         overrides only cells, so these read the base)
//   \schema <relation>    show a schema
//   \graph                show the causal graph (when available)
//   \estimator f|t        frequency / forest (tree) estimator
//   \mode graph|nb|indep  backdoor mode
//   \sample <n>           HypeR-sampled training cap (0 = off)
//   \scenario list                 list scenario branches
//   \scenario new <name> [parent]  branch a scenario (default parent: current)
//   \scenario use <name>           switch the current scenario
//   \scenario drop <name>          delete a branch
//   \scenario apply <what-if>      apply the statement's deterministic update
//                                  to the current scenario (chained updates)
//   \budget deadline <sec> | rows <n> | bytes <n> | off | show
//                         per-request resource budget (0 = unlimited); <n>
//                         is a non-negative integer, <sec> a finite
//                         non-negative number, anything else leaves the
//                         budget as it was
//   \cache stats|clear    stage cache (scope/causal/learn/query sections;
//                         the query section holds the plans), admission
//                         counters, the branches' row builds and the
//                         forests' bootstrap memo
//   \metrics              full metrics snapshot (the server's /statusz JSON)
//   \wal stats            durability state (needs --data-dir <dir>)
//   \quit
// Anything else is parsed as a HypeR statement (end with ';' or newline).

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "common/strings.h"
#include "data/datasets.h"
#include "durability/manager.h"
#include "examples/shell_common.h"
#include "learn/forest.h"
#include "obs/metrics.h"
#include "service/scenario_service.h"
#include "service/service_metrics.h"
#include "storage/csv.h"

using namespace hyper;

namespace {

struct ShellState {
  /// Declared before the service: the service holds instrument pointers
  /// into the registry, so the registry must be destroyed last.
  obs::MetricsRegistry registry;
  std::unique_ptr<service::ScenarioService> service;
  std::string scenario = "main";
  whatif::WhatIfOptions options;  // per-request override, tweakable live
  QueryBudget budget;             // per-request resource budget (\budget)
};

/// All of `text` as a finite non-negative number of seconds, else nothing.
std::optional<double> ParseSeconds(const std::string& text) {
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last || !std::isfinite(value) ||
      std::signbit(value)) {
    return std::nullopt;
  }
  return value;
}

void RunStatement(ShellState& state, const std::string& text) {
  service::Request request;
  request.scenario = state.scenario;
  request.sql = text;
  request.whatif_options = state.options;
  request.budget = state.budget;
  service::Response response = state.service->Submit(request);
  if (!response.ok()) {
    std::printf("error: %s\n", response.status.ToString().c_str());
    return;
  }
  switch (response.kind) {
    case service::Response::Kind::kWhatIf:
      examples::PrintWhatIf(response.whatif);
      break;
    case service::Response::Kind::kHowTo:
      examples::PrintHowTo(response.howto);
      break;
    case service::Response::Kind::kSelect:
      std::printf("%s", response.table.ToString(20).c_str());
      break;
    case service::Response::Kind::kWhatIfBatch:  // the shell sends no sweeps
    case service::Response::Kind::kNone:
      break;
  }
}

void RunScenarioCommand(ShellState& state,
                        const std::vector<std::string>& parts,
                        const std::string& line) {
  const std::string sub = parts.size() > 1 ? parts[1] : "list";
  if (sub == "list") {
    for (const service::ScenarioInfo& info :
         state.service->ListScenarios()) {
      std::printf("%s%s%s%s: %zu update(s), %zu overridden cell(s)\n",
                  info.name == state.scenario ? "* " : "  ",
                  info.name.c_str(),
                  info.parent.empty() ? "" : " <- ",
                  info.parent.c_str(), info.updates_applied,
                  info.overridden_cells);
    }
  } else if (sub == "new" && parts.size() > 2) {
    const std::string parent = parts.size() > 3 ? parts[3] : state.scenario;
    Status status = state.service->CreateScenario(parts[2], parent);
    if (status.ok()) {
      state.scenario = parts[2];
      std::printf("scenario '%s' branched from '%s' (now current)\n",
                  parts[2].c_str(), parent.c_str());
    } else {
      std::printf("error: %s\n", status.ToString().c_str());
    }
  } else if (sub == "use" && parts.size() > 2) {
    if (state.service->HasScenario(parts[2])) {
      state.scenario = parts[2];
      std::printf("scenario: %s\n", state.scenario.c_str());
    } else {
      std::printf("error: scenario '%s' does not exist\n", parts[2].c_str());
    }
  } else if (sub == "drop" && parts.size() > 2) {
    Status status = state.service->DropScenario(parts[2]);
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return;
    }
    if (state.scenario == parts[2]) state.scenario = "main";
    std::printf("dropped '%s' (current: %s)\n", parts[2].c_str(),
                state.scenario.c_str());
  } else if (sub == "apply") {
    const size_t pos = line.find("apply");
    const std::string sql = std::string(Trim(line.substr(pos + 5)));
    auto updated = state.service->ApplyHypotheticalSql(state.scenario, sql);
    if (updated.ok()) {
      std::printf("applied to '%s': %zu row(s) updated\n",
                  state.scenario.c_str(), *updated);
    } else {
      std::printf("error: %s\n", updated.status().ToString().c_str());
    }
  } else {
    std::printf(
        "usage: \\scenario list | new <name> [parent] | use <name> | "
        "drop <name> | apply <what-if>\n");
  }
}

void RunCommand(ShellState& state, const std::string& line) {
  const std::vector<std::string> parts = Split(line, ' ');
  const std::string& cmd = parts[0];
  if (cmd == "\\tables") {
    auto db = state.service->BaseDatabase(state.scenario);
    if (!db.ok()) {
      std::printf("error: %s\n", db.status().ToString().c_str());
      return;
    }
    for (const std::string& name : (*db)->TableNames()) {
      std::printf("%s (%zu rows)\n", name.c_str(),
                  (*db)->GetTable(name).value()->num_rows());
    }
  } else if (cmd == "\\schema" && parts.size() > 1) {
    auto db = state.service->BaseDatabase(state.scenario);
    if (!db.ok()) {
      std::printf("error: %s\n", db.status().ToString().c_str());
      return;
    }
    auto table = (*db)->GetTable(parts[1]);
    if (table.ok()) {
      std::printf("%s\n", (*table)->schema().ToString().c_str());
    } else {
      std::printf("error: %s\n", table.status().ToString().c_str());
    }
  } else if (cmd == "\\graph") {
    const causal::CausalGraph* graph = state.service->graph();
    std::printf("%s\n", graph != nullptr ? graph->ToString().c_str()
                                         : "(no causal graph loaded)");
  } else if (cmd == "\\dot") {
    const causal::CausalGraph* graph = state.service->graph();
    std::printf("%s", graph != nullptr ? graph->ToDot().c_str()
                                       : "(no causal graph loaded)\n");
  } else if (cmd == "\\estimator" && parts.size() > 1) {
    state.options.estimator = parts[1][0] == 'f'
                                  ? learn::EstimatorKind::kFrequency
                                  : learn::EstimatorKind::kForest;
    std::printf("estimator: %s\n",
                learn::EstimatorKindName(state.options.estimator));
  } else if (cmd == "\\mode" && parts.size() > 1) {
    if (parts[1] == "graph") {
      state.options.backdoor = whatif::BackdoorMode::kGraph;
    } else if (parts[1] == "nb") {
      state.options.backdoor = whatif::BackdoorMode::kAllAttributes;
    } else if (parts[1] == "indep") {
      state.options.backdoor = whatif::BackdoorMode::kUpdateOnly;
    }
    std::printf("mode: %s\n", BackdoorModeName(state.options.backdoor));
  } else if (cmd == "\\sample" && parts.size() > 1) {
    const std::optional<size_t> sample = examples::ParseCount(parts[1]);
    if (!sample.has_value()) {
      std::printf("usage: \\sample <n> (a non-negative integer; 0 = off)\n");
      return;
    }
    state.options.sample_size = *sample;
    std::printf("sample: %zu\n", state.options.sample_size);
  } else if (cmd == "\\scenario") {
    RunScenarioCommand(state, parts, line);
  } else if (cmd == "\\budget") {
    const std::string sub = parts.size() > 1 ? parts[1] : "show";
    const std::string arg = parts.size() > 2 ? parts[2] : "";
    const std::optional<double> seconds =
        sub == "deadline" ? ParseSeconds(arg) : std::nullopt;
    const std::optional<size_t> count = sub == "rows" || sub == "bytes"
                                            ? examples::ParseCount(arg)
                                            : std::nullopt;
    if (sub == "off") {
      state.budget = QueryBudget{};
    } else if (seconds.has_value()) {
      state.budget.deadline_seconds = *seconds;
    } else if (count.has_value() && sub == "rows") {
      state.budget.max_rows_touched = *count;
    } else if (count.has_value()) {
      state.budget.max_bytes_materialized = *count;
    } else if (sub != "show") {
      std::printf("usage: \\budget deadline <sec> | rows <n> | bytes <n> | "
                  "off | show\n");
      return;
    }
    std::printf("budget: deadline %.3gs, rows %zu, bytes %zu (0 = "
                "unlimited)\n",
                state.budget.deadline_seconds,
                state.budget.max_rows_touched,
                state.budget.max_bytes_materialized);
  } else if (cmd == "\\cache") {
    const std::string sub = parts.size() > 1 ? parts[1] : "stats";
    if (sub == "clear") {
      state.service->ClearCache();
      std::printf("stage cache cleared\n");
    } else {
      examples::PrintCacheStats(state.service->cache_stats());
      examples::PrintGovernanceStats(state.service->governance_stats());
      std::printf("worlds: %llu row build(s)\n",
                  static_cast<unsigned long long>(
                      state.service->world_row_builds()));
      const learn::BootstrapMemoStats memo = learn::GetBootstrapMemoStats();
      std::printf("bootstrap memo: %llu hit(s), %llu miss(es), %llu byte(s)\n",
                  static_cast<unsigned long long>(memo.hits),
                  static_cast<unsigned long long>(memo.misses),
                  static_cast<unsigned long long>(memo.bytes));
    }
  } else if (cmd == "\\metrics") {
    // The same JSON document the server exposes on /statusz, so in-process
    // sessions read exactly what an operator scraping the server would.
    std::printf("%s\n",
                service::StatuszJson(*state.service, &state.registry).c_str());
  } else if (cmd == "\\wal") {
    const durability::WalStats w = state.service->wal_stats();
    if (!w.enabled) {
      std::printf("durability off (start with --data-dir <dir>)\n");
      return;
    }
    std::printf("wal: %s (fsync=%s)\n", w.dir.c_str(), w.fsync_policy);
    std::printf("  last lsn %llu, %llu append(s) / %llu byte(s), "
                "%llu fsync(s), %zu segment(s)\n",
                static_cast<unsigned long long>(w.last_lsn),
                static_cast<unsigned long long>(w.appends),
                static_cast<unsigned long long>(w.appended_bytes),
                static_cast<unsigned long long>(w.fsyncs), w.segments);
    std::printf("  snapshots: %llu written, last at lsn %llu, "
                "%llu record(s) since\n",
                static_cast<unsigned long long>(w.snapshots_written),
                static_cast<unsigned long long>(w.last_snapshot_lsn),
                static_cast<unsigned long long>(w.records_since_snapshot));
    const durability::RecoveryInfo& rec = w.recovery;
    if (rec.performed) {
      std::printf("  recovery: %llu replayed, %llu skipped, %.3fs%s%s\n",
                  static_cast<unsigned long long>(rec.records_replayed),
                  static_cast<unsigned long long>(rec.records_skipped),
                  rec.seconds,
                  rec.snapshot_loaded ? ", from snapshot" : "",
                  rec.tail_truncated ? ", torn tail truncated" : "");
    } else {
      std::printf("  recovery: fresh data dir (nothing to replay)\n");
    }
  } else if (cmd == "\\explain" && parts.size() > 1) {
    const std::string query = line.substr(line.find(' ') + 1);
    auto db = state.service->EffectiveDatabase(state.scenario);
    if (!db.ok()) {
      std::printf("error: %s\n", db.status().ToString().c_str());
      return;
    }
    whatif::WhatIfEngine engine(db->get(), state.service->graph(),
                                state.options);
    auto plan = engine.ExplainSql(query);
    if (plan.ok()) {
      std::printf("%s", plan->c_str());
    } else {
      std::printf("error: %s\n", plan.status().ToString().c_str());
    }
  } else {
    std::printf(
        "commands: \\tables \\schema <rel> \\graph \\dot "
        "\\explain <what-if> \\estimator f|t \\mode graph|nb|indep "
        "\\sample <n> \\scenario list|new|use|drop|apply "
        "\\budget deadline|rows|bytes|off|show "
        "\\cache stats|clear \\metrics \\wal stats \\quit\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  ShellState state;
  state.options.estimator = learn::EstimatorKind::kFrequency;

  std::string dataset = "german-syn-20k";
  size_t threads = 0;
  std::string data_dir;
  Database csv_db;
  bool loaded_csv = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--csv", 5) == 0 && i + 1 < argc) {
      // --csv path=Relation
      const std::string spec = argv[++i];
      const size_t eq = spec.find('=');
      const std::string path = spec.substr(0, eq);
      const std::string relation =
          eq == std::string::npos ? "Data" : spec.substr(eq + 1);
      auto table = ReadCsvFile(path, relation, {});
      if (!table.ok()) {
        std::printf("cannot load %s: %s\n", path.c_str(),
                    table.status().ToString().c_str());
        return 1;
      }
      if (!csv_db.AddTable(std::move(table).value()).ok()) return 1;
      loaded_csv = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const std::optional<size_t> count = examples::ParseCount(argv[++i]);
      if (!count.has_value()) {
        std::fprintf(stderr,
                     "usage: hyper_shell [dataset] [--threads <n>] "
                     "[--csv <path>[=<relation>]] [--data-dir <dir>] (<n> "
                     "a non-negative integer; 0 = hardware default)\n");
        return 1;
      }
      threads = *count;
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (argv[i][0] != '-') {
      dataset = argv[i];
    }
  }

  service::ServiceOptions service_options;
  service_options.num_threads = threads;
  service_options.whatif.num_threads = threads;
  service_options.metrics = &state.registry;
  service_options.data_dir = data_dir;

  if (!loaded_csv) {
    auto ds = data::MakeByName(dataset, /*scale=*/0.5);
    if (!ds.ok()) {
      std::printf("%s\n", ds.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded %s: %zu rows\n", dataset.c_str(),
                ds->db.TotalRows());
    state.service = std::make_unique<service::ScenarioService>(
        std::move(ds->db), std::move(ds->graph), service_options);
  } else {
    state.service = std::make_unique<service::ScenarioService>(
        std::move(csv_db), service_options);
    std::printf("loaded CSV relations (no causal graph: engine runs in "
                "no-background mode)\n");
  }
  state.options.num_threads = threads;

  if (!state.service->recovery_status().ok()) {
    std::printf("recovery failed: %s\n",
                state.service->recovery_status().ToString().c_str());
    return 1;
  }
  if (state.service->durable()) {
    const durability::RecoveryInfo& rec = state.service->recovery_info();
    std::printf("durable sessions: %s (%llu record(s) replayed in %.3fs)\n",
                data_dir.c_str(),
                static_cast<unsigned long long>(rec.records_replayed),
                rec.seconds);
  }

  std::printf("HypeR shell. \\quit to exit, \\help for commands.\n");
  std::string line;
  while (true) {
    std::printf("hyper:%s> ", state.scenario.c_str());
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(Trim(line));
    if (trimmed.empty()) continue;
    if (trimmed == "\\quit" || trimmed == "\\q") break;
    if (!trimmed.empty() && trimmed.back() == ';') trimmed.pop_back();
    if (trimmed[0] == '\\') {
      RunCommand(state, trimmed);
    } else {
      RunStatement(state, trimmed);
    }
  }
  return 0;
}
