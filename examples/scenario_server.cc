// HypeR scenario server: the ScenarioService behind a real HTTP/JSON
// front-end (src/net), with metrics (src/obs) and graceful drain.
//
//   ./build/scenario_server                        # serve on 127.0.0.1:8080
//   ./build/scenario_server --port 0               # ephemeral port (printed)
//   ./build/scenario_server --http-threads 8 --max-concurrent 2 --max-queued 4
//   ./build/scenario_server --stdin                # line protocol:
//                                                  #   [scenario|]statement
//   ./build/scenario_server --demo                 # scripted walkthrough
//   ./build/scenario_server --data-dir /var/hyper  # durable sessions (WAL +
//                                                  # snapshots; recovers on
//                                                  # restart) --fsync always
//
// Every mode funnels through the same net::QueryHandler, so the wire
// behavior (JSON shapes, error objects, HTTP status mapping) is identical
// whether a statement arrives over a socket, stdin, or the demo script.
// SIGTERM/SIGINT drain gracefully: in-flight requests finish, new ones are
// rejected with 503, then the process exits 0. See examples/SCENARIOS.md
// for a curl walkthrough of every endpoint.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "data/datasets.h"
#include "durability/manager.h"
#include "examples/shell_common.h"
#include "net/listener.h"
#include "net/query_handler.h"
#include "obs/metrics.h"
#include "service/scenario_service.h"

using namespace hyper;

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

void InstallSignalHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

/// Final snapshot on clean shutdown: the next start recovers from the
/// snapshot alone instead of replaying the whole log. Failure is non-fatal —
/// the WAL already holds everything the snapshot would.
void FinalSnapshot(service::ScenarioService& service) {
  if (!service.durable()) return;
  const Status s = service.SnapshotNow();
  if (!s.ok()) {
    std::fprintf(stderr, "final snapshot failed (WAL remains authoritative): "
                 "%s\n", s.ToString().c_str());
  } else {
    std::fprintf(stderr, "final snapshot written\n");
  }
}

/// Runs one request through the handler as if it had arrived over HTTP.
net::HttpResponse Call(net::QueryHandler& handler, const char* method,
                       const std::string& path, const std::string& body) {
  net::HttpRequest request;
  request.method = method;
  request.target = path;
  request.version = "HTTP/1.1";
  request.body = body;
  net::HttpResponse response;
  handler.Handle(request, &response);
  return response;
}

// Line protocol: '[scenario|]statement'. Every line answers with exactly the
// JSON object the HTTP path would send — including the structured error
// object for malformed lines — so scripts can consume stdout uniformly.
// Diagnostics go to stderr.
int RunStdin(service::ScenarioService& service, net::QueryHandler& handler) {
  std::fprintf(stderr, "reading '[scenario|]statement' lines from stdin\n");
  std::string line;
  size_t lineno = 0;
  while (std::getline(std::cin, line)) {
    ++lineno;
    std::string trimmed(Trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::string scenario = "main";
    std::string sql = trimmed;
    const size_t bar = trimmed.find('|');
    if (bar != std::string::npos && trimmed.find(' ') > bar) {
      if (bar == 0) {
        std::printf("%s\n",
                    net::ErrorJson(400, "bad_request",
                                   StrFormat("line %zu: empty scenario "
                                             "before '|'", lineno))
                        .c_str());
        continue;
      }
      scenario = std::string(Trim(trimmed.substr(0, bar)));
      sql = std::string(Trim(trimmed.substr(bar + 1)));
      if (sql.empty()) {
        std::printf("%s\n",
                    net::ErrorJson(400, "bad_request",
                                   StrFormat("line %zu: missing statement "
                                             "after '%s|'", lineno,
                                             scenario.c_str()))
                        .c_str());
        continue;
      }
    }
    std::printf("%s\n", handler.HandleLine(scenario, sql).c_str());
    std::fflush(stdout);
  }
  service.BeginDrain();
  service.AwaitIdle();
  FinalSnapshot(service);
  std::fprintf(stderr, "eof: drained\n");
  return 0;
}

// The SCENARIOS.md walkthrough, issued through the handler end to end:
// branch, apply a hypothetical, compare worlds, sweep interventions as one
// batch, and read the metrics the workload produced.
int RunDemo(net::QueryHandler& handler) {
  const std::string query =
      "Use German When Status = 1 Update(Status) = 2 "
      "Output Count(Credit = 1)";
  auto show = [&](const char* label, const net::HttpResponse& r) {
    std::printf("-- %s [%d]\n%s\n", label, r.status, r.body.c_str());
  };

  const std::string whatif_body =
      "{\"scenario\":\"main\",\"sql\":\"" + query + "\"}";
  show("what-if (cold cache)",
       Call(handler, "POST", "/v1/whatif", whatif_body));
  show("what-if (warm cache)",
       Call(handler, "POST", "/v1/whatif", whatif_body));

  show("create scenario 'austerity'",
       Call(handler, "POST", "/v1/scenario",
            "{\"action\":\"create\",\"name\":\"austerity\"}"));
  show("apply hypothetical to 'austerity'",
       Call(handler, "POST", "/v1/scenario",
            "{\"action\":\"apply\",\"scenario\":\"austerity\",\"sql\":"
            "\"Use German When Savings = 0 Update(Credit) = 0 "
            "Output Count(*)\"}"));
  show("same what-if on 'austerity'",
       Call(handler, "POST", "/v1/whatif",
            "{\"scenario\":\"austerity\",\"sql\":\"" + query + "\"}"));
  show("same what-if on 'main' (isolated)",
       Call(handler, "POST", "/v1/whatif", whatif_body));

  show("intervention sweep (one prepared plan)",
       Call(handler, "POST", "/v1/whatif/batch",
            "{\"scenario\":\"main\",\"sql\":\"" + query +
                "\",\"interventions\":["
                "[{\"attribute\":\"Status\",\"value\":0}],"
                "[{\"attribute\":\"Status\",\"value\":1}],"
                "[{\"attribute\":\"Status\",\"value\":2}],"
                "[{\"attribute\":\"Status\",\"value\":3}]]}"));

  show("how-to (shared estimators)",
       Call(handler, "POST", "/v1/howto",
            "{\"scenario\":\"main\",\"sql\":\"Use German HowToUpdate Status "
            "ToMaximize Count(Credit = 1)\"}"));

  show("governed what-if (1ms deadline)",
       Call(handler, "POST", "/v1/howto",
            "{\"scenario\":\"main\",\"deadline_ms\":1,\"sql\":"
            "\"Use German HowToUpdate Status ToMaximize "
            "Count(Credit = 1)\"}"));

  show("scenario list", Call(handler, "GET", "/v1/scenario", ""));
  show("statusz", Call(handler, "GET", "/statusz", ""));
  return 0;
}

int Serve(service::ScenarioService& service, net::QueryHandler& handler,
          uint16_t port, size_t http_threads) {
  net::HttpServerOptions options;
  options.port = port;
  options.num_threads = http_threads;
  net::HttpServer server(options);
  const Status started = server.Start(handler.AsHandler());
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("scenario_server listening on %s:%u (%zu http thread(s))\n",
              options.bind_address.c_str(), unsigned{server.port()},
              http_threads);
  std::fflush(stdout);

  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Graceful drain: stop admitting service work first, so requests arriving
  // during the drain get a clean 503 instead of a dropped connection; once
  // the last in-flight request finishes, tear the listener down.
  std::fprintf(stderr, "signal received: draining\n");
  service.BeginDrain();
  service.AwaitIdle();
  FinalSnapshot(service);
  server.Stop();
  const net::HttpServer::Stats stats = server.stats();
  const service::GovernanceStats gov = service.governance_stats();
  std::fprintf(stderr,
               "drained: %llu connection(s), %llu request(s), "
               "%llu completed, %llu rejected while draining\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.requests_served),
               static_cast<unsigned long long>(gov.completed),
               static_cast<unsigned long long>(gov.rejected_draining));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = "german-syn-20k";
  size_t threads = 0;
  size_t max_concurrent = 0;
  size_t max_queued = 0;
  size_t port = 8080;
  size_t http_threads = 4;
  bool use_stdin = false;
  bool use_demo = false;
  std::string data_dir;
  durability::FsyncPolicy fsync = durability::FsyncPolicy::kInterval;
  size_t snapshot_every = 256;
  // A count flag takes a whole non-negative integer; anything else (a
  // sign, a fraction, trailing text) is refused before anything starts.
  const auto count_flag = [&](int* i, size_t* out) {
    const std::optional<size_t> count = examples::ParseCount(argv[++*i]);
    if (count.has_value()) *out = *count;
    return count.has_value();
  };
  bool flags_ok = true;
  for (int i = 1; i < argc && flags_ok; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      flags_ok = count_flag(&i, &threads);
    } else if (std::strcmp(argv[i], "--max-concurrent") == 0 && i + 1 < argc) {
      flags_ok = count_flag(&i, &max_concurrent);
    } else if (std::strcmp(argv[i], "--max-queued") == 0 && i + 1 < argc) {
      flags_ok = count_flag(&i, &max_queued);
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      flags_ok = count_flag(&i, &port) && port <= 65535;
    } else if (std::strcmp(argv[i], "--http-threads") == 0 && i + 1 < argc) {
      flags_ok = count_flag(&i, &http_threads);
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--fsync") == 0 && i + 1 < argc) {
      auto parsed = durability::ParseFsyncPolicy(argv[++i]);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 1;
      }
      fsync = parsed.value();
    } else if (std::strcmp(argv[i], "--snapshot-every") == 0 && i + 1 < argc) {
      flags_ok = count_flag(&i, &snapshot_every);
    } else if (std::strcmp(argv[i], "--stdin") == 0) {
      use_stdin = true;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      use_demo = true;
    } else if (argv[i][0] != '-') {
      dataset = argv[i];
    }
  }
  if (!flags_ok) {
    std::fprintf(stderr,
                 "usage: scenario_server [dataset] [--port <0-65535>] "
                 "[--threads <n>] [--http-threads <n>] [--max-concurrent <n>] "
                 "[--max-queued <n>] [--snapshot-every <n>] [--data-dir "
                 "<dir>] [--fsync <policy>] [--stdin | --demo] (<n> a "
                 "non-negative integer)\n");
    return 1;
  }

  auto ds = data::MakeByName(dataset, /*scale=*/0.25);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }

  // The registry outlives the service (the service holds instrument
  // pointers into it).
  obs::MetricsRegistry registry;
  service::ServiceOptions options;
  options.whatif.estimator = learn::EstimatorKind::kFrequency;
  options.num_threads = threads;
  options.whatif.num_threads = threads;
  options.max_concurrent_requests = max_concurrent;
  options.max_queued_requests = max_queued;
  options.metrics = &registry;
  options.data_dir = data_dir;
  options.wal_fsync = fsync;
  options.snapshot_every_records = snapshot_every;
  service::ScenarioService service(std::move(ds->db), std::move(ds->graph),
                                   options);
  // A durable service that failed recovery refuses every state-changing op
  // with the recovery error; a server in that state is useless (and the
  // operator should know immediately), so fail fast.
  if (!service.recovery_status().ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 service.recovery_status().ToString().c_str());
    return 1;
  }
  if (service.durable()) {
    const durability::RecoveryInfo& rec = service.recovery_info();
    std::fprintf(
        stderr,
        "durable sessions: %s (fsync=%s); recovered %llu record(s) in %.3fs"
        "%s%s, snapshot %s\n",
        data_dir.c_str(), durability::FsyncPolicyName(fsync),
        static_cast<unsigned long long>(rec.records_replayed), rec.seconds,
        rec.tail_truncated ? ", torn tail truncated" : "",
        rec.records_skipped != 0 ? ", duplicates skipped" : "",
        rec.snapshot_loaded ? rec.snapshot_path.c_str() : "(none)");
  }
  net::QueryHandler handler(&service, &registry);
  std::fprintf(stderr, "scenario server: %s, %zu engine thread(s)\n",
               dataset.c_str(),
               threads == 0 ? ThreadPool::DefaultThreads() : threads);

  if (use_stdin) return RunStdin(service, handler);
  if (use_demo) return RunDemo(handler);
  InstallSignalHandlers();
  return Serve(service, handler, static_cast<uint16_t>(port), http_threads);
}
