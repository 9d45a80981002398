#ifndef HYPER_NET_QUERY_HANDLER_H_
#define HYPER_NET_QUERY_HANDLER_H_

#include <string>

#include "net/http.h"
#include "obs/metrics.h"
#include "service/scenario_service.h"

namespace hyper {
namespace net {

/// Maps a Status onto an HTTP status code. Governance aborts follow the
/// serving contract: kDeadlineExceeded→504, kResourceExhausted→429,
/// kUnavailable→429 when shed by a full admission queue (the message says
/// "overloaded" — retry the same server) and 503 when draining (retry
/// elsewhere), kCancelled→499. Client mistakes (parse errors, unknown
/// scenarios, wrong statement kinds) map into the 4xx range.
int HttpStatusOf(const Status& status);

/// The single request-parsing path of the serving layer: HTTP requests,
/// `scenario_server --stdin` lines and the demo mode all funnel through
/// here, so wire behavior cannot diverge between transports.
///
/// Routes:
///   POST /v1/whatif         one what-if statement (kind-checked)
///   POST /v1/howto          one how-to statement (kind-checked)
///   POST /v1/query          any statement (what-if / how-to / select)
///   POST /v1/whatif/batch   N interventions against one prepared plan
///   POST /v1/scenario       {"action":"create"|"apply"|"drop"} management
///   GET  /v1/scenario       list scenario branches
///   GET  /metrics           Prometheus text exposition
///   GET  /healthz           liveness + drain state
///   GET  /statusz           JSON status snapshot (admission, caches, metrics)
///
/// The four query routes are one ScenarioService::Submit each, differing
/// only in the kind they expect (Request::expected_kind). Their bodies
/// accept "scenario" (default "main"), "sql", the budget fields
/// "deadline_ms" / "max_rows" / "max_bytes" (non-negative JSON integers,
/// zero or absent = unlimited), and the estimator overrides "estimator"
/// ("frequency" | "forest") and "trees"; the batch route also takes
/// "interventions", an array of arrays of {"attribute", "func" (set |
/// scale | shift), "value"}. A statement of another kind than the route
/// serves answers 400 wrong_statement_kind.
class QueryHandler {
 public:
  /// Neither pointer is owned. `registry` may be null (metrics routes then
  /// serve only the service-derived series).
  QueryHandler(service::ScenarioService* service,
               obs::MetricsRegistry* registry);

  /// HTTP entry point; thread-safe (the service handles its own locking).
  void Handle(const HttpRequest& request, HttpResponse* response);

  /// Adapter for HttpServer::Start. The handler must outlive the server.
  HttpHandler AsHandler();

  /// The stdin/demo path: runs `sql` against `scenario` exactly like
  /// POST /v1/query and returns the response body (success or the same
  /// structured error object the HTTP path sends).
  std::string HandleLine(const std::string& scenario, const std::string& sql);

 private:
  /// Serves one POST body on a route expecting `require_kind` (kNone on
  /// /v1/query and the stdin path, kWhatIfBatch on /v1/whatif/batch).
  HttpResponse RunQuery(const std::string& body,
                        service::Response::Kind require_kind);
  HttpResponse RunScenarioAction(const std::string& body);
  HttpResponse ListScenarios();
  HttpResponse Metrics();
  HttpResponse Healthz();
  HttpResponse Statusz();

  void CountRequest(const std::string& route, int http_status);

  service::ScenarioService* service_;
  obs::MetricsRegistry* registry_;
};

}  // namespace net
}  // namespace hyper

#endif  // HYPER_NET_QUERY_HANDLER_H_
