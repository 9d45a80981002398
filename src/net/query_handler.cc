#include "net/query_handler.h"

#include <utility>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "service/service_metrics.h"

namespace hyper {
namespace net {

namespace {

using service::Response;

int GovernanceHttpStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kCancelled:
      return 499;
    case StatusCode::kUnavailable:
      // Shed (queue full) means "the same server, later" → 429; draining
      // means "this server is going away" → 503.
      return status.message().find("overloaded") != std::string::npos ? 429
                                                                      : 503;
    default:
      return 500;
  }
}

HttpResponse MakeError(int http_status, std::string_view code,
                       std::string_view message) {
  HttpResponse response;
  response.status = http_status;
  response.body = ErrorJson(http_status, code, message);
  if (http_status == 429 || http_status == 503) {
    response.headers.emplace_back("Retry-After", "1");
  }
  return response;
}

HttpResponse MakeError(const Status& status) {
  return MakeError(HttpStatusOf(status), StatusCodeName(status.code()),
                   status.message());
}

void WriteValue(JsonWriter* w, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: w->Null(); break;
    case ValueType::kBool: w->Bool(v.bool_value()); break;
    case ValueType::kInt: w->Int(v.int_value()); break;
    case ValueType::kDouble: w->Double(v.double_value()); break;
    case ValueType::kString: w->String(v.string_value()); break;
  }
}

Result<Value> JsonToValue(const JsonValue& j) {
  switch (j.kind()) {
    case JsonValue::Kind::kNull: return Value::Null();
    case JsonValue::Kind::kBool: return Value::Bool(j.bool_value());
    case JsonValue::Kind::kNumber:
      // An integral lexeme becomes Value::Int — exactly the Value an
      // in-process caller writing `Value::Int(2)` would pass, which the
      // bit-equality contract depends on.
      if (j.is_integer()) return Value::Int(j.int_value());
      return Value::Double(j.number_value());
    case JsonValue::Kind::kString: return Value::String(j.string_value());
    default:
      return Status::InvalidArgument(
          "intervention values must be scalars (null/bool/number/string)");
  }
}

void WriteTiming(JsonWriter* w, double total, double prepare, double eval,
                 double train) {
  w->Key("timing").BeginObject()
      .Key("total_seconds").Double(total)
      .Key("prepare_seconds").Double(prepare)
      .Key("eval_seconds").Double(eval)
      .Key("train_seconds").Double(train)
      .EndObject();
}

void WriteWhatIfFields(JsonWriter* w, const whatif::WhatIfResult& r) {
  w->Key("value").Double(r.value)
      .Key("view_rows").UInt(r.view_rows)
      .Key("updated_rows").UInt(r.updated_rows)
      .Key("blocks").UInt(r.num_blocks)
      .Key("patterns").UInt(r.num_patterns);
  w->Key("backdoor").BeginArray();
  for (const std::string& a : r.backdoor) w->String(a);
  w->EndArray();
  w->Key("plan_cache_hit").Bool(r.plan_cache_hit)
      .Key("pattern_cache_hits").UInt(r.pattern_cache_hits);
  WriteTiming(w, r.total_seconds, r.prepare_seconds, r.eval_seconds,
              r.train_seconds);
}

std::string RenderResponse(const Response& response) {
  JsonWriter w;
  w.BeginObject();
  switch (response.kind) {
    case Response::Kind::kWhatIf:
      w.Key("kind").String("whatif");
      WriteWhatIfFields(&w, response.whatif);
      break;
    case Response::Kind::kWhatIfBatch:
      w.Key("kind").String("whatif_batch");
      w.Key("items").BeginArray();
      for (const service::WhatIfBatchItem& item : response.items) {
        w.BeginObject();
        if (item.ok()) {
          w.Key("status").String("ok");
          WriteWhatIfFields(&w, item.result);
        } else {
          w.Key("status").String(StatusCodeName(item.status.code()));
          w.Key("error").BeginObject()
              .Key("code").String(StatusCodeName(item.status.code()))
              .Key("http_status").Int(HttpStatusOf(item.status))
              .Key("message").String(item.status.message())
              .EndObject();
        }
        w.EndObject();
      }
      w.EndArray();
      break;
    case Response::Kind::kHowTo: {
      const howto::HowToResult& r = response.howto;
      w.Key("kind").String("howto")
          .Key("baseline_value").Double(r.baseline_value)
          .Key("objective_value").Double(r.objective_value);
      w.Key("plan").BeginArray();
      for (const howto::AttributeChoice& c : r.plan) {
        w.BeginObject()
            .Key("attribute").String(c.attribute)
            .Key("changed").Bool(c.changed);
        if (c.changed) {
          w.Key("func").String(sql::UpdateFuncKindName(c.update.func));
          w.Key("value");
          WriteValue(&w, c.update.constant);
          w.Key("delta").Double(c.delta).Key("cost").Double(c.cost);
        }
        w.EndObject();
      }
      w.EndArray();
      w.Key("candidates_evaluated").UInt(r.candidates_evaluated)
          .Key("candidates_pruned").UInt(r.candidates_pruned)
          .Key("used_mck").Bool(r.used_mck)
          .Key("solver_nodes").UInt(r.solver_nodes);
      WriteTiming(&w, r.total_seconds, r.prepare_seconds, r.eval_seconds,
                  r.train_seconds);
      break;
    }
    case Response::Kind::kSelect: {
      const Table& t = response.table;
      w.Key("kind").String("select");
      w.Key("columns").BeginArray();
      for (const AttributeDef& a : t.schema().attributes()) w.String(a.name);
      w.EndArray();
      w.Key("num_rows").UInt(t.num_rows());
      w.Key("rows").BeginArray();
      for (size_t tid = 0; tid < t.num_rows(); ++tid) {
        w.BeginArray();
        for (size_t attr = 0; attr < t.schema().num_attributes(); ++attr) {
          WriteValue(&w, t.At(tid, attr));
        }
        w.EndArray();
      }
      w.EndArray();
      break;
    }
    case Response::Kind::kNone:
      w.Key("kind").String("none");
      break;
  }
  // A sweep's items carry their own timing; its body has no "seconds".
  if (response.kind != Response::Kind::kWhatIfBatch) {
    w.Key("seconds").Double(response.seconds);
  }
  w.EndObject();
  return w.Take();
}

/// A budget field of the body: 0 (unlimited) when absent, else a
/// non-negative JSON integer.
Result<int64_t> BudgetField(const JsonValue& body, const char* name) {
  const JsonValue* field = body.Find(name);
  if (field == nullptr) return int64_t{0};
  if (!field->is_integer() || field->int_value() < 0) {
    return Status::InvalidArgument(
        StrFormat("\"%s\" must be a non-negative integer", name));
  }
  return field->int_value();
}

/// Unpacks the shared request-body fields (scenario, budget, estimator
/// overrides) into a service Request. Returns a client error on bad fields.
Status UnpackRequest(const JsonValue& body,
                     const service::ServiceOptions& defaults,
                     service::Request* out) {
  out->scenario = body.GetString("scenario", "main");
  const JsonValue* sql = body.Find("sql");
  if (sql == nullptr || !sql->is_string()) {
    return Status::InvalidArgument("missing required string field \"sql\"");
  }
  out->sql = sql->string_value();

  HYPER_ASSIGN_OR_RETURN(const int64_t deadline_ms,
                         BudgetField(body, "deadline_ms"));
  HYPER_ASSIGN_OR_RETURN(const int64_t max_rows, BudgetField(body, "max_rows"));
  HYPER_ASSIGN_OR_RETURN(const int64_t max_bytes,
                         BudgetField(body, "max_bytes"));
  out->budget.deadline_seconds = static_cast<double>(deadline_ms) / 1000.0;
  out->budget.max_rows_touched = static_cast<size_t>(max_rows);
  out->budget.max_bytes_materialized = static_cast<size_t>(max_bytes);

  const JsonValue* estimator = body.Find("estimator");
  const JsonValue* trees = body.Find("trees");
  if (estimator != nullptr || trees != nullptr) {
    whatif::WhatIfOptions opts = defaults.whatif;
    if (estimator != nullptr) {
      const std::string name =
          estimator->is_string() ? estimator->string_value() : "";
      if (name == "frequency") {
        opts.estimator = learn::EstimatorKind::kFrequency;
      } else if (name == "forest") {
        opts.estimator = learn::EstimatorKind::kForest;
      } else {
        return Status::InvalidArgument(
            "\"estimator\" must be \"frequency\" or \"forest\"");
      }
    }
    if (trees != nullptr) {
      if (!trees->is_integer() || trees->int_value() <= 0) {
        return Status::InvalidArgument("\"trees\" must be a positive integer");
      }
      opts.forest.num_trees = static_cast<size_t>(trees->int_value());
    }
    out->whatif_options = std::move(opts);
  }
  return Status::OK();
}

/// Unpacks a sweep body's "interventions": an array of interventions, each
/// an array of {"attribute", "func" (set | scale | shift, default set),
/// "value"} updates.
Status UnpackInterventions(
    const JsonValue& body,
    std::vector<std::vector<whatif::UpdateSpec>>* out) {
  const JsonValue* interventions = body.Find("interventions");
  if (interventions == nullptr || !interventions->is_array()) {
    return Status::InvalidArgument(
        "missing required array field \"interventions\"");
  }
  out->reserve(interventions->array().size());
  for (const JsonValue& group : interventions->array()) {
    if (!group.is_array()) {
      return Status::InvalidArgument(
          "each intervention must be an array of updates");
    }
    std::vector<whatif::UpdateSpec> updates;
    updates.reserve(group.array().size());
    for (const JsonValue& u : group.array()) {
      if (!u.is_object()) {
        return Status::InvalidArgument(
            "each update must be an object with \"attribute\" and "
            "\"value\"");
      }
      whatif::UpdateSpec spec;
      spec.attribute = u.GetString("attribute");
      if (spec.attribute.empty()) {
        return Status::InvalidArgument(
            "update is missing string field \"attribute\"");
      }
      const std::string func = u.GetString("func", "set");
      if (func == "set") {
        spec.func = sql::UpdateFuncKind::kSet;
      } else if (func == "scale") {
        spec.func = sql::UpdateFuncKind::kScale;
      } else if (func == "shift") {
        spec.func = sql::UpdateFuncKind::kShift;
      } else {
        return Status::InvalidArgument(
            "\"func\" must be \"set\", \"scale\" or \"shift\"");
      }
      const JsonValue* value = u.Find("value");
      if (value == nullptr) {
        return Status::InvalidArgument("update is missing field \"value\"");
      }
      HYPER_ASSIGN_OR_RETURN(spec.constant, JsonToValue(*value));
      updates.push_back(std::move(spec));
    }
    out->push_back(std::move(updates));
  }
  return Status::OK();
}

}  // namespace

int HttpStatusOf(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kUnimplemented:
      return 501;
    case StatusCode::kInternal:
    case StatusCode::kDataLoss:
      return 500;
    default:
      return GovernanceHttpStatus(status);
  }
}

QueryHandler::QueryHandler(service::ScenarioService* service,
                           obs::MetricsRegistry* registry)
    : service_(service), registry_(registry) {}

HttpHandler QueryHandler::AsHandler() {
  return [this](const HttpRequest& request, HttpResponse* response) {
    Handle(request, response);
  };
}

void QueryHandler::CountRequest(const std::string& route, int http_status) {
  if (registry_ == nullptr) return;
  registry_
      ->GetCounter("hyper_http_requests_total",
                   StrFormat("route=\"%s\",code=\"%d\"", route.c_str(),
                             http_status),
                   "HTTP requests by route and status code")
      ->Increment();
}

void QueryHandler::Handle(const HttpRequest& request, HttpResponse* response) {
  const std::string path = request.path();
  const bool is_get = request.method == "GET";
  const bool is_post = request.method == "POST";
  std::string route = path;

  if (path == "/healthz" && is_get) {
    *response = Healthz();
  } else if (path == "/statusz" && is_get) {
    *response = Statusz();
  } else if (path == "/metrics" && is_get) {
    *response = Metrics();
  } else if (path == "/v1/whatif" && is_post) {
    *response = RunQuery(request.body, Response::Kind::kWhatIf);
  } else if (path == "/v1/howto" && is_post) {
    *response = RunQuery(request.body, Response::Kind::kHowTo);
  } else if (path == "/v1/query" && is_post) {
    *response = RunQuery(request.body, Response::Kind::kNone);
  } else if (path == "/v1/whatif/batch" && is_post) {
    *response = RunQuery(request.body, Response::Kind::kWhatIfBatch);
  } else if (path == "/v1/scenario" && is_post) {
    *response = RunScenarioAction(request.body);
  } else if (path == "/v1/scenario" && is_get) {
    *response = ListScenarios();
  } else if (path == "/healthz" || path == "/statusz" || path == "/metrics" ||
             path == "/v1/whatif" || path == "/v1/howto" ||
             path == "/v1/query" || path == "/v1/whatif/batch" ||
             path == "/v1/scenario") {
    *response = MakeError(405, "method_not_allowed",
                          StrFormat("%s does not accept %s", path.c_str(),
                                    request.method.c_str()));
  } else {
    route = "unknown";
    *response = MakeError(404, "not_found",
                          StrFormat("no route for %s", path.c_str()));
  }
  CountRequest(route, response->status);
}

HttpResponse QueryHandler::RunQuery(const std::string& body,
                                    Response::Kind require_kind) {
  auto parsed = JsonValue::Parse(body);
  if (!parsed.ok()) {
    return MakeError(400, "bad_json", parsed.status().message());
  }
  if (!parsed.value().is_object()) {
    return MakeError(400, "bad_json", "request body must be a JSON object");
  }

  service::Request request;
  request.expected_kind = require_kind;
  const Status unpack =
      UnpackRequest(parsed.value(), service_->options(), &request);
  if (!unpack.ok()) return MakeError(unpack);
  if (require_kind == Response::Kind::kWhatIfBatch) {
    const Status sweep =
        UnpackInterventions(parsed.value(), &request.interventions);
    if (!sweep.ok()) return MakeError(400, "bad_request", sweep.message());
  }

  const Response response = service_->Submit(request);
  if (!response.ok()) {
    // The service names the kind of a statement that parsed; one this
    // route does not serve failed before it touched any rows or cache.
    if (require_kind != Response::Kind::kNone &&
        response.kind != Response::Kind::kNone &&
        response.kind != require_kind) {
      return MakeError(
          400, "wrong_statement_kind",
          StrFormat("this endpoint serves %s statements, got a %s "
                    "statement (use /v1/query for any kind)",
                    service::KindName(require_kind),
                    service::KindName(response.kind)));
    }
    return MakeError(response.status);
  }

  HttpResponse http;
  http.body = RenderResponse(response);
  return http;
}

HttpResponse QueryHandler::RunScenarioAction(const std::string& body) {
  auto parsed = JsonValue::Parse(body);
  if (!parsed.ok()) {
    return MakeError(400, "bad_json", parsed.status().message());
  }
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return MakeError(400, "bad_json", "request body must be a JSON object");
  }
  const std::string action = root.GetString("action");

  JsonWriter w;
  if (action == "create") {
    const std::string name = root.GetString("name");
    if (name.empty()) {
      return MakeError(400, "bad_request", "\"create\" requires \"name\"");
    }
    const Status s =
        service_->CreateScenario(name, root.GetString("parent", "main"));
    if (!s.ok()) return MakeError(s);
    w.BeginObject().Key("ok").Bool(true).Key("created").String(name)
        .EndObject();
  } else if (action == "apply") {
    const std::string scenario = root.GetString("scenario", "main");
    const JsonValue* sql = root.Find("sql");
    if (sql == nullptr || !sql->is_string()) {
      return MakeError(400, "bad_request",
                       "\"apply\" requires string field \"sql\"");
    }
    auto updated =
        service_->ApplyHypotheticalSql(scenario, sql->string_value());
    if (!updated.ok()) return MakeError(updated.status());
    w.BeginObject().Key("ok").Bool(true).Key("scenario").String(scenario)
        .Key("updated_rows").UInt(updated.value()).EndObject();
  } else if (action == "drop") {
    const std::string name = root.GetString("name");
    if (name.empty()) {
      return MakeError(400, "bad_request", "\"drop\" requires \"name\"");
    }
    const Status s = service_->DropScenario(name);
    if (!s.ok()) return MakeError(s);
    w.BeginObject().Key("ok").Bool(true).Key("dropped").String(name)
        .EndObject();
  } else {
    return MakeError(400, "bad_request",
                     "\"action\" must be \"create\", \"apply\" or \"drop\"");
  }

  HttpResponse http;
  http.body = w.Take();
  return http;
}

HttpResponse QueryHandler::ListScenarios() {
  JsonWriter w;
  w.BeginObject().Key("scenarios").BeginArray();
  for (const service::ScenarioInfo& info : service_->ListScenarios()) {
    w.BeginObject()
        .Key("name").String(info.name)
        .Key("parent").String(info.parent)
        .Key("updates_applied").UInt(info.updates_applied)
        .Key("overridden_cells").UInt(info.overridden_cells)
        .Key("delta_fingerprint")
        .String(StrFormat("%016llx",
                          static_cast<unsigned long long>(
                              info.delta_fingerprint)))
        .EndObject();
  }
  w.EndArray().EndObject();
  HttpResponse http;
  http.body = w.Take();
  return http;
}

HttpResponse QueryHandler::Metrics() {
  obs::MetricsSnapshot snapshot;
  if (registry_ != nullptr) snapshot = registry_->Snapshot();
  service::AppendServiceSeries(*service_, &snapshot);
  HttpResponse http;
  http.content_type = "text/plain; version=0.0.4";
  http.body = obs::RenderPrometheus(snapshot);
  return http;
}

HttpResponse QueryHandler::Healthz() {
  HttpResponse http;
  JsonWriter w;
  if (service_->draining()) {
    http.status = 503;
    w.BeginObject().Key("status").String("draining").EndObject();
  } else {
    w.BeginObject().Key("status").String("ok").EndObject();
  }
  http.body = w.Take();
  return http;
}

HttpResponse QueryHandler::Statusz() {
  HttpResponse http;
  http.body = service::StatuszJson(*service_, registry_);
  return http;
}

std::string QueryHandler::HandleLine(const std::string& scenario,
                                     const std::string& sql) {
  JsonWriter body;
  body.BeginObject().Key("scenario").String(scenario).Key("sql").String(sql)
      .EndObject();
  const HttpResponse response = RunQuery(body.Take(), Response::Kind::kNone);
  return response.body;
}

}  // namespace net
}  // namespace hyper
