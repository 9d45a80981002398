#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/governance.h"
#include "common/json.h"
#include "common/strings.h"
#include "data/datasets.h"
#include "net/http.h"
#include "net/listener.h"
#include "net/query_handler.h"
#include "obs/metrics.h"
#include "service/scenario_service.h"
#include "whatif/engine.h"

namespace hyper::net {
namespace {

// The serving contract under test: a request answered over HTTP (or the
// stdin line protocol, which shares the handler) must be BIT-FOR-BIT equal
// to the same request submitted in-process, and governance aborts must map
// onto the documented HTTP status codes.

// --- HttpParser: fragmentation, pipelining, limits -------------------------

std::string SimplePost(std::string_view path, std::string_view body,
                       std::string_view extra_headers = "") {
  std::string out = "POST ";
  out += path;
  out += " HTTP/1.1\r\nHost: test\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\n";
  out += extra_headers;
  out += "\r\n";
  out += body;
  return out;
}

TEST(HttpParserTest, ParsesCompleteRequestInOneFeed) {
  HttpParser parser;
  const std::string wire = SimplePost("/v1/whatif?pretty", "{\"a\":1}");
  ASSERT_EQ(parser.Feed(wire.data(), wire.size()), HttpParser::State::kComplete);
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/whatif?pretty");
  EXPECT_EQ(request.path(), "/v1/whatif");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.Header("host"), "test");
  EXPECT_EQ(request.body, "{\"a\":1}");
  EXPECT_TRUE(request.keep_alive());
}

TEST(HttpParserTest, ReassemblesByteByByteFragmentation) {
  // A request delivered one byte per read must parse identically to one
  // delivered whole.
  HttpParser parser;
  const std::string wire = SimplePost("/v1/query", "{\"sql\":\"x\"}");
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_EQ(parser.Feed(&wire[i], 1), HttpParser::State::kNeedMore)
        << "byte " << i;
  }
  ASSERT_EQ(parser.Feed(&wire[wire.size() - 1], 1),
            HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().body, "{\"sql\":\"x\"}");
}

TEST(HttpParserTest, ResetRollsForwardToPipelinedRequest) {
  HttpParser parser;
  const std::string first = SimplePost("/one", "AA");
  const std::string second = SimplePost("/two", "BBBB");
  const std::string wire = first + second;
  ASSERT_EQ(parser.Feed(wire.data(), wire.size()), HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/one");
  EXPECT_EQ(parser.request().body, "AA");
  EXPECT_TRUE(parser.has_buffered());
  // Reset re-parses the buffered leftover without another Feed.
  ASSERT_EQ(parser.Reset(), HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/two");
  EXPECT_EQ(parser.request().body, "BBBB");
  EXPECT_FALSE(parser.has_buffered());
}

TEST(HttpParserTest, OversizedHeaderBlockIs431) {
  HttpLimits limits;
  limits.max_header_bytes = 128;
  HttpParser parser(limits);
  const std::string wire =
      SimplePost("/v1/whatif", "", "X-Pad: " + std::string(256, 'x') + "\r\n");
  ASSERT_EQ(parser.Feed(wire.data(), wire.size()), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParserTest, OversizedBodyIs413) {
  HttpLimits limits;
  limits.max_body_bytes = 16;
  HttpParser parser(limits);
  const std::string wire = SimplePost("/v1/whatif", std::string(64, 'x'));
  ASSERT_EQ(parser.Feed(wire.data(), wire.size()), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParserTest, MalformedRequestLineIs400) {
  HttpParser parser;
  const std::string wire = "NONSENSE\r\n\r\n";
  ASSERT_EQ(parser.Feed(wire.data(), wire.size()), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, UnknownHttpVersionIs505) {
  HttpParser parser;
  const std::string wire = "GET / HTTP/2.0\r\nHost: t\r\n\r\n";
  ASSERT_EQ(parser.Feed(wire.data(), wire.size()), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 505);
}

TEST(HttpParserTest, TransferEncodingIs501) {
  HttpParser parser;
  const std::string wire =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  ASSERT_EQ(parser.Feed(wire.data(), wire.size()), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(HttpParserTest, NonNumericContentLengthIs400) {
  HttpParser parser;
  const std::string wire = "POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n";
  ASSERT_EQ(parser.Feed(wire.data(), wire.size()), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpRequestTest, KeepAliveFollowsHttpDefaults) {
  HttpRequest request;
  request.version = "HTTP/1.1";
  EXPECT_TRUE(request.keep_alive());
  request.headers = {{"connection", "close"}};
  EXPECT_FALSE(request.keep_alive());
  request.version = "HTTP/1.0";
  request.headers.clear();
  EXPECT_FALSE(request.keep_alive());
  request.headers = {{"connection", "keep-alive"}};
  EXPECT_TRUE(request.keep_alive());
}

TEST(HttpResponseTest, SerializeEmitsFramingHeaders) {
  HttpResponse response;
  response.status = 429;
  response.body = "{}";
  response.headers.push_back({"Retry-After", "1"});
  const std::string wire = SerializeResponse(response, /*keep_alive=*/false);
  EXPECT_EQ(wire.rfind("HTTP/1.1 429 Too Many Requests\r\n", 0), 0u);
  EXPECT_NE(wire.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 6), "\r\n\r\n{}");
}

// --- JSON wire format -------------------------------------------------------

TEST(JsonTest, IntegralLexemesStayIntegral) {
  auto parsed = JsonValue::Parse(
      "{\"a\":2,\"b\":2.0,\"c\":-7,\"d\":1.5,\"e\":1e300,"
      "\"f\":99999999999999999999}");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->Find("a")->is_integer());
  EXPECT_FALSE(parsed->Find("b")->is_integer());
  EXPECT_EQ(parsed->Find("c")->int_value(), -7);
  // A non-integral or out-of-int64 number is not an integer: int_value
  // reads 0 instead of truncating it or casting it out of range.
  for (const char* key : {"b", "d", "e", "f"}) {
    EXPECT_FALSE(parsed->Find(key)->is_integer()) << key;
    EXPECT_EQ(parsed->Find(key)->int_value(), 0) << key;
  }
}

TEST(JsonTest, DoublesRoundTripBitExactly) {
  const double value = 2343.3026607348943;
  auto parsed = JsonValue::Parse("{\"value\":" + JsonDouble(value) + "}");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetNumber("value"), value);  // ==, not NEAR
}

TEST(JsonTest, MalformedDocumentsAreRejected) {
  EXPECT_FALSE(JsonValue::Parse("{\"a\":").ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{'a':1}").ok());
  EXPECT_FALSE(JsonValue::Parse("").ok());
}

// --- fault-injection hook (same pattern as governance_test) -----------------
// Parks governed requests at "whatif.eval.rows" so admission/deadline tests
// get a deterministic window in which a request provably occupies a slot.

std::mutex g_block_mu;
std::condition_variable g_block_cv;
bool g_block_enabled = false;
size_t g_blocked_now = 0;

Status BlockingHook(const char* checkpoint) {
  if (std::string_view(checkpoint) != "whatif.eval.rows") return Status::OK();
  std::unique_lock<std::mutex> lock(g_block_mu);
  if (!g_block_enabled) return Status::OK();
  ++g_blocked_now;
  g_block_cv.notify_all();
  g_block_cv.wait(lock, [] { return !g_block_enabled; });
  --g_blocked_now;
  return Status::OK();
}

void ArmBlockingHook() {
  std::lock_guard<std::mutex> lock(g_block_mu);
  g_block_enabled = true;
  governance::SetFaultHook(&BlockingHook);
}

// Waits until `n` requests are parked at the hook, or `abandoned` flips true
// (see AbandonAwait). The escape hatch matters for governed requests with a
// real deadline: under a sanitizer build the deadline can expire at a
// checkpoint *before* "whatif.eval.rows", so the request finishes without
// ever parking and an unconditional wait here would never return. Returns
// whether the requests actually parked.
bool AwaitBlockedRequests(size_t n,
                          const std::atomic<bool>* abandoned = nullptr) {
  std::unique_lock<std::mutex> lock(g_block_mu);
  g_block_cv.wait(lock, [&] {
    return g_blocked_now >= n ||
           (abandoned != nullptr &&
            abandoned->load(std::memory_order_relaxed));
  });
  return g_blocked_now >= n;
}

// Flips the waiter's give-up flag. The store happens under g_block_mu so it
// cannot land between the waiter's predicate check and its wait (the notify
// would be lost and the waiter would sleep forever).
void AbandonAwait(std::atomic<bool>* abandoned) {
  {
    std::lock_guard<std::mutex> lock(g_block_mu);
    abandoned->store(true, std::memory_order_relaxed);
  }
  g_block_cv.notify_all();
}

void ReleaseBlockedRequests() {
  std::lock_guard<std::mutex> lock(g_block_mu);
  g_block_enabled = false;
  g_block_cv.notify_all();
}

struct HookGuard {
  ~HookGuard() { governance::SetFaultHook(nullptr); }
};

// --- QueryHandler over a real service ---------------------------------------

constexpr const char* kQuery =
    "Use German When Status = 1 Update(Status) = 2 Output Count(Credit = 1)";

class QueryHandlerTest : public ::testing::Test {
 protected:
  QueryHandlerTest() {
    data::GermanOptions options;
    options.rows = 400;
    options.seed = 11;
    auto ds = data::MakeGermanSyn(options);
    EXPECT_TRUE(ds.ok()) << ds.status();
    db_ = std::move(ds->db);
    graph_ = std::move(ds->graph);
  }

  std::unique_ptr<service::ScenarioService> MakeService(
      size_t max_concurrent = 0, size_t max_queued = 0) {
    service::ServiceOptions options;
    options.whatif.estimator = learn::EstimatorKind::kFrequency;
    options.num_threads = 1;
    options.whatif.num_threads = 1;
    options.max_concurrent_requests = max_concurrent;
    options.max_queued_requests = max_queued;
    options.metrics = &registry_;
    return std::make_unique<service::ScenarioService>(db_, graph_, options);
  }

  static HttpResponse Call(QueryHandler& handler, const char* method,
                           const std::string& path, const std::string& body) {
    HttpRequest request;
    request.method = method;
    request.target = path;
    request.version = "HTTP/1.1";
    request.body = body;
    HttpResponse response;
    handler.Handle(request, &response);
    return response;
  }

  static std::string HeaderValue(const HttpResponse& response,
                                 std::string_view name) {
    for (const auto& [key, value] : response.headers) {
      if (key == name) return value;
    }
    return "";
  }

  obs::MetricsRegistry registry_;
  Database db_;
  causal::CausalGraph graph_;
};

TEST_F(QueryHandlerTest, ServedWhatIfBitEqualsInProcessSubmit) {
  auto service = MakeService();
  QueryHandler handler(service.get(), &registry_);
  const double reference = service->Submit({"main", kQuery, {}}).whatif.value;

  const std::string body =
      std::string("{\"scenario\":\"main\",\"sql\":\"") + kQuery + "\"}";
  const HttpResponse response = Call(handler, "POST", "/v1/whatif", body);
  ASSERT_EQ(response.status, 200) << response.body;
  auto parsed = JsonValue::Parse(response.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("kind"), "whatif");
  EXPECT_EQ(parsed->GetNumber("value"), reference);  // bit-equality
  const JsonValue* hit = parsed->Find("plan_cache_hit");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->is_bool() && hit->bool_value());
  EXPECT_GT(parsed->GetNumber("view_rows"), 0);

  // The stdin line protocol shares the handler, so it serves the identical
  // value through the identical JSON shape.
  auto line = JsonValue::Parse(handler.HandleLine("main", kQuery));
  ASSERT_TRUE(line.ok()) << line.status();
  EXPECT_EQ(line->GetNumber("value"), reference);
}

TEST_F(QueryHandlerTest, BatchItemsBitEqualInProcessBatch) {
  auto service = MakeService();
  QueryHandler handler(service.get(), &registry_);

  service::Request sweep{"main", kQuery, {}};
  sweep.expected_kind = service::Response::Kind::kWhatIfBatch;
  for (int v = 0; v <= 2; ++v) {
    whatif::UpdateSpec spec;
    spec.attribute = "Status";
    spec.func = sql::UpdateFuncKind::kSet;
    spec.constant = Value::Int(v);
    sweep.interventions.push_back({spec});
  }
  const service::Response reference = service->Submit(sweep);
  ASSERT_TRUE(reference.ok()) << reference.status;
  ASSERT_EQ(reference.items.size(), 3u);

  const std::string body =
      std::string("{\"scenario\":\"main\",\"sql\":\"") + kQuery +
      "\",\"interventions\":["
      "[{\"attribute\":\"Status\",\"value\":0}],"
      "[{\"attribute\":\"Status\",\"value\":1}],"
      "[{\"attribute\":\"Status\",\"value\":2}]]}";
  const HttpResponse response = Call(handler, "POST", "/v1/whatif/batch", body);
  ASSERT_EQ(response.status, 200) << response.body;
  auto parsed = JsonValue::Parse(response.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* items = parsed->Find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->array().size(), 3u);
  for (int v = 0; v <= 2; ++v) {
    const JsonValue& item = items->array()[v];
    ASSERT_EQ(item.GetString("status"), "ok") << response.body;
    ASSERT_TRUE(reference.items[v].ok());
    EXPECT_EQ(item.GetNumber("value"), reference.items[v].result.value)
        << "Status <- " << v;
  }
}

TEST_F(QueryHandlerTest, ScenarioLifecycleOverHttp) {
  auto service = MakeService();
  QueryHandler handler(service.get(), &registry_);
  const double main_value = service->Submit({"main", kQuery, {}}).whatif.value;

  EXPECT_EQ(Call(handler, "POST", "/v1/scenario",
                 "{\"action\":\"create\",\"name\":\"b1\"}")
                .status,
            200);
  EXPECT_EQ(Call(handler, "POST", "/v1/scenario",
                 "{\"action\":\"apply\",\"scenario\":\"b1\",\"sql\":"
                 "\"Use German When Savings = 0 Update(Credit) = 0 "
                 "Output Count(*)\"}")
                .status,
            200);

  // The branch sees the hypothetical; main is isolated.
  const std::string branch_body =
      std::string("{\"scenario\":\"b1\",\"sql\":\"") + kQuery + "\"}";
  EXPECT_EQ(Call(handler, "POST", "/v1/whatif", branch_body).status, 200);
  const std::string main_body =
      std::string("{\"scenario\":\"main\",\"sql\":\"") + kQuery + "\"}";
  auto main_after = JsonValue::Parse(
      Call(handler, "POST", "/v1/whatif", main_body).body);
  ASSERT_TRUE(main_after.ok());
  EXPECT_EQ(main_after->GetNumber("value"), main_value);

  auto list = JsonValue::Parse(Call(handler, "GET", "/v1/scenario", "").body);
  ASSERT_TRUE(list.ok()) << list.status();
  const JsonValue* scenarios = list->Find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  EXPECT_EQ(scenarios->array().size(), 2u);  // main + b1

  EXPECT_EQ(Call(handler, "POST", "/v1/scenario",
                 "{\"action\":\"drop\",\"name\":\"b1\"}")
                .status,
            200);
  // Creating a duplicate of a live branch is a 409.
  EXPECT_EQ(Call(handler, "POST", "/v1/scenario",
                 "{\"action\":\"create\",\"name\":\"main\"}")
                .status,
            409);
}

// /statusz counts the branches' row builds: a what-if on a one-cell branch
// reads the base relations and the branch's override cells and builds
// none, a select on the branch builds its rows once, and a second select
// on the same version shares them.
TEST_F(QueryHandlerTest, StatuszCountsBranchRowBuilds) {
  auto service = MakeService();
  QueryHandler handler(service.get(), &registry_);
  auto row_builds = [&]() -> double {
    auto statusz = JsonValue::Parse(Call(handler, "GET", "/statusz", "").body);
    EXPECT_TRUE(statusz.ok()) << statusz.status();
    if (!statusz.ok()) return -1;
    const JsonValue* worlds = statusz->Find("worlds");
    EXPECT_NE(worlds, nullptr);
    return worlds != nullptr ? worlds->GetNumber("row_builds", -1) : -1;
  };
  EXPECT_EQ(row_builds(), 0);
  ASSERT_EQ(Call(handler, "POST", "/v1/scenario",
                 "{\"action\":\"create\",\"name\":\"b1\"}")
                .status,
            200);
  ASSERT_EQ(Call(handler, "POST", "/v1/scenario",
                 "{\"action\":\"apply\",\"scenario\":\"b1\",\"sql\":"
                 "\"Use German When Id = 3 Update(Savings) = 2 "
                 "Output Count(*)\"}")
                .status,
            200);
  const std::string whatif =
      std::string("{\"scenario\":\"b1\",\"sql\":\"") + kQuery + "\"}";
  EXPECT_EQ(Call(handler, "POST", "/v1/whatif", whatif).status, 200);
  EXPECT_EQ(row_builds(), 0);
  const std::string select =
      "{\"scenario\":\"b1\",\"sql\":\"Select Id From German Where Savings = "
      "2\"}";
  EXPECT_EQ(Call(handler, "POST", "/v1/query", select).status, 200);
  EXPECT_EQ(row_builds(), 1);
  EXPECT_EQ(Call(handler, "POST", "/v1/query", select).status, 200);
  EXPECT_EQ(row_builds(), 1);
}

TEST_F(QueryHandlerTest, ClientMistakesMapInto4xx) {
  auto service = MakeService();
  QueryHandler handler(service.get(), &registry_);

  EXPECT_EQ(Call(handler, "POST", "/v1/nosuch", "{}").status, 404);
  EXPECT_EQ(Call(handler, "GET", "/v1/whatif", "").status, 405);
  EXPECT_EQ(Call(handler, "POST", "/v1/whatif", "{not json").status, 400);
  EXPECT_EQ(Call(handler, "POST", "/v1/whatif", "{\"scenario\":\"main\"}")
                .status,
            400);  // missing sql
  // A how-to statement on the what-if route is a kind mismatch.
  const HttpResponse wrong_kind =
      Call(handler, "POST", "/v1/whatif",
           "{\"sql\":\"Use German HowToUpdate Status ToMaximize "
           "Count(Credit = 1)\"}");
  EXPECT_EQ(wrong_kind.status, 400) << wrong_kind.body;
  // Unknown scenario -> 404, and the error object carries the status code.
  const HttpResponse missing =
      Call(handler, "POST", "/v1/whatif",
           std::string("{\"scenario\":\"ghost\",\"sql\":\"") + kQuery + "\"}");
  EXPECT_EQ(missing.status, 404);
  auto parsed = JsonValue::Parse(missing.body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* error = parsed->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetNumber("http_status"), 404);
}

TEST_F(QueryHandlerTest, ResourceBudgetAbortIs429WithRetryAfter) {
  auto service = MakeService();
  QueryHandler handler(service.get(), &registry_);
  const HttpResponse response =
      Call(handler, "POST", "/v1/whatif",
           std::string("{\"max_rows\":1,\"sql\":\"") + kQuery + "\"}");
  EXPECT_EQ(response.status, 429) << response.body;
  EXPECT_EQ(HeaderValue(response, "Retry-After"), "1");
}

// Every counter of every stage-cache section.
std::vector<size_t> StageCounters(const service::ScenarioService& service) {
  const service::PlanCacheStats stats = service.cache_stats();
  std::vector<size_t> out;
  for (const service::StageStats* s :
       {&stats.scope, &stats.causal, &stats.learn, &stats.query}) {
    out.insert(out.end(),
               {s->hits, s->misses, s->coalesced, s->evictions, s->entries});
  }
  return out;
}

std::string ErrorCode(const HttpResponse& response) {
  auto parsed = JsonValue::Parse(response.body);
  if (!parsed.ok()) return "";
  const JsonValue* error = parsed->Find("error");
  return error == nullptr ? "" : error->GetString("code");
}

std::string ErrorMessage(const HttpResponse& response) {
  auto parsed = JsonValue::Parse(response.body);
  if (!parsed.ok()) return "";
  const JsonValue* error = parsed->Find("error");
  return error == nullptr ? "" : error->GetString("message");
}

constexpr const char* kHowToQuery =
    "Use German HowToUpdate Status ToMaximize Count(Credit = 1)";

TEST_F(QueryHandlerTest, WrongStatementKindIs400AndBuildsNoStage) {
  auto service = MakeService();
  QueryHandler handler(service.get(), &registry_);
  const std::vector<size_t> before = StageCounters(*service);

  const HttpResponse howto_on_whatif =
      Call(handler, "POST", "/v1/whatif",
           std::string("{\"sql\":\"") + kHowToQuery + "\"}");
  EXPECT_EQ(howto_on_whatif.status, 400) << howto_on_whatif.body;
  EXPECT_EQ(ErrorCode(howto_on_whatif), "wrong_statement_kind");
  EXPECT_EQ(ErrorMessage(howto_on_whatif),
            "this endpoint serves what-if statements, got a how-to "
            "statement (use /v1/query for any kind)");

  const HttpResponse whatif_on_howto =
      Call(handler, "POST", "/v1/howto",
           std::string("{\"sql\":\"") + kQuery + "\"}");
  EXPECT_EQ(whatif_on_howto.status, 400) << whatif_on_howto.body;
  EXPECT_EQ(ErrorCode(whatif_on_howto), "wrong_statement_kind");
  EXPECT_EQ(ErrorMessage(whatif_on_howto),
            "this endpoint serves how-to statements, got a what-if "
            "statement (use /v1/query for any kind)");

  // The kind is known from the parse, before any stage is looked up.
  EXPECT_EQ(before, StageCounters(*service));
}

TEST_F(QueryHandlerTest, BatchRouteAnswersWrongKindForAHowTo) {
  auto service = MakeService();
  QueryHandler handler(service.get(), &registry_);
  const std::vector<size_t> before = StageCounters(*service);
  const HttpResponse response = Call(
      handler, "POST", "/v1/whatif/batch",
      std::string("{\"sql\":\"") + kHowToQuery +
          "\",\"interventions\":[[{\"attribute\":\"Status\",\"value\":0}]]}");
  EXPECT_EQ(response.status, 400) << response.body;
  EXPECT_EQ(ErrorCode(response), "wrong_statement_kind") << response.body;
  EXPECT_EQ(before, StageCounters(*service));
}

TEST_F(QueryHandlerTest, BatchBodiesTakeBudgetsAndEstimatorFields) {
  auto service = MakeService();
  QueryHandler handler(service.get(), &registry_);
  const std::string sweep =
      std::string("\"sql\":\"") + kQuery +
      "\",\"interventions\":[[{\"attribute\":\"Status\",\"value\":0}],"
      "[{\"attribute\":\"Status\",\"value\":1}]]";

  // The sweep's row budget bounds its prepare and every intervention.
  const HttpResponse bounded = Call(handler, "POST", "/v1/whatif/batch",
                                    "{\"max_rows\":1," + sweep + "}");
  EXPECT_EQ(bounded.status, 429) << bounded.body;
  EXPECT_EQ(HeaderValue(bounded, "Retry-After"), "1");

  // The estimator fields are read as on every other route.
  const HttpResponse bad_estimator =
      Call(handler, "POST", "/v1/whatif/batch",
           "{\"estimator\":\"oracle\"," + sweep + "}");
  EXPECT_EQ(bad_estimator.status, 400) << bad_estimator.body;

  const HttpResponse unbounded =
      Call(handler, "POST", "/v1/whatif/batch", "{" + sweep + "}");
  EXPECT_EQ(unbounded.status, 200) << unbounded.body;

  // On the warm plan the budget trips in the interventions: the sweep
  // still fails as a whole.
  const HttpResponse warm_bounded = Call(handler, "POST", "/v1/whatif/batch",
                                         "{\"max_rows\":1," + sweep + "}");
  EXPECT_EQ(warm_bounded.status, 429) << warm_bounded.body;
}

TEST_F(QueryHandlerTest, BudgetFieldsMustBeNonNegativeIntegers) {
  auto service = MakeService();
  QueryHandler handler(service.get(), &registry_);
  for (const char* field : {"deadline_ms", "max_rows", "max_bytes"}) {
    for (const char* value :
         {"1.5", "-1", "1e300", "99999999999999999999", "\"5\""}) {
      const HttpResponse response =
          Call(handler, "POST", "/v1/whatif",
               StrFormat("{\"%s\":%s,\"sql\":\"%s\"}", field, value, kQuery));
      EXPECT_EQ(response.status, 400)
          << field << "=" << value << ": " << response.body;
    }
  }
  // A deadline beyond the clock's range is no deadline at all.
  const HttpResponse far = Call(
      handler, "POST", "/v1/whatif",
      StrFormat("{\"deadline_ms\":10000000000000,\"sql\":\"%s\"}", kQuery));
  EXPECT_EQ(far.status, 200) << far.body;
}

TEST_F(QueryHandlerTest, ExpiredDeadlineIs504) {
  auto service = MakeService();
  QueryHandler handler(service.get(), &registry_);
  // Park the governed request at the eval checkpoint until its 1ms deadline
  // has provably expired, then release it into the deadline check.
  HookGuard guard;
  ArmBlockingHook();
  // `finished` lets the releaser stop waiting if the deadline fires at an
  // earlier checkpoint and the request never reaches the hook (slow
  // sanitizer builds) — the 504 is already decided in that case.
  std::atomic<bool> finished{false};
  std::thread releaser([&] {
    if (AwaitBlockedRequests(1, &finished)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ReleaseBlockedRequests();
  });
  const HttpResponse response =
      Call(handler, "POST", "/v1/whatif",
           std::string("{\"deadline_ms\":1,\"sql\":\"") + kQuery + "\"}");
  AbandonAwait(&finished);
  releaser.join();
  EXPECT_EQ(response.status, 504) << response.body;
}

TEST_F(QueryHandlerTest, ShedIs429AndDrainIs503) {
  auto service = MakeService(/*max_concurrent=*/1, /*max_queued=*/0);
  QueryHandler handler(service.get(), &registry_);

  // Occupy the only slot with a governed request parked at the hook.
  HookGuard guard;
  ArmBlockingHook();
  service::Request occupant;
  occupant.sql = kQuery;
  occupant.budget.max_rows_touched = 1000000000;
  service::Response occupant_response;
  std::thread background(
      [&] { occupant_response = service->Submit(occupant); });
  AwaitBlockedRequests(1);

  // Queue is full (capacity 0): the arrival is shed -> 429, same server.
  const std::string body = std::string("{\"sql\":\"") + kQuery + "\"}";
  const HttpResponse shed = Call(handler, "POST", "/v1/whatif", body);
  EXPECT_EQ(shed.status, 429) << shed.body;
  EXPECT_EQ(HeaderValue(shed, "Retry-After"), "1");

  ReleaseBlockedRequests();
  background.join();
  EXPECT_TRUE(occupant_response.ok()) << occupant_response.status;

  // Draining: rejected with 503 -> retry elsewhere; healthz flips too.
  service->BeginDrain();
  service->AwaitIdle();
  const HttpResponse drained = Call(handler, "POST", "/v1/whatif", body);
  EXPECT_EQ(drained.status, 503) << drained.body;
  EXPECT_EQ(HeaderValue(drained, "Retry-After"), "1");
  EXPECT_EQ(Call(handler, "GET", "/healthz", "").status, 503);
}

TEST_F(QueryHandlerTest, ObservabilityRoutesServeTheWorkload) {
  auto service = MakeService();
  QueryHandler handler(service.get(), &registry_);
  const std::string body = std::string("{\"sql\":\"") + kQuery + "\"}";
  ASSERT_EQ(Call(handler, "POST", "/v1/whatif", body).status, 200);

  const HttpResponse metrics = Call(handler, "GET", "/metrics", "");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4");
  EXPECT_NE(metrics.body.find("hyper_http_requests_total{"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("hyper_request_seconds_bucket{"),
            std::string::npos);
  EXPECT_NE(metrics.body.find(
                "hyper_admission_total{outcome=\"admitted\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("hyper_cache_events_total{"), std::string::npos);

  const HttpResponse healthz = Call(handler, "GET", "/healthz", "");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"ok\""), std::string::npos);

  auto statusz = JsonValue::Parse(Call(handler, "GET", "/statusz", "").body);
  ASSERT_TRUE(statusz.ok()) << statusz.status();
  EXPECT_NE(statusz->Find("admission"), nullptr);
  EXPECT_NE(statusz->Find("cache"), nullptr);
  EXPECT_NE(statusz->Find("metrics"), nullptr);
}

// --- socket-level tests ------------------------------------------------------

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

struct WireResponse {
  bool ok = false;
  int status = 0;
  std::string headers;  // raw header block, lowercased
  std::string body;
};

/// Reads exactly one HTTP response (status line + headers + Content-Length
/// body) from `fd`, leaving the connection usable for keep-alive reuse.
WireResponse ReadResponse(int fd) {
  WireResponse out;
  std::string buf;
  size_t head_end = std::string::npos;
  char tmp[4096];
  while (true) {
    head_end = buf.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) return out;
    buf.append(tmp, static_cast<size_t>(n));
  }
  std::string head = buf.substr(0, head_end + 4);
  for (char& c : head) c = static_cast<char>(std::tolower(c));
  out.headers = head;
  if (buf.rfind("HTTP/1.1 ", 0) == 0) {
    out.status = std::atoi(buf.c_str() + 9);
  }
  size_t content_length = 0;
  const size_t cl = head.find("content-length:");
  if (cl != std::string::npos) {
    content_length = static_cast<size_t>(
        std::strtoull(head.c_str() + cl + 15, nullptr, 10));
  }
  std::string body = buf.substr(head_end + 4);
  while (body.size() < content_length) {
    const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) return out;
    body.append(tmp, static_cast<size_t>(n));
  }
  out.body = body.substr(0, content_length);
  out.ok = true;
  return out;
}

WireResponse RoundTrip(uint16_t port, const std::string& wire) {
  const int fd = ConnectTo(port);
  if (fd < 0) return {};
  WireResponse response;
  if (SendAll(fd, wire)) response = ReadResponse(fd);
  ::close(fd);
  return response;
}

TEST(HttpServerTest, ServesOnEphemeralPortAndCountsRequests) {
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 2;
  HttpServer server(options);
  ASSERT_TRUE(server
                  .Start([](const HttpRequest& request,
                            HttpResponse* response) {
                    response->body = "echo:" + request.body;
                  })
                  .ok());
  ASSERT_NE(server.port(), 0);

  const WireResponse response =
      RoundTrip(server.port(), SimplePost("/x", "hello"));
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "echo:hello");

  server.Stop();
  const HttpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests_served, 1u);
  EXPECT_EQ(stats.parse_errors, 0u);
}

TEST(HttpServerTest, KeepAliveServesManyRequestsPerConnection) {
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  HttpServer server(options);
  std::atomic<int> handled{0};
  ASSERT_TRUE(server
                  .Start([&handled](const HttpRequest&, HttpResponse* out) {
                    out->body = std::to_string(++handled);
                  })
                  .ok());

  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(SendAll(fd, SimplePost("/x", "b")));
    const WireResponse response = ReadResponse(fd);
    ASSERT_TRUE(response.ok) << "request " << i;
    EXPECT_EQ(response.body, std::to_string(i));
    EXPECT_NE(response.headers.find("connection: keep-alive"),
              std::string::npos);
  }
  ::close(fd);
  server.Stop();
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  EXPECT_EQ(server.stats().requests_served, 3u);
}

TEST(HttpServerTest, FragmentedWritesReassembleOverTheWire) {
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  HttpServer server(options);
  ASSERT_TRUE(server
                  .Start([](const HttpRequest& request, HttpResponse* out) {
                    out->body = request.body;
                  })
                  .ok());
  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  const std::string wire = SimplePost("/x", "fragmented-body");
  for (size_t i = 0; i < wire.size(); i += 7) {
    ASSERT_TRUE(SendAll(fd, wire.substr(i, 7)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const WireResponse response = ReadResponse(fd);
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.body, "fragmented-body");
  ::close(fd);
  server.Stop();
}

TEST(HttpServerTest, OversizedBodyGets413OverTheWire) {
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.limits.max_body_bytes = 32;
  HttpServer server(options);
  ASSERT_TRUE(server
                  .Start([](const HttpRequest&, HttpResponse* out) {
                    out->body = "{}";
                  })
                  .ok());
  const WireResponse response =
      RoundTrip(server.port(), SimplePost("/x", std::string(128, 'x')));
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 413);
  EXPECT_NE(response.headers.find("connection: close"), std::string::npos);
  server.Stop();
  EXPECT_EQ(server.stats().parse_errors, 1u);
}

TEST_F(QueryHandlerTest, ConcurrentClientsBitEqualAcrossThreadCounts) {
  // The served answer must not depend on the number of handler threads or
  // on client interleaving: every response at every thread count carries
  // the identical value bits.
  auto service = MakeService();
  QueryHandler handler(service.get(), &registry_);
  const double reference = service->Submit({"main", kQuery, {}}).whatif.value;
  const std::string wire = SimplePost(
      "/v1/whatif", std::string("{\"sql\":\"") + kQuery + "\"}");

  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    HttpServerOptions options;
    options.port = 0;
    options.num_threads = threads;
    HttpServer server(options);
    ASSERT_TRUE(server.Start(handler.AsHandler()).ok());

    constexpr size_t kClients = 4;
    std::vector<std::thread> clients;
    std::vector<WireResponse> responses(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        responses[c] = RoundTrip(server.port(), wire);
      });
    }
    for (auto& t : clients) t.join();
    server.Stop();

    for (size_t c = 0; c < kClients; ++c) {
      ASSERT_TRUE(responses[c].ok) << threads << " threads, client " << c;
      ASSERT_EQ(responses[c].status, 200) << responses[c].body;
      auto parsed = JsonValue::Parse(responses[c].body);
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      EXPECT_EQ(parsed->GetNumber("value"), reference)
          << threads << " threads, client " << c;
    }
  }
}

}  // namespace
}  // namespace hyper::net
