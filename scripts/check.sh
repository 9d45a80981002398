#!/usr/bin/env bash
# Pre-merge gate: configure + build + full test suite + perf gate.
#
# Usage: scripts/check.sh [build-dir]
#
# Exits non-zero on the first failure. The ctest leg includes golden_test,
# which pins the engine's answers bit for bit (tests/golden/answers.txt).
# The static-analysis leg runs the invariant linter over src/ and its
# `unreferenced` rule over the build: every out-of-line library function
# has a caller outside tests/, or an annotation saying why it stays.
# The perf gate (`ctest -L perf`) runs histogram_test (histogram training
# and PredictBatch against their exact and per-row references),
# scale_perf_test (SIMD kernels at 10k and 100k rows and what-ifs at 100k
# against their scalar and per-row mirrors) and governance_overhead_test
# (a governed warm what-if within 2% of an ungoverned one). Speed is
# measured by `python3 perfbench/run.py`, not here.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== configure =="
cmake -B "$BUILD_DIR" -S . >/dev/null

echo "== build =="
cmake --build "$BUILD_DIR" -j"$(nproc)"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" -LE 'perf|lint'

echo "== static analysis (invariant linter + thread-safety + clang-tidy) =="
# Three legs, mirroring the sanitizer probe-then-skip pattern:
#   1. scripts/lint_invariants.py — plain python3, always runs: governance
#      state out of cache keys, no unordered iteration on serving paths, no
#      naked clocks in hot loops, no unjustified (void)-dropped Status; then
#      its `unreferenced` rule over $BUILD_DIR's objects: no library
#      function that only tests call, unless annotated as an oracle, a test
#      hook, a paper formulation or a durability path (skipped without
#      nm/readelf/c++filt).
#   2. Clang Thread Safety Analysis — builds src/ under clang with
#      -Werror=thread-safety (HYPER_THREAD_SAFETY=ON) and runs the
#      negative-compile test proving the gate rejects unlocked guarded
#      access. Skipped when no clang++ is on PATH (gcc has no analysis).
#   3. clang-tidy over src/ with the repo .clang-tidy profile. Skipped when
#      no clang-tidy is on PATH.
python3 scripts/lint_invariants.py src
python3 tests/lint_invariants_test.py .
UNREFERENCED=0
python3 scripts/lint_invariants.py --unreferenced "$BUILD_DIR" || UNREFERENCED=$?
if [ "$UNREFERENCED" = 77 ]; then
  echo "lint summary: invariant linter clean (src/ + rule self-tests); unreferenced rule SKIPPED (no nm/readelf/c++filt)"
elif [ "$UNREFERENCED" != 0 ]; then
  exit "$UNREFERENCED"
else
  echo "lint summary: invariant linter clean (src/ + rule self-tests + no callerless library functions)"
fi

if command -v clang++ >/dev/null 2>&1; then
  # Full src/ under -Werror=thread-safety, then the negative-compile test
  # proving the gate actually rejects unlocked guarded access.
  TSAFE_BUILD_DIR="${BUILD_DIR}-tsafe"
  cmake -B "$TSAFE_BUILD_DIR" -S . -DHYPER_THREAD_SAFETY=ON \
        -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build "$TSAFE_BUILD_DIR" -j"$(nproc)" --target hyper_core
  ctest --test-dir "$TSAFE_BUILD_DIR" --output-on-failure -R thread_safety_compile
  echo "lint summary: thread-safety analysis clean (src/ + negative-compile test)"
else
  echo "lint summary: thread-safety analysis SKIPPED (no clang++ on PATH)"
fi

if command -v clang-tidy >/dev/null 2>&1 || [ -n "${CLANG_TIDY:-}" ]; then
  scripts/run_tidy.sh "$BUILD_DIR"
  echo "lint summary: clang-tidy clean"
else
  echo "lint summary: clang-tidy SKIPPED (not on PATH)"
fi

echo "== perf gate (parity tests + 100k scale smoke + governance overhead) =="
# scale_perf_test: a what-if with SIMD at its default level at 1/2/4/8
# threads must match the forced-scalar single-thread answer bit for bit,
# plus kernel-vs-per-row bit equality at 10k rows and across a segment
# boundary at 100k. governance_overhead_test is the one timing assertion:
# the minimum of 150 interleaved warm Submit pairs per arm, governed within
# 2% (or 3 us) of ungoverned, best of up to three attempts.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L perf

# Sanitizer legs over the `service`-labeled tests (the scenario service,
# stage/plan caches, single-flight prepares, concurrent how-to scoring,
# the governance suite with its fault-injection matrix and admission
# tests, and the morsel scheduler suite), plus golden_test (every pinned
# answer at 1 and 4 threads through the pool), simd_test (each kernel
# against its scalar mirror), column_test and storage_test (columnar
# images whose columns are shared between copies and replaced
# copy-on-write by a branch patch), and howto_test and edge_cases_test
# (how-to enumeration and L1 costs index the raw column arrays of a
# ScopeStage image that the parallel candidate scorer shares), and
# relational_test and whatif_test (the select executor's row-frame reader
# and the column reader share one evaluation walk, and Explain reads a
# freshly prepared plan), and histogram_test and learn_test (histogram
# training indexes flattened bins by the byte codes of rows and of grouped
# code rows, and a forest fans its trees out on the pool), and common_test
# (the grouping table that numbers code rows, residual groups and
# evaluation points reads keys bytewise and grows in place): TSan catches
# data races on the shared stage caches, the admission/cancellation state,
# and the pool's morsel cursor under skewed load, ASan catches lifetime
# bugs in abort unwinding (an aborted request must not leave a stage
# half-built but referenced) and a shared column outliving the image it
# came from, UBSan catches undefined behavior in the hot loops, kernels
# and meter arithmetic. Each leg probes
# the toolchain first and is skipped only when its runtime is unusable.
run_sanitizer_leg() {
  local SAN="$1"         # thread | address | undefined
  local FLAG="-fsanitize=$SAN"
  local SAN_BUILD_DIR="${BUILD_DIR}-${2}"   # build dir suffix: tsan | asan | ubsan
  echo "== ${2} smoke (service-labeled tests, golden_test, simd_test, column_test, storage_test, howto_test, edge_cases_test, relational_test, whatif_test, histogram_test, learn_test, common_test) =="
  local PROBE
  PROBE="$(mktemp -d)"
  printf 'int main(){return 0;}\n' > "$PROBE/probe.cc"
  if ${CXX:-c++} "$FLAG" "$PROBE/probe.cc" -o "$PROBE/probe" 2>/dev/null \
      && "$PROBE/probe"; then
    rm -rf "$PROBE"
    cmake -B "$SAN_BUILD_DIR" -S . -DHYPER_SANITIZE="$SAN" >/dev/null
    cmake --build "$SAN_BUILD_DIR" -j"$(nproc)" --target service_test governance_test obs_test net_test durability_test morsel_test golden_test simd_test column_test storage_test howto_test edge_cases_test relational_test whatif_test histogram_test learn_test common_test
    ctest --test-dir "$SAN_BUILD_DIR" --output-on-failure -L service
    ctest --test-dir "$SAN_BUILD_DIR" --output-on-failure -R '^(golden_test|simd_test|column_test|storage_test|howto_test|edge_cases_test|relational_test|whatif_test|histogram_test|learn_test|common_test)$'
  else
    rm -rf "$PROBE"
    echo "${SAN}Sanitizer unavailable in this toolchain; skipping ${2} smoke"
  fi
}

run_sanitizer_leg thread tsan
run_sanitizer_leg address asan
run_sanitizer_leg undefined ubsan

echo "== deadline-stress smoke (randomized tight deadlines) =="
# Hammers the service with randomized near-zero deadlines and asserts every
# outcome is OK or a typed governance abort, then that the caches still
# serve bit-identical answers — a hang, crash or corruption fails the gate.
"$BUILD_DIR"/governance_test \
  --gtest_filter='GovernanceTest.RandomTightDeadlinesNeverHangOrCorrupt'

echo "== shell smoke (number arguments) =="
# The shell's budget counts take only a whole non-negative integer: `-5`
# (which strtoull wrapped to 18446744073709551611) and `abc` (which read as
# 0, unlimited) print the usage line and leave the budget as it was.
SHELL_OUT="$(printf '%s\n' '\budget rows -5' '\budget rows abc' \
  '\budget rows 7' '\quit' | "$BUILD_DIR"/hyper_shell german 2>&1)"
[ "$(printf '%s\n' "$SHELL_OUT" | grep -c 'usage: \\budget')" = "2" ] \
  || { echo "shell smoke: bad budget counts not refused: $SHELL_OUT"; exit 1; }
[ "$(printf '%s\n' "$SHELL_OUT" | grep -o 'budget: .*')" \
    = "budget: deadline 0s, rows 7, bytes 0 (0 = unlimited)" ] \
  || { echo "shell smoke: budgets not as set: $SHELL_OUT"; exit 1; }
echo "shell smoke passed: only 'rows 7' moved the budget"

echo "== shell smoke (branch metadata builds no rows) =="
# A branch overrides only cells, so \tables and \schema read relation names,
# row counts and schemas from the base: after a one-cell apply on a new
# branch they print the base's relations and build none of its rows.
SHELL_OUT="$(printf '%s\n' '\scenario new b' \
  '\scenario apply Use German When Id = 3 Update(Savings) = 2 Output Count(*)' \
  '\tables' '\schema German' '\cache stats' '\quit' \
  | "$BUILD_DIR"/hyper_shell german 2>&1)"
printf '%s\n' "$SHELL_OUT" | grep -q "applied to 'b': 1 row(s) updated" \
  || { echo "shell smoke: one-cell apply on b failed: $SHELL_OUT"; exit 1; }
printf '%s\n' "$SHELL_OUT" | grep -q '> German ([1-9][0-9]* rows)$' \
  || { echo "shell smoke: \\tables did not list German: $SHELL_OUT"; exit 1; }
printf '%s\n' "$SHELL_OUT" | grep -q '> German(Id INT KEY, .*Savings INT' \
  || { echo "shell smoke: \\schema German printed no schema: $SHELL_OUT"; exit 1; }
printf '%s\n' "$SHELL_OUT" | grep -q '^worlds: 0 row build(s)$' \
  || { echo "shell smoke: branch metadata built rows: $SHELL_OUT"; exit 1; }
echo "shell smoke passed: \\tables and \\schema on b built no rows"

echo "== shell smoke (a branch retrain reads the bootstrap memo) =="
# A one-cell Housing delta makes the branch retrain the forest of
# `Update(Status)` (Housing is in its adjustment set), over the trunk's
# (seed, rows, trees): the bootstrap multiplicities come from the
# process-wide memo, so between the trunk's query and the branch's the
# `learn` misses rise by one (a retrain) and the memo's hits rise too. A
# dead memo would leave every answer right; only its counter shows it.
SHELL_OUT="$(printf '%s\n' '\estimator t' \
  'Use German Update(Status) = 1 Output Avg(Post(Credit))' '\cache stats' \
  '\scenario new b' \
  '\scenario apply Use German When Id = 3 Update(Housing) = 2 Output Count(*)' \
  'Use German Update(Status) = 1 Output Avg(Post(Credit))' '\cache stats' \
  '\quit' | "$BUILD_DIR"/hyper_shell german 2>&1)"
read -r LEARN_MAIN LEARN_BRANCH <<<"$(printf '%s\n' "$SHELL_OUT" \
  | sed -n 's/^learn .*| [0-9]* hit(s), \([0-9]*\) miss(es).*/\1/p' | tr '\n' ' ')"
read -r MEMO_MAIN MEMO_BRANCH <<<"$(printf '%s\n' "$SHELL_OUT" \
  | sed -n 's/^bootstrap memo: \([0-9]*\) hit(s).*/\1/p' | tr '\n' ' ')"
[ -n "${LEARN_BRANCH:-}" ] && [ "$LEARN_BRANCH" -eq $((LEARN_MAIN + 1)) ] \
  || { echo "shell smoke: the branch did not retrain: $SHELL_OUT"; exit 1; }
[ -n "${MEMO_BRANCH:-}" ] && [ "$MEMO_BRANCH" -gt "$MEMO_MAIN" ] \
  || { echo "shell smoke: the retrain missed the bootstrap memo: $SHELL_OUT"; exit 1; }
echo "shell smoke passed: the branch retrain hit the bootstrap memo ($MEMO_MAIN -> $MEMO_BRANCH hits)"

echo "== server flag smoke (refused numbers) =="
# The server's count flags take only a whole non-negative integer, and
# --port one in [0, 65535]: `--port abc` (which strtol read as 0, an
# ephemeral port) and `--max-concurrent -1` (which strtoull wrapped) print
# the usage line and exit non-zero before the server listens.
for FLAGS in "--port abc" "--port 0 --max-concurrent -1"; do
  # shellcheck disable=SC2086  # FLAGS is a word list
  FLAG_OUT="$(timeout 60 "$BUILD_DIR"/scenario_server $FLAGS 2>&1)" \
    && FLAG_CODE=0 || FLAG_CODE=$?
  if [ "$FLAG_CODE" = 0 ] || [ "$FLAG_CODE" = 124 ] \
      || ! printf '%s\n' "$FLAG_OUT" | grep -q '^usage: scenario_server' \
      || printf '%s\n' "$FLAG_OUT" | grep -q 'listening on'; then
    echo "server flag smoke: '$FLAGS' not refused (exit $FLAG_CODE): $FLAG_OUT"
    exit 1
  fi
done
echo "server flag smoke passed: both refused before listening"

echo "== server smoke (HTTP serving vs in-process reference) =="
# End-to-end over a real socket: the served what-if must carry the same
# value bits as the in-process reference (the stdin transport shares the
# handler, so it IS the in-process path), governance aborts must arrive as
# their documented HTTP codes, the metrics counters must move, and SIGTERM
# must drain gracefully — finish the in-flight request, 503 new ones, exit 0.
SMOKE_Q='Use German When Status = 1 Update(Status) = 2 Output Count(Credit = 1)'
SMOKE_TMP="$(mktemp -d)"
smoke_fail() {
  echo "smoke: $1"
  [ -n "${SERVER_PID:-}" ] && kill "$SERVER_PID" 2>/dev/null || true
  exit 1
}

printf 'main|%s\n' "$SMOKE_Q" | "$BUILD_DIR"/scenario_server --stdin \
  > "$SMOKE_TMP/ref.json" 2>/dev/null
REF_VALUE="$(grep -o '"value":[^,}]*' "$SMOKE_TMP/ref.json" | head -n1)"
[ -n "$REF_VALUE" ] || smoke_fail "no reference value from --stdin"

"$BUILD_DIR"/scenario_server --port 0 --http-threads 2 \
  > "$SMOKE_TMP/server.log" 2>"$SMOKE_TMP/server.err" &
SERVER_PID=$!
PORT=""
for _ in $(seq 1 240); do
  PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
          "$SMOKE_TMP/server.log")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || smoke_fail "server died on startup"
  sleep 0.5
done
[ -n "$PORT" ] || smoke_fail "server never reported its port"
URL="http://127.0.0.1:$PORT"
BODY="{\"sql\":\"$SMOKE_Q\"}"

COLD="$(curl -sf -X POST "$URL/v1/whatif" -d "$BODY" \
        | grep -o '"value":[^,}]*')"
WARM_JSON="$(curl -sf -X POST "$URL/v1/whatif" -d "$BODY")"
WARM="$(printf '%s' "$WARM_JSON" | grep -o '"value":[^,}]*')"
[ "$COLD" = "$REF_VALUE" ] && [ "$WARM" = "$REF_VALUE" ] \
  || smoke_fail "served value diverged: ref=$REF_VALUE cold=$COLD warm=$WARM"
printf '%s' "$WARM_JSON" | grep -q '"plan_cache_hit":true' \
  || smoke_fail "warm request missed the plan cache"

BATCH="$(curl -sf -X POST "$URL/v1/whatif/batch" \
  -d "{\"sql\":\"$SMOKE_Q\",\"interventions\":[[{\"attribute\":\"Status\",\"value\":2}]]}")"
printf '%s' "$BATCH" | grep -qF "$REF_VALUE" \
  || smoke_fail "batch item diverged from the single-query reference"

curl -sf -X POST "$URL/v1/scenario" \
  -d '{"action":"create","name":"smoke"}' >/dev/null \
  || smoke_fail "scenario create failed"
curl -sf "$URL/v1/scenario" | grep -q '"smoke"' \
  || smoke_fail "created scenario missing from the list"

# A one-cell branch: a what-if on `smoke` bit-equals the sweep item for the
# same intervention, and both read the base relations and the branch's cell
# without building the branch's rows; a select on the branch is the first
# request that builds them.
BRANCH_Q='Use German When Savings = 2 Update(Status) = 2 Output Count(Credit = 1)'
row_builds() {
  curl -sf "$URL/statusz" | grep -o '"row_builds":[0-9]*' | cut -d: -f2
}
curl -sf -X POST "$URL/v1/scenario" \
  -d '{"action":"apply","scenario":"smoke","sql":"Use German When Id = 3 Update(Savings) = 2 Output Count(*)"}' \
  >/dev/null || smoke_fail "apply to scenario smoke failed"
BRANCH_VALUE="$(curl -sf -X POST "$URL/v1/whatif" \
  -d "{\"scenario\":\"smoke\",\"sql\":\"$BRANCH_Q\"}" | grep -o '"value":[^,}]*')"
[ -n "$BRANCH_VALUE" ] || smoke_fail "no value from the what-if on smoke"
curl -sf -X POST "$URL/v1/whatif/batch" \
  -d "{\"scenario\":\"smoke\",\"sql\":\"$BRANCH_Q\",\"interventions\":[[{\"attribute\":\"Status\",\"value\":2}]]}" \
  | grep -qF "$BRANCH_VALUE" \
  || smoke_fail "sweep item on smoke diverged from its what-if ($BRANCH_VALUE)"
[ "$(row_builds)" = "0" ] \
  || smoke_fail "table-view requests on smoke built rows: row_builds $(row_builds)"
curl -sf -X POST "$URL/v1/query" \
  -d '{"scenario":"smoke","sql":"Select Id From German Where Savings = 2"}' \
  >/dev/null || smoke_fail "select on smoke failed"
[ "$(row_builds)" = "1" ] \
  || smoke_fail "the select on smoke did not build its rows once: row_builds $(row_builds)"

METRICS="$(curl -sf "$URL/metrics")"
printf '%s\n' "$METRICS" \
  | grep -q 'hyper_http_requests_total{route="/v1/whatif",code="200"} [1-9]' \
  || smoke_fail "whatif request counter did not move"
printf '%s\n' "$METRICS" \
  | grep -q 'hyper_admission_total{outcome="admitted"} [1-9]' \
  || smoke_fail "admission counter did not move"
printf '%s\n' "$METRICS" | grep -q 'hyper_request_seconds_bucket{' \
  || smoke_fail "latency histogram missing from /metrics"

# Governance over the wire: an exhausted row budget is a 429, on a single
# what-if and on a sweep alike.
GOV_CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$URL/v1/whatif" \
  -d "{\"max_rows\":1,\"sql\":\"$SMOKE_Q\"}")"
[ "$GOV_CODE" = "429" ] || smoke_fail "row-budget abort served as $GOV_CODE, want 429"
GOV_CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$URL/v1/whatif/batch" \
  -d "{\"max_rows\":1,\"sql\":\"$SMOKE_Q\",\"interventions\":[[{\"attribute\":\"Status\",\"value\":2}]]}")"
[ "$GOV_CODE" = "429" ] || smoke_fail "sweep row-budget abort served as $GOV_CODE, want 429"

# A route given another statement kind answers 400 wrong_statement_kind.
KIND_JSON="$(curl -s -w '\n%{http_code}' -X POST "$URL/v1/howto" -d "$BODY")"
printf '%s' "$KIND_JSON" | tail -n1 | grep -qx '400' \
  || smoke_fail "what-if on /v1/howto not answered 400: $KIND_JSON"
printf '%s' "$KIND_JSON" | grep -q '"code":"wrong_statement_kind"' \
  || smoke_fail "what-if on /v1/howto not wrong_statement_kind: $KIND_JSON"

# Graceful drain: park a slow forest request in flight, SIGTERM, then a new
# request must bounce with 503 while the in-flight one still answers 200.
# The request must outlast the 0.8 s before that probe: 32768 trees take
# about 2.5 s on 4 vCPUs.
curl -s -X POST "$URL/v1/whatif" \
  -d "{\"estimator\":\"forest\",\"trees\":32768,\"sql\":\"$SMOKE_Q\"}" \
  -o "$SMOKE_TMP/slow.json" -w '%{http_code}' > "$SMOKE_TMP/slow.code" &
CURL_PID=$!
sleep 0.5
kill -TERM "$SERVER_PID"
sleep 0.3
DRAIN_CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$URL/v1/whatif" \
  -d "$BODY" || true)"
[ "$DRAIN_CODE" = "503" ] \
  || smoke_fail "expected 503 while draining, got $DRAIN_CODE"
wait "$CURL_PID" || true
[ "$(cat "$SMOKE_TMP/slow.code")" = "200" ] \
  || smoke_fail "in-flight request was dropped during drain ($(cat "$SMOKE_TMP/slow.code"))"
SERVER_EXIT=0
wait "$SERVER_PID" || SERVER_EXIT=$?
[ "$SERVER_EXIT" = "0" ] || smoke_fail "server exited $SERVER_EXIT after drain"
rm -rf "$SMOKE_TMP"
echo "server smoke passed: served value $REF_VALUE bit-equal to reference"

echo "== crash-recovery smoke (kill -9 mid-traffic, byte-identical answers) =="
# The durability acceptance gate, end to end over a real socket: mutate
# scenario state on a durable server, kill it with SIGKILL (no drain, no
# final snapshot — only the WAL survives), restart on the same data dir, and
# byte-diff the recovered answers and branch delta fingerprints against both
# the pre-crash server and a never-crashed in-memory reference.
DUR_TMP="$(mktemp -d)"
dur_fail() {
  echo "crash smoke: $1"
  [ -n "${DUR_PID:-}" ] && kill -9 "$DUR_PID" 2>/dev/null || true
  exit 1
}
# Starts a scenario_server ($1: extra args) and sets DUR_PID/DUR_URL.
dur_start() {
  : > "$DUR_TMP/server.log"
  # shellcheck disable=SC2086
  "$BUILD_DIR"/scenario_server --port 0 --http-threads 2 $1 \
    > "$DUR_TMP/server.log" 2>"$DUR_TMP/server.err" &
  DUR_PID=$!
  local PORT=""
  for _ in $(seq 1 240); do
    PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$DUR_TMP/server.log")"
    [ -n "$PORT" ] && break
    kill -0 "$DUR_PID" 2>/dev/null \
      || dur_fail "server died on startup: $(cat "$DUR_TMP/server.err")"
    sleep 0.5
  done
  [ -n "$PORT" ] || dur_fail "server never reported its port"
  DUR_URL="http://127.0.0.1:$PORT"
}
# Same mutation traffic against whichever server is up: branch, two applies,
# one apply on main.
dur_mutate() {
  curl -sf -X POST "$DUR_URL/v1/scenario" \
    -d '{"action":"create","name":"crashy"}' >/dev/null \
    || dur_fail "create failed"
  curl -sf -X POST "$DUR_URL/v1/scenario" \
    -d '{"action":"apply","scenario":"crashy","sql":"Use German When Savings = 0 Update(Credit) = 0 Output Count(*)"}' >/dev/null \
    || dur_fail "apply failed"
  curl -sf -X POST "$DUR_URL/v1/scenario" \
    -d '{"action":"apply","scenario":"main","sql":"Use German When Age = 1 Update(Savings) = 2 Output Count(*)"}' >/dev/null \
    || dur_fail "apply to main failed"
}
# Captures what must survive the crash: every branch's delta fingerprint and
# the what-if answer bytes on both branches.
dur_observe() {
  {
    curl -sf "$DUR_URL/v1/scenario" \
      | grep -o '"name":"[^"]*"\|"delta_fingerprint":"[^"]*"'
    curl -sf -X POST "$DUR_URL/v1/whatif" -d "$BODY" \
      | grep -o '"value":[^,}]*'
    curl -sf -X POST "$DUR_URL/v1/whatif" \
      -d "{\"scenario\":\"crashy\",\"sql\":\"$SMOKE_Q\"}" \
      | grep -o '"value":[^,}]*'
  } > "$1"
  [ -s "$1" ] || dur_fail "no observations captured into $1"
}

dur_start "--data-dir $DUR_TMP/data --fsync always"
dur_mutate
dur_observe "$DUR_TMP/before.txt"
kill -9 "$DUR_PID"
wait "$DUR_PID" 2>/dev/null || true

dur_start "--data-dir $DUR_TMP/data --fsync always"
grep -q "recovered" "$DUR_TMP/server.err" \
  || dur_fail "restarted server did not report recovery"
dur_observe "$DUR_TMP/after.txt"
kill -TERM "$DUR_PID"; wait "$DUR_PID" || dur_fail "recovered server exited non-zero"
diff "$DUR_TMP/before.txt" "$DUR_TMP/after.txt" \
  || dur_fail "post-recovery answers/fingerprints diverged from pre-crash"

# A server that never crashed and never journaled must agree too.
dur_start ""
dur_mutate
dur_observe "$DUR_TMP/reference.txt"
kill -TERM "$DUR_PID"; wait "$DUR_PID" || true
diff <(grep '"value"' "$DUR_TMP/before.txt") \
     <(grep '"value"' "$DUR_TMP/reference.txt") \
  || dur_fail "durable answers diverged from the in-memory reference"
rm -rf "$DUR_TMP"
echo "crash smoke passed: recovered answers byte-identical to pre-crash"

echo "== check passed =="
