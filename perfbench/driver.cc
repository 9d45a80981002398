// The closed-loop driver shared by every workload: set-ups, the measured
// window, the correctness gate, and the end-to-end / per-layer metrics.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "workloads.h"

namespace perfbench {

void Sums::Add(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  sums_[name] += v;
}

double Sums::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second;
}

void Sums::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  sums_.clear();
}

void Workload::RecordAnswer(uint64_t index, Answer answer) {
  std::lock_guard<std::mutex> lock(answers_mu_);
  answers_[index] = std::move(answer);
}

bool Workload::FindAnswer(uint64_t index, Answer* answer) const {
  std::lock_guard<std::mutex> lock(answers_mu_);
  auto it = answers_.find(index);
  if (it == answers_.end()) return false;
  *answer = it->second;
  return true;
}

void Workload::CorruptAnswer(uint64_t index) {
  std::lock_guard<std::mutex> lock(answers_mu_);
  auto it = answers_.find(index);
  if (it == answers_.end() || it->second.values.empty()) return;
  double& v = it->second.values.front();
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= 1;
  std::memcpy(&v, &bits, sizeof(bits));
}

std::vector<uint64_t> Workload::PickSample(
    const std::vector<uint64_t>& done) const {
  constexpr size_t kSample = 8;
  std::vector<uint64_t> sample;
  if (done.empty()) return sample;
  const size_t n = std::min(kSample, done.size());
  for (size_t k = 0; k < n; ++k) {
    sample.push_back(done[(2 * k + 1) * done.size() / (2 * n)]);
  }
  return sample;
}

std::string SerializeOps(const Workload& workload, uint64_t n) {
  std::string out;
  for (uint64_t i = 0; i < n; ++i) {
    const Op op = workload.Generate(i);
    out += std::to_string(op.index) + '\t' + op.kind + '\t' + op.text + '\n';
  }
  return out;
}

namespace {

/// Set-ups per run: at least kMinSetups, then more until kMinSetupSeconds
/// have passed (at most kMaxSetups), so the median of a set-up that takes
/// milliseconds still rests on enough samples to be steady.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 40;
constexpr double kMinSetupSeconds = 1.0;

struct Window {
  double seconds = 0.0;  // first start to last completion
  std::vector<double> latencies;  // seconds, successful operations
  std::vector<uint64_t> done;     // indices answered OK, ascending
  std::map<std::string, std::vector<double>> by_kind;  // latencies per kind
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t next_index = 0;

  double throughput() const {
    return seconds > 0 ? static_cast<double>(latencies.size()) / seconds
                       : 0.0;
  }
};

/// Runs the closed loop for `seconds`: each client takes the next operation
/// index, answers it, and only then takes another. Operations started
/// before the deadline run to completion and count; after the deadline,
/// clients keep taking operations until the next index starts a block.
Window RunWindow(Workload& workload, double seconds, uint64_t first_index,
                 Tracer* tracer) {
  std::atomic<uint64_t> next{first_index};
  const size_t clients = workload.clients();
  struct ClientLog {
    std::vector<double> latencies;
    std::vector<uint64_t> done;
    std::map<std::string, std::vector<double>> by_kind;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double last_end = 0.0;
  };
  std::vector<ClientLog> logs(clients);
  const double start = Now();
  const double deadline = start + seconds;
  auto loop = [&](size_t c) {
    ClientLog& log = logs[c];
    const uint64_t block = workload.block();
    for (;;) {
      uint64_t index = next.load();
      if (Now() >= deadline && (index - first_index) % block == 0) break;
      if (!next.compare_exchange_weak(index, index + 1)) continue;
      const Op op = workload.Generate(index);
      SpanScope span(tracer, "client.op", op.index);
      const double t0 = Now();
      const bool ok = workload.Run(c, op, tracer, span.index());
      const double t1 = Now();
      span.Finish();
      ++log.attempted;
      if (ok) {
        log.latencies.push_back(t1 - t0);
        log.done.push_back(op.index);
        log.by_kind[op.kind].push_back(t1 - t0);
      } else {
        ++log.failed;
      }
      log.last_end = t1;
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < clients; ++c) threads.emplace_back(loop, c);
  loop(0);
  for (std::thread& t : threads) t.join();

  Window w;
  double last_end = start;
  for (ClientLog& log : logs) {
    w.latencies.insert(w.latencies.end(), log.latencies.begin(),
                       log.latencies.end());
    w.done.insert(w.done.end(), log.done.begin(), log.done.end());
    for (auto& [kind, lat] : log.by_kind) {
      std::vector<double>& all = w.by_kind[kind];
      all.insert(all.end(), lat.begin(), lat.end());
    }
    w.attempted += log.attempted;
    w.failed += log.failed;
    last_end = std::max(last_end, log.last_end);
  }
  std::sort(w.done.begin(), w.done.end());
  w.seconds = last_end - start;
  w.next_index = next.load();
  return w;
}

double Delta(const Counters& before, const Counters& after,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double Value(const Counters& counters, const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Every per-layer metric, from the traced window: spans for self times,
/// per-operation sums for work counts, counter deltas for the program's own
/// stats. A layer a workload does not exercise reports 0.
std::vector<Metric> LayerMetrics(Workload& w, const Tracer& tracer,
                                 const Counters& before,
                                 const Counters& after, const Window& traced,
                                 const Window& untraced, uint64_t attempted,
                                 uint64_t failed) {
  const double n = std::max<double>(1.0, traced.latencies.size());
  const Sums& s = w.sums();
  auto per_op_ms = [&](double seconds) { return seconds / n * 1e3; };
  auto per_op = [&](double v) { return v / n; };
  auto d = [&](const char* name) { return Delta(before, after, name); };
  std::vector<Metric> m = {
      {"net.self_ms", per_op_ms(tracer.SelfSeconds("http.request")), "ms"},
      // HttpServer::Stats, set by http_serve's ExtraLayerMetrics.
      {"net.requests_per_conn", 0.0, "count"},
      {"net.parse_errors", 0.0, "count"},
      {"handler.self_ms", per_op_ms(tracer.SelfSeconds("handler")), "ms"},
      {"handler.bytes_out", per_op(s.Get("handler.bytes_out")), "B"},
      {"sql.parse_ms", per_op_ms(tracer.TotalSeconds("sql.parse")), "ms"},
      {"service.self_ms", per_op_ms(tracer.SelfSeconds("service")), "ms"},
      {"service.admission_wait_frac",
       Ratio(d("gov.queued"), d("gov.admitted")), "ratio"},
      {"service.plan_hit_ratio",
       Ratio(d("plan.hits"), d("plan.hits") + d("plan.misses") +
                                 d("plan.coalesced")),
       "ratio"},
      {"stage.scope.builds_per_op", per_op(d("stage.scope.builds")), "count"},
      {"stage.causal.builds_per_op", per_op(d("stage.causal.builds")),
       "count"},
      {"stage.learn.builds_per_op", per_op(d("stage.learn.builds")), "count"},
      {"stage.query.builds_per_op", per_op(d("stage.query.builds")), "count"},
      {"stage.learn.entries", Value(after, "stage.learn.entries"), "count"},
      {"stage.evictions", d("stage.evictions"), "count"},
      {"whatif.prepare_ms", per_op_ms(tracer.TotalSeconds("whatif.prepare")),
       "ms"},
      {"whatif.eval_ms", per_op_ms(tracer.TotalSeconds("whatif.eval")), "ms"},
      {"whatif.rows_per_op", per_op(s.Get("whatif.rows")), "count"},
      {"whatif.updated_rows_per_op", per_op(s.Get("whatif.updated_rows")),
       "count"},
      {"whatif.patterns_per_op", per_op(s.Get("whatif.patterns")), "count"},
      {"whatif.blocks_per_op", per_op(s.Get("whatif.blocks")), "count"},
      {"sched.speedup_4t", 0.0, "x"},
      {"learn.train_ms", per_op_ms(s.Get("learn.train_s")), "ms"},
      {"learn.pattern_hit_ratio",
       Ratio(s.Get("learn.pattern_hits"), s.Get("whatif.patterns")), "ratio"},
      {"branch.create_ms", per_op_ms(tracer.TotalSeconds("branch.create")),
       "ms"},
      {"branch.apply_ms", per_op_ms(tracer.TotalSeconds("branch.apply")),
       "ms"},
      {"branch.query_ms", per_op_ms(tracer.TotalSeconds("branch.query")),
       "ms"},
      {"branch.drop_ms", per_op_ms(tracer.TotalSeconds("branch.drop")), "ms"},
      {"wal.appends_per_op", per_op(d("wal.appends")), "count"},
      {"wal.bytes_per_op", per_op(d("wal.bytes")), "B"},
      {"howto.candidates_per_op", per_op(s.Get("howto.candidates")), "count"},
      {"howto.pruned_per_op", per_op(s.Get("howto.pruned")), "count"},
      {"howto.eval_ms", per_op_ms(tracer.TotalSeconds("howto.eval")), "ms"},
      {"howto.plan_hits_per_op", per_op(s.Get("howto.plan_hits")), "count"},
      {"opt.solve_ms", per_op_ms(tracer.SelfSeconds("howto")), "ms"},
      {"opt.solver_nodes_per_op", per_op(s.Get("opt.solver_nodes")),
       "count"},
      {"opt.mck_frac", per_op(s.Get("opt.mck")), "ratio"},
      {"trace.overhead_frac",
       1.0 - Ratio(traced.throughput(), untraced.throughput()), "ratio"},
      {"failed_frac", Ratio(static_cast<double>(failed),
                            static_cast<double>(attempted)),
       "ratio"},
  };
  std::vector<Metric> extra;
  w.ExtraLayerMetrics(&extra);
  for (const Metric& e : extra) {
    for (Metric& x : m) {
      if (x.name == e.name) x = e;
    }
  }
  return m;
}

void MakeDirs(const std::string& path) {
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!partial.empty()) ::mkdir(partial.c_str(), 0755);
    }
    if (i < path.size()) partial += path[i];
  }
}

}  // namespace

RunReport RunWorkload(const RunConfig& config) {
  RunReport report;
  MakeDirs(config.params.work_dir);
  std::unique_ptr<Workload> w =
      MakeWorkload(config.workload, config.seed, config.params);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    report.correct = false;
    return report;
  }

  // Set-up: data generation, service construction and the cold first
  // prepare of every statement shape, repeated; setup_s is the median.
  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.size() < kMinSetups ||
         (setup_total < kMinSetupSeconds && setups.size() < kMaxSetups)) {
    std::string error;
    const double t0 = Now();
    const bool ok = w->Setup(&error);
    setups.push_back(Now() - t0);
    setup_total += setups.back();
    if (!ok) {
      std::fprintf(stderr, "[%s] set-up failed: %s\n", w->name(),
                   error.c_str());
      w->Teardown();
      report.correct = false;
      return report;
    }
  }
  const double setup_s = Percentile(setups, 0.5);
  std::fprintf(stderr, "[%s] %zu set-up(s), median %.3fs\n", w->name(),
               setups.size(), setup_s);

  Tracer off(false);
  Tracer on(true);
  Window untraced, traced;
  Counters before, after;
  if (!config.trace) {
    untraced = RunWindow(*w, config.seconds, 0, &off);
  } else {
    // Half the window untraced, half traced: the throughput ratio is the
    // cost of tracing; the layer metrics come from the traced half only.
    untraced = RunWindow(*w, config.seconds / 2, 0, &off);
    w->sums().Clear();
    before = w->ReadCounters();
    traced = RunWindow(*w, config.seconds / 2, untraced.next_index, &on);
    after = w->ReadCounters();
  }
  const Window& measured = config.trace ? traced : untraced;
  // Read before the correctness gate: its fresh, uncached runs are not part
  // of the workload.
  const double peak_rss_mb = PeakRssMb();
  report.attempted = untraced.attempted + traced.attempted;
  report.failed = untraced.failed + traced.failed;

  // Correctness gate, outside the timed window.
  std::vector<uint64_t> done = untraced.done;
  done.insert(done.end(), traced.done.begin(), traced.done.end());
  std::string detail;
  const std::vector<uint64_t> sample = w->PickSample(done);
  const double gate_start = Now();
  const size_t mismatches = w->Verify(sample, &detail);
  std::fprintf(stderr, "[%s] correctness gate: %zu operation(s) in %.3fs\n",
               w->name(), sample.size(), Now() - gate_start);
  if (mismatches != 0) {
    std::fprintf(stderr, "[%s] correctness gate: %zu mismatch(es)\n%s",
                 w->name(), mismatches, detail.c_str());
  }
  report.failed += mismatches;
  report.correct = mismatches == 0 && report.failed == 0 && !done.empty();

  if (!config.trace) {
    const double p50 = Percentile(measured.latencies, 0.50) * 1e3;
    const double p95 = Percentile(measured.latencies, 0.95) * 1e3;
    report.metrics = {
        {"setup_s", setup_s, "s"},
        {"throughput_ops", measured.throughput(), "1/s"},
        {"answer_p50_ms", p50, "ms"},
        {"answer_p95_ms", p95, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    report.metrics = LayerMetrics(*w, on, before, after, traced, untraced,
                                  report.attempted, report.failed);
    const std::string path = config.params.work_dir + "/trace-" +
                             w->name() + "-" + std::to_string(config.seed) +
                             ".jsonl";
    if (on.WriteJsonLines(path)) {
      std::fprintf(stderr, "[%s] spans written to %s\n", w->name(),
                   path.c_str());
    }
  }

  std::fprintf(stderr,
               "[%s] seed %llu: %zu ok of %llu attempted in %.2fs, "
               "%zu sampled for the gate, %zu mismatch(es)\n",
               w->name(), static_cast<unsigned long long>(config.seed),
               measured.latencies.size(),
               static_cast<unsigned long long>(report.attempted),
               measured.seconds, sample.size(), mismatches);
  for (const Metric& m : report.metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "  %-28s %14zu\n", "answer_samples",
               measured.latencies.size());
  for (const auto& [kind, lat] : measured.by_kind) {
    std::fprintf(stderr, "  kind %-16s n=%-7zu p50 %9.3f ms  p95 %9.3f ms\n",
                 kind.c_str(), lat.size(), Percentile(lat, 0.5) * 1e3,
                 Percentile(lat, 0.95) * 1e3);
  }
  w->Teardown();
  return report;
}

}  // namespace perfbench
