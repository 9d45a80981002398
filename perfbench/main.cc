// Benchmark driver entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// The last line of stdout is the JSON result the benchmark contract asks
// for; progress and the human-readable table go to stderr. Exit status is 0
// only when every operation succeeded and the correctness gate matched.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool Near(double a, double b) { return a - b < 1e-12 && b - a < 1e-12; }

/// Self-tests of the benchmark's own code: seeded generation, the
/// percentile helper, and the correctness gate of every workload.
int SelfTest(const std::string& work_dir) {
  std::fprintf(stderr, "seeded generation\n");
  for (const std::string& name : WorkloadNames()) {
    const std::string a = SerializeOps(*MakeWorkload(name, 7), 2000);
    const std::string b = SerializeOps(*MakeWorkload(name, 7), 2000);
    const std::string c = SerializeOps(*MakeWorkload(name, 8), 2000);
    Expect(a == b, name + ": seed 7 twice gives byte-identical operations");
    Expect(a != c, name + ": seeds 7 and 8 give different operations");
  }
  auto count_kind = [](const std::string& name, const std::string& kind) {
    auto w = MakeWorkload(name, 11);
    size_t n = 0;
    for (uint64_t i = 0; i < 1000; ++i) n += w->Generate(i).kind == kind;
    return n;
  };
  Expect(count_kind("whatif_scan_250k", "fresh_when") == 100,
         "whatif_scan_250k: exactly 1 in 10 operations has a fresh When");
  Expect(count_kind("whatif_scan_250k", "warm3") == 50 &&
             count_kind("whatif_scan_250k", "warm4") == 50,
         "whatif_scan_250k: exactly 1 in 10 operations has a For, split "
         "evenly over the two For shapes");
  Expect(count_kind("branch_rw_20k", "housing") == 250,
         "branch_rw_20k: exactly 1 in 4 sessions touches Housing");
  Expect(count_kind("http_serve", "batch") == 100,
         "http_serve: exactly 1 in 10 requests is a batch sweep");
  Expect(count_kind("howto_adult", "shape0") == 200,
         "howto_adult: the 5 shapes rotate evenly");

  std::fprintf(stderr, "percentile helper\n");
  Expect(Near(Percentile({1, 2, 3, 4}, 0.5), 2.5), "median of 1..4 is 2.5");
  Expect(Near(Percentile({4, 1, 3, 2}, 0.95), 3.85),
         "p95 of 1..4 is 3.85 (rank 2.85)");
  Expect(Near(Percentile({10, 20}, 0.25), 12.5), "p25 of {10,20} is 12.5");
  Expect(Near(Percentile({3, 1, 2}, 0.0), 1.0), "p0 is the minimum");
  Expect(Near(Percentile({3, 1, 2}, 1.0), 3.0), "p100 is the maximum");
  Expect(Near(Percentile({5}, 0.95), 5.0), "one sample is every percentile");
  Expect(Percentile({}, 0.5) == 0.0, "no samples give 0");

  std::fprintf(stderr, "correctness gate (small data)\n");
  WorkloadParams small;
  small.rows_factor = 0.02;
  small.work_dir = work_dir;
  for (const std::string& name : WorkloadNames()) {
    auto w = MakeWorkload(name, 5, small);
    std::string error;
    if (!w->Setup(&error)) {
      Expect(false, name + ": set-up (" + error + ")");
      continue;
    }
    Tracer off(false);
    std::vector<uint64_t> done;
    for (uint64_t i = 0; i < 40; ++i) {
      if (w->Run(0, w->Generate(i), &off, -1)) done.push_back(i);
    }
    Expect(done.size() == 40, name + ": 40 operations answered");
    const std::vector<uint64_t> sample = w->PickSample(done);
    std::string detail;
    Expect(!sample.empty() && w->Verify(sample, &detail) == 0,
           name + ": the gate accepts the true answers");
    if (!sample.empty()) w->CorruptAnswer(sample.front());
    detail.clear();
    Expect(w->Verify(sample, &detail) == 1,
           name + ": one corrupted answer trips the gate");
    w->Teardown();
  }
  std::fprintf(stderr, "%s (%d failure(s))\n",
               g_failures == 0 ? "self-test passed" : "self-test FAILED",
               g_failures);
  return g_failures == 0 ? 0 : 1;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n"
               "       perfbench --selftest [--work-dir <dir>]\n"
               "workloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir" && has_value) {
      config.params.work_dir = argv[++i];
    } else {
      Usage();
      return 2;
    }
  }
  if (selftest) return SelfTest(config.params.work_dir);
  if (config.workload.empty() || config.seconds <= 0) {
    Usage();
    return 2;
  }
  const RunReport report = RunWorkload(config);
  if (report.metrics.empty()) return 1;  // set-up failed: no result line
  std::printf("%s\n", ReportJson(report).c_str());
  return report.correct ? 0 : 1;
}
