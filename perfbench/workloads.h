// The four benchmark workloads and the closed-loop driver that runs them.
//
//   whatif_scan_250k  in-process what-if Submits over 250k german-syn rows
//   howto_adult       in-process how-to Submits over adult (32k rows)
//   branch_rw_20k     scenario sessions (create, apply, query, drop) with
//                     the WAL on, over 20k german-syn rows
//   http_serve        HTTP/1.1 keep-alive what-if requests over loopback
//
// Every workload builds its data and service from scratch in Setup(), warms
// every statement shape there, and then answers the seeded operation
// sequence in a closed loop: a client sends its next operation only after
// the previous one returned.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// One generated operation: `text` holds the exact bytes the program
/// receives (a statement, a session script, or an HTTP request body).
struct Op {
  uint64_t index = 0;
  std::string kind;
  std::string text;
};

/// Running sums of per-operation counters (thread-safe).
class Sums {
 public:
  void Add(const std::string& name, double v);
  double Get(const std::string& name) const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> sums_;
};

/// Monotone counters read from the program's own stats surfaces
/// (PlanCacheStats, GovernanceStats, WalStats, HttpServer::Stats); the
/// driver reports their deltas over the measured window.
using Counters = std::map<std::string, double>;

class Workload {
 public:
  explicit Workload(uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual const char* name() const = 0;
  /// Concurrent closed-loop clients.
  virtual size_t clients() const { return 1; }
  /// Length of the block over which the operation mix is exact. A window
  /// ends on a block boundary, so per-operation counts equal the mix.
  virtual uint64_t block() const { return 1; }
  /// Operation `index` of this seed's sequence (a pure function).
  virtual Op Generate(uint64_t index) const = 0;
  /// Builds the dataset and service and warms every statement shape,
  /// replacing any earlier state. False (with `error`) on failure.
  virtual bool Setup(std::string* error) = 0;
  /// Answers one operation against the live state; false when the program
  /// returned an error. `parent` is the caller's span.
  virtual bool Run(size_t client, const Op& op, Tracer* tracer,
                   int64_t parent) = 0;
  /// Which completed operations (ascending indices, all answered OK) the
  /// correctness gate re-answers. Default: 8 evenly spaced.
  virtual std::vector<uint64_t> PickSample(
      const std::vector<uint64_t>& done) const;
  /// Answers the sampled operations again outside the window, through the
  /// reference path, and counts answers that differ in any bit.
  virtual size_t Verify(const std::vector<uint64_t>& sample,
                        std::string* detail) = 0;
  /// Snapshot of the program's monotone counters.
  virtual Counters ReadCounters() const = 0;
  /// Layer metrics that need extra program calls after the window (e.g.
  /// sched.speedup_4t); run only in traced mode.
  virtual void ExtraLayerMetrics(std::vector<Metric>* /*out*/) {}
  /// Releases the live state (servers stopped, temp dirs removed).
  virtual void Teardown() {}

  uint64_t seed() const { return seed_; }
  Sums& sums() { return sums_; }

  /// Test hook: flips the low bit of the recorded answer of `index`, so the
  /// correctness gate must report it.
  void CorruptAnswer(uint64_t index);

 protected:
  /// The answer an operation produced in the window, kept for Verify.
  struct Answer {
    std::vector<double> values;  // one per answered statement
    std::string plan;            // how-to plan text
  };
  void RecordAnswer(uint64_t index, Answer answer);
  bool FindAnswer(uint64_t index, Answer* answer) const;

  const uint64_t seed_;
  Sums sums_;

 private:
  mutable std::mutex answers_mu_;
  std::map<uint64_t, Answer> answers_;
};

/// Construction knobs. The self-tests shrink `rows_factor` to run the real
/// workloads small.
struct WorkloadParams {
  double rows_factor = 1.0;
  /// Directory (inside the checkout) for trace files and the WAL.
  std::string work_dir = ".bench_build/work";
};

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const WorkloadParams& params = {});

std::vector<std::string> WorkloadNames();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  WorkloadParams params;
};

/// Runs one workload end to end: setups, measured window(s), correctness
/// gate, metrics. Human-readable progress goes to stderr.
RunReport RunWorkload(const RunConfig& config);

/// Writes ops [0, n) of `workload` as bytes (self-test and audit).
std::string SerializeOps(const Workload& workload, uint64_t n);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
