#ifndef HYPER_OBS_METRICS_H_
#define HYPER_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace hyper {
namespace obs {

/// Lock-cheap metrics primitives for the serving layer. Registration takes a
/// registry mutex once; after that, every Increment/Set/Observe is a handful
/// of relaxed atomic ops on stable storage — cheap enough to sit on the
/// per-request hot path of the scenario service.
///
/// Snapshot() copies all instruments under the registry mutex into plain
/// structs which RenderPrometheus()/RenderJson() format for `/metrics` and
/// `/statusz`. Relaxed loads mean a snapshot taken during traffic is not a
/// single linearization point across instruments, but each individual series
/// is monotone and internally consistent (histogram count == sum of bucket
/// counts as sampled).

/// Monotonic event counter.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value (queue depth, drain flag, cache occupancy).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `bounds` are strictly increasing finite upper
/// bounds with Prometheus `le` semantics: an observation v lands in the
/// first bucket with v <= bound, or the implicit +Inf overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size bounds()+1, last is +Inf.
  std::vector<uint64_t> bucket_counts() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
};

/// Default latency bucket layout: 250us .. 10s, roughly log-spaced. Covers
/// sub-millisecond cache hits through multi-second cold forest training.
std::vector<double> LatencyBuckets();

/// Estimates the q-quantile (q in (0,1)) from bucket counts by linear
/// interpolation within the owning bucket. The first bucket interpolates
/// from 0; observations in the +Inf bucket clamp to the last finite bound.
/// Returns 0 when the histogram is empty.
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& counts, double q);

enum class MetricType { kCounter, kGauge };

struct MetricSample {
  std::string name;
  std::string labels;  // rendered "k=\"v\",..." or empty
  MetricType type = MetricType::kCounter;
  std::string help;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::string labels;
  std::string help;
  std::vector<double> bounds;
  std::vector<uint64_t> counts;  // non-cumulative, size bounds+1
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;       // sorted by (name, labels)
  std::vector<HistogramSample> histograms;  // sorted by (name, labels)
};

/// Owns all instruments. GetCounter/GetGauge/GetHistogram intern the
/// (name, labels) pair and return a stable pointer valid for the registry's
/// lifetime; repeat calls with the same key return the same instrument.
/// `labels` is the pre-rendered Prometheus label body, e.g.
/// `kind="whatif",outcome="ok"` — empty for an unlabeled series.
class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view name, std::string_view labels = "",
                      std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::string_view labels = "",
                  std::string_view help = "");
  Histogram* GetHistogram(std::string_view name, std::string_view labels = "",
                          std::string_view help = "",
                          std::vector<double> bounds = LatencyBuckets());

  MetricsSnapshot Snapshot() const;

 private:
  struct CounterEntry {
    std::string help;
    Counter counter;
  };
  struct GaugeEntry {
    std::string help;
    Gauge gauge;
  };
  struct HistogramEntry {
    std::string help;
    std::unique_ptr<Histogram> histogram;
  };

  mutable Mutex mu_;
  // Keyed by name + "\0" + labels; node-based maps keep pointers stable, so
  // instrument pointers stay valid outside mu_ — only the map structure is
  // guarded, never the (atomic) instrument payloads.
  std::map<std::string, CounterEntry> counters_ GUARDED_BY(mu_);
  std::map<std::string, GaugeEntry> gauges_ GUARDED_BY(mu_);
  std::map<std::string, HistogramEntry> histograms_ GUARDED_BY(mu_);
};

/// Prometheus text exposition format (version 0.0.4): HELP/TYPE headers per
/// family, cumulative `_bucket{le=...}` series plus `_sum`/`_count` for
/// histograms.
std::string RenderPrometheus(const MetricsSnapshot& snapshot);

/// JSON rendering of the same snapshot (used by `/statusz` and the shell's
/// `\metrics`): {"counters":{...},"gauges":{...},"histograms":{...}} with
/// quantiles inline.
std::string RenderJson(const MetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace hyper

#endif  // HYPER_OBS_METRICS_H_
