#include "obs/metrics.h"

#include <algorithm>
#include <cassert>

#include "common/json.h"

namespace hyper {
namespace obs {

namespace {

std::string MakeKey(std::string_view name, std::string_view labels) {
  std::string key(name);
  key.push_back('\0');
  key.append(labels);
  return key;
}

void SplitKey(const std::string& key, std::string* name, std::string* labels) {
  const size_t sep = key.find('\0');
  *name = key.substr(0, sep);
  *labels = key.substr(sep + 1);
}

std::string SeriesName(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

}  // namespace

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::Observe(double v) {
  // First bucket with v <= bound (Prometheus `le` semantics); everything
  // past the last finite bound lands in the +Inf overflow slot.
  const size_t idx =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> counts(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::vector<double> LatencyBuckets() {
  return {0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
          0.1,     0.25,   0.5,   1.0,    2.5,   5.0,  10.0};
}

double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& counts, double q) {
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  uint64_t cum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (static_cast<double>(cum + counts[i]) < target) {
      cum += counts[i];
      continue;
    }
    if (counts[i] == 0) continue;
    if (i >= bounds.size()) {
      // +Inf overflow bucket has no finite upper edge: clamp.
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double lower = (i == 0) ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    const double within =
        (target - static_cast<double>(cum)) / static_cast<double>(counts[i]);
    return lower + within * (upper - lower);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

// --- MetricsRegistry --------------------------------------------------------

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view labels,
                                     std::string_view help) {
  MutexLock lock(&mu_);
  auto [it, inserted] = counters_.try_emplace(MakeKey(name, labels));
  if (inserted) it->second.help = std::string(help);
  return &it->second.counter;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view labels,
                                 std::string_view help) {
  MutexLock lock(&mu_);
  auto [it, inserted] = gauges_.try_emplace(MakeKey(name, labels));
  if (inserted) it->second.help = std::string(help);
  return &it->second.gauge;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view labels,
                                         std::string_view help,
                                         std::vector<double> bounds) {
  MutexLock lock(&mu_);
  auto [it, inserted] = histograms_.try_emplace(MakeKey(name, labels));
  if (inserted) {
    it->second.help = std::string(help);
    it->second.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return it->second.histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(&mu_);
  for (const auto& [key, entry] : counters_) {
    MetricSample s;
    SplitKey(key, &s.name, &s.labels);
    s.type = MetricType::kCounter;
    s.help = entry.help;
    s.value = static_cast<double>(entry.counter.value());
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [key, entry] : gauges_) {
    MetricSample s;
    SplitKey(key, &s.name, &s.labels);
    s.type = MetricType::kGauge;
    s.help = entry.help;
    s.value = entry.gauge.value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [key, entry] : histograms_) {
    HistogramSample h;
    SplitKey(key, &h.name, &h.labels);
    h.help = entry.help;
    h.bounds = entry.histogram->bounds();
    h.counts = entry.histogram->bucket_counts();
    for (const uint64_t c : h.counts) h.count += c;
    h.sum = entry.histogram->sum();
    h.p50 = HistogramQuantile(h.bounds, h.counts, 0.50);
    h.p95 = HistogramQuantile(h.bounds, h.counts, 0.95);
    h.p99 = HistogramQuantile(h.bounds, h.counts, 0.99);
    snap.histograms.push_back(std::move(h));
  }
  // std::map iteration is already name-ordered; counters and gauges were
  // appended as two sorted runs, so merge them into one ordered list.
  std::stable_sort(snap.samples.begin(), snap.samples.end(),
                   [](const MetricSample& a, const MetricSample& b) {
                     if (a.name != b.name) return a.name < b.name;
                     return a.labels < b.labels;
                   });
  return snap;
}

// --- Rendering --------------------------------------------------------------

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_family;
  auto emit_header = [&](const std::string& name, const std::string& help,
                         const char* type) {
    if (name == last_family) return;
    last_family = name;
    if (!help.empty()) {
      out += "# HELP " + name + " " + help + "\n";
    }
    out += "# TYPE " + name + " " + std::string(type) + "\n";
  };

  for (const MetricSample& s : snapshot.samples) {
    emit_header(s.name, s.help,
                s.type == MetricType::kCounter ? "counter" : "gauge");
    out += SeriesName(s.name, s.labels);
    out += " ";
    if (s.type == MetricType::kCounter) {
      out += std::to_string(static_cast<uint64_t>(s.value));
    } else {
      out += JsonDouble(s.value);
    }
    out += "\n";
  }

  for (const HistogramSample& h : snapshot.histograms) {
    emit_header(h.name, h.help, "histogram");
    uint64_t cum = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cum += h.counts[i];
      std::string labels = h.labels;
      if (!labels.empty()) labels += ",";
      labels += "le=\"" + JsonDouble(h.bounds[i]) + "\"";
      out += h.name + "_bucket{" + labels + "} " + std::to_string(cum) + "\n";
    }
    cum += h.counts.back();
    std::string inf_labels = h.labels;
    if (!inf_labels.empty()) inf_labels += ",";
    inf_labels += "le=\"+Inf\"";
    out += h.name + "_bucket{" + inf_labels + "} " + std::to_string(cum) +
           "\n";
    out += SeriesName(h.name + "_sum", h.labels) + " " + JsonDouble(h.sum) +
           "\n";
    out += SeriesName(h.name + "_count", h.labels) + " " +
           std::to_string(h.count) + "\n";
  }
  return out;
}

std::string RenderJson(const MetricsSnapshot& snapshot) {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginArray();
  for (const MetricSample& s : snapshot.samples) {
    if (s.type != MetricType::kCounter) continue;
    w.BeginObject()
        .Key("name").String(s.name)
        .Key("labels").String(s.labels)
        .Key("value").UInt(static_cast<uint64_t>(s.value))
        .EndObject();
  }
  w.EndArray();
  w.Key("gauges").BeginArray();
  for (const MetricSample& s : snapshot.samples) {
    if (s.type != MetricType::kGauge) continue;
    w.BeginObject()
        .Key("name").String(s.name)
        .Key("labels").String(s.labels)
        .Key("value").Double(s.value)
        .EndObject();
  }
  w.EndArray();
  w.Key("histograms").BeginArray();
  for (const HistogramSample& h : snapshot.histograms) {
    w.BeginObject()
        .Key("name").String(h.name)
        .Key("labels").String(h.labels)
        .Key("count").UInt(h.count)
        .Key("sum").Double(h.sum)
        .Key("p50").Double(h.p50)
        .Key("p95").Double(h.p95)
        .Key("p99").Double(h.p99)
        .EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

}  // namespace obs
}  // namespace hyper
