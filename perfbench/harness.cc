#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <numeric>
#include <unordered_map>

namespace perfbench {

UniqueDraw::UniqueDraw(uint64_t seed, uint64_t salt, uint64_t n)
    : n_(n == 0 ? 1 : n) {
  a_ = Mix(seed, 0, salt) % n_;
  while (a_ == 0 || std::gcd(a_, n_) != 1) a_ = (a_ + 1) % n_;
  c_ = Mix(seed, 1, salt) % n_;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

int64_t Tracer::Begin(const std::string& name, uint64_t op, int64_t parent) {
  if (!enabled_) return -1;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, op, false});
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::End(int64_t index) {
  if (!enabled_ || index < 0) return;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = now;
}

int64_t Tracer::Reported(const std::string& name, double seconds,
                         int64_t parent, uint64_t op, double tail) {
  if (!enabled_ || parent < 0) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  const double end = spans_[static_cast<size_t>(parent)].end - tail;
  spans_.push_back(Span{name, end - seconds, end, parent, op, true});
  return static_cast<int64_t>(spans_.size() - 1);
}

double Tracer::SelfSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, double> covered;
  for (const Span& s : spans_) {
    if (s.parent >= 0 && spans_[static_cast<size_t>(s.parent)].name == name) {
      covered[s.parent] += s.end - s.start;
    }
  }
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    auto it = covered.find(static_cast<int64_t>(i));
    total += (spans_[i].end - spans_[i].start) -
             (it == covered.end() ? 0.0 : it->second);
  }
  return total;
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
        << ",\"start_us\":" << JsonNumber((s.start - origin) * 1e6)
        << ",\"end_us\":" << JsonNumber((s.end - origin) * 1e6)
        << ",\"reported\":" << (s.reported ? "true" : "false") << "}\n";
  }
  return static_cast<bool>(out);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string ReportJson(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
