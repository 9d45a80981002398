#ifndef HYPER_BENCH_BENCH_UTIL_H_
#define HYPER_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace hyper::bench {

/// Common bench flags. Every bench binary runs with no arguments at a
/// scaled-down size (so `for b in build/bench/*; do $b; done` finishes in
/// minutes); `--full` switches to paper-scale parameters.
struct BenchFlags {
  bool full = false;
  double scale = -1.0;  // explicit override of the dataset scale
  uint64_t seed = 23;

  /// Dataset scale to use: explicit --scale wins, then --full (1.0),
  /// else the bench's default.
  double ScaleOr(double default_scale) const {
    if (scale > 0) return scale;
    return full ? 1.0 : default_scale;
  }
};

inline BenchFlags ParseFlags(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      flags.full = true;
    } else if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      flags.scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      flags.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("flags: --full | --scale=<0..1> | --seed=<n>\n");
      std::exit(0);
    }
  }
  return flags;
}

/// Fixed-width table printer for paper-shaped output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int width = 14)
      : headers_(std::move(headers)), width_(width) {}

  void PrintHeader() const {
    for (const std::string& h : headers_) {
      std::printf("%-*s", width_, h.c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < headers_.size() * static_cast<size_t>(width_);
         ++i) {
      std::printf("-");
    }
    std::printf("\n");
  }

  void PrintRow(const std::vector<std::string>& cells) const {
    for (const std::string& c : cells) {
      std::printf("%-*s", width_, c.c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  int width_;
};

inline std::string Fmt(double v, const char* fmt = "%.4g") {
  return StrFormat(fmt, v);
}

inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Aborts the bench with a message when a Result/Status is an error: bench
/// harnesses have no meaningful recovery path.
template <typename T>
T Unwrap(hyper::Result<T> result, const char* context) {
  if (!result.ok()) {
    std::fprintf(stderr, "[bench] %s failed: %s\n", context,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

inline void CheckOk(const hyper::Status& status, const char* context) {
  if (!status.ok()) {
    std::fprintf(stderr, "[bench] %s failed: %s\n", context,
                 status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace hyper::bench

#endif  // HYPER_BENCH_BENCH_UTIL_H_
