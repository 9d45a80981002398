#ifndef HYPER_COMMON_STOPWATCH_H_
#define HYPER_COMMON_STOPWATCH_H_

#include <chrono>

namespace hyper {

/// Wall-clock stopwatch used by the benchmark harnesses.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed wall time in seconds since construction or last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace hyper

#endif  // HYPER_COMMON_STOPWATCH_H_
