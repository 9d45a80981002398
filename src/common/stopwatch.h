#ifndef HYPER_COMMON_STOPWATCH_H_
#define HYPER_COMMON_STOPWATCH_H_

#include <chrono>

namespace hyper {

/// Wall-clock stopwatch used by the benchmark harnesses.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  using Clock = std::chrono::steady_clock;

  void Restart() { start_ = Clock::now(); }

  /// Elapsed wall time since construction or last Restart(), in clock
  /// ticks: intervals summed as ticks convert to seconds without rounding.
  Clock::duration Elapsed() const { return Clock::now() - start_; }

  /// Elapsed wall time in seconds since construction or last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Elapsed()).count();
  }

 private:
  Clock::time_point start_;
};

}  // namespace hyper

#endif  // HYPER_COMMON_STOPWATCH_H_
