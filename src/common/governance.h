#ifndef HYPER_COMMON_GOVERNANCE_H_
#define HYPER_COMMON_GOVERNANCE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>

#include "common/status.h"

namespace hyper {

/// Cooperative cancellation handle. Copies share one flag; the default-
/// constructed token is *detached* (no allocation, never cancelled), so
/// option structs can carry one by value at zero cost. `CancelToken::Make()`
/// creates an attached token the owner can trip from any thread; engines
/// poll it at stage boundaries and inside hot loops — cancellation is
/// cooperative, never preemptive, so an aborted query always unwinds
/// through normal Status returns and leaves caches consistent.
class CancelToken {
 public:
  CancelToken() = default;

  /// An attached token whose `RequestCancel` is observable by all copies.
  static CancelToken Make() {
    CancelToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  /// Asks every holder to abort at its next checkpoint. No-op when detached.
  void RequestCancel() const {
    if (flag_ != nullptr) flag_->store(true, std::memory_order_relaxed);
  }

  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

  /// Whether this token can ever report cancellation.
  bool attached() const { return flag_ != nullptr; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Declarative per-query resource limits. Zero means unlimited, so the
/// default-constructed budget governs nothing. Budgets are request
/// parameters, not plan parameters: they never enter a cache key, so a
/// budgeted retry of an aborted query hits the same cache entries and
/// answers bit-identically to an ungoverned run.
struct QueryBudget {
  /// Wall-clock limit for the whole request, armed when the ExecGuard is
  /// created (steady_clock, the same clock as common/stopwatch.h).
  double deadline_seconds = 0.0;
  /// Upper bound on rows the request may touch (view scans, training rows,
  /// evaluated tuples — coarse accounting, charged at loop granularity).
  size_t max_rows_touched = 0;
  /// Upper bound on bytes the request may materialize (columnar images,
  /// training matrices — coarse accounting, charged at allocation sites).
  size_t max_bytes_materialized = 0;

  bool Unlimited() const {
    return deadline_seconds <= 0.0 && max_rows_touched == 0 &&
           max_bytes_materialized == 0;
  }
};

namespace governance {

/// Test-only fault injection: when set, every governance checkpoint calls
/// the hook with its name before its own checks; a non-OK return forces
/// that checkpoint to abort. Tests use it to drive an abort through every
/// cancellation point and assert clean unwinding and cache integrity.
/// The hook fires only on governed requests (an ExecGuard must be armed),
/// so production runs without budgets never pay for it. Set to nullptr to
/// clear. Not for production use.
using FaultHook = Status (*)(const char* checkpoint);

namespace internal {
inline std::atomic<FaultHook>& FaultHookSlot() {
  static std::atomic<FaultHook> hook{nullptr};
  return hook;
}
}  // namespace internal

inline void SetFaultHook(FaultHook hook) {
  internal::FaultHookSlot().store(hook, std::memory_order_release);
}

inline FaultHook GetFaultHook() {
  return internal::FaultHookSlot().load(std::memory_order_acquire);
}

class ExecGuard;
using ExecGuardPtr = std::shared_ptr<ExecGuard>;

/// The armed, shared runtime state of one governed request: an absolute
/// deadline plus row/byte meters, safe to consult and charge from any
/// number of worker threads. A null ExecGuardPtr means "ungoverned" and
/// every checkpoint reduces to one pointer test — that is the whole warm-
/// path overhead when no budget is set.
///
/// Aborts are sticky and monotone: once a deadline has passed, a meter is
/// exhausted or the token is cancelled, every later checkpoint of the
/// request reports the same typed status, so parallel shards converge on
/// one outcome no matter which shard noticed first.
class ExecGuard {
 public:
  /// Arms a guard for one request. Returns null when there is nothing to
  /// govern (trivial budget, detached token, no fault hook installed), so
  /// ungoverned requests skip all checkpoint work.
  static ExecGuardPtr Arm(const QueryBudget& budget, CancelToken cancel) {
    if (budget.Unlimited() && !cancel.attached() && GetFaultHook() == nullptr) {
      return nullptr;
    }
    return std::make_shared<ExecGuard>(budget, std::move(cancel));
  }

  ExecGuard(const QueryBudget& budget, CancelToken cancel)
      : budget_(budget), cancel_(std::move(cancel)) {
    using Clock = std::chrono::steady_clock;
    if (budget_.deadline_seconds > 0.0) {
      const std::chrono::duration<double> limit(budget_.deadline_seconds);
      const Clock::time_point now = Clock::now();
      // A deadline past the clock's range (or infinite) can never expire:
      // it is no deadline, and casting it to clock ticks would overflow.
      if (limit < Clock::time_point::max() - now) {
        deadline_ = now + std::chrono::duration_cast<Clock::duration>(limit);
        has_deadline_ = true;
      }
    }
  }

  /// The full checkpoint: fault hook, cancellation, deadline, meters.
  /// `checkpoint` names the call site (e.g. "whatif.prepare.learn") and is
  /// embedded in the returned message so aborts are attributable.
  Status Check(const char* checkpoint) const {
    if (FaultHook hook = GetFaultHook()) {
      HYPER_RETURN_NOT_OK(hook(checkpoint));
    }
    if (cancel_.cancelled()) {
      return Status::Cancelled(std::string("query cancelled at ") + checkpoint);
    }
    if (has_deadline_ && std::chrono::steady_clock::now() > deadline_) {
      return Status::DeadlineExceeded(std::string("deadline exceeded at ") +
                                      checkpoint);
    }
    if (budget_.max_rows_touched > 0 &&
        rows_touched_.load(std::memory_order_relaxed) >
            budget_.max_rows_touched) {
      return Status::ResourceExhausted(
          std::string("row budget exhausted at ") + checkpoint);
    }
    if (budget_.max_bytes_materialized > 0 &&
        bytes_materialized_.load(std::memory_order_relaxed) >
            budget_.max_bytes_materialized) {
      return Status::ResourceExhausted(
          std::string("byte budget exhausted at ") + checkpoint);
    }
    return Status::OK();
  }

  /// Adds `n` rows to the meter, then runs the full checkpoint. Const
  /// because charging is how read-only pipeline stages report progress —
  /// the meters are atomic and mutable.
  Status ChargeRows(size_t n, const char* checkpoint) const {
    rows_touched_.fetch_add(n, std::memory_order_relaxed);
    return Check(checkpoint);
  }

  /// Adds `n` bytes to the meter, then runs the full checkpoint.
  Status ChargeBytes(size_t n, const char* checkpoint) const {
    bytes_materialized_.fetch_add(n, std::memory_order_relaxed);
    return Check(checkpoint);
  }

  size_t rows_touched() const {
    return rows_touched_.load(std::memory_order_relaxed);
  }
  size_t bytes_materialized() const {
    return bytes_materialized_.load(std::memory_order_relaxed);
  }
  const QueryBudget& budget() const { return budget_; }

 private:
  QueryBudget budget_;
  CancelToken cancel_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  mutable std::atomic<size_t> rows_touched_{0};
  mutable std::atomic<size_t> bytes_materialized_{0};
};

/// Amortized checker for per-row hot loops: `Due()` is true every `stride`
/// ticks (and never for ungoverned requests), so the loop body pays one
/// branch per row and one clock read per stride. Stride must be a power of
/// two. The first due tick fires after a full stride, so loops shorter than
/// the stride rely on the stage-boundary checkpoints around them.
class LoopCheck {
 public:
  explicit LoopCheck(const ExecGuard* guard, size_t stride = 1024)
      : guard_(guard), mask_(stride - 1) {}

  bool Due() { return guard_ != nullptr && (++ticks_ & mask_) == 0; }
  const ExecGuard* guard() const { return guard_; }

 private:
  const ExecGuard* guard_;
  size_t mask_;
  size_t ticks_ = 0;
};

/// True for the status codes a governance abort can produce. Used by
/// callers that must distinguish "the work is wrong" from "the work was
/// cut short" (e.g. admission-control outcome counters).
inline bool IsGovernanceAbort(const Status& status) {
  switch (status.code()) {
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

}  // namespace governance

}  // namespace hyper

#endif  // HYPER_COMMON_GOVERNANCE_H_
