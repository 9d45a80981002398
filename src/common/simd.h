#ifndef HYPER_COMMON_SIMD_H_
#define HYPER_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace hyper::simd {

// ---------------------------------------------------------------------------
// Runtime-dispatched SIMD kernels for the hot columnar loops: predicate
// masks over contiguous typed spans, mask combination, and widening
// conversions. Every kernel has a scalar reference implementation and the
// dispatch can be forced onto it (programmatically or via HYPER_SIMD=scalar)
// so SIMD-vs-scalar bit-equality is directly testable — the vector paths
// are required to reproduce the scalar paths bit for bit, including NaN
// comparison semantics (IEEE ordered/unordered predicates match the C
// operators: `x != c` is true for NaN, `x < c` is false).
//
// Reductions are deliberately absent: floating-point accumulation order is
// part of the engine's bit-determinism contract (prob::BlockAccumulator),
// and lane-parallel sums would reassociate it. Only element-wise kernels —
// where every output element is a pure function of its input element —
// live here.
// ---------------------------------------------------------------------------

/// AVX2 where the CPU has it; every other CPU runs the scalar reference.
enum class Level : uint8_t {
  kScalar = 0,
  kAVX2 = 1,
};

/// Highest level the CPU supports (cached after the first call).
Level DetectedLevel();

/// Level the kernels actually dispatch to: the detected level, unless the
/// scalar path is forced (SetForceScalar or env HYPER_SIMD=scalar).
Level ActiveLevel();

/// Forces every kernel onto the scalar reference path (A/B bit-equality
/// harnesses). Thread-safe; affects subsequent kernel calls process-wide.
// lint:allow(unreferenced): test-hook — simd_test, golden_test and
// scale_perf_test run each kernel and answer on both paths with it.
void SetForceScalar(bool force);
// lint:allow(unreferenced): test-hook — tests save and restore the setting.
bool ForceScalar();

/// Comparison operator for the mask kernels; semantics are exactly the C
/// operators on the operand type (for doubles: IEEE ordered except kNe,
/// which is true on unordered operands — matching `!=`).
enum class Cmp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// The mirrored operator: `lit OP x` == `x ROP lit`.
constexpr Cmp Mirror(Cmp op) {
  switch (op) {
    case Cmp::kLt: return Cmp::kGt;
    case Cmp::kLe: return Cmp::kGe;
    case Cmp::kGt: return Cmp::kLt;
    case Cmp::kGe: return Cmp::kLe;
    default: return op;  // eq/ne are symmetric
  }
}

/// out[i] = (x[i] OP c) ? 1 : 0
void CmpF64Const(const double* x, size_t n, double c, Cmp op, uint8_t* out);
/// out[i] = (a[i] OP b[i]) ? 1 : 0
void CmpF64Cols(const double* a, const double* b, size_t n, Cmp op,
                uint8_t* out);
/// out[i] = ((x[i] == code) == want_eq) ? 1 : 0  (dictionary codes)
void CmpI32Const(const int32_t* x, size_t n, int32_t code, bool want_eq,
                 uint8_t* out);
/// out[i] = ((a[i] == b[i]) == want_eq) ? 1 : 0
void CmpI32Cols(const int32_t* a, const int32_t* b, size_t n, bool want_eq,
                uint8_t* out);

/// Element-wise combination of 0/1 masks (out may alias a or b).
void MaskAnd(const uint8_t* a, const uint8_t* b, size_t n, uint8_t* out);
void MaskOr(const uint8_t* a, const uint8_t* b, size_t n, uint8_t* out);
/// out[i] = a[i] ^ 1 — the logical NOT of a 0/1 mask.
void MaskNot(const uint8_t* a, size_t n, uint8_t* out);
/// Number of non-zero bytes.
size_t MaskCount(const uint8_t* m, size_t n);

/// Widening conversions (exactly `static_cast<double>` per element).
void I64ToF64(const int64_t* x, size_t n, double* out);
/// out[i] = x[i] != 0 ? 1.0 : 0.0
void U8ToF64(const uint8_t* x, size_t n, double* out);

}  // namespace hyper::simd

#endif  // HYPER_COMMON_SIMD_H_
