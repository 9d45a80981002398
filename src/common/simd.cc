#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define HYPER_SIMD_X86 1
#include <immintrin.h>
#else
#define HYPER_SIMD_X86 0
#endif

namespace hyper::simd {

namespace {

std::atomic<bool> g_force_scalar{false};

/// HYPER_SIMD=scalar forces the reference path for the whole process
/// (parsed once); anything else, or unset, leaves the detected level alone.
bool EnvForcesScalar() {
  static const bool forced = [] {
    const char* env = std::getenv("HYPER_SIMD");
    return env != nullptr && std::strcmp(env, "scalar") == 0;
  }();
  return forced;
}

// ---------------------------------------------------------------------------
// Scalar reference kernels. These define the semantics; the vector paths
// must match them bit for bit (tests/simd_test.cc enforces it, NaN and all).
// ---------------------------------------------------------------------------

template <typename T>
void CmpConstScalar(const T* x, size_t n, T c, Cmp op, uint8_t* out) {
  switch (op) {
    case Cmp::kEq: for (size_t i = 0; i < n; ++i) out[i] = x[i] == c; break;
    case Cmp::kNe: for (size_t i = 0; i < n; ++i) out[i] = x[i] != c; break;
    case Cmp::kLt: for (size_t i = 0; i < n; ++i) out[i] = x[i] < c; break;
    case Cmp::kLe: for (size_t i = 0; i < n; ++i) out[i] = x[i] <= c; break;
    case Cmp::kGt: for (size_t i = 0; i < n; ++i) out[i] = x[i] > c; break;
    case Cmp::kGe: for (size_t i = 0; i < n; ++i) out[i] = x[i] >= c; break;
  }
}

template <typename T>
void CmpColsScalar(const T* a, const T* b, size_t n, Cmp op, uint8_t* out) {
  switch (op) {
    case Cmp::kEq: for (size_t i = 0; i < n; ++i) out[i] = a[i] == b[i]; break;
    case Cmp::kNe: for (size_t i = 0; i < n; ++i) out[i] = a[i] != b[i]; break;
    case Cmp::kLt: for (size_t i = 0; i < n; ++i) out[i] = a[i] < b[i]; break;
    case Cmp::kLe: for (size_t i = 0; i < n; ++i) out[i] = a[i] <= b[i]; break;
    case Cmp::kGt: for (size_t i = 0; i < n; ++i) out[i] = a[i] > b[i]; break;
    case Cmp::kGe: for (size_t i = 0; i < n; ++i) out[i] = a[i] >= b[i]; break;
  }
}

#if HYPER_SIMD_X86

// --- AVX2 (runtime-dispatched; compiled with a per-function target) --------

#if defined(__GNUC__) || defined(__clang__)
#define HYPER_TARGET_AVX2 __attribute__((target("avx2")))

HYPER_TARGET_AVX2 void CmpF64ConstAvx2(const double* x, size_t n, double c,
                                       Cmp op, uint8_t* out) {
  const __m256d vc = _mm256_set1_pd(c);
  size_t i = 0;
  switch (op) {
#define HYPER_CASE(OP, IMM)                                              \
  case Cmp::OP:                                                          \
    for (; i + 4 <= n; i += 4) {                                         \
      const int m =                                                      \
          _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(x + i), vc,   \
                                           IMM));                        \
      out[i] = m & 1;                                                    \
      out[i + 1] = (m >> 1) & 1;                                         \
      out[i + 2] = (m >> 2) & 1;                                         \
      out[i + 3] = (m >> 3) & 1;                                         \
    }                                                                    \
    break;
    HYPER_CASE(kEq, _CMP_EQ_OQ)
    HYPER_CASE(kNe, _CMP_NEQ_UQ)
    HYPER_CASE(kLt, _CMP_LT_OQ)
    HYPER_CASE(kLe, _CMP_LE_OQ)
    HYPER_CASE(kGt, _CMP_GT_OQ)
    HYPER_CASE(kGe, _CMP_GE_OQ)
#undef HYPER_CASE
  }
  CmpConstScalar(x + i, n - i, c, op, out + i);
}

HYPER_TARGET_AVX2 void CmpF64ColsAvx2(const double* a, const double* b,
                                      size_t n, Cmp op, uint8_t* out) {
  size_t i = 0;
  switch (op) {
#define HYPER_CASE(OP, IMM)                                               \
  case Cmp::OP:                                                           \
    for (; i + 4 <= n; i += 4) {                                          \
      const int m = _mm256_movemask_pd(_mm256_cmp_pd(                     \
          _mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), IMM));          \
      out[i] = m & 1;                                                     \
      out[i + 1] = (m >> 1) & 1;                                          \
      out[i + 2] = (m >> 2) & 1;                                          \
      out[i + 3] = (m >> 3) & 1;                                          \
    }                                                                     \
    break;
    HYPER_CASE(kEq, _CMP_EQ_OQ)
    HYPER_CASE(kNe, _CMP_NEQ_UQ)
    HYPER_CASE(kLt, _CMP_LT_OQ)
    HYPER_CASE(kLe, _CMP_LE_OQ)
    HYPER_CASE(kGt, _CMP_GT_OQ)
    HYPER_CASE(kGe, _CMP_GE_OQ)
#undef HYPER_CASE
  }
  CmpColsScalar(a + i, b + i, n - i, op, out + i);
}

HYPER_TARGET_AVX2 void CmpI32ConstAvx2(const int32_t* x, size_t n,
                                       int32_t code, bool want_eq,
                                       uint8_t* out) {
  const __m256i vc = _mm256_set1_epi32(code);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i eq = _mm256_cmpeq_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)), vc);
    const int m = _mm256_movemask_ps(_mm256_castsi256_ps(eq));
    for (int k = 0; k < 8; ++k) out[i + k] = ((m >> k) & 1) ^ !want_eq;
  }
  for (; i < n; ++i) out[i] = (x[i] == code) == want_eq;
}

HYPER_TARGET_AVX2 void CmpI32ColsAvx2(const int32_t* a, const int32_t* b,
                                      size_t n, bool want_eq, uint8_t* out) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i eq = _mm256_cmpeq_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    const int m = _mm256_movemask_ps(_mm256_castsi256_ps(eq));
    for (int k = 0; k < 8; ++k) out[i + k] = ((m >> k) & 1) ^ !want_eq;
  }
  for (; i < n; ++i) out[i] = (a[i] == b[i]) == want_eq;
}

HYPER_TARGET_AVX2 void MaskAndAvx2(const uint8_t* a, const uint8_t* b,
                                   size_t n, uint8_t* out) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_and_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i))));
  }
  for (; i < n; ++i) out[i] = a[i] & b[i];
}

HYPER_TARGET_AVX2 void MaskOrAvx2(const uint8_t* a, const uint8_t* b,
                                  size_t n, uint8_t* out) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_or_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i))));
  }
  for (; i < n; ++i) out[i] = a[i] | b[i];
}

HYPER_TARGET_AVX2 void MaskNotAvx2(const uint8_t* a, size_t n, uint8_t* out) {
  const __m256i one = _mm256_set1_epi8(1);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            one));
  }
  for (; i < n; ++i) out[i] = a[i] ^ 1;
}

#define HYPER_HAVE_AVX2 1
#endif  // GNUC || clang

#endif  // HYPER_SIMD_X86

#ifndef HYPER_HAVE_AVX2
#define HYPER_HAVE_AVX2 0
#endif

}  // namespace

Level DetectedLevel() {
  static const Level level = [] {
    if (EnvForcesScalar()) return Level::kScalar;
#if HYPER_HAVE_AVX2
    if (__builtin_cpu_supports("avx2")) return Level::kAVX2;
#endif
    return Level::kScalar;
  }();
  return level;
}

Level ActiveLevel() {
  if (g_force_scalar.load(std::memory_order_relaxed)) return Level::kScalar;
  return DetectedLevel();
}

void SetForceScalar(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

bool ForceScalar() {
  return g_force_scalar.load(std::memory_order_relaxed);
}

// Each kernel runs its AVX2 body when the active level allows it, else the
// scalar reference.

void CmpF64Const(const double* x, size_t n, double c, Cmp op, uint8_t* out) {
#if HYPER_HAVE_AVX2
  if (ActiveLevel() == Level::kAVX2) {
    CmpF64ConstAvx2(x, n, c, op, out);
    return;
  }
#endif
  CmpConstScalar(x, n, c, op, out);
}

void CmpF64Cols(const double* a, const double* b, size_t n, Cmp op,
                uint8_t* out) {
#if HYPER_HAVE_AVX2
  if (ActiveLevel() == Level::kAVX2) {
    CmpF64ColsAvx2(a, b, n, op, out);
    return;
  }
#endif
  CmpColsScalar(a, b, n, op, out);
}

void CmpI32Const(const int32_t* x, size_t n, int32_t code, bool want_eq,
                 uint8_t* out) {
#if HYPER_HAVE_AVX2
  if (ActiveLevel() == Level::kAVX2) {
    CmpI32ConstAvx2(x, n, code, want_eq, out);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) out[i] = (x[i] == code) == want_eq;
}

void CmpI32Cols(const int32_t* a, const int32_t* b, size_t n, bool want_eq,
                uint8_t* out) {
#if HYPER_HAVE_AVX2
  if (ActiveLevel() == Level::kAVX2) {
    CmpI32ColsAvx2(a, b, n, want_eq, out);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) out[i] = (a[i] == b[i]) == want_eq;
}

void MaskAnd(const uint8_t* a, const uint8_t* b, size_t n, uint8_t* out) {
#if HYPER_HAVE_AVX2
  if (ActiveLevel() == Level::kAVX2) {
    MaskAndAvx2(a, b, n, out);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) out[i] = a[i] & b[i];
}

void MaskOr(const uint8_t* a, const uint8_t* b, size_t n, uint8_t* out) {
#if HYPER_HAVE_AVX2
  if (ActiveLevel() == Level::kAVX2) {
    MaskOrAvx2(a, b, n, out);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) out[i] = a[i] | b[i];
}

void MaskNot(const uint8_t* a, size_t n, uint8_t* out) {
#if HYPER_HAVE_AVX2
  if (ActiveLevel() == Level::kAVX2) {
    MaskNotAvx2(a, n, out);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) out[i] = a[i] ^ 1;
}

size_t MaskCount(const uint8_t* m, size_t n) {
  // 0/1 bytes sum exactly; the compiler vectorizes this reduction (integer
  // addition is associative, so reassociation cannot change the count).
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += m[i];
  return count;
}

void I64ToF64(const int64_t* x, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(x[i]);
}

void U8ToF64(const uint8_t* x, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] != 0 ? 1.0 : 0.0;
}

}  // namespace hyper::simd
