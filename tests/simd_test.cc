#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"

namespace hyper::simd {
namespace {

// ---------------------------------------------------------------------------
// SIMD-vs-scalar bit-equality. Every kernel promises to reproduce its scalar
// reference implementation bit for bit at whatever level the CPU dispatches
// to, so each test computes the output once with the scalar path forced and
// once with dispatch enabled and compares the raw bytes. Lengths straddle
// the vector widths (1..65 plus a large run) so heads, full lanes, and tails
// are all exercised.
// ---------------------------------------------------------------------------

const std::vector<size_t>& Lengths() {
  static const std::vector<size_t> kLengths = {0,  1,  2,  3,  4,  7,  8,
                                               15, 16, 17, 31, 32, 33, 63,
                                               64, 65, 1000};
  return kLengths;
}

/// Runs `fn` once under forced-scalar and once under native dispatch,
/// byte-comparing the two output buffers. `fn` fills its argument.
template <typename T, typename Fn>
void ExpectBitEqual(size_t n, const Fn& fn) {
  std::vector<T> scalar_out(n), simd_out(n);
  SetForceScalar(true);
  fn(scalar_out.data());
  SetForceScalar(false);
  fn(simd_out.data());
  // Empty vectors may hand out a null data(), which memcmp must not get.
  if (n == 0) return;
  ASSERT_EQ(std::memcmp(scalar_out.data(), simd_out.data(), n * sizeof(T)), 0)
      << "n=" << n << " active=" << static_cast<int>(ActiveLevel());
}

/// Doubles with the edge cases the IEEE predicates care about: NaN, ±inf,
/// ±0.0, denormals, and exact ties against the constant under test.
std::vector<double> EdgeDoubles(size_t n, Rng& rng, double tie) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double kDen = std::numeric_limits<double>::denorm_min();
  const double specials[] = {kNan, -kNan, kInf, -kInf, 0.0, -0.0, kDen, tie};
  std::vector<double> x(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = (rng.Uniform() < 0.4)
               ? specials[rng.UniformInt(0, 7)]
               : rng.Uniform(-5.0, 5.0);
  }
  return x;
}

TEST(SimdTest, LevelPlumbing) {
  EXPECT_GE(static_cast<int>(DetectedLevel()), 0);
  SetForceScalar(true);
  EXPECT_TRUE(ForceScalar());
  EXPECT_EQ(ActiveLevel(), Level::kScalar);
  SetForceScalar(false);
  EXPECT_FALSE(ForceScalar());
  // HYPER_SIMD may cap the active level below the detected one, so only the
  // ordering is portable across environments.
  EXPECT_LE(static_cast<int>(ActiveLevel()), static_cast<int>(DetectedLevel()));
}

TEST(SimdTest, MirrorFlipsOrderedOps) {
  EXPECT_EQ(Mirror(Cmp::kLt), Cmp::kGt);
  EXPECT_EQ(Mirror(Cmp::kLe), Cmp::kGe);
  EXPECT_EQ(Mirror(Cmp::kGt), Cmp::kLt);
  EXPECT_EQ(Mirror(Cmp::kGe), Cmp::kLe);
  EXPECT_EQ(Mirror(Cmp::kEq), Cmp::kEq);
  EXPECT_EQ(Mirror(Cmp::kNe), Cmp::kNe);
}

TEST(SimdTest, CmpF64ConstAllOpsWithNaN) {
  Rng rng(101);
  const double c = 1.25;
  for (size_t n : Lengths()) {
    const std::vector<double> x = EdgeDoubles(n, rng, c);
    for (Cmp op : {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt,
                   Cmp::kGe}) {
      ExpectBitEqual<uint8_t>(n, [&](uint8_t* out) {
        CmpF64Const(x.data(), n, c, op, out);
      });
    }
  }
  SetForceScalar(false);
}

TEST(SimdTest, CmpF64ConstNaNSemanticsMatchCOperators) {
  // Scalar reference aside, pin the absolute semantics: NaN compares false
  // under every ordered predicate and true only under !=.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double x[1] = {kNan};
  uint8_t out[1];
  const std::pair<Cmp, uint8_t> expected[] = {
      {Cmp::kEq, 0}, {Cmp::kNe, 1}, {Cmp::kLt, 0},
      {Cmp::kLe, 0}, {Cmp::kGt, 0}, {Cmp::kGe, 0}};
  for (bool force : {true, false}) {
    SetForceScalar(force);
    for (const auto& [op, want] : expected) {
      CmpF64Const(x, 1, 0.0, op, out);
      EXPECT_EQ(out[0], want) << "force=" << force;
    }
  }
  SetForceScalar(false);
}

TEST(SimdTest, CmpF64ColsAllOps) {
  Rng rng(202);
  for (size_t n : Lengths()) {
    const std::vector<double> a = EdgeDoubles(n, rng, 2.0);
    std::vector<double> b = EdgeDoubles(n, rng, 2.0);
    for (size_t i = 0; i + 3 < n; i += 4) b[i] = a[i];  // exact ties
    for (Cmp op : {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt,
                   Cmp::kGe}) {
      ExpectBitEqual<uint8_t>(n, [&](uint8_t* out) {
        CmpF64Cols(a.data(), b.data(), n, op, out);
      });
    }
  }
  SetForceScalar(false);
}

TEST(SimdTest, CmpI32ConstDictCodes) {
  Rng rng(303);
  for (size_t n : Lengths()) {
    std::vector<int32_t> x(n);
    for (size_t i = 0; i < n; ++i) {
      // Small dictionary-code domain plus the -1 null sentinel, so both
      // match density and the null code are covered.
      x[i] = static_cast<int32_t>(rng.UniformInt(-1, 4));
    }
    for (int32_t code : {-1, 0, 3, 7}) {
      for (bool want_eq : {true, false}) {
        ExpectBitEqual<uint8_t>(n, [&](uint8_t* out) {
          CmpI32Const(x.data(), n, code, want_eq, out);
        });
      }
    }
  }
  SetForceScalar(false);
}

TEST(SimdTest, CmpI32Cols) {
  Rng rng(404);
  for (size_t n : Lengths()) {
    std::vector<int32_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<int32_t>(rng.UniformInt(-1, 2));
      b[i] = static_cast<int32_t>(rng.UniformInt(-1, 2));
    }
    for (bool want_eq : {true, false}) {
      ExpectBitEqual<uint8_t>(n, [&](uint8_t* out) {
        CmpI32Cols(a.data(), b.data(), n, want_eq, out);
      });
    }
  }
  SetForceScalar(false);
}

TEST(SimdTest, MaskCombinators) {
  Rng rng(505);
  for (size_t n : Lengths()) {
    std::vector<uint8_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<uint8_t>(rng.UniformInt(0, 1));
      b[i] = static_cast<uint8_t>(rng.UniformInt(0, 1));
    }
    ExpectBitEqual<uint8_t>(
        n, [&](uint8_t* out) { MaskAnd(a.data(), b.data(), n, out); });
    ExpectBitEqual<uint8_t>(
        n, [&](uint8_t* out) { MaskOr(a.data(), b.data(), n, out); });
    ExpectBitEqual<uint8_t>(n,
                            [&](uint8_t* out) { MaskNot(a.data(), n, out); });
    // Aliased output (out == a) is part of the contract.
    for (bool force : {true, false}) {
      SetForceScalar(force);
      std::vector<uint8_t> aliased = a;
      std::vector<uint8_t> expect(n);
      for (size_t i = 0; i < n; ++i) expect[i] = a[i] & b[i];
      MaskAnd(aliased.data(), b.data(), n, aliased.data());
      EXPECT_EQ(aliased, expect) << "n=" << n;
    }
    // Count agrees across levels and with the naive sum.
    size_t naive = 0;
    for (uint8_t v : a) naive += v != 0;
    SetForceScalar(true);
    EXPECT_EQ(MaskCount(a.data(), n), naive);
    SetForceScalar(false);
    EXPECT_EQ(MaskCount(a.data(), n), naive);
  }
  SetForceScalar(false);
}

TEST(SimdTest, WideningConversions) {
  Rng rng(606);
  for (size_t n : Lengths()) {
    std::vector<int64_t> xi(n);
    std::vector<uint8_t> xb(n);
    for (size_t i = 0; i < n; ++i) {
      // Includes magnitudes beyond 2^53 where the cast rounds.
      xi[i] = static_cast<int64_t>(rng.engine()());
      xb[i] = static_cast<uint8_t>(rng.UniformInt(0, 3));
    }
    if (n > 0) {
      xi[0] = (int64_t{1} << 53) + 1;
      xi[n - 1] = std::numeric_limits<int64_t>::min();
    }
    ExpectBitEqual<double>(n,
                           [&](double* out) { I64ToF64(xi.data(), n, out); });
    ExpectBitEqual<double>(n,
                           [&](double* out) { U8ToF64(xb.data(), n, out); });
    // U8ToF64 treats any non-zero byte as 1.0 (mask semantics).
    if (n > 0) {
      std::vector<double> out(n);
      xb[0] = 2;
      U8ToF64(xb.data(), n, out.data());
      EXPECT_EQ(out[0], 1.0);
    }
  }
  SetForceScalar(false);
}

}  // namespace
}  // namespace hyper::simd
