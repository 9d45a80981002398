#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace hyper {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad attr");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad attr");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad attr");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  HYPER_ASSIGN_OR_RETURN(int h, Half(x));
  *out = h;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseAssignOrReturn(7, &out).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringsTest, SplitBasic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("UPDATE", "update"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d/%s", 7, "x"), "7/x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicWithSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(11);
  int counts[3] = {0, 0, 0};
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    counts[rng.Categorical({0.1, 0.2, 0.7})]++;
  }
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / double(n), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / double(n), 0.7, 0.02);
}

TEST(RngTest, CategoricalZeroWeightNeverPicked) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(rng.Categorical({0.5, 0.0, 0.5}), 1u);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian(3.0, 2.0);
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, SampleWithoutReplacementUnique) {
  Rng rng(19);
  for (size_t k : {0u, 1u, 5u, 50u, 100u}) {
    auto sample = rng.SampleWithoutReplacement(100, k);
    std::set<size_t> uniq(sample.begin(), sample.end());
    EXPECT_EQ(sample.size(), k);
    EXPECT_EQ(uniq.size(), k);
    for (size_t idx : sample) EXPECT_LT(idx, 100u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace hyper
