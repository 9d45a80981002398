#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/grouping.h"
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
// GroupingTable
// ---------------------------------------------------------------------------

/// Inserts `keys` (each `words` words) into a GroupingTable and into a
/// std::map reference that numbers keys by first appearance, and checks
/// every id, the distinct count and the stored keys against it.
void ExpectGroupsLikeFirstAppearance(
    size_t words, const std::vector<std::vector<uint64_t>>& keys) {
  GroupingTable table(words);
  std::map<std::vector<uint64_t>, uint32_t> reference;
  std::vector<std::vector<uint64_t>> key_of_id;
  for (const std::vector<uint64_t>& key : keys) {
    ASSERT_EQ(words, key.size());
    auto [it, inserted] = reference.emplace(
        key, static_cast<uint32_t>(reference.size()));
    if (inserted) key_of_id.push_back(key);
    ASSERT_EQ(it->second, table.Insert(key.data())) << "words=" << words;
  }
  ASSERT_EQ(reference.size(), table.size());
  for (uint32_t id = 0; id < table.size(); ++id) {
    EXPECT_EQ(key_of_id[id],
              std::vector<uint64_t>(table.key(id), table.key(id) + words));
  }
  std::vector<uint64_t> flat;
  for (const std::vector<uint64_t>& key : key_of_id) {
    flat.insert(flat.end(), key.begin(), key.end());
  }
  EXPECT_EQ(flat, std::move(table).TakeKeys());
}

TEST(GroupingTableTest, NumbersRandomKeysByFirstAppearance) {
  Rng rng(2024);
  for (size_t words : {0u, 1u, 2u, 3u, 9u}) {
    // A pool of 3000 keys. Half are random words: 1500 distinct keys grow
    // the table from 64 to 4096 slots. Half are small integers as doubles,
    // which differ only in their high bits and often coincide. 12000 draws
    // from the pool repeat most keys several times.
    std::vector<std::vector<uint64_t>> pool(3000, std::vector<uint64_t>(words));
    for (size_t k = 0; k < pool.size(); ++k) {
      for (uint64_t& w : pool[k]) {
        w = k % 2 == 0 ? static_cast<uint64_t>(rng.UniformInt(
                             std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max()))
                       : std::bit_cast<uint64_t>(
                             static_cast<double>(rng.UniformInt(0, 7)));
      }
    }
    std::vector<std::vector<uint64_t>> keys;
    for (int i = 0; i < 12000; ++i) {
      keys.push_back(pool[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
    }
    ExpectGroupsLikeFirstAppearance(words, keys);
  }
}

TEST(GroupingTableTest, ComparesBitsNotNumbers) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double rows[][2] = {{0.0, 1.0}, {-0.0, 1.0}, {nan, 1.0},
                            {0.0, 1.0}, {nan, 1.0},  {-0.0, 1.0}};
  GroupingTable table(2);
  std::vector<uint32_t> ids;
  for (const auto& row : rows) ids.push_back(table.Insert(row));
  // -0.0 and +0.0 are two keys; one NaN bit pattern is one key.
  EXPECT_EQ((std::vector<uint32_t>{0, 1, 2, 0, 2, 1}), ids);
  EXPECT_EQ(3u, table.size());

  // A NaN with another payload is another key.
  const double other_nan = std::bit_cast<double>(
      std::bit_cast<uint64_t>(nan) | uint64_t{1});
  ASSERT_TRUE(std::isnan(other_nan));
  const double row[2] = {other_nan, 1.0};
  EXPECT_EQ(3u, table.Insert(row));
}

TEST(GroupingTableTest, ZeroWordKeysAreOneKey) {
  GroupingTable table(0);
  EXPECT_EQ(0u, table.size());
  const double unused = 5.0;
  EXPECT_EQ(0u, table.Insert(&unused));
  EXPECT_EQ(0u, table.Insert(&unused));
  EXPECT_EQ(1u, table.size());
  EXPECT_TRUE(std::move(table).TakeKeys().empty());
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
