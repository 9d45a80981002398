#include <gtest/gtest.h>

#include <sstream>

#include "storage/csv.h"

namespace hyper {
namespace {

// ---------------------------------------------------------------------------
// Line splitting
// ---------------------------------------------------------------------------

TEST(CsvLineTest, PlainFields) {
  auto f = SplitCsvLine("a,b,c", ',');
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(CsvLineTest, EmptyFieldsPreserved) {
  auto f = SplitCsvLine(",x,", ',');
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "");
  EXPECT_EQ(f[2], "");
}

TEST(CsvLineTest, QuotedFieldWithDelimiter) {
  auto f = SplitCsvLine("\"a,b\",c", ',');
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], "a,b");
}

TEST(CsvLineTest, EscapedQuote) {
  auto f = SplitCsvLine("\"it\"\"s\",x", ',');
  EXPECT_EQ(f[0], "it\"s");
}

TEST(CsvLineTest, CarriageReturnStripped) {
  auto f = SplitCsvLine("a,b\r", ',');
  EXPECT_EQ(f[1], "b");
}

TEST(CsvLineTest, AlternateDelimiter) {
  auto f = SplitCsvLine("a;b;c", ';');
  ASSERT_EQ(f.size(), 3u);
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

TEST(CsvReadTest, TypeInference) {
  std::istringstream in(
      "Id,Price,Brand,Score\n"
      "1,9.5,Asus,10\n"
      "2,12,HP,20\n");
  CsvReadOptions options;
  options.key = {"Id"};
  auto table = ReadCsv(in, "Product", options).value();
  EXPECT_EQ(table.schema().attribute(0).type, ValueType::kInt);
  EXPECT_EQ(table.schema().attribute(1).type, ValueType::kDouble);
  EXPECT_EQ(table.schema().attribute(2).type, ValueType::kString);
  EXPECT_EQ(table.schema().attribute(3).type, ValueType::kInt);
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_TRUE(table.At(1, 2).Equals(Value::String("HP")));
}

TEST(CsvReadTest, KeyAndImmutableMarkers) {
  std::istringstream in("Id,Age,Status\n1,30,2\n");
  CsvReadOptions options;
  options.key = {"Id"};
  options.immutable = {"Age"};
  auto table = ReadCsv(in, "R", options).value();
  EXPECT_TRUE(table.schema().IsKeyAttribute(0));
  EXPECT_EQ(table.schema().attribute(1).mutability, Mutability::kImmutable);
  EXPECT_EQ(table.schema().attribute(2).mutability, Mutability::kMutable);
}

TEST(CsvReadTest, EmptyFieldsBecomeNull) {
  std::istringstream in("Id,Score\n1,\n2,5\n");
  auto table = ReadCsv(in, "R", {}).value();
  EXPECT_TRUE(table.At(0, 1).is_null());
  EXPECT_TRUE(table.At(1, 1).Equals(Value::Int(5)));
}

TEST(CsvReadTest, MixedNumericColumnIsDouble) {
  std::istringstream in("A\n1\n2.5\n");
  auto table = ReadCsv(in, "R", {}).value();
  EXPECT_EQ(table.schema().attribute(0).type, ValueType::kDouble);
}

TEST(CsvReadTest, NumericLookingStringsStayStrings) {
  std::istringstream in("A\n1\nx2\n");
  auto table = ReadCsv(in, "R", {}).value();
  EXPECT_EQ(table.schema().attribute(0).type, ValueType::kString);
}

TEST(CsvReadTest, Errors) {
  std::istringstream empty("");
  EXPECT_FALSE(ReadCsv(empty, "R", {}).ok());

  std::istringstream ragged("A,B\n1,2,3\n");
  EXPECT_EQ(ReadCsv(ragged, "R", {}).status().code(),
            StatusCode::kParseError);

  std::istringstream ok("A\n1\n");
  CsvReadOptions bad_key;
  bad_key.key = {"Zzz"};
  EXPECT_FALSE(ReadCsv(ok, "R", bad_key).ok());

  EXPECT_EQ(ReadCsvFile("/nonexistent/path.csv", "R", {}).status().code(),
            StatusCode::kNotFound);
}

TEST(CsvReadTest, NoInferenceLoadsStrings) {
  std::istringstream in("A\n42\n");
  CsvReadOptions options;
  options.infer_types = false;
  auto table = ReadCsv(in, "R", options).value();
  EXPECT_EQ(table.schema().attribute(0).type, ValueType::kString);
}

// ---------------------------------------------------------------------------
// Quoting, NULLs and double precision
// ---------------------------------------------------------------------------

TEST(CsvReadTest, QuotedFieldsAndNulls) {
  std::istringstream in(
      "Id,Name,Price\n"
      "1,plain,9.5\n"
      "2,\"with,comma\",-1.25\n"
      "3,\"with\"\"quote\",\n");
  CsvReadOptions options;
  options.key = {"Id"};
  auto back = ReadCsv(in, "R", options).value();

  ASSERT_EQ(back.num_rows(), 3u);
  EXPECT_TRUE(back.At(1, 1).Equals(Value::String("with,comma")));
  EXPECT_TRUE(back.At(2, 1).Equals(Value::String("with\"quote")));
  EXPECT_TRUE(back.At(2, 2).is_null());
  EXPECT_DOUBLE_EQ(back.At(0, 2).double_value(), 9.5);
}

TEST(CsvReadTest, SeventeenDigitDoublesSurvive) {
  std::istringstream in("X\n0.12345678901234568\n");  // %.17g
  auto back = ReadCsv(in, "R", {}).value();
  EXPECT_EQ(back.At(0, 0).double_value(), 0.1234567890123456789);
}

}  // namespace
}  // namespace hyper
