#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "common/thread_pool.h"
#include "data/datasets.h"
#include "learn/dataset.h"
#include "relational/compiled.h"
#include "relational/eval.h"
#include "storage/column.h"

namespace hyper {
namespace {

using relational::BoundRow;
using relational::ColumnBoundExpr;
using relational::CompiledExpr;
using relational::Env;
using relational::EvalPredicateMask;
using relational::Scalar;
using relational::ScopedTuple;

// ---------------------------------------------------------------------------
// Dictionary
// ---------------------------------------------------------------------------

TEST(DictionaryTest, InternRoundTrip) {
  Dictionary dict;
  const int32_t a = dict.Intern("Laptop");
  const int32_t b = dict.Intern("Phone");
  const int32_t a2 = dict.Intern("Laptop");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.at(a), "Laptop");
  EXPECT_EQ(dict.at(b), "Phone");
  EXPECT_EQ(dict.Find("Laptop"), a);
  EXPECT_EQ(dict.Find("Tablet"), Dictionary::kNullCode);
}

TEST(DictionaryTest, CodesAreFirstSeenDense) {
  Dictionary dict;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dict.Intern("s" + std::to_string(i)), i);
  }
  // Re-interning is stable.
  EXPECT_EQ(dict.Intern("s42"), 42);
  EXPECT_EQ(dict.size(), 100u);
}

TEST(DictionaryTest, SharedAcrossTablesAgreesOnCodes) {
  Table t1(Schema("A", {{"S", ValueType::kString, Mutability::kMutable}}, {}));
  t1.AppendUnchecked({Value::String("x")});
  t1.AppendUnchecked({Value::String("y")});
  Table t2(Schema("B", {{"S", ValueType::kString, Mutability::kMutable}}, {}));
  t2.AppendUnchecked({Value::String("y")});
  t2.AppendUnchecked({Value::String("z")});

  auto dict = std::make_shared<Dictionary>();
  auto c1 = ColumnTable::FromTable(t1, dict);
  auto c2 = ColumnTable::FromTable(t2, dict);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  // "y" has the same code through both tables.
  EXPECT_EQ(c1->col(0).codes[1], c2->col(0).codes[0]);
  EXPECT_EQ(dict->size(), 3u);
}

// ---------------------------------------------------------------------------
// ColumnTable equivalence on the synthetic datasets
// ---------------------------------------------------------------------------

void ExpectTableEquivalent(const Table& table) {
  auto ct = ColumnTable::FromTable(table);
  ASSERT_TRUE(ct.ok());
  ASSERT_EQ(ct->num_rows(), table.num_rows());
  ASSERT_EQ(ct->num_columns(), table.schema().num_attributes());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t a = 0; a < table.schema().num_attributes(); ++a) {
      EXPECT_TRUE(ct->GetValue(r, a).Equals(table.At(r, a)))
          << "mismatch at (" << r << ", " << a << "): "
          << ct->GetValue(r, a).ToString() << " vs "
          << table.At(r, a).ToString();
    }
  }
}

TEST(ColumnTableTest, EquivalentToRowStoreOnSyntheticDatasets) {
  data::AmazonOptions amazon;
  amazon.products = 100;
  amazon.reviews_per_product = 4;
  auto ds = data::MakeAmazonSyn(amazon);
  ASSERT_TRUE(ds.ok());
  for (const std::string& name : ds->db.TableNames()) {
    ExpectTableEquivalent(*ds->db.GetTable(name).value());
  }

  data::GermanOptions german;
  german.rows = 500;
  auto gds = data::MakeGermanSyn(german);
  ASSERT_TRUE(gds.ok());
  ExpectTableEquivalent(*gds->db.GetTable("German").value());
}

TEST(ColumnTableTest, NullsAndKinds) {
  Table t(Schema("T",
                 {{"I", ValueType::kInt, Mutability::kMutable},
                  {"D", ValueType::kDouble, Mutability::kMutable},
                  {"S", ValueType::kString, Mutability::kMutable}},
                 {}));
  t.AppendUnchecked({Value::Int(1), Value::Double(1.5), Value::String("a")});
  t.AppendUnchecked({Value::Null(), Value::Null(), Value::Null()});
  t.AppendUnchecked({Value::Int(3), Value::Double(2.5), Value::String("a")});

  auto ct = ColumnTable::FromTable(t);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct->col(0).kind, ColumnKind::kInt64);
  EXPECT_EQ(ct->col(1).kind, ColumnKind::kDouble);
  EXPECT_EQ(ct->col(2).kind, ColumnKind::kCode);
  EXPECT_TRUE(ct->col(0).is_null(1));
  EXPECT_TRUE(ct->GetValue(1, 2).is_null());
  EXPECT_EQ(ct->col(2).codes[0], ct->col(2).codes[2]);
  EXPECT_EQ(ct->dict().size(), 1u);
}

TEST(ColumnTableTest, MixedIntDoublePromotesToDouble) {
  Table t(Schema("T", {{"X", ValueType::kDouble, Mutability::kMutable}}, {}));
  t.AppendUnchecked({Value::Int(2)});
  t.AppendUnchecked({Value::Double(2.5)});
  auto ct = ColumnTable::FromTable(t);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct->col(0).kind, ColumnKind::kDouble);
  EXPECT_TRUE(ct->GetValue(0, 0).Equals(Value::Int(2)));
  EXPECT_DOUBLE_EQ(ct->col(0).f64[0], 2.0);
  EXPECT_DOUBLE_EQ(ct->col(0).f64[1], 2.5);
}

TEST(ColumnTableTest, MixedStringNumericIsRejected) {
  Table t(Schema("T", {{"X", ValueType::kString, Mutability::kMutable}}, {}));
  t.AppendUnchecked({Value::String("a")});
  t.AppendUnchecked({Value::Int(1)});
  EXPECT_FALSE(ColumnTable::FromTable(t).ok());
}

// ---------------------------------------------------------------------------
// ApplyOverrides: patching a cached image must be value-for-value identical
// to re-encoding the patched table (the delta-aware ScopeStage contract).
// ---------------------------------------------------------------------------

TEST(ColumnTableTest, ApplyOverridesMatchesRebuild) {
  Table t(Schema("T",
                 {{"I", ValueType::kInt, Mutability::kMutable},
                  {"D", ValueType::kDouble, Mutability::kMutable},
                  {"B", ValueType::kBool, Mutability::kMutable},
                  {"S", ValueType::kString, Mutability::kMutable},
                  {"U", ValueType::kInt, Mutability::kMutable}},
                 {}));
  t.AppendUnchecked({Value::Int(1), Value::Double(1.5), Value::Bool(true),
                     Value::String("a"), Value::Int(10)});
  t.AppendUnchecked({Value::Int(2), Value::Double(2.5), Value::Bool(false),
                     Value::String("b"), Value::Int(20)});
  t.AppendUnchecked({Value::Null(), Value::Int(3), Value::Bool(true),
                     Value::Null(), Value::Int(30)});
  auto base = ColumnTable::FromTable(t);
  ASSERT_TRUE(base.ok());

  // Overrides touching every kind, including NULL-in, NULL-out, a new
  // dictionary string, and an int into a promoted double column. Column U
  // gets only a stale cell.
  TableCellOverrides overrides;
  overrides[0][0] = Value::Int(7);           // int -> kInt64
  overrides[0][2] = Value::Int(9);           // fills the NULL
  overrides[1][1] = Value::Int(4);           // int -> promoted kDouble
  overrides[1][0] = Value::Null();           // introduces a NULL
  overrides[2][1] = Value::Bool(true);       // bool -> kBool
  overrides[3][2] = Value::String("fresh");  // new category
  overrides[3][0] = Value::String("b");      // existing category
  overrides[9][0] = Value::Int(1);           // stale attr: skipped
  overrides[0][99] = Value::Int(1);          // stale row: skipped
  overrides[4][99] = Value::Int(1);          // stale row: skipped

  ColumnTable patched = *base;  // shares every column and the dictionary
  for (size_t a = 0; a < base->num_columns(); ++a) {
    EXPECT_EQ(&base->col(a), &patched.col(a)) << "a copy shares column " << a;
  }
  ASSERT_TRUE(patched.ApplyOverrides(overrides).ok());

  // Copy-on-write: the written columns are the patched image's own, the
  // untouched column (U, only a stale cell) still aliases the source, and
  // the source keeps every original value.
  for (size_t a = 0; a < 4; ++a) {
    EXPECT_NE(&base->col(a), &patched.col(a)) << "column " << a;
  }
  EXPECT_EQ(&base->col(4), &patched.col(4));
  for (size_t a = 0; a < t.schema().num_attributes(); ++a) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_TRUE(base->GetValue(r, a).Equals(t.At(r, a)))
          << "source cell (" << r << ", " << a << ")";
    }
  }

  // Reference: patch the row table, re-encode from scratch.
  Table patched_rows = t;
  for (const auto& [attr, cells] : overrides) {
    for (const auto& [row, value] : cells) {
      if (attr >= patched_rows.schema().num_attributes() ||
          row >= patched_rows.num_rows()) {
        continue;
      }
      patched_rows.SetValue(row, attr, value);
    }
  }
  auto rebuilt = ColumnTable::FromTable(patched_rows);
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_EQ(rebuilt->num_rows(), patched.num_rows());
  for (size_t a = 0; a < patched.num_columns(); ++a) {
    for (size_t r = 0; r < patched.num_rows(); ++r) {
      EXPECT_TRUE(rebuilt->GetValue(r, a).Equals(patched.GetValue(r, a)))
          << "cell (" << r << ", " << a << ")";
    }
  }
  // Column D lost its only genuine double to the NULL override, so a
  // rebuild infers kInt64 while the patched image lawfully keeps the wider
  // kDouble — Equals/Compare/Hash semantics are identical either way (the
  // PR-1 mixed-column contract), which the value loop above just verified.
  EXPECT_EQ(rebuilt->col(1).kind, ColumnKind::kInt64);
  EXPECT_EQ(patched.col(1).kind, ColumnKind::kDouble);

  // The new string was interned into a private dictionary: the patch source
  // still resolves its own codes and never saw "fresh".
  EXPECT_EQ(base->dict().Find("fresh"), Dictionary::kNullCode);
  EXPECT_TRUE(base->GetValue(0, 3).Equals(Value::String("a")));
  EXPECT_NE(patched.dict().Find("fresh"), Dictionary::kNullCode);
}

TEST(ColumnTableTest, ApplyOverridesRejectsKindChangingValues) {
  Table t(Schema("T",
                 {{"I", ValueType::kInt, Mutability::kMutable},
                  {"B", ValueType::kBool, Mutability::kMutable}},
                 {}));
  t.AppendUnchecked({Value::Int(1), Value::Bool(true)});
  auto base = ColumnTable::FromTable(t);
  ASSERT_TRUE(base.ok());

  // A double landing in an all-int column would change the inferred kind
  // (FromTable promotes to kDouble): the patch must refuse so the caller
  // rebuilds instead of serving a kind-mismatched image.
  {
    ColumnTable patched = *base;
    TableCellOverrides overrides;
    overrides[0][0] = Value::Double(1.5);
    EXPECT_FALSE(patched.ApplyOverrides(overrides).ok());
  }
  // Same for a non-bool landing in a bool column, and a string in numeric.
  {
    ColumnTable patched = *base;
    TableCellOverrides overrides;
    overrides[1][0] = Value::Int(1);
    EXPECT_FALSE(patched.ApplyOverrides(overrides).ok());
  }
  {
    ColumnTable patched = *base;
    TableCellOverrides overrides;
    overrides[0][0] = Value::String("oops");
    EXPECT_FALSE(patched.ApplyOverrides(overrides).ok());
  }
}

// ---------------------------------------------------------------------------
// Segment boundary: a patch landing on the first row of a 64k-row segment
// must not leak into the neighbouring segment.
// ---------------------------------------------------------------------------

TEST(ColumnTableTest, ApplyOverridesAtSegmentBoundary) {
  const size_t rows = ColumnTable::kSegmentRows + 10;
  Table t(Schema("T", {{"I", ValueType::kInt, Mutability::kMutable}}, {}));
  for (size_t r = 0; r < rows; ++r) {
    t.AppendUnchecked({Value::Int(static_cast<int64_t>(r % 97))});
  }
  auto base = ColumnTable::FromTable(t);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->num_segments(), 2u);

  // Patch the last row of segment 0, the first row of segment 1 (the cell
  // exactly on the 64k boundary), and the table's two end rows.
  const size_t last0 = ColumnTable::kSegmentRows - 1;
  const size_t first1 = ColumnTable::kSegmentRows;
  TableCellOverrides overrides;
  overrides[0][last0] = Value::Int(-1);
  overrides[0][first1] = Value::Int(-2);
  overrides[0][0] = Value::Int(-3);
  overrides[0][rows - 1] = Value::Int(-4);

  ColumnTable patched = *base;
  ASSERT_TRUE(patched.ApplyOverrides(overrides).ok());
  EXPECT_TRUE(patched.GetValue(last0, 0).Equals(Value::Int(-1)));
  EXPECT_TRUE(patched.GetValue(first1, 0).Equals(Value::Int(-2)));
  EXPECT_TRUE(patched.GetValue(0, 0).Equals(Value::Int(-3)));
  EXPECT_TRUE(patched.GetValue(rows - 1, 0).Equals(Value::Int(-4)));
  // Neighbours of the boundary cells are untouched.
  EXPECT_TRUE(patched.GetValue(last0 - 1, 0).Equals(base->GetValue(last0 - 1, 0)));
  EXPECT_TRUE(
      patched.GetValue(first1 + 1, 0).Equals(base->GetValue(first1 + 1, 0)));
}

// ---------------------------------------------------------------------------
// Compiled expressions: row mode, columnar mode, and the mask kernel all
// agree with the interpreting evaluator.
// ---------------------------------------------------------------------------

std::vector<sql::ExprPtr> TestPredicates() {
  using sql::BinaryOp;
  using sql::MakeBinary;
  using sql::MakeColumnRef;
  using sql::MakeInList;
  using sql::MakeLiteral;
  using sql::MakeNot;
  std::vector<sql::ExprPtr> preds;
  preds.push_back(MakeBinary(BinaryOp::kEq, MakeColumnRef("", "Brand"),
                             MakeLiteral(Value::String("Asus"))));
  preds.push_back(MakeBinary(BinaryOp::kGt, MakeColumnRef("", "Price"),
                             MakeLiteral(Value::Double(500.0))));
  preds.push_back(MakeBinary(
      BinaryOp::kAnd,
      MakeBinary(BinaryOp::kEq, MakeColumnRef("", "Category"),
                 MakeLiteral(Value::String("Laptop"))),
      MakeBinary(BinaryOp::kLe, MakeColumnRef("", "Price"),
                 MakeLiteral(Value::Double(800.0)))));
  preds.push_back(MakeNot(MakeBinary(BinaryOp::kEq,
                                     MakeColumnRef("", "Brand"),
                                     MakeLiteral(Value::String("Apple")))));
  {
    std::vector<sql::ExprPtr> items;
    items.push_back(MakeLiteral(Value::String("Asus")));
    items.push_back(MakeLiteral(Value::String("Vaio")));
    preds.push_back(MakeInList(MakeColumnRef("", "Brand"), std::move(items)));
  }
  // Arithmetic + comparison: Price * 1.1 > Quality + 600.
  preds.push_back(MakeBinary(
      BinaryOp::kGt,
      MakeBinary(BinaryOp::kMul, MakeColumnRef("", "Price"),
                 MakeLiteral(Value::Double(1.1))),
      MakeBinary(BinaryOp::kAdd, MakeColumnRef("", "Quality"),
                 MakeLiteral(Value::Double(600.0)))));
  // Or of string equality and numeric comparison.
  preds.push_back(MakeBinary(
      BinaryOp::kOr,
      MakeBinary(BinaryOp::kEq, MakeColumnRef("", "Category"),
                 MakeLiteral(Value::String("Phone"))),
      MakeBinary(BinaryOp::kLt, MakeColumnRef("", "Price"),
                 MakeLiteral(Value::Double(100.0)))));
  return preds;
}

TEST(CompiledExprTest, AgreesWithInterpreterOnAmazonProducts) {
  data::AmazonOptions opt;
  opt.products = 200;
  opt.reviews_per_product = 2;
  auto ds = data::MakeAmazonSyn(opt);
  ASSERT_TRUE(ds.ok());
  const Table& products = *ds->db.GetTable("Product").value();
  auto ct = ColumnTable::FromTable(products);
  ASSERT_TRUE(ct.ok());
  const std::vector<ScopedTuple> scope{
      ScopedTuple{products.schema().relation_name(), &products.schema()}};

  for (const sql::ExprPtr& pred : TestPredicates()) {
    auto compiled = CompiledExpr::Compile(*pred, scope);
    ASSERT_TRUE(compiled.ok()) << pred->ToString();
    auto bound = ColumnBoundExpr::Bind(*compiled, *ct);
    ASSERT_TRUE(bound.ok());
    auto mask = bound->EvalMask(/*max_threads=*/0);
    ASSERT_TRUE(mask.ok());

    for (size_t r = 0; r < products.num_rows(); ++r) {
      Env env;
      env.Bind(products.schema().relation_name(), &products.schema(),
               &products.row(r));
      auto expected = relational::EvalPredicate(*pred, env);
      ASSERT_TRUE(expected.ok()) << pred->ToString();

      const BoundRow frame{&products.row(r), nullptr};
      auto row_mode = compiled->EvalRowBool(&frame);
      ASSERT_TRUE(row_mode.ok());
      EXPECT_EQ(*row_mode, *expected) << pred->ToString() << " row " << r;

      auto col_mode = bound->EvalBool(r);
      ASSERT_TRUE(col_mode.ok());
      EXPECT_EQ(*col_mode, *expected) << pred->ToString() << " row " << r;

      EXPECT_EQ((*mask)[r] != 0, *expected) << pred->ToString() << " row "
                                            << r;
    }
  }
}

TEST(CompiledExprTest, ValueSemanticsMatchInterpreter) {
  // Integer arithmetic stays integral; division promotes; Neg preserves int.
  Table t(Schema("T",
                 {{"A", ValueType::kInt, Mutability::kMutable},
                  {"B", ValueType::kInt, Mutability::kMutable}},
                 {}));
  t.AppendUnchecked({Value::Int(7), Value::Int(2)});
  const std::vector<ScopedTuple> scope{ScopedTuple{"T", &t.schema()}};

  auto check = [&](sql::ExprPtr expr) {
    Env env;
    env.Bind("T", &t.schema(), &t.row(0));
    auto expected = relational::EvalExpr(*expr, env);
    auto compiled = CompiledExpr::Compile(*expr, scope);
    ASSERT_TRUE(compiled.ok());
    const BoundRow frame{&t.row(0), nullptr};
    auto got = compiled->EvalRowValue(&frame);
    ASSERT_EQ(got.ok(), expected.ok()) << expr->ToString();
    if (expected.ok()) {
      EXPECT_EQ(got->type(), expected->type()) << expr->ToString();
      EXPECT_TRUE(got->Equals(*expected)) << expr->ToString();
    }
  };

  using sql::BinaryOp;
  check(sql::MakeBinary(BinaryOp::kAdd, sql::MakeColumnRef("", "A"),
                        sql::MakeColumnRef("", "B")));
  check(sql::MakeBinary(BinaryOp::kMul, sql::MakeColumnRef("", "A"),
                        sql::MakeColumnRef("", "B")));
  check(sql::MakeBinary(BinaryOp::kDiv, sql::MakeColumnRef("", "A"),
                        sql::MakeColumnRef("", "B")));
  check(sql::MakeNeg(sql::MakeColumnRef("", "A")));
  check(sql::MakeBinary(BinaryOp::kDiv, sql::MakeColumnRef("", "A"),
                        sql::MakeLiteral(Value::Int(0))));  // error both ways
}

TEST(CompiledExprTest, MaskFallbackHandlesNullColumns) {
  Table t(Schema("T", {{"X", ValueType::kDouble, Mutability::kMutable}}, {}));
  t.AppendUnchecked({Value::Double(1.0)});
  t.AppendUnchecked({Value::Null()});
  t.AppendUnchecked({Value::Double(3.0)});
  auto ct = ColumnTable::FromTable(t);
  ASSERT_TRUE(ct.ok());
  // X > 2: NULL sorts before everything (no error), so row 1 is false.
  auto pred = sql::MakeBinary(sql::BinaryOp::kGt, sql::MakeColumnRef("", "X"),
                              sql::MakeLiteral(Value::Double(2.0)));
  auto mask = EvalPredicateMask(pred.get(), *ct, /*max_threads=*/0);
  ASSERT_TRUE(mask.ok());
  EXPECT_EQ((*mask)[0], 0);
  EXPECT_EQ((*mask)[1], 0);
  EXPECT_EQ((*mask)[2], 1);
}

// ---------------------------------------------------------------------------
// FeatureEncoder: the columnar fit labels string columns in first-seen row
// order (not dictionary-code order) and passes numeric columns through.
// ---------------------------------------------------------------------------

TEST(FeatureEncoderTest, ColumnarFitLabelsInFirstSeenOrder) {
  data::AmazonOptions opt;
  opt.products = 150;
  opt.reviews_per_product = 2;
  auto ds = data::MakeAmazonSyn(opt);
  ASSERT_TRUE(ds.ok());
  const Table& products = *ds->db.GetTable("Product").value();
  auto ct = ColumnTable::FromTable(products);
  ASSERT_TRUE(ct.ok());

  const std::vector<std::string> cols = {"Brand", "Price", "Category",
                                         "Quality"};
  auto enc = learn::FeatureEncoder::Fit(*ct, cols);
  ASSERT_TRUE(enc.ok());

  for (size_t f = 0; f < cols.size(); ++f) {
    const size_t attr = products.schema().IndexOf(cols[f]).value();
    const bool categorical =
        products.schema().attribute(attr).type == ValueType::kString;
    auto column = enc->EncodeColumn(*ct, f);
    ASSERT_TRUE(column.ok());
    std::map<std::string, double> label_of;
    for (size_t r = 0; r < products.num_rows(); ++r) {
      const Value& v = products.At(r, attr);
      double expected = 0.0;
      if (categorical) {
        // A label not seen before gets the next number.
        const double next = static_cast<double>(label_of.size());
        expected = label_of.emplace(v.string_value(), next).first->second;
      } else {
        expected = v.AsDouble().value();
      }
      EXPECT_EQ(expected, (*column)[r]) << cols[f] << " row " << r;
      EXPECT_EQ(expected, enc->EncodeValue(f, v).value())
          << cols[f] << " row " << r;
    }
    if (categorical) EXPECT_GT(label_of.size(), 1u) << cols[f];
  }
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  pool.ParallelFor(1000, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, PerStreamRngIsScheduleIndependent) {
  // Each shard draws from its own derived stream; the combined result must
  // not depend on the worker count.
  auto run = [](size_t num_threads) {
    ThreadPool pool(num_threads);
    std::vector<double> out(64);
    pool.ParallelFor(64, [&](size_t i) {
      Rng rng(DeriveStreamSeed(/*base=*/23, /*stream=*/i));
      double acc = 0.0;
      for (int k = 0; k < 100; ++k) acc += rng.Uniform();
      out[i] = acc;
    });
    return out;
  };
  const std::vector<double> one = run(1);
  const std::vector<double> four = run(4);
  ASSERT_EQ(one.size(), four.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], four[i]) << i;  // bit-for-bit
  }
}

TEST(ThreadPoolTest, DeriveStreamSeedSeparatesStreams) {
  EXPECT_NE(DeriveStreamSeed(7, 0), DeriveStreamSeed(7, 1));
  EXPECT_NE(DeriveStreamSeed(7, 0), DeriveStreamSeed(8, 0));
  EXPECT_EQ(DeriveStreamSeed(7, 3), DeriveStreamSeed(7, 3));
}

}  // namespace
}  // namespace hyper
