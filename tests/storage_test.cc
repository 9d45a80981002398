#include <gtest/gtest.h>

#include "storage/database.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace hyper {
namespace {

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), ValueType::kBool);
  EXPECT_EQ(Value::Int(7).type(), ValueType::kInt);
  EXPECT_EQ(Value::Double(1.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value::String("x").type(), ValueType::kString);
  EXPECT_EQ(Value::Int(7).int_value(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).double_value(), 1.5);
  EXPECT_EQ(Value::String("x").string_value(), "x");
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_DOUBLE_EQ(Value::Int(3).AsDouble().value(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Bool(true).AsDouble().value(), 1.0);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble().value(), 2.5);
  EXPECT_FALSE(Value::Null().AsDouble().ok());
  EXPECT_FALSE(Value::String("a").AsDouble().ok());
}

TEST(ValueTest, BoolCoercion) {
  EXPECT_TRUE(Value::Int(5).AsBool().value());
  EXPECT_FALSE(Value::Int(0).AsBool().value());
  EXPECT_TRUE(Value::Double(0.1).AsBool().value());
  EXPECT_FALSE(Value::String("t").AsBool().ok());
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_TRUE(Value::Int(3).Equals(Value::Double(3.0)));
  EXPECT_TRUE(Value::Bool(true).Equals(Value::Int(1)));
  EXPECT_FALSE(Value::Int(3).Equals(Value::Double(3.5)));
  EXPECT_FALSE(Value::Int(3).Equals(Value::String("3")));
  EXPECT_TRUE(Value::Null().Equals(Value::Null()));
  EXPECT_FALSE(Value::Null().Equals(Value::Int(0)));
}

TEST(ValueTest, CompareNumbersAndStrings) {
  EXPECT_EQ(Value::Int(1).Compare(Value::Double(2.0)).value(), -1);
  EXPECT_EQ(Value::Double(2.0).Compare(Value::Int(1)).value(), 1);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)).value(), 0);
  EXPECT_EQ(Value::String("a").Compare(Value::String("b")).value(), -1);
  EXPECT_FALSE(Value::String("a").Compare(Value::Int(1)).ok());
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_EQ(Value::Null().Compare(Value::Int(-100)).value(), -1);
  EXPECT_EQ(Value::Int(-100).Compare(Value::Null()).value(), 1);
  EXPECT_EQ(Value::Null().Compare(Value::Null()).value(), 0);
}

TEST(ValueTest, HashConsistentWithEquals) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::Bool(true).Hash(), Value::Int(1).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(true).ToString(), "TRUE");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::String("Asus").ToString(), "'Asus'");
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

Schema ProductSchema() {
  return Schema("Product",
                {{"PID", ValueType::kInt, Mutability::kImmutable},
                 {"Category", ValueType::kString, Mutability::kImmutable},
                 {"Price", ValueType::kDouble, Mutability::kMutable},
                 {"Brand", ValueType::kString, Mutability::kImmutable},
                 {"Quality", ValueType::kDouble, Mutability::kMutable}},
                {"PID"});
}

TEST(SchemaTest, LookupByName) {
  Schema s = ProductSchema();
  EXPECT_EQ(s.IndexOf("Price").value(), 2u);
  EXPECT_FALSE(s.IndexOf("Nope").ok());
  EXPECT_TRUE(s.Contains("Brand"));
  EXPECT_FALSE(s.Contains("brand"));  // case-sensitive attribute names
}

TEST(SchemaTest, KeyHandling) {
  Schema s = ProductSchema();
  ASSERT_EQ(s.key_indices().size(), 1u);
  EXPECT_EQ(s.key_indices()[0], 0u);
  EXPECT_TRUE(s.IsKeyAttribute(0));
  EXPECT_FALSE(s.IsKeyAttribute(2));
}

TEST(SchemaTest, KeysForcedImmutable) {
  Schema s("R", {{"K", ValueType::kInt, Mutability::kMutable},
                 {"A", ValueType::kDouble, Mutability::kMutable}},
           {"K"});
  EXPECT_EQ(s.attribute(0).mutability, Mutability::kImmutable);
  EXPECT_EQ(s.attribute(1).mutability, Mutability::kMutable);
}

TEST(SchemaTest, CompositeKey) {
  Schema s("Review",
           {{"PID", ValueType::kInt, Mutability::kImmutable},
            {"ReviewID", ValueType::kInt, Mutability::kImmutable},
            {"Rating", ValueType::kDouble, Mutability::kMutable}},
           {"PID", "ReviewID"});
  EXPECT_EQ(s.key_indices().size(), 2u);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(TableTest, AppendAndAccess) {
  Table t(ProductSchema());
  ASSERT_TRUE(t.Append({Value::Int(1), Value::String("Laptop"),
                        Value::Double(999), Value::String("Vaio"),
                        Value::Double(0.7)})
                  .ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.At(0, 3).Equals(Value::String("Vaio")));
}

TEST(TableTest, AppendRejectsWrongArity) {
  Table t(ProductSchema());
  EXPECT_EQ(t.Append({Value::Int(1)}).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, AppendRejectsWrongType) {
  Table t(ProductSchema());
  Status s = t.Append({Value::Int(1), Value::String("Laptop"),
                       Value::String("not-a-price"), Value::String("V"),
                       Value::Double(0.7)});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, AppendWidensIntToDouble) {
  Table t(ProductSchema());
  EXPECT_TRUE(t.Append({Value::Int(1), Value::String("Laptop"),
                        Value::Int(999), Value::String("V"),
                        Value::Double(0.7)})
                  .ok());
}

TEST(TableTest, AppendAllowsNull) {
  Table t(ProductSchema());
  EXPECT_TRUE(t.Append({Value::Int(1), Value::Null(), Value::Null(),
                        Value::Null(), Value::Null()})
                  .ok());
}

TEST(TableTest, SetValueMutates) {
  Table t(ProductSchema());
  ASSERT_TRUE(t.Append({Value::Int(1), Value::String("Laptop"),
                        Value::Double(999), Value::String("Vaio"),
                        Value::Double(0.7)})
                  .ok());
  t.SetValue(0, 2, Value::Double(1099));
  EXPECT_DOUBLE_EQ(t.At(0, 2).double_value(), 1099);
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

TEST(DatabaseTest, AddAndGet) {
  Database db;
  ASSERT_TRUE(db.AddTable(ProductSchema()).ok());
  EXPECT_TRUE(db.GetTable("Product").ok());
  EXPECT_FALSE(db.GetTable("Review").ok());
  EXPECT_EQ(db.TableNames(), std::vector<std::string>{"Product"});
}

TEST(DatabaseTest, DuplicateRejected) {
  Database db;
  ASSERT_TRUE(db.AddTable(ProductSchema()).ok());
  EXPECT_EQ(db.AddTable(ProductSchema()).code(), StatusCode::kAlreadyExists);
}

TEST(DatabaseTest, RelationOfAttribute) {
  Database db;
  ASSERT_TRUE(db.AddTable(ProductSchema()).ok());
  ASSERT_TRUE(db.AddTable(Schema("Review",
                                 {{"PID", ValueType::kInt},
                                  {"Rating", ValueType::kDouble}},
                                 {"PID"}))
                  .ok());
  EXPECT_EQ(db.RelationOfAttribute("Price").value(), "Product");
  EXPECT_EQ(db.RelationOfAttribute("Rating").value(), "Review");
  // PID appears in both relations.
  EXPECT_EQ(db.RelationOfAttribute("PID").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.RelationOfAttribute("Zzz").status().code(),
            StatusCode::kNotFound);
}

TEST(DatabaseTest, CloneIsDeep) {
  Database db;
  ASSERT_TRUE(db.AddTable(ProductSchema()).ok());
  Table* t = db.GetMutableTable("Product").value();
  ASSERT_TRUE(t->Append({Value::Int(1), Value::String("Laptop"),
                         Value::Double(999), Value::String("Vaio"),
                         Value::Double(0.7)})
                  .ok());
  Database copy = db.Clone();
  copy.GetMutableTable("Product").value()->SetValue(0, 2, Value::Double(1));
  EXPECT_DOUBLE_EQ(db.GetTable("Product").value()->At(0, 2).double_value(),
                   999);
}

TEST(DatabaseTest, TotalRowsAndNames) {
  Database db;
  ASSERT_TRUE(db.AddTable(ProductSchema()).ok());
  Table* t = db.GetMutableTable("Product").value();
  t->AppendUnchecked({Value::Int(1), Value::String("L"), Value::Double(1),
                      Value::String("B"), Value::Double(0.5)});
  t->AppendUnchecked({Value::Int(2), Value::String("L"), Value::Double(2),
                      Value::String("B"), Value::Double(0.5)});
  EXPECT_EQ(db.TotalRows(), 2u);
  EXPECT_EQ(db.TableNames(), std::vector<std::string>{"Product"});
}

}  // namespace
}  // namespace hyper
