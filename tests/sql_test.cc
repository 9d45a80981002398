#include <gtest/gtest.h>

#include "sql/ast.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace hyper::sql {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  auto tokens = TokenizeSql("Select Price, 42 3.5 'Asus' (*)").value();
  ASSERT_EQ(tokens.size(), 10u);  // incl. kEnd
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[0].text, "Select");
  EXPECT_EQ(tokens[2].kind, TokenKind::kComma);
  EXPECT_EQ(tokens[3].int_value, 42);
  EXPECT_DOUBLE_EQ(tokens[4].double_value, 3.5);
  EXPECT_EQ(tokens[5].text, "Asus");
  EXPECT_EQ(tokens[6].kind, TokenKind::kLParen);
  EXPECT_EQ(tokens[7].kind, TokenKind::kStar);
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, ComparisonOperators) {
  auto tokens = TokenizeSql("= != <> < <= > >=").value();
  EXPECT_EQ(tokens[0].kind, TokenKind::kEq);
  EXPECT_EQ(tokens[1].kind, TokenKind::kNe);
  EXPECT_EQ(tokens[2].kind, TokenKind::kNe);
  EXPECT_EQ(tokens[3].kind, TokenKind::kLt);
  EXPECT_EQ(tokens[4].kind, TokenKind::kLe);
  EXPECT_EQ(tokens[5].kind, TokenKind::kGt);
  EXPECT_EQ(tokens[6].kind, TokenKind::kGe);
}

TEST(LexerTest, StringEscape) {
  auto tokens = TokenizeSql("'it''s'").value();
  EXPECT_EQ(tokens[0].text, "it's");
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = TokenizeSql("a -- comment here\n b").value();
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(LexerTest, PositionsTracked) {
  auto tokens = TokenizeSql("a\n  b").value();
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[1].column, 3);
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_EQ(TokenizeSql("'oops").status().code(), StatusCode::kParseError);
}

TEST(LexerTest, BadCharacterFails) {
  EXPECT_EQ(TokenizeSql("a ; b").status().code(), StatusCode::kParseError);
}

TEST(LexerTest, ScientificNotation) {
  auto tokens = TokenizeSql("1e3 2.5E-2").value();
  EXPECT_EQ(tokens[0].kind, TokenKind::kDouble);
  EXPECT_DOUBLE_EQ(tokens[0].double_value, 1000.0);
  EXPECT_DOUBLE_EQ(tokens[1].double_value, 0.025);
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

TEST(ParserTest, Precedence) {
  auto e = ParseSqlExpr("1 + 2 * 3").value();
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(e->op, BinaryOp::kAdd);
  EXPECT_EQ(e->children[1]->op, BinaryOp::kMul);
}

TEST(ParserTest, AndOrPrecedence) {
  auto e = ParseSqlExpr("a = 1 Or b = 2 And c = 3").value();
  EXPECT_EQ(e->op, BinaryOp::kOr);
  EXPECT_EQ(e->children[1]->op, BinaryOp::kAnd);
}

TEST(ParserTest, NotBindsTighterThanAnd) {
  auto e = ParseSqlExpr("Not a = 1 And b = 2").value();
  EXPECT_EQ(e->op, BinaryOp::kAnd);
  EXPECT_EQ(e->children[0]->kind, ExprKind::kNot);
}

TEST(ParserTest, QualifiedColumnRef) {
  auto e = ParseSqlExpr("T1.Price").value();
  EXPECT_EQ(e->kind, ExprKind::kColumnRef);
  EXPECT_EQ(e->qualifier, "T1");
  EXPECT_EQ(e->name, "Price");
}

TEST(ParserTest, PrePostWrappers) {
  auto e = ParseSqlExpr("Post(Senti) > 0.5").value();
  EXPECT_EQ(e->op, BinaryOp::kGt);
  EXPECT_EQ(e->children[0]->kind, ExprKind::kPost);
  auto p = ParseSqlExpr("Pre(Category) = 'Laptop'").value();
  EXPECT_EQ(p->children[0]->kind, ExprKind::kPre);
}

TEST(ParserTest, InList) {
  auto e = ParseSqlExpr("Brand In ('Asus', 'HP')").value();
  EXPECT_EQ(e->kind, ExprKind::kInList);
  EXPECT_EQ(e->children.size(), 3u);
}

TEST(ParserTest, Between) {
  auto e = ParseSqlExpr("Price Between 10 And 20").value();
  EXPECT_EQ(e->op, BinaryOp::kAnd);
  EXPECT_EQ(e->children[0]->op, BinaryOp::kGe);
  EXPECT_EQ(e->children[1]->op, BinaryOp::kLe);
}

TEST(ParserTest, ChainedComparison) {
  auto e = ParseSqlExpr("500 <= Post(Price) <= 800").value();
  EXPECT_EQ(e->op, BinaryOp::kAnd);
  EXPECT_EQ(e->children[0]->op, BinaryOp::kLe);
  EXPECT_EQ(e->children[1]->op, BinaryOp::kLe);
}

TEST(ParserTest, Literals) {
  EXPECT_TRUE(ParseSqlExpr("True").value()->literal.bool_value());
  EXPECT_FALSE(ParseSqlExpr("FALSE").value()->literal.bool_value());
  EXPECT_TRUE(ParseSqlExpr("Null").value()->literal.is_null());
  EXPECT_EQ(ParseSqlExpr("-5").value()->kind, ExprKind::kNeg);
}

TEST(ParserTest, L1FunctionCall) {
  auto e = ParseSqlExpr("L1(Pre(Price), Post(Price)) <= 400").value();
  EXPECT_EQ(e->op, BinaryOp::kLe);
  EXPECT_EQ(e->children[0]->kind, ExprKind::kFuncCall);
  EXPECT_EQ(e->children[0]->name, "L1");
}

TEST(ParserTest, AggregateCanonicalized) {
  auto e = ParseSqlExpr("average(Rating)").value();
  EXPECT_EQ(e->kind, ExprKind::kFuncCall);
  EXPECT_EQ(e->name, "Avg");
}

TEST(ParserTest, TrailingInputRejected) {
  EXPECT_FALSE(ParseSqlExpr("1 + 2 extra junk(").ok());
}

TEST(ParserTest, ExprRoundTripThroughPrinter) {
  const char* exprs[] = {
      "Price > 100 And Brand = 'Asus'",
      "Post(Senti) > 0.5",
      "a In (1, 2, 3)",
      "Not (x = 1)",
      "1 + 2 * 3 - 4 / 5",
  };
  for (const char* text : exprs) {
    auto e1 = ParseSqlExpr(text).value();
    auto e2 = ParseSqlExpr(e1->ToString()).value();
    EXPECT_EQ(e1->ToString(), e2->ToString()) << text;
  }
}

// ---------------------------------------------------------------------------
// Select statements
// ---------------------------------------------------------------------------

TEST(ParserTest, SelectPaperUseQuery) {
  // The Use-operator query of Figure 4.
  auto stmt = ParseSql(
                  "Select T1.PID, T1.Category, T1.Price, T1.Brand, "
                  "Avg(Sentiment) As Senti, Avg(T2.Rating) As Rtng "
                  "From Product As T1, Review As T2 "
                  "Where T1.PID = T2.PID "
                  "Group By T1.PID, T1.Category, T1.Price, T1.Brand")
                  .value();
  ASSERT_NE(stmt.select, nullptr);
  const SelectStmt& s = *stmt.select;
  ASSERT_EQ(s.items.size(), 6u);
  EXPECT_EQ(s.items[4].alias, "Senti");
  EXPECT_EQ(s.items[4].agg, AggKind::kAvg);
  EXPECT_EQ(s.items[5].agg, AggKind::kAvg);
  ASSERT_EQ(s.from.size(), 2u);
  EXPECT_EQ(s.from[0].table, "Product");
  EXPECT_EQ(s.from[0].alias, "T1");
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.group_by.size(), 4u);
}

TEST(ParserTest, SelectCountStar) {
  auto stmt = ParseSql("Select Count(*) From R").value();
  EXPECT_EQ(stmt.select->items[0].agg, AggKind::kCount);
  EXPECT_EQ(stmt.select->items[0].expr->kind, ExprKind::kStar);
}

TEST(ParserTest, SelectMissingFromFails) {
  EXPECT_FALSE(ParseSql("Select a, b").ok());
}

TEST(ParserTest, SelectRoundTrip) {
  auto s1 = ParseSql("Select a, Sum(b) As sb From R Where a > 1 Group By a")
                .value();
  auto s2 = ParseSql(s1.select->ToString()).value();
  EXPECT_EQ(s1.select->ToString(), s2.select->ToString());
}

// ---------------------------------------------------------------------------
// What-if statements
// ---------------------------------------------------------------------------

TEST(ParserTest, WhatIfFigure4) {
  // Figure 4's full what-if query.
  auto stmt = ParseSql(
                  "Use RelevantView As ("
                  "  Select T1.PID, T1.Category, T1.Price, T1.Brand, "
                  "         Avg(Sentiment) As Senti, Avg(T2.Rating) As Rtng "
                  "  From Product As T1, Review As T2 "
                  "  Where T1.PID = T2.PID "
                  "  Group By T1.PID, T1.Category, T1.Price, T1.Brand) "
                  "When Brand = 'Asus' "
                  "Update(Price) = 1.1 * Pre(Price) "
                  "Output Avg(Post(Rtng)) "
                  "For Pre(Category) = 'Laptop' And Pre(Brand) = 'Asus' "
                  "    And Post(Senti) > 0.5")
                  .value();
  ASSERT_NE(stmt.whatif, nullptr);
  const WhatIfStmt& w = *stmt.whatif;
  EXPECT_EQ(w.use.view_name, "RelevantView");
  ASSERT_NE(w.use.select, nullptr);
  ASSERT_NE(w.when, nullptr);
  ASSERT_EQ(w.updates.size(), 1u);
  EXPECT_EQ(w.updates[0].attribute, "Price");
  EXPECT_EQ(w.updates[0].func, UpdateFuncKind::kScale);
  EXPECT_DOUBLE_EQ(w.updates[0].constant.AsDouble().value(), 1.1);
  EXPECT_EQ(w.output.agg, AggKind::kAvg);
  ASSERT_NE(w.for_pred, nullptr);
  EXPECT_TRUE(ContainsPost(*w.for_pred));
  EXPECT_NE(w.for_pred->ToString().find("Pre(Category)"), std::string::npos);
}

TEST(ParserTest, WhatIfBareTableUse) {
  auto stmt =
      ParseSql("Use German Update(Status) = 2 Output Count(Credit = 1)")
          .value();
  ASSERT_NE(stmt.whatif, nullptr);
  EXPECT_TRUE(stmt.whatif->use.is_table());
  EXPECT_EQ(stmt.whatif->use.table, "German");
  EXPECT_EQ(stmt.whatif->updates[0].func, UpdateFuncKind::kSet);
  EXPECT_EQ(stmt.whatif->output.agg, AggKind::kCount);
}

TEST(ParserTest, WhatIfUpdateShapes) {
  auto set = ParseSql("Use R Update(A) = 5 Output Count(*)").value();
  EXPECT_EQ(set.whatif->updates[0].func, UpdateFuncKind::kSet);
  auto scale =
      ParseSql("Use R Update(A) = 1.2 * Pre(A) Output Count(*)").value();
  EXPECT_EQ(scale.whatif->updates[0].func, UpdateFuncKind::kScale);
  auto shift =
      ParseSql("Use R Update(A) = 100 + Pre(A) Output Count(*)").value();
  EXPECT_EQ(shift.whatif->updates[0].func, UpdateFuncKind::kShift);
  auto flipped =
      ParseSql("Use R Update(A) = Pre(A) + 100 Output Count(*)").value();
  EXPECT_EQ(flipped.whatif->updates[0].func, UpdateFuncKind::kShift);
  auto str = ParseSql("Use R Update(A) = 'Red' Output Count(*)").value();
  EXPECT_TRUE(str.whatif->updates[0].constant.Equals(Value::String("Red")));
  auto neg = ParseSql("Use R Update(A) = -3 Output Count(*)").value();
  EXPECT_TRUE(neg.whatif->updates[0].constant.Equals(Value::Int(-3)));
}

TEST(ParserTest, WhatIfMultipleUpdates) {
  auto stmt = ParseSql(
                  "Use R Update(Price) = 500 And Update(Color) = 'Red' "
                  "Output Avg(Post(Rating))")
                  .value();
  ASSERT_EQ(stmt.whatif->updates.size(), 2u);
  EXPECT_EQ(stmt.whatif->updates[1].attribute, "Color");
}

TEST(ParserTest, WhatIfUpdateMismatchedPreAttrFails) {
  EXPECT_FALSE(ParseSql("Use R Update(A) = 1.1 * Pre(B) Output Count(*)").ok());
}

TEST(ParserTest, WhatIfCountStarWithForPost) {
  // Figure 7b's template.
  auto stmt = ParseSql(
                  "Use D Update(B) = 1 Output Count(*) "
                  "For Post(Income) > 50 And Pre(A) = 2")
                  .value();
  ASSERT_NE(stmt.whatif, nullptr);
  EXPECT_EQ(stmt.whatif->output.inner, nullptr);
}

TEST(ParserTest, WhatIfRoundTrip) {
  auto s1 = ParseSql(
                "Use R When Brand = 'Asus' Update(Price) = 1.1 * Pre(Price) "
                "Output Avg(Post(Rating)) For Pre(Category) = 'Laptop'")
                .value();
  auto s2 = ParseSql(s1.whatif->ToString()).value();
  EXPECT_EQ(s1.whatif->ToString(), s2.whatif->ToString());
}

// ---------------------------------------------------------------------------
// How-to statements
// ---------------------------------------------------------------------------

TEST(ParserTest, HowToFigure5) {
  auto stmt = ParseSql(
                  "Use V As (Select PID, Price, Color, Brand, Category, "
                  "Avg(Rating) As Rtng From Product, Review "
                  "Where Product.PID = Review.PID "
                  "Group By PID, Price, Color, Brand, Category) "
                  "When Brand = 'Asus' And Category = 'Laptop' "
                  "HowToUpdate Price, Color "
                  "Limit 500 <= Post(Price) <= 800 And "
                  "      L1(Pre(Price), Post(Price)) <= 400 "
                  "ToMaximize Avg(Post(Rtng)) "
                  "For (Pre(Category) = 'Laptop' Or "
                  "     Pre(Category) = 'DSLR Camera') And Brand = 'Asus'")
                  .value();
  ASSERT_NE(stmt.howto, nullptr);
  const HowToStmt& h = *stmt.howto;
  ASSERT_EQ(h.update_attributes.size(), 2u);
  EXPECT_EQ(h.update_attributes[0], "Price");
  EXPECT_EQ(h.update_attributes[1], "Color");
  ASSERT_EQ(h.limits.size(), 2u);
  EXPECT_EQ(h.limits[0].kind, LimitKind::kAbsRange);
  EXPECT_DOUBLE_EQ(*h.limits[0].lo, 500);
  EXPECT_DOUBLE_EQ(*h.limits[0].hi, 800);
  EXPECT_EQ(h.limits[1].kind, LimitKind::kL1);
  EXPECT_DOUBLE_EQ(*h.limits[1].hi, 400);
  EXPECT_TRUE(h.maximize);
  EXPECT_EQ(h.objective_agg, AggKind::kAvg);
  ASSERT_NE(h.for_pred, nullptr);
}

TEST(ParserTest, HowToMinimizeAndInSet) {
  auto stmt = ParseSql(
                  "Use R HowToUpdate Color "
                  "Limit Post(Color) In ('Red', 'Blue') "
                  "ToMinimize Sum(Post(Cost))")
                  .value();
  ASSERT_NE(stmt.howto, nullptr);
  EXPECT_FALSE(stmt.howto->maximize);
  ASSERT_EQ(stmt.howto->limits.size(), 1u);
  EXPECT_EQ(stmt.howto->limits[0].kind, LimitKind::kInSet);
  EXPECT_EQ(stmt.howto->limits[0].values.size(), 2u);
}

TEST(ParserTest, HowToRelativeLimits) {
  auto stmt = ParseSql(
                  "Use R HowToUpdate A "
                  "Limit Post(A) <= Pre(A) + 100 And Post(A) >= Pre(A) * 0.5 "
                  "ToMaximize Avg(Post(Y))")
                  .value();
  ASSERT_EQ(stmt.howto->limits.size(), 2u);
  EXPECT_EQ(stmt.howto->limits[0].kind, LimitKind::kRelShift);
  EXPECT_TRUE(stmt.howto->limits[0].upper_is_bound);
  EXPECT_EQ(stmt.howto->limits[1].kind, LimitKind::kRelScale);
  EXPECT_FALSE(stmt.howto->limits[1].upper_is_bound);
}

TEST(ParserTest, HowToOneSidedLimits) {
  auto stmt = ParseSql(
                  "Use R HowToUpdate A Limit Post(A) <= 10 And Post(A) >= 2 "
                  "ToMaximize Avg(Post(Y))")
                  .value();
  ASSERT_EQ(stmt.howto->limits.size(), 2u);
  EXPECT_DOUBLE_EQ(*stmt.howto->limits[0].hi, 10);
  EXPECT_FALSE(stmt.howto->limits[0].lo.has_value());
  EXPECT_DOUBLE_EQ(*stmt.howto->limits[1].lo, 2);
}

TEST(ParserTest, HowToMissingObjectiveFails) {
  EXPECT_FALSE(ParseSql("Use R HowToUpdate A Limit Post(A) <= 10").ok());
}

TEST(ParserTest, HowToRoundTrip) {
  auto s1 = ParseSql(
                "Use R When Brand = 'Asus' HowToUpdate Price, Color "
                "Limit 500 <= Post(Price) <= 800 "
                "ToMaximize Avg(Post(Rtng)) For Pre(Category) = 'Laptop'")
                .value();
  auto s2 = ParseSql(s1.howto->ToString()).value();
  EXPECT_EQ(s1.howto->ToString(), s2.howto->ToString());
}

// ---------------------------------------------------------------------------
// AST utilities
// ---------------------------------------------------------------------------

TEST(AstTest, SplitConjunction) {
  auto e = ParseSqlExpr("a = 1 And b = 2 And c = 3").value();
  auto terms = SplitConjunction(*e);
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[0]->ToString(), "a = 1");
  EXPECT_EQ(terms[2]->ToString(), "c = 3");
}

TEST(AstTest, SplitConjunctionDoesNotCrossOr) {
  auto e = ParseSqlExpr("(a = 1 Or b = 2) And c = 3").value();
  auto terms = SplitConjunction(*e);
  ASSERT_EQ(terms.size(), 2u);
}

TEST(AstTest, CollectColumnRefsDedup) {
  auto e = ParseSqlExpr("Price > 10 And Price < 20 And Brand = 'A'").value();
  std::vector<std::string> cols;
  CollectColumnRefs(*e, &cols);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], "Price");
  EXPECT_EQ(cols[1], "Brand");
}

TEST(AstTest, CloneIsDeep) {
  auto e1 = ParseSqlExpr("a + b * 2").value();
  auto e2 = e1->Clone();
  e1->children[0]->name = "zzz";
  EXPECT_EQ(e2->children[0]->name, "a");
}

}  // namespace
}  // namespace hyper::sql
