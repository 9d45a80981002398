#ifndef HYPER_SQL_PARSER_H_
#define HYPER_SQL_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace hyper::sql {

/// Recursive-descent parser for the HypeR dialect (§3.1, §4.1):
///
///   statement  := whatif | howto | select
///   whatif     := use [When expr] update+ output [For expr]
///   howto      := use [When expr] HowToUpdate ident (',' ident)*
///                 [Limit limit (And limit)*]
///                 (ToMaximize | ToMinimize) agg '(' expr ')' [For expr]
///   use        := Use ident | Use ident As '(' select ')' | Use '(' select ')'
///   update     := Update '(' ident ')' '=' f      (And-chained)
///   output     := Output agg '(' expr | '*' ')'
///   select     := Select items From refs [Where expr] [Group By exprs]
///
/// Expressions support Or/And/Not, comparisons (including the chained
/// `l <= x <= h` form), In-lists, Between, arithmetic, Pre()/Post() value
/// references, aggregate calls, and L1(). Keywords are case-insensitive.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement();

  // Entry points used directly by tests and programmatic callers.
  Result<ExprPtr> ParseExprOnly();

 private:
  // Token plumbing.
  const Token& Peek(size_t ahead = 0) const;
  const Token& Advance();
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Match(TokenKind kind);
  Status Expect(TokenKind kind, const char* context);
  bool CheckKeyword(const char* kw, size_t ahead = 0) const;
  bool MatchKeyword(const char* kw);
  Status ExpectKeyword(const char* kw, const char* context);
  Status ErrorHere(const std::string& message) const;

  // Statement grammar.
  Result<std::unique_ptr<SelectStmt>> ParseSelect();
  Result<UseClause> ParseUse();
  Result<std::unique_ptr<WhatIfStmt>> ParseWhatIfTail(UseClause use,
                                                      ExprPtr when);
  Result<std::unique_ptr<HowToStmt>> ParseHowToTail(UseClause use,
                                                    ExprPtr when);
  Result<UpdateClause> ParseUpdateClause();
  Result<OutputClause> ParseOutputClause();
  Result<LimitItem> ParseLimitItem();
  Result<AggKind> ParseAggName(const char* context);

  // Expression grammar (highest function = lowest precedence).
  Result<ExprPtr> ParseExpr();
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

/// Parses one statement from query text.
Result<Statement> ParseSql(const std::string& text);

/// Parses a standalone expression (tests, predicate construction).
// lint:allow(unreferenced): test-hook — tests build predicates from text.
Result<ExprPtr> ParseSqlExpr(const std::string& text);

}  // namespace hyper::sql

#endif  // HYPER_SQL_PARSER_H_
