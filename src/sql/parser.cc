#include "sql/parser.h"

#include "common/logging.h"
#include "common/strings.h"
#include "sql/lexer.h"

namespace hyper::sql {

namespace {

/// Words that cannot be used as bare column identifiers.
bool IsReservedKeyword(const std::string& word) {
  static const char* kReserved[] = {
      "SELECT", "FROM",   "WHERE",      "GROUP",      "BY",
      "AS",     "AND",    "OR",         "NOT",        "IN",
      "USE",    "WHEN",   "UPDATE",     "OUTPUT",     "FOR",
      "PRE",    "POST",   "HOWTOUPDATE", "LIMIT",     "TOMAXIMIZE",
      "TOMINIMIZE", "TRUE", "FALSE",    "NULL",       "BETWEEN",
  };
  for (const char* kw : kReserved) {
    if (EqualsIgnoreCase(word, kw)) return true;
  }
  return false;
}

bool IsAggName(const std::string& word, AggKind* kind) {
  if (EqualsIgnoreCase(word, "SUM")) {
    *kind = AggKind::kSum;
    return true;
  }
  if (EqualsIgnoreCase(word, "AVG") || EqualsIgnoreCase(word, "AVERAGE")) {
    *kind = AggKind::kAvg;
    return true;
  }
  if (EqualsIgnoreCase(word, "COUNT")) {
    *kind = AggKind::kCount;
    return true;
  }
  return false;
}

BinaryOp ComparisonOpFor(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEq: return BinaryOp::kEq;
    case TokenKind::kNe: return BinaryOp::kNe;
    case TokenKind::kLt: return BinaryOp::kLt;
    case TokenKind::kLe: return BinaryOp::kLe;
    case TokenKind::kGt: return BinaryOp::kGt;
    case TokenKind::kGe: return BinaryOp::kGe;
    default: HYPER_CHECK(false && "not a comparison token"); return BinaryOp::kEq;
  }
}

bool IsComparisonToken(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEq:
    case TokenKind::kNe:
    case TokenKind::kLt:
    case TokenKind::kLe:
    case TokenKind::kGt:
    case TokenKind::kGe:
      return true;
    default:
      return false;
  }
}

}  // namespace

const Token& Parser::Peek(size_t ahead) const {
  const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
  return tokens_[i];
}

const Token& Parser::Advance() {
  const Token& tok = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return tok;
}

bool Parser::Match(TokenKind kind) {
  if (Check(kind)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenKind kind, const char* context) {
  if (Check(kind)) {
    Advance();
    return Status::OK();
  }
  return ErrorHere(StrFormat("expected %s %s, found %s", TokenKindName(kind),
                             context, Peek().ToString().c_str()));
}

bool Parser::CheckKeyword(const char* kw, size_t ahead) const {
  const Token& tok = Peek(ahead);
  return tok.kind == TokenKind::kIdent && EqualsIgnoreCase(tok.text, kw);
}

bool Parser::MatchKeyword(const char* kw) {
  if (CheckKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::ExpectKeyword(const char* kw, const char* context) {
  if (MatchKeyword(kw)) return Status::OK();
  return ErrorHere(StrFormat("expected keyword %s %s, found %s", kw, context,
                             Peek().ToString().c_str()));
}

Status Parser::ErrorHere(const std::string& message) const {
  const Token& tok = Peek();
  return Status::ParseError(
      StrFormat("parse error at %d:%d: %s", tok.line, tok.column,
                message.c_str()));
}

Result<Statement> Parser::ParseStatement() {
  Statement stmt;
  if (CheckKeyword("SELECT")) {
    HYPER_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
  } else if (CheckKeyword("USE")) {
    HYPER_ASSIGN_OR_RETURN(UseClause use, ParseUse());
    ExprPtr when;
    if (MatchKeyword("WHEN")) {
      HYPER_ASSIGN_OR_RETURN(when, ParseExpr());
    }
    if (CheckKeyword("UPDATE")) {
      HYPER_ASSIGN_OR_RETURN(stmt.whatif,
                             ParseWhatIfTail(std::move(use), std::move(when)));
    } else if (CheckKeyword("HOWTOUPDATE")) {
      HYPER_ASSIGN_OR_RETURN(stmt.howto,
                             ParseHowToTail(std::move(use), std::move(when)));
    } else {
      return ErrorHere("expected Update or HowToUpdate after Use/When");
    }
  } else {
    return ErrorHere("expected Select or Use at start of statement");
  }
  if (!Check(TokenKind::kEnd)) {
    return ErrorHere("unexpected trailing input after statement");
  }
  return stmt;
}

Result<ExprPtr> Parser::ParseExprOnly() {
  HYPER_ASSIGN_OR_RETURN(auto expr, ParseExpr());
  if (!Check(TokenKind::kEnd)) {
    return ErrorHere("unexpected trailing input after expression");
  }
  return expr;
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelect() {
  HYPER_RETURN_NOT_OK(ExpectKeyword("SELECT", "to begin query"));
  auto stmt = std::make_unique<SelectStmt>();
  // Select list.
  while (true) {
    SelectItem item;
    AggKind agg;
    if (Peek().kind == TokenKind::kIdent && IsAggName(Peek().text, &agg) &&
        Peek(1).kind == TokenKind::kLParen) {
      Advance();  // aggregate name
      Advance();  // '('
      item.agg = agg;
      if (Check(TokenKind::kStar)) {
        Advance();
        item.expr = MakeStar();
      } else {
        HYPER_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      }
      HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after aggregate argument"));
    } else {
      HYPER_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    }
    if (MatchKeyword("AS")) {
      if (Peek().kind != TokenKind::kIdent) {
        return ErrorHere("expected alias identifier after As");
      }
      item.alias = Advance().text;
    }
    stmt->items.push_back(std::move(item));
    if (!Match(TokenKind::kComma)) break;
  }
  // From.
  HYPER_RETURN_NOT_OK(ExpectKeyword("FROM", "after select list"));
  while (true) {
    if (Peek().kind != TokenKind::kIdent || IsReservedKeyword(Peek().text)) {
      return ErrorHere("expected table name in From clause");
    }
    TableRef ref;
    ref.table = Advance().text;
    if (MatchKeyword("AS")) {
      if (Peek().kind != TokenKind::kIdent) {
        return ErrorHere("expected alias identifier after As");
      }
      ref.alias = Advance().text;
    } else if (Peek().kind == TokenKind::kIdent &&
               !IsReservedKeyword(Peek().text)) {
      ref.alias = Advance().text;  // bare alias
    }
    stmt->from.push_back(std::move(ref));
    if (!Match(TokenKind::kComma)) break;
  }
  // Where.
  if (MatchKeyword("WHERE")) {
    HYPER_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  // Group By.
  if (CheckKeyword("GROUP")) {
    Advance();
    HYPER_RETURN_NOT_OK(ExpectKeyword("BY", "after Group"));
    while (true) {
      HYPER_ASSIGN_OR_RETURN(ExprPtr g, ParseExpr());
      stmt->group_by.push_back(std::move(g));
      if (!Match(TokenKind::kComma)) break;
    }
  }
  return stmt;
}

Result<UseClause> Parser::ParseUse() {
  HYPER_RETURN_NOT_OK(ExpectKeyword("USE", "to begin hypothetical query"));
  UseClause use;
  if (Match(TokenKind::kLParen)) {
    HYPER_ASSIGN_OR_RETURN(use.select, ParseSelect());
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after embedded select"));
    return use;
  }
  if (Peek().kind != TokenKind::kIdent || IsReservedKeyword(Peek().text)) {
    return ErrorHere("expected relation or view name after Use");
  }
  std::string name = Advance().text;
  if (MatchKeyword("AS")) {
    use.view_name = std::move(name);
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kLParen, "after view name"));
    HYPER_ASSIGN_OR_RETURN(use.select, ParseSelect());
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after embedded select"));
    return use;
  }
  use.table = std::move(name);
  return use;
}

Result<UpdateClause> Parser::ParseUpdateClause() {
  HYPER_RETURN_NOT_OK(ExpectKeyword("UPDATE", "to begin update clause"));
  HYPER_RETURN_NOT_OK(Expect(TokenKind::kLParen, "after Update"));
  if (Peek().kind != TokenKind::kIdent) {
    return ErrorHere("expected attribute name inside Update(...)");
  }
  UpdateClause clause;
  clause.attribute = Advance().text;
  HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after update attribute"));
  HYPER_RETURN_NOT_OK(Expect(TokenKind::kEq, "after Update(attr)"));

  // RHS shapes: <const>, <const> * Pre(B), <const> + Pre(B),
  // Pre(B) * <const>, Pre(B) + <const>.
  auto parse_constant = [&]() -> Result<Value> {
    bool negate = Match(TokenKind::kMinus);
    const Token& tok = Peek();
    if (tok.kind == TokenKind::kInt) {
      Advance();
      return Value::Int(negate ? -tok.int_value : tok.int_value);
    }
    if (tok.kind == TokenKind::kDouble) {
      Advance();
      return Value::Double(negate ? -tok.double_value : tok.double_value);
    }
    if (!negate && tok.kind == TokenKind::kString) {
      Advance();
      return Value::String(tok.text);
    }
    if (!negate && tok.kind == TokenKind::kIdent &&
        EqualsIgnoreCase(tok.text, "TRUE")) {
      Advance();
      return Value::Bool(true);
    }
    if (!negate && tok.kind == TokenKind::kIdent &&
        EqualsIgnoreCase(tok.text, "FALSE")) {
      Advance();
      return Value::Bool(false);
    }
    return Status(StatusCode::kParseError,
                  StrFormat("parse error at %d:%d: expected constant in "
                            "update function, found %s",
                            tok.line, tok.column, tok.ToString().c_str()));
  };

  auto parse_pre_ref = [&]() -> Status {
    HYPER_RETURN_NOT_OK(ExpectKeyword("PRE", "in update function"));
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kLParen, "after Pre"));
    if (Peek().kind != TokenKind::kIdent) {
      return ErrorHere("expected attribute name inside Pre(...)");
    }
    const std::string attr = Advance().text;
    if (!EqualsIgnoreCase(attr, clause.attribute)) {
      return ErrorHere("Pre(" + attr + ") must reference the updated attribute '" +
                       clause.attribute + "'");
    }
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after Pre attribute"));
    return Status::OK();
  };

  if (CheckKeyword("PRE")) {
    // Pre(B) * c  |  Pre(B) + c
    HYPER_RETURN_NOT_OK(parse_pre_ref());
    if (Match(TokenKind::kStar)) {
      clause.func = UpdateFuncKind::kScale;
    } else if (Match(TokenKind::kPlus)) {
      clause.func = UpdateFuncKind::kShift;
    } else if (Match(TokenKind::kMinus)) {
      clause.func = UpdateFuncKind::kShift;
      HYPER_ASSIGN_OR_RETURN(Value c, parse_constant());
      HYPER_ASSIGN_OR_RETURN(double d, c.AsDouble());
      clause.constant = Value::Double(-d);
      return clause;
    } else {
      return ErrorHere("expected '*' or '+' after Pre(attr) in update function");
    }
    HYPER_ASSIGN_OR_RETURN(clause.constant, parse_constant());
    return clause;
  }

  HYPER_ASSIGN_OR_RETURN(Value c, parse_constant());
  if (Match(TokenKind::kStar)) {
    clause.func = UpdateFuncKind::kScale;
    clause.constant = std::move(c);
    HYPER_RETURN_NOT_OK(parse_pre_ref());
    return clause;
  }
  if (Match(TokenKind::kPlus)) {
    clause.func = UpdateFuncKind::kShift;
    clause.constant = std::move(c);
    HYPER_RETURN_NOT_OK(parse_pre_ref());
    return clause;
  }
  clause.func = UpdateFuncKind::kSet;
  clause.constant = std::move(c);
  return clause;
}

Result<AggKind> Parser::ParseAggName(const char* context) {
  AggKind agg;
  if (Peek().kind == TokenKind::kIdent && IsAggName(Peek().text, &agg)) {
    Advance();
    return agg;
  }
  return ErrorHere(StrFormat("expected aggregate (Sum/Avg/Count) %s, found %s",
                             context, Peek().ToString().c_str()));
}

Result<OutputClause> Parser::ParseOutputClause() {
  HYPER_RETURN_NOT_OK(ExpectKeyword("OUTPUT", "to begin output clause"));
  OutputClause out;
  HYPER_ASSIGN_OR_RETURN(out.agg, ParseAggName("in Output clause"));
  HYPER_RETURN_NOT_OK(Expect(TokenKind::kLParen, "after aggregate"));
  if (Check(TokenKind::kStar)) {
    Advance();
    out.inner = nullptr;  // COUNT(*)
  } else {
    HYPER_ASSIGN_OR_RETURN(out.inner, ParseExpr());
  }
  HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after aggregate argument"));
  return out;
}

Result<std::unique_ptr<WhatIfStmt>> Parser::ParseWhatIfTail(UseClause use,
                                                            ExprPtr when) {
  auto stmt = std::make_unique<WhatIfStmt>();
  stmt->use = std::move(use);
  stmt->when = std::move(when);
  while (true) {
    HYPER_ASSIGN_OR_RETURN(UpdateClause clause, ParseUpdateClause());
    stmt->updates.push_back(std::move(clause));
    // Multiple updates chain with And (§3.1).
    if (CheckKeyword("AND") && CheckKeyword("UPDATE", 1)) {
      Advance();  // And
      continue;
    }
    break;
  }
  HYPER_ASSIGN_OR_RETURN(stmt->output, ParseOutputClause());
  if (MatchKeyword("FOR")) {
    HYPER_ASSIGN_OR_RETURN(stmt->for_pred, ParseExpr());
  }
  return stmt;
}

Result<LimitItem> Parser::ParseLimitItem() {
  LimitItem item;

  auto expect_attr_in = [&](const char* wrapper) -> Result<std::string> {
    HYPER_RETURN_NOT_OK(ExpectKeyword(wrapper, "in Limit clause"));
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kLParen, "in Limit clause"));
    if (Peek().kind != TokenKind::kIdent) {
      return ErrorHere("expected attribute name in Limit clause");
    }
    std::string attr = Advance().text;
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "in Limit clause"));
    return attr;
  };

  auto parse_number = [&]() -> Result<double> {
    bool negate = Match(TokenKind::kMinus);
    const Token& tok = Peek();
    double v = 0;
    if (tok.kind == TokenKind::kInt) {
      v = static_cast<double>(tok.int_value);
    } else if (tok.kind == TokenKind::kDouble) {
      v = tok.double_value;
    } else {
      return Status(StatusCode::kParseError,
                    StrFormat("parse error at %d:%d: expected number in "
                              "Limit clause, found %s",
                              tok.line, tok.column, tok.ToString().c_str()));
    }
    Advance();
    return negate ? -v : v;
  };

  // Form 1: L1(Pre(A), Post(A)) <= theta
  if (CheckKeyword("L1")) {
    Advance();
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kLParen, "after L1"));
    HYPER_ASSIGN_OR_RETURN(std::string a1, expect_attr_in("PRE"));
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kComma, "between L1 arguments"));
    HYPER_ASSIGN_OR_RETURN(std::string a2, expect_attr_in("POST"));
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after L1 arguments"));
    if (!EqualsIgnoreCase(a1, a2)) {
      return ErrorHere("L1 bound must reference one attribute (got '" + a1 +
                       "' and '" + a2 + "')");
    }
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kLe, "after L1(...)"));
    HYPER_ASSIGN_OR_RETURN(double theta, parse_number());
    item.kind = LimitKind::kL1;
    item.attribute = std::move(a1);
    item.hi = theta;
    return item;
  }

  // Form 2: <num> <= Post(A) [<= <num>]
  if (Peek().kind == TokenKind::kInt || Peek().kind == TokenKind::kDouble ||
      Peek().kind == TokenKind::kMinus) {
    HYPER_ASSIGN_OR_RETURN(double lo, parse_number());
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kLe, "after lower bound"));
    HYPER_ASSIGN_OR_RETURN(item.attribute, expect_attr_in("POST"));
    item.kind = LimitKind::kAbsRange;
    item.lo = lo;
    if (Match(TokenKind::kLe)) {
      HYPER_ASSIGN_OR_RETURN(double hi, parse_number());
      item.hi = hi;
    }
    return item;
  }

  // Forms starting with Post(A).
  HYPER_ASSIGN_OR_RETURN(item.attribute, expect_attr_in("POST"));
  if (MatchKeyword("IN")) {
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kLParen, "after In"));
    item.kind = LimitKind::kInSet;
    while (true) {
      const Token& tok = Peek();
      if (tok.kind == TokenKind::kString) {
        item.values.push_back(Value::String(tok.text));
        Advance();
      } else if (tok.kind == TokenKind::kInt) {
        item.values.push_back(Value::Int(tok.int_value));
        Advance();
      } else if (tok.kind == TokenKind::kDouble) {
        item.values.push_back(Value::Double(tok.double_value));
        Advance();
      } else {
        return ErrorHere("expected literal in In-set");
      }
      if (!Match(TokenKind::kComma)) break;
    }
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after In-set"));
    return item;
  }

  bool upper;
  if (Match(TokenKind::kLe)) {
    upper = true;
  } else if (Match(TokenKind::kGe)) {
    upper = false;
  } else {
    return ErrorHere("expected '<=', '>=' or In after Post(attr) in Limit");
  }

  if (CheckKeyword("PRE")) {
    // Post(A) <= Pre(A) + c   |  Post(A) <= Pre(A) * c
    HYPER_ASSIGN_OR_RETURN(std::string pre_attr, expect_attr_in("PRE"));
    if (!EqualsIgnoreCase(pre_attr, item.attribute)) {
      return ErrorHere("relative Limit must reference one attribute");
    }
    if (Match(TokenKind::kPlus)) {
      item.kind = LimitKind::kRelShift;
    } else if (Match(TokenKind::kStar)) {
      item.kind = LimitKind::kRelScale;
    } else {
      return ErrorHere("expected '+' or '*' after Pre(attr) in Limit");
    }
    HYPER_ASSIGN_OR_RETURN(double c, parse_number());
    item.hi = c;
    item.upper_is_bound = upper;
    return item;
  }

  HYPER_ASSIGN_OR_RETURN(double bound, parse_number());
  item.kind = LimitKind::kAbsRange;
  if (upper) {
    item.hi = bound;
    // Allow chained `Post(A) <= h` without lower bound, or `>=` after.
  } else {
    item.lo = bound;
  }
  return item;
}

Result<std::unique_ptr<HowToStmt>> Parser::ParseHowToTail(UseClause use,
                                                          ExprPtr when) {
  auto stmt = std::make_unique<HowToStmt>();
  stmt->use = std::move(use);
  stmt->when = std::move(when);
  HYPER_RETURN_NOT_OK(ExpectKeyword("HOWTOUPDATE", "to begin how-to clause"));
  while (true) {
    if (Peek().kind != TokenKind::kIdent || IsReservedKeyword(Peek().text)) {
      return ErrorHere("expected attribute name in HowToUpdate list");
    }
    stmt->update_attributes.push_back(Advance().text);
    if (!Match(TokenKind::kComma)) break;
  }
  if (MatchKeyword("LIMIT")) {
    while (true) {
      HYPER_ASSIGN_OR_RETURN(LimitItem item, ParseLimitItem());
      stmt->limits.push_back(std::move(item));
      if (!MatchKeyword("AND")) break;
    }
  }
  if (MatchKeyword("TOMAXIMIZE")) {
    stmt->maximize = true;
  } else if (MatchKeyword("TOMINIMIZE")) {
    stmt->maximize = false;
  } else {
    return ErrorHere("expected ToMaximize or ToMinimize");
  }
  HYPER_ASSIGN_OR_RETURN(stmt->objective_agg, ParseAggName("in objective"));
  HYPER_RETURN_NOT_OK(Expect(TokenKind::kLParen, "after objective aggregate"));
  if (Check(TokenKind::kStar)) {
    Advance();
    stmt->objective_inner = nullptr;
  } else {
    HYPER_ASSIGN_OR_RETURN(stmt->objective_inner, ParseExpr());
  }
  HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after objective argument"));
  if (MatchKeyword("FOR")) {
    HYPER_ASSIGN_OR_RETURN(stmt->for_pred, ParseExpr());
  }
  return stmt;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Result<ExprPtr> Parser::ParseExpr() { return ParseOr(); }

Result<ExprPtr> Parser::ParseOr() {
  HYPER_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
  while (CheckKeyword("OR")) {
    Advance();
    HYPER_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
    lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAnd() {
  HYPER_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
  while (CheckKeyword("AND")) {
    // What-if statements chain multiple Update clauses with And; leave that
    // And for the statement parser.
    if (CheckKeyword("UPDATE", 1)) break;
    Advance();
    HYPER_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
    lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseNot() {
  if (MatchKeyword("NOT")) {
    HYPER_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
    return MakeNot(std::move(inner));
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseComparison() {
  HYPER_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());

  if (MatchKeyword("IN")) {
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kLParen, "after In"));
    std::vector<ExprPtr> items;
    while (true) {
      HYPER_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
      items.push_back(std::move(item));
      if (!Match(TokenKind::kComma)) break;
    }
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after In list"));
    return MakeInList(std::move(lhs), std::move(items));
  }

  if (MatchKeyword("BETWEEN")) {
    HYPER_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
    HYPER_RETURN_NOT_OK(ExpectKeyword("AND", "in Between"));
    HYPER_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
    ExprPtr ge = MakeBinary(BinaryOp::kGe, lhs->Clone(), std::move(lo));
    ExprPtr le = MakeBinary(BinaryOp::kLe, std::move(lhs), std::move(hi));
    return MakeBinary(BinaryOp::kAnd, std::move(ge), std::move(le));
  }

  if (!IsComparisonToken(Peek().kind)) return lhs;
  BinaryOp op = ComparisonOpFor(Advance().kind);
  HYPER_ASSIGN_OR_RETURN(ExprPtr mid, ParseAdditive());

  // Chained comparison: l <= x <= h desugars to (l <= x) And (x <= h).
  if (IsComparisonToken(Peek().kind)) {
    BinaryOp op2 = ComparisonOpFor(Advance().kind);
    HYPER_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    ExprPtr first = MakeBinary(op, std::move(lhs), mid->Clone());
    ExprPtr second = MakeBinary(op2, std::move(mid), std::move(rhs));
    return MakeBinary(BinaryOp::kAnd, std::move(first), std::move(second));
  }
  return MakeBinary(op, std::move(lhs), std::move(mid));
}

Result<ExprPtr> Parser::ParseAdditive() {
  HYPER_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
  while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
    BinaryOp op = Check(TokenKind::kPlus) ? BinaryOp::kAdd : BinaryOp::kSub;
    Advance();
    HYPER_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
    lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  HYPER_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  while (Check(TokenKind::kStar) || Check(TokenKind::kSlash)) {
    BinaryOp op = Check(TokenKind::kStar) ? BinaryOp::kMul : BinaryOp::kDiv;
    Advance();
    HYPER_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
    lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseUnary() {
  if (Match(TokenKind::kMinus)) {
    HYPER_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
    return MakeNeg(std::move(inner));
  }
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& tok = Peek();
  switch (tok.kind) {
    case TokenKind::kInt:
      Advance();
      return MakeLiteral(Value::Int(tok.int_value));
    case TokenKind::kDouble:
      Advance();
      return MakeLiteral(Value::Double(tok.double_value));
    case TokenKind::kString:
      Advance();
      return MakeLiteral(Value::String(tok.text));
    case TokenKind::kLParen: {
      Advance();
      HYPER_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "to close group"));
      return inner;
    }
    case TokenKind::kIdent:
      break;  // handled below
    default:
      return ErrorHere(StrFormat("unexpected token %s in expression",
                                 tok.ToString().c_str()));
  }

  // Identifier-led forms.
  if (CheckKeyword("TRUE")) {
    Advance();
    return MakeLiteral(Value::Bool(true));
  }
  if (CheckKeyword("FALSE")) {
    Advance();
    return MakeLiteral(Value::Bool(false));
  }
  if (CheckKeyword("NULL")) {
    Advance();
    return MakeLiteral(Value::Null());
  }
  if (CheckKeyword("PRE") && Peek(1).kind == TokenKind::kLParen) {
    Advance();
    Advance();
    HYPER_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after Pre argument"));
    return MakePre(std::move(inner));
  }
  if (CheckKeyword("POST") && Peek(1).kind == TokenKind::kLParen) {
    Advance();
    Advance();
    HYPER_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after Post argument"));
    return MakePost(std::move(inner));
  }

  // Aggregate or generic function call.
  if (Peek(1).kind == TokenKind::kLParen && !IsReservedKeyword(tok.text)) {
    AggKind agg;
    const bool is_agg = IsAggName(tok.text, &agg);
    std::string fname = tok.text;
    Advance();  // name
    Advance();  // '('
    std::vector<ExprPtr> args;
    if (Check(TokenKind::kStar)) {
      Advance();
      args.push_back(MakeStar());
    } else if (!Check(TokenKind::kRParen)) {
      while (true) {
        HYPER_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        args.push_back(std::move(arg));
        if (!Match(TokenKind::kComma)) break;
      }
    }
    HYPER_RETURN_NOT_OK(Expect(TokenKind::kRParen, "after function arguments"));
    // Canonicalize aggregate names so later layers match on one spelling.
    if (is_agg) fname = AggKindName(agg);
    return MakeFuncCall(std::move(fname), std::move(args));
  }

  if (IsReservedKeyword(tok.text)) {
    return ErrorHere(StrFormat("unexpected keyword %s in expression",
                               tok.text.c_str()));
  }

  // Column reference, possibly qualified.
  std::string first = Advance().text;
  if (Match(TokenKind::kDot)) {
    if (Peek().kind != TokenKind::kIdent) {
      return ErrorHere("expected attribute name after '.'");
    }
    std::string second = Advance().text;
    return MakeColumnRef(std::move(first), std::move(second));
  }
  return MakeColumnRef("", std::move(first));
}

Result<Statement> ParseSql(const std::string& text) {
  HYPER_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeSql(text));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<ExprPtr> ParseSqlExpr(const std::string& text) {
  HYPER_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeSql(text));
  Parser parser(std::move(tokens));
  return parser.ParseExprOnly();
}

}  // namespace hyper::sql
