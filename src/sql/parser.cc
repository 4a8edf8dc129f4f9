#include "sql/parser.h"

#include "ivm/partition.h"
#include "sql/lexer.h"
#include "util/digits.h"
#include "util/error.h"

namespace mview::sql {
namespace {

// A recursive-descent parser over a streaming lexer: it holds the token at
// the cursor and the one consumed last, nothing more.
class Parser {
 public:
  explicit Parser(std::string_view sql) : lexer_(sql) {
    lexer_.Next(&tokens_[cursor_]);
  }

  std::vector<Statement> ParseScript() {
    std::vector<Statement> out;
    while (!Peek().IsSymbol(";") && Peek().kind != TokenKind::kEnd) {
      out.push_back(ParseStatement());
      if (Peek().IsSymbol(";")) {
        while (Peek().IsSymbol(";")) Advance();
      } else {
        MVIEW_CHECK(Peek().kind == TokenKind::kEnd,
                    "expected ';' at offset ", Peek().offset);
      }
    }
    return out;
  }

 private:
  const Token& Peek() const { return tokens_[cursor_]; }
  // Moves to the next token and returns the one consumed, valid until the
  // next call.  At the end it keeps returning the end token.
  const Token& Advance() {
    cursor_ ^= 1;
    lexer_.Next(&tokens_[cursor_]);
    return tokens_[cursor_ ^ 1];
  }

  bool ConsumeKeyword(const char* kw) {
    if (Peek().Is(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  void ExpectKeyword(const char* kw) {
    MVIEW_CHECK(ConsumeKeyword(kw), "expected ", kw, " at offset ",
                Peek().offset);
  }
  bool ConsumeSymbol(const char* s) {
    if (Peek().IsSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  void ExpectSymbol(const char* s) {
    MVIEW_CHECK(ConsumeSymbol(s), "expected '", s, "' at offset ",
                Peek().offset);
  }

  std::string ExpectIdentifier() {
    MVIEW_CHECK(Peek().kind == TokenKind::kIdentifier,
                "expected identifier at offset ", Peek().offset);
    return Advance().text;
  }

  // `name` or `alias.name` rendered as a single qualified string.
  std::string ParseQualifiedName() {
    std::string name = ExpectIdentifier();
    if (ConsumeSymbol(".")) name += "." + ExpectIdentifier();
    return name;
  }

  Value ParseLiteral() {
    if (Peek().kind == TokenKind::kString) return Value(Advance().text);
    const bool negative = ConsumeSymbol("-");
    MVIEW_CHECK(Peek().kind == TokenKind::kInteger,
                "expected literal at offset ", Peek().offset);
    return Value(SignedInteger(negative));
  }

  // The integer token at the cursor under the given sign; a unary minus
  // reaches 2^63's negation, INT64_MIN.
  int64_t SignedInteger(bool negative) {
    const Token& t = Advance();
    int64_t v = 0;
    MVIEW_CHECK(util::SignedFromMagnitude(t.magnitude, negative, &v),
                "integer literal out of range at offset ", t.offset);
    return v;
  }

  CompareOp ParseCompareOp() {
    const Token& t = Peek();
    MVIEW_CHECK(t.kind == TokenKind::kSymbol,
                "expected comparison operator at offset ", t.offset);
    CompareOp op;
    if (t.text == "=" || t.text == "==") {
      op = CompareOp::kEq;
    } else if (t.text == "!=" || t.text == "<>") {
      op = CompareOp::kNe;
    } else if (t.text == "<") {
      op = CompareOp::kLt;
    } else if (t.text == "<=") {
      op = CompareOp::kLe;
    } else if (t.text == ">") {
      op = CompareOp::kGt;
    } else if (t.text == ">=") {
      op = CompareOp::kGe;
    } else {
      internal::ThrowError("expected comparison operator at offset ",
                           t.offset);
    }
    Advance();
    return op;
  }

  static CompareOp Reflect(CompareOp op) {
    switch (op) {
      case CompareOp::kLt:
        return CompareOp::kGt;
      case CompareOp::kLe:
        return CompareOp::kGe;
      case CompareOp::kGt:
        return CompareOp::kLt;
      case CompareOp::kGe:
        return CompareOp::kLe;
      default:
        return op;
    }
  }

  // predicate := operand op operand, where at least one side is a column.
  Condition ParsePredicate() {
    bool lhs_is_column = Peek().kind == TokenKind::kIdentifier &&
                         !Peek().Is("NOT");
    if (!lhs_is_column) {
      // literal op column  →  column Reflect(op) literal
      Value lit = ParseLiteral();
      CompareOp op = ParseCompareOp();
      std::string col = ParseQualifiedName();
      return Condition::FromAtom(
          Atom::VarConst(std::move(col), Reflect(op), std::move(lit)));
    }
    std::string lhs = ParseQualifiedName();
    CompareOp op = ParseCompareOp();
    if (Peek().kind == TokenKind::kIdentifier) {
      std::string rhs = ParseQualifiedName();
      int64_t offset = 0;
      const bool plus = ConsumeSymbol("+");
      if (plus || ConsumeSymbol("-")) {
        MVIEW_CHECK(Peek().kind == TokenKind::kInteger,
                    "expected integer offset at offset ", Peek().offset);
        // Offsets are negated downstream, so their magnitude stays within
        // INT64_MAX on either side.
        offset = SignedInteger(/*negative=*/false);
        if (!plus) offset = -offset;
      }
      return Condition::FromAtom(
          Atom::VarVar(std::move(lhs), op, std::move(rhs), offset));
    }
    return Condition::FromAtom(
        Atom::VarConst(std::move(lhs), op, ParseLiteral()));
  }

  Condition ParseUnaryCondition(bool negated) {
    if (ConsumeKeyword("NOT")) return ParseUnaryCondition(!negated);
    if (ConsumeSymbol("(")) {
      Condition inner = ParseOrCondition(negated);
      ExpectSymbol(")");
      return inner;
    }
    Condition pred = ParsePredicate();
    if (!negated) return pred;
    // A predicate is a single atom; negate it directly.
    const Atom& atom = pred.disjuncts().front().atoms.front();
    return Condition::FromAtom(atom.Negated());
  }

  Condition ParseAndCondition(bool negated) {
    Condition left = ParseUnaryCondition(negated);
    while (Peek().Is("AND")) {
      Advance();
      Condition right = ParseUnaryCondition(negated);
      left = negated ? left.Or(right) : left.And(right);  // De Morgan
    }
    return left;
  }

  Condition ParseOrCondition(bool negated) {
    Condition left = ParseAndCondition(negated);
    while (Peek().Is("OR")) {
      Advance();
      Condition right = ParseAndCondition(negated);
      left = negated ? left.And(right) : left.Or(right);
    }
    return left;
  }

  Condition ParseWhereClause() {
    if (!ConsumeKeyword("WHERE")) return Condition::True();
    return ParseOrCondition(/*negated=*/false);
  }

  ValueType ParseType() {
    std::string type = ExpectIdentifier();
    for (auto& c : type) c = static_cast<char>(std::toupper(c));
    if (type == "INT" || type == "INT64" || type == "INTEGER" ||
        type == "BIGINT") {
      return ValueType::kInt64;
    }
    if (type == "STRING" || type == "TEXT" || type == "VARCHAR") {
      return ValueType::kString;
    }
    internal::ThrowError("unknown column type: ", type);
  }

  SelectQuery ParseSelectQuery() {
    ExpectKeyword("SELECT");
    SelectQuery query;
    if (ConsumeSymbol("*")) {
      query.star = true;
    } else {
      query.columns.push_back(ParseQualifiedName());
      while (ConsumeSymbol(",")) query.columns.push_back(ParseQualifiedName());
    }
    ExpectKeyword("FROM");
    auto parse_ref = [&] {
      TableRef ref;
      ref.table = ExpectIdentifier();
      ref.alias = ref.table;
      ConsumeKeyword("AS");
      if (Peek().kind == TokenKind::kIdentifier && !Peek().Is("WHERE")) {
        ref.alias = ExpectIdentifier();
      }
      query.from.push_back(std::move(ref));
    };
    parse_ref();
    while (ConsumeSymbol(",")) parse_ref();
    query.where = ParseWhereClause();
    return query;
  }

  Statement ParseCreate() {
    ExpectKeyword("CREATE");
    Statement stmt;
    if (ConsumeKeyword("TABLE")) {
      stmt.kind = Statement::Kind::kCreateTable;
      stmt.name = ExpectIdentifier();
      ExpectSymbol("(");
      do {
        Attribute attr;
        attr.name = ExpectIdentifier();
        attr.type = ParseType();
        stmt.columns.push_back(std::move(attr));
      } while (ConsumeSymbol(","));
      ExpectSymbol(")");
      return stmt;
    }
    if (ConsumeKeyword("ASSERTION")) {
      stmt.kind = Statement::Kind::kCreateAssertion;
      stmt.name = ExpectIdentifier();
      ExpectKeyword("ON");
      stmt.tables.push_back(ExpectIdentifier());
      while (ConsumeSymbol(",")) stmt.tables.push_back(ExpectIdentifier());
      ExpectKeyword("WHERE");
      stmt.where = ParseOrCondition(false);
      return stmt;
    }
    ConsumeKeyword("MATERIALIZED");
    ExpectKeyword("VIEW");
    stmt.kind = Statement::Kind::kCreateView;
    stmt.name = ExpectIdentifier();
    if (ConsumeKeyword("DEFERRED")) {
      stmt.view_mode = ViewMode::kDeferred;
    } else if (ConsumeKeyword("RECOMPUTED")) {
      stmt.view_mode = ViewMode::kFullReevaluation;
    }
    if (ConsumeKeyword("PARTITIONS")) {
      const size_t offset = Peek().offset;
      Value n = ParseLiteral();
      MVIEW_CHECK(n.type() == ValueType::kInt64 && n.AsInt64() >= 1 &&
                      n.AsInt64() <= kMaxPartitionCount,
                  "PARTITIONS expects an integer in [1, ", kMaxPartitionCount,
                  "] at offset ", offset);
      stmt.partitions = static_cast<uint32_t>(n.AsInt64());
    }
    ExpectKeyword("AS");
    stmt.query = ParseSelectQuery();
    return stmt;
  }

  Statement ParseStatement() {
    Statement stmt;
    // Refers to the cursor token's slot, which the second `Advance`
    // overwrites: every branch reads `t` only before its first `Advance`.
    const Token& t = Peek();
    if (t.Is("CREATE")) return ParseCreate();
    if (t.Is("DROP")) {
      Advance();
      if (ConsumeKeyword("TABLE")) {
        stmt.kind = Statement::Kind::kDropTable;
      } else if (ConsumeKeyword("VIEW")) {
        stmt.kind = Statement::Kind::kDropView;
      } else {
        ExpectKeyword("ASSERTION");
        stmt.kind = Statement::Kind::kDropAssertion;
      }
      stmt.name = ExpectIdentifier();
      return stmt;
    }
    if (t.Is("INSERT")) {
      Advance();
      ExpectKeyword("INTO");
      stmt.kind = Statement::Kind::kInsert;
      stmt.name = ExpectIdentifier();
      ExpectKeyword("VALUES");
      // Each row's values gather in one scratch vector and then move into
      // a tuple of exactly their count: one allocation per row.
      std::vector<Value> values;
      do {
        ExpectSymbol("(");
        values.clear();
        values.push_back(ParseLiteral());
        while (ConsumeSymbol(",")) values.push_back(ParseLiteral());
        ExpectSymbol(")");
        stmt.rows.push_back(Tuple::Build(
            values.size(), [&](size_t i) { return std::move(values[i]); }));
      } while (ConsumeSymbol(","));
      return stmt;
    }
    if (t.Is("DELETE")) {
      Advance();
      ExpectKeyword("FROM");
      stmt.kind = Statement::Kind::kDelete;
      stmt.name = ExpectIdentifier();
      stmt.where = ParseWhereClause();
      return stmt;
    }
    if (t.Is("UPDATE")) {
      Advance();
      stmt.kind = Statement::Kind::kUpdate;
      stmt.name = ExpectIdentifier();
      ExpectKeyword("SET");
      do {
        std::string col = ExpectIdentifier();
        ExpectSymbol("=");
        stmt.assignments.emplace_back(std::move(col), ParseLiteral());
      } while (ConsumeSymbol(","));
      stmt.where = ParseWhereClause();
      return stmt;
    }
    if (t.Is("SELECT")) {
      stmt.kind = Statement::Kind::kSelect;
      stmt.query = ParseSelectQuery();
      return stmt;
    }
    if (t.Is("REFRESH")) {
      Advance();
      ConsumeKeyword("VIEW");
      stmt.kind = Statement::Kind::kRefresh;
      stmt.name = ExpectIdentifier();
      return stmt;
    }
    if (t.Is("REPAIR")) {
      Advance();
      ConsumeKeyword("VIEW");
      stmt.kind = Statement::Kind::kRepair;
      stmt.name = ExpectIdentifier();
      return stmt;
    }
    if (t.Is("SCRUB")) {
      Advance();
      stmt.kind = Statement::Kind::kScrub;
      if (!ConsumeKeyword("ALL")) {  // SCRUB ALL leaves `name` empty
        ConsumeKeyword("VIEW");
        stmt.name = ExpectIdentifier();
        stmt.partition = ConsumeKeyword("PARTITION");
      }
      stmt.repair = ConsumeKeyword("REPAIR");
      return stmt;
    }
    if (t.Is("SHOW")) {
      Advance();
      if (ConsumeKeyword("TABLES")) {
        stmt.kind = Statement::Kind::kShowTables;
      } else if (ConsumeKeyword("VIEWS")) {
        stmt.kind = Statement::Kind::kShowViews;
      } else if (ConsumeKeyword("STATS")) {
        stmt.kind = Statement::Kind::kShowStats;
        stmt.json = ConsumeKeyword("JSON");
      } else if (ConsumeKeyword("TRACE")) {
        stmt.kind = Statement::Kind::kShowTrace;
        stmt.json = ConsumeKeyword("JSON");
      } else if (ConsumeKeyword("WAL")) {
        stmt.kind = Statement::Kind::kShowWal;
      } else if (ConsumeKeyword("PARTITIONS")) {
        stmt.kind = Statement::Kind::kShowPartitions;
      } else {
        ExpectKeyword("ASSERTIONS");
        stmt.kind = Statement::Kind::kShowAssertions;
      }
      return stmt;
    }
    if (t.Is("COPY")) {
      Advance();
      stmt.name = ExpectIdentifier();
      if (ConsumeKeyword("TO")) {
        stmt.kind = Statement::Kind::kCopyTo;
      } else {
        ExpectKeyword("FROM");
        stmt.kind = Statement::Kind::kCopyFrom;
      }
      MVIEW_CHECK(Peek().kind == TokenKind::kString,
                  "expected quoted file path at offset ", Peek().offset);
      stmt.path = Advance().text;
      return stmt;
    }
    if (t.Is("TRACE")) {
      Advance();
      stmt.kind = Statement::Kind::kTrace;
      if (ConsumeKeyword("ON")) {
        stmt.trace_on = true;
      } else {
        ExpectKeyword("OFF");
      }
      return stmt;
    }
    if (t.Is("EXPLAIN")) {
      Advance();
      ExpectKeyword("MAINTENANCE");
      stmt.kind = Statement::Kind::kExplainMaintenance;
      Statement dml = ParseStatement();
      MVIEW_CHECK(dml.kind == Statement::Kind::kInsert ||
                      dml.kind == Statement::Kind::kDelete ||
                      dml.kind == Statement::Kind::kUpdate,
                  "EXPLAIN MAINTENANCE expects INSERT, DELETE, or UPDATE");
      stmt.inner.push_back(std::move(dml));
      return stmt;
    }
    if (t.Is("CHECKPOINT")) {
      Advance();
      stmt.kind = Statement::Kind::kCheckpoint;
      return stmt;
    }
    if (t.Is("BEGIN")) {
      Advance();
      stmt.kind = Statement::Kind::kBegin;
      return stmt;
    }
    if (t.Is("COMMIT")) {
      Advance();
      stmt.kind = Statement::Kind::kCommit;
      return stmt;
    }
    if (t.Is("ROLLBACK")) {
      Advance();
      stmt.kind = Statement::Kind::kRollback;
      return stmt;
    }
    internal::ThrowError("unrecognized statement at offset ", t.offset, ": '",
                         t.text, "'");
  }

  Lexer lexer_;
  Token tokens_[2];  // the cursor token and the one consumed last
  size_t cursor_ = 0;
};

}  // namespace

std::vector<Statement> Parse(const std::string& sql) {
  Parser parser(sql);
  return parser.ParseScript();
}

}  // namespace mview::sql
