#include "sql/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>

#include "server/wire.h"
#include "sql/lexer.h"
#include "sql/session.h"
#include "test_util.h"
#include "util/deadline.h"
#include "util/error.h"
#include "util/random.h"

namespace mview::sql {
namespace {

using ::mview::testing::T;

// ---------------------------------------------------------------- lexer ---

TEST(SqlLexerTest, TokenKinds) {
  auto tokens = Lex("SELECT a2, 'it''s' FROM t WHERE x <= -3; -- comment");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_TRUE(tokens[0].Is("select"));
  EXPECT_TRUE(tokens[0].Is("SELECT"));
  EXPECT_EQ(tokens[1].text, "a2");
  EXPECT_TRUE(tokens[2].IsSymbol(","));
  EXPECT_EQ(tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(tokens[3].text, "it's");
  EXPECT_TRUE(tokens[6].Is("WHERE"));
  EXPECT_TRUE(tokens[8].IsSymbol("<="));
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(SqlLexerTest, Errors) {
  EXPECT_THROW(Lex("SELECT 'oops"), Error);
  EXPECT_THROW(Lex("SELECT @"), Error);
}

// Digit runs are read in place with an overflow check: a run up to 2^63
// (INT64_MIN's magnitude, for the parser to negate) is a token, a longer
// one is an error naming its offset.
TEST(SqlLexerTest, IntegerLiteralsAreCheckedDigitRuns) {
  auto tokens = Lex("9223372036854775808 007 0");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens[0].magnitude, uint64_t{1} << 63);
  EXPECT_EQ(tokens[0].text, "9223372036854775808");
  EXPECT_EQ(tokens[1].magnitude, 7u);
  EXPECT_EQ(tokens[1].offset, 20u);
  EXPECT_EQ(tokens[2].magnitude, 0u);
  for (const char* sql : {"99999999999999999999", "SELECT 9223372036854775809",
                          "SELECT 18446744073709551616",
                          "SELECT 123456789012345678901234567890"}) {
    EXPECT_THROW(Lex(sql), Error) << sql;
  }
  try {
    Lex("SELECT 18446744073709551616");
    FAIL() << "no error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "integer literal out of range at offset 7"),
              std::string::npos)
        << e.what();
  }
}

TEST(SqlLexerTest, SymbolsCommentsAndOffsets) {
  auto tokens = Lex("a==b!=c<>d<=e>=f<g>h=i -- x <= y\n(j.k),*;+-'q'''");
  std::vector<std::string> texts;
  for (const Token& t : tokens) texts.push_back(t.text);
  EXPECT_EQ(texts, (std::vector<std::string>{
                       "a", "==", "b", "!=", "c", "<>", "d", "<=", "e", ">=",
                       "f", "<", "g", ">", "h", "=", "i", "(", "j", ".", "k",
                       ")", ",", "*", ";", "+", "-", "q'", ""}));
  EXPECT_EQ(tokens[1].offset, 1u);
  EXPECT_EQ(tokens[17].offset, 33u);  // '(' after the comment's newline
  EXPECT_EQ(tokens[27].kind, TokenKind::kString);
  EXPECT_EQ(tokens.back().offset, 48u);
  EXPECT_THROW(Lex("a ! b"), Error);
}

// --------------------------------------------------------------- parser ---

TEST(SqlParserTest, IntegerLiteralsSpanExactlyInt64) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  auto stmts = Parse(
      "INSERT INTO t VALUES (-9223372036854775808, 9223372036854775807);");
  ASSERT_EQ(stmts[0].rows.size(), 1u);
  EXPECT_EQ(stmts[0].rows[0], Tuple({Value(kMin), Value(kMax)}));
  stmts = Parse("SELECT * FROM t WHERE a = -9223372036854775808;");
  EXPECT_EQ(stmts[0].query.where.disjuncts()[0].atoms[0].rhs_const,
            Value(kMin));
  for (const char* sql :
       {"INSERT INTO t VALUES (9223372036854775808);",
        "INSERT INTO t VALUES (-9223372036854775809);",
        "INSERT INTO t VALUES (12345678901234567890);",
        "SELECT * FROM t WHERE a = 99999999999999999999;",
        "SELECT * FROM t WHERE 9223372036854775808 < a;",
        "SELECT * FROM t WHERE a > b + 9223372036854775808;",
        "SELECT * FROM t WHERE a > b - 9223372036854775808;",
        "CREATE VIEW v PARTITIONS 99999999999999999999 AS SELECT * FROM t;",
        "UPDATE t SET a = 9223372036854775808;"}) {
    EXPECT_THROW(Parse(sql), Error) << sql;
  }
}

TEST(SqlParserTest, CreateTable) {
  auto stmts = Parse("CREATE TABLE emp (id INT, name STRING);");
  ASSERT_EQ(stmts.size(), 1u);
  EXPECT_EQ(stmts[0].kind, Statement::Kind::kCreateTable);
  EXPECT_EQ(stmts[0].name, "emp");
  ASSERT_EQ(stmts[0].columns.size(), 2u);
  EXPECT_EQ(stmts[0].columns[1].type, ValueType::kString);
}

TEST(SqlParserTest, SelectWithJoinAndWhere) {
  auto stmts = Parse(
      "SELECT e.name, d.city FROM emp e, dept AS d "
      "WHERE e.dept = d.id AND e.salary >= 100 OR e.id = 1;");
  ASSERT_EQ(stmts.size(), 1u);
  const SelectQuery& q = stmts[0].query;
  ASSERT_EQ(q.from.size(), 2u);
  EXPECT_EQ(q.from[0].alias, "e");
  EXPECT_EQ(q.from[1].alias, "d");
  EXPECT_EQ(q.columns, (std::vector<std::string>{"e.name", "d.city"}));
  EXPECT_EQ(q.where.disjuncts().size(), 2u);
}

TEST(SqlParserTest, NotPushdown) {
  auto stmts = Parse("SELECT * FROM t WHERE NOT (a < 3 AND b = 1);");
  const Condition& c = stmts[0].query.where;
  EXPECT_EQ(c.disjuncts().size(), 2u);  // a >= 3 OR b != 1
}

TEST(SqlParserTest, MultiStatementScript) {
  auto stmts = Parse("BEGIN; INSERT INTO t VALUES (1), (2); COMMIT;");
  ASSERT_EQ(stmts.size(), 3u);
  EXPECT_EQ(stmts[0].kind, Statement::Kind::kBegin);
  EXPECT_EQ(stmts[1].rows.size(), 2u);
  EXPECT_EQ(stmts[2].kind, Statement::Kind::kCommit);
}

TEST(SqlParserTest, SyntaxErrors) {
  EXPECT_THROW(Parse("CREATE TABLE t (a FLOAT);"), Error);
  EXPECT_THROW(Parse("SELECT FROM t;"), Error);
  EXPECT_THROW(Parse("INSERT t VALUES (1);"), Error);
  EXPECT_THROW(Parse("FLY TO t;"), Error);
  EXPECT_THROW(Parse("SELECT * FROM t WHERE a <;"), Error);
}

// --------------------------------------------------------------- engine ---

class SqlEngineTest : public ::testing::Test {
 protected:
  SqlEngineTest() {
    engine_.ExecuteScript(
        "CREATE TABLE emp (id INT, name STRING, dept INT, salary INT);"
        "CREATE TABLE dept (did INT, city STRING);"
        "INSERT INTO dept VALUES (10, 'waterloo'), (20, 'toronto');"
        "INSERT INTO emp VALUES (1, 'ann', 10, 120), (2, 'bob', 10, 80),"
        "                       (3, 'cat', 20, 150);");
  }
  Engine engine_;
};

TEST_F(SqlEngineTest, SelectStar) {
  auto result = engine_.Execute("SELECT * FROM emp");
  ASSERT_EQ(result.kind, Engine::Result::Kind::kRows);
  EXPECT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.schema.size(), 4u);
}

TEST_F(SqlEngineTest, SelectWithWhereAndProjection) {
  auto result = engine_.Execute(
      "SELECT name FROM emp WHERE salary > 100;");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].first, Tuple({Value("ann")}));
  EXPECT_EQ(result.rows[1].first, Tuple({Value("cat")}));
}

TEST_F(SqlEngineTest, SelectJoin) {
  auto result = engine_.Execute(
      "SELECT name, city FROM emp, dept WHERE dept = did;");
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0].first, Tuple({Value("ann"), Value("waterloo")}));
}

TEST_F(SqlEngineTest, AmbiguousAndQualifiedColumns) {
  engine_.Execute("CREATE TABLE emp2 (id INT, boss INT);");
  engine_.Execute("INSERT INTO emp2 VALUES (1, 3);");
  // `id` is ambiguous across emp and emp2.
  EXPECT_THROW(
      engine_.Execute("SELECT id FROM emp, emp2 WHERE boss = 3;"), Error);
  auto result = engine_.Execute(
      "SELECT e.id, x.boss FROM emp e, emp2 x WHERE e.id = x.id;");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].first, T({1, 3}));
}

TEST_F(SqlEngineTest, InsertDeleteUpdate) {
  engine_.Execute("INSERT INTO emp VALUES (4, 'dee', 20, 90);");
  EXPECT_EQ(engine_.Execute("SELECT * FROM emp").rows.size(), 4u);
  auto del = engine_.Execute("DELETE FROM emp WHERE salary < 100;");
  EXPECT_NE(del.message.find("2 row(s) deleted"), std::string::npos);
  EXPECT_EQ(engine_.Execute("SELECT * FROM emp").rows.size(), 2u);
  engine_.Execute("UPDATE emp SET salary = 200 WHERE name = 'ann';");
  auto rows = engine_.Execute("SELECT salary FROM emp WHERE name = 'ann'");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0].first, T({200}));
}

TEST_F(SqlEngineTest, MaterializedViewIsMaintained) {
  engine_.Execute(
      "CREATE MATERIALIZED VIEW rich AS "
      "SELECT name, salary FROM emp WHERE salary > 100;");
  EXPECT_EQ(engine_.Execute("SELECT * FROM rich").rows.size(), 2u);
  engine_.Execute("INSERT INTO emp VALUES (5, 'eve', 10, 300);");
  EXPECT_EQ(engine_.Execute("SELECT * FROM rich").rows.size(), 3u);
  engine_.Execute("DELETE FROM emp WHERE name = 'ann';");
  auto rows = engine_.Execute("SELECT name FROM rich");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0].first, Tuple({Value("cat")}));
  // Update flows through as delete+insert.
  engine_.Execute("UPDATE emp SET salary = 90 WHERE name = 'cat';");
  EXPECT_EQ(engine_.Execute("SELECT * FROM rich").rows.size(), 1u);
}

TEST_F(SqlEngineTest, JoinViewMaintainedThroughSql) {
  engine_.Execute(
      "CREATE VIEW emp_city AS "
      "SELECT name, city FROM emp, dept WHERE dept = did;");
  engine_.Execute("INSERT INTO dept VALUES (30, 'ottawa');");
  engine_.Execute("INSERT INTO emp VALUES (7, 'gil', 30, 70);");
  auto rows = engine_.Execute(
      "SELECT name FROM emp_city WHERE city = 'ottawa'");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0].first, Tuple({Value("gil")}));
}

TEST_F(SqlEngineTest, DeferredViewAndRefresh) {
  engine_.Execute(
      "CREATE VIEW snap DEFERRED AS SELECT name FROM emp WHERE dept = 10;");
  engine_.Execute("INSERT INTO emp VALUES (6, 'fred', 10, 75);");
  EXPECT_EQ(engine_.Execute("SELECT * FROM snap").rows.size(), 2u);  // stale
  auto show = engine_.Execute("SHOW VIEWS");
  EXPECT_EQ(show.rows[0].first.at(3).AsString(), "yes");  // stale flag
  engine_.Execute("REFRESH VIEW snap");
  EXPECT_EQ(engine_.Execute("SELECT * FROM snap").rows.size(), 3u);
}

TEST_F(SqlEngineTest, ViewWithDuplicateProjectionsCarriesCounts) {
  engine_.Execute("CREATE VIEW depts AS SELECT dept FROM emp;");
  auto rows = engine_.Execute("SELECT * FROM depts");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0].second, 2);  // dept 10 twice
  std::string rendered = rows.ToString();
  EXPECT_NE(rendered.find("#"), std::string::npos);
}

TEST_F(SqlEngineTest, TransactionsCommitAtomically) {
  engine_.ExecuteScript(
      "CREATE VIEW rich AS SELECT name FROM emp WHERE salary > 100;"
      "BEGIN;"
      "INSERT INTO emp VALUES (8, 'hal', 10, 500);"
      "DELETE FROM emp WHERE name = 'cat';");
  // Nothing visible before COMMIT.
  EXPECT_EQ(engine_.Execute("SELECT * FROM emp").rows.size(), 3u);
  EXPECT_TRUE(engine_.in_transaction());
  engine_.Execute("COMMIT");
  EXPECT_FALSE(engine_.in_transaction());
  EXPECT_EQ(engine_.Execute("SELECT * FROM emp").rows.size(), 3u);
  auto rich = engine_.Execute("SELECT * FROM rich");
  ASSERT_EQ(rich.rows.size(), 2u);  // ann + hal; cat gone
}

TEST_F(SqlEngineTest, RollbackDiscardsStagedWork) {
  engine_.ExecuteScript(
      "BEGIN; INSERT INTO emp VALUES (9, 'ivy', 10, 60); ROLLBACK;");
  EXPECT_EQ(engine_.Execute("SELECT * FROM emp").rows.size(), 3u);
  EXPECT_THROW(engine_.Execute("COMMIT"), Error);
  EXPECT_THROW(engine_.Execute("ROLLBACK"), Error);
}

TEST_F(SqlEngineTest, InsertThenDeleteInTransactionCancels) {
  engine_.ExecuteScript(
      "BEGIN;"
      "INSERT INTO emp VALUES (9, 'ivy', 10, 60);"
      "DELETE FROM emp WHERE salary = 80;"  // bob, staged against snapshot
      "COMMIT;");
  auto rows = engine_.Execute("SELECT name FROM emp");
  EXPECT_EQ(rows.rows.size(), 3u);  // ann, cat, ivy
}

TEST_F(SqlEngineTest, AssertionsBlockViolatingCommits) {
  engine_.Execute(
      "CREATE ASSERTION positive_salary ON emp WHERE salary < 0;");
  auto result =
      engine_.Execute("INSERT INTO emp VALUES (9, 'ivy', 10, -5);");
  EXPECT_NE(result.message.find("rejected"), std::string::npos);
  EXPECT_EQ(engine_.Execute("SELECT * FROM emp").rows.size(), 3u);
  auto show = engine_.Execute("SHOW ASSERTIONS");
  EXPECT_EQ(show.rows[0].first.at(1).AsString(), "yes");
}

TEST_F(SqlEngineTest, CrossTableAssertion) {
  engine_.Execute(
      "CREATE ASSERTION emp_has_dept ON emp, dept "
      "WHERE dept = did AND salary > 1000;");
  auto ok = engine_.Execute("INSERT INTO emp VALUES (9, 'ivy', 10, 900);");
  EXPECT_EQ(ok.message, "1 row(s) inserted");
  auto bad = engine_.Execute("INSERT INTO emp VALUES (10, 'joe', 10, 2000);");
  EXPECT_NE(bad.message.find("rejected"), std::string::npos);
}

TEST_F(SqlEngineTest, DropProtection) {
  engine_.Execute("CREATE VIEW v AS SELECT name FROM emp;");
  EXPECT_THROW(engine_.Execute("DROP TABLE emp"), Error);
  engine_.Execute("DROP VIEW v");
  engine_.Execute("CREATE ASSERTION a ON emp WHERE salary < 0;");
  EXPECT_THROW(engine_.Execute("DROP TABLE emp"), Error);
  engine_.Execute("DROP ASSERTION a");
  engine_.Execute("DROP TABLE emp");
  EXPECT_THROW(engine_.Execute("SELECT * FROM emp"), Error);
}

TEST_F(SqlEngineTest, ShowTables) {
  auto result = engine_.Execute("SHOW TABLES");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].first.at(0).AsString(), "dept");
}

TEST_F(SqlEngineTest, TypeChecking) {
  EXPECT_THROW(engine_.Execute("INSERT INTO emp VALUES (1, 2, 3, 4);"),
               Error);
  EXPECT_THROW(engine_.Execute("INSERT INTO emp VALUES (1, 'x', 3);"), Error);
  EXPECT_THROW(
      engine_.Execute("UPDATE emp SET salary = 'lots' WHERE id = 1;"), Error);
  EXPECT_THROW(engine_.Execute("SELECT * FROM emp WHERE name > 5;"), Error);
}

TEST_F(SqlEngineTest, ViewsOverViewsRejected) {
  engine_.Execute("CREATE VIEW v AS SELECT name FROM emp;");
  EXPECT_THROW(engine_.Execute("CREATE VIEW w AS SELECT name FROM v;"),
               Error);
}

TEST_F(SqlEngineTest, SelectFromViewWithWhere) {
  engine_.Execute(
      "CREATE VIEW salaries AS SELECT name, salary FROM emp;");
  auto rows = engine_.Execute(
      "SELECT name FROM salaries WHERE salary >= 120");
  EXPECT_EQ(rows.rows.size(), 2u);
}

TEST_F(SqlEngineTest, ArithmeticJoinPredicate) {
  engine_.ExecuteScript(
      "CREATE TABLE a (x INT); CREATE TABLE b (y INT);"
      "INSERT INTO a VALUES (5); INSERT INTO b VALUES (3), (4);");
  auto rows = engine_.Execute("SELECT x, y FROM a, b WHERE x = y + 2;");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0].first, T({5, 3}));
}

TEST_F(SqlEngineTest, ResultToStringFormats) {
  auto rows = engine_.Execute("SELECT id, name FROM emp WHERE id = 1");
  std::string rendered = rows.ToString();
  EXPECT_NE(rendered.find("id | name"), std::string::npos);
  EXPECT_NE(rendered.find("1  | ann"), std::string::npos);
  EXPECT_NE(rendered.find("(1 row)"), std::string::npos);
  auto msg = engine_.Execute("BEGIN");
  EXPECT_EQ(msg.ToString(), "transaction started\n");
  engine_.Execute("ROLLBACK");
}

TEST_F(SqlEngineTest, MultiStatementExecuteRejected) {
  EXPECT_THROW(engine_.Execute("BEGIN; COMMIT;"), Error);
}

TEST_F(SqlEngineTest, CopyToAndFromRoundTrip) {
  const std::string path = testing::ScratchDir() + "/emp.csv";
  auto out = engine_.Execute("COPY emp TO '" + path + "';");
  EXPECT_NE(out.message.find("3 row(s) copied"), std::string::npos);
  engine_.Execute("CREATE TABLE emp2 (id INT, name STRING, dept INT, "
                  "salary INT);");
  auto in = engine_.Execute("COPY emp2 FROM '" + path + "';");
  EXPECT_NE(in.message.find("3 row(s) copied"), std::string::npos);
  EXPECT_EQ(engine_.Execute("SELECT * FROM emp2").rows,
            engine_.Execute("SELECT * FROM emp").rows);
}

TEST_F(SqlEngineTest, CopyFromMaintainsViewsAndChecksAssertions) {
  const std::string path = testing::ScratchDir() + "/emp.csv";
  engine_.Execute("COPY emp TO '" + path + "';");
  engine_.Execute("CREATE TABLE staging (id INT, name STRING, dept INT, "
                  "salary INT);");
  engine_.Execute(
      "CREATE VIEW big AS SELECT name FROM staging WHERE salary > 100;");
  engine_.Execute("COPY staging FROM '" + path + "';");
  EXPECT_EQ(engine_.Execute("SELECT * FROM big").rows.size(), 2u);
  // Assertions veto a COPY FROM that would violate them.
  engine_.Execute("CREATE ASSERTION cap ON staging WHERE salary > 10;");
  engine_.Execute("COPY staging FROM '" + path + "';");  // net no-op
  // Re-copying the same rows is a net no-op, so craft a violating file.
  engine_.Execute("DELETE FROM staging WHERE salary > 0;");
  auto verdict = engine_.Execute("COPY staging FROM '" + path + "';");
  EXPECT_NE(verdict.message.find("rejected"), std::string::npos);
}

TEST_F(SqlEngineTest, CopyErrors) {
  EXPECT_THROW(engine_.Execute("COPY emp FROM '/no/such/file.csv';"), Error);
  EXPECT_THROW(engine_.Execute("COPY nope TO '/tmp/x.csv';"), Error);
  const std::string path = testing::ScratchDir() + "/dept.csv";
  engine_.Execute("COPY dept TO '" + path + "';");
  // Scheme mismatch.
  EXPECT_THROW(engine_.Execute("COPY emp FROM '" + path + "';"), Error);
}

// Robustness: arbitrary junk must throw mview::Error, never crash.
TEST(SqlFuzzTest, RandomTokenSoupThrowsCleanly) {
  Rng rng(90210);
  const char* pieces[] = {"SELECT", "FROM",  "WHERE", "(",    ")",   ",",
                          ";",      "t",     "a",     "1",    "'x'", "=",
                          "<",      "AND",   "OR",    "NOT",  "*",   "INSERT",
                          "INTO",   "VALUES", "CREATE", "VIEW", "+",  "-"};
  Engine engine;
  engine.Execute("CREATE TABLE t (a INT);");
  int parsed_ok = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string sql;
    size_t len = static_cast<size_t>(rng.Uniform(1, 12));
    for (size_t i = 0; i < len; ++i) {
      sql += pieces[rng.Uniform(0, 23)];
      sql += ' ';
    }
    sql += ';';
    try {
      engine.ExecuteScript(sql);
      ++parsed_ok;
    } catch (const Error&) {
      // expected for almost every probe
    }
    if (engine.in_transaction()) engine.Execute("ROLLBACK");
  }
  // Some probes (e.g. "SELECT * FROM t;") legitimately parse.
  EXPECT_GE(parsed_ok, 0);
}

// Values at the ends of int64 meet offsets and bounds in exact
// arithmetic: `x op y + c` is decided on `x − c` without wrapping, a join
// key shifted out of int64 matches nothing, and a bound at INT64_MIN
// normalizes without overflow — in the views' screen, their differential
// joins and an ad-hoc SELECT alike.
TEST(SqlStatusTest, Int64ExtremesMeetOffsetsExactly) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT64); CREATE TABLE u (c INT64);"
      "CREATE MATERIALIZED VIEW below AS SELECT a FROM t "
      "  WHERE a < -9223372036854775808;"
      "CREATE MATERIALIZED VIEW all_a AS SELECT a FROM t "
      "  WHERE a >= -9223372036854775808 AND a <= 9223372036854775807;"
      "CREATE MATERIALIZED VIEW shifted AS SELECT a, c FROM t, u "
      "  WHERE a = c + 10;"
      "CREATE MATERIALIZED VIEW above AS SELECT a, c FROM t, u "
      "  WHERE a > c + 5;"
      "INSERT INTO t VALUES (-9223372036854775808), (9223372036854775807), "
      "  (0);"
      "INSERT INTO u VALUES (9223372036854775807), (-9223372036854775808), "
      "  (-10);");
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  auto rows = [&](const std::string& sql) {
    std::vector<Tuple> out;
    for (const auto& [t, count] : engine.Execute(sql).rows) out.push_back(t);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_TRUE(rows("SELECT * FROM below").empty());
  EXPECT_EQ(rows("SELECT * FROM all_a").size(), 3u);
  EXPECT_EQ(rows("SELECT * FROM shifted"),
            std::vector<Tuple>({Tuple({Value(0), Value(-10)})}));
  const std::vector<Tuple> above = {
      Tuple({Value(0), Value(kMin)}), Tuple({Value(0), Value(-10)}),
      Tuple({Value(kMax), Value(kMin)}), Tuple({Value(kMax), Value(-10)})};
  EXPECT_EQ(rows("SELECT * FROM above"), above);
  EXPECT_EQ(rows("SELECT a, c FROM t, u WHERE a > c + 5"), above);
  EXPECT_EQ(rows("SELECT a, c FROM t, u WHERE a = c + 10"),
            rows("SELECT * FROM shifted"));
}

// A corpus of valid statements with the lexer's edge cases — long digit
// runs, doubled quotes, comments, deadline prefixes — mutated byte-wise by
// bit flips, truncation and splices.  Every input, deadline prefix split
// off as the server does, must come back from `TryExecute` as a `Status`;
// nothing may escape as an exception.  MVIEW_FUZZ_ITERS sets the number of
// mutated inputs (default 3000).
TEST(SqlFuzzTest, MutatedStatementsEndInAStatus) {
  const std::vector<std::string> corpus = {
      "INSERT INTO t VALUES (9223372036854775807, 'it''s'), "
      "(-9223372036854775808, '')",
      "SELECT * FROM t WHERE a = 99999999999999999999",
      "SELECT a, b FROM t WHERE a >= -5 AND b <> 'x''y' -- a comment",
      "@250 SELECT * FROM t WHERE a < 10 OR NOT (a = 3)",
      "@99999999999999999999 SELECT * FROM t",
      "@9223372036854775807 INSERT INTO t VALUES (1, 'deadline')",
      "DELETE FROM t WHERE a = 123456789012345678",
      "UPDATE t SET b = 'a string longer than fifteen bytes' WHERE a > 3",
      "CREATE MATERIALIZED VIEW v AS SELECT a FROM t WHERE a > 0",
      "SELECT t.a, u.c FROM t, u WHERE t.a = u.c + 18446744073709551616",
      "EXPLAIN MAINTENANCE INSERT INTO t VALUES (1, 'a'), (2, 'b')",
      "INSERT INTO u VALUES (00000000000000000000000000042)",
      "BEGIN",
      "COMMIT",
      "ROLLBACK",
  };
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT, b STRING); CREATE TABLE u (c INT);");
  std::unique_ptr<Session> session = engine.CreateSession();
  Rng rng(20240617);
  auto pick = [&](const std::vector<std::string>& from) -> const std::string& {
    return from[rng.Uniform(0, static_cast<int64_t>(from.size()) - 1)];
  };
  int ok = 0;
  int parse_errors = 0;
  const char* iters = std::getenv("MVIEW_FUZZ_ITERS");
  const int kTrials = iters == nullptr ? 3000 : std::max(1, std::atoi(iters));
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string input = pick(corpus);
    switch (rng.Uniform(0, 3)) {
      case 0:  // flip a few bits
        for (int64_t f = rng.Uniform(1, 4); f > 0 && !input.empty(); --f) {
          const size_t at = rng.Uniform(0, input.size() - 1);
          input[at] = static_cast<char>(input[at] ^ (1 << rng.Uniform(0, 7)));
        }
        break;
      case 1:  // truncate
        input.resize(rng.Uniform(0, input.size()));
        break;
      case 2: {  // splice a prefix of one onto a suffix of another
        const std::string& other = pick(corpus);
        input = input.substr(0, rng.Uniform(0, input.size())) +
                other.substr(rng.Uniform(0, other.size()));
        break;
      }
      default:  // drop in a long digit run
        input.insert(rng.Uniform(0, input.size()),
                     std::string(rng.Uniform(18, 40), '9'));
        break;
    }
    int64_t deadline_ms = 0;
    const std::string sql = server::SplitRequestDeadline(input, &deadline_ms);
    const util::Cancellation cancel =
        deadline_ms > 0 ? util::Cancellation::After(deadline_ms)
                        : util::Cancellation();
    Status status;
    try {
      Result result;
      status = session->TryExecute(sql, &result, &cancel);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "escaped: " << e.what() << " for input: " << input;
      continue;
    }
    if (status.ok) ++ok;
    if (status.kind == Status::Kind::kParseError) ++parse_errors;
    if (session->in_transaction() && rng.Bernoulli(0.5)) {
      ASSERT_TRUE(session->TryExecute("ROLLBACK", nullptr).ok);
    }
  }
  // The mutations leave both outcomes common.
  EXPECT_GT(ok, kTrials / 20);
  EXPECT_GT(parse_errors, kTrials / 20);
  RecordProperty("ok", ok);
  RecordProperty("parse_errors", parse_errors);
}

// ----------------------------------------------- TryExecute / Status ---

// An out-of-range literal is a parse error with an offset, from both
// non-throwing entry points — not an exception out of the lexer.
TEST(SqlStatusTest, OutOfRangeLiteralIsAParseError) {
  Engine engine;
  engine.Execute("CREATE TABLE t (a INT);");
  const std::string sql = "SELECT * FROM t WHERE a = 99999999999999999999";
  Status status = engine.TryExecute(sql, nullptr);
  EXPECT_EQ(status.kind, Status::Kind::kParseError);
  EXPECT_NE(status.message.find("out of range at offset 26"),
            std::string::npos)
      << status.message;
  EXPECT_EQ(engine.TryExecuteScript("INSERT INTO t VALUES (1); " + sql,
                                    nullptr)
                .kind,
            Status::Kind::kParseError);
  EXPECT_EQ(engine.Execute("SELECT * FROM t").rows.size(), 0u);
}

TEST(SqlStatusTest, Int64BoundsRoundTrip) {
  Engine engine;
  engine.Execute("CREATE TABLE n (v INT64);");
  engine.Execute(
      "INSERT INTO n VALUES (-9223372036854775808), (9223372036854775807);");
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  auto lo = engine.Execute("SELECT * FROM n WHERE v = -9223372036854775808");
  ASSERT_EQ(lo.rows.size(), 1u);
  EXPECT_EQ(lo.rows[0].first, Tuple({Value(kMin)}));
  auto hi = engine.Execute("SELECT * FROM n WHERE v >= 9223372036854775807");
  ASSERT_EQ(hi.rows.size(), 1u);
  EXPECT_EQ(hi.rows[0].first, Tuple({Value(kMax)}));
  EXPECT_EQ(engine.Execute("SELECT * FROM n").rows.size(), 2u);
  EXPECT_EQ(engine.TryExecute("INSERT INTO n VALUES (9223372036854775808)",
                              nullptr)
                .kind,
            Status::Kind::kParseError);
}

TEST(SqlStatusTest, TryExecuteSuccess) {
  Engine engine;
  Engine::Result result;
  Status status =
      engine.TryExecute("CREATE TABLE t (a INT);", &result);
  EXPECT_TRUE(status.ok);
  EXPECT_EQ(status.kind, Status::Kind::kOk);
  EXPECT_EQ(result.message, "table t created");
  // A null result pointer is allowed.
  EXPECT_TRUE(engine.TryExecute("INSERT INTO t VALUES (1);", nullptr).ok);
}

TEST(SqlStatusTest, TryExecuteClassifiesParseErrors) {
  Engine engine;
  Engine::Result result;
  result.message = "untouched";
  Status status = engine.TryExecute("FROBNICATE;", &result);
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(status.kind, Status::Kind::kParseError);
  EXPECT_NE(status.message.find("unrecognized statement"), std::string::npos);
  EXPECT_EQ(result.message, "untouched");
  // Multiple statements are a misuse of the single-statement entry point.
  EXPECT_EQ(engine.TryExecute("SHOW VIEWS; SHOW VIEWS;", nullptr).kind,
            Status::Kind::kParseError);
}

TEST(SqlStatusTest, TryExecuteClassifiesExecutionErrors) {
  Engine engine;
  Status status = engine.TryExecute("SELECT * FROM missing;", nullptr);
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(status.kind, Status::Kind::kExecutionError);
  EXPECT_NE(status.message.find("missing"), std::string::npos);
}

TEST(SqlStatusTest, TryExecuteScriptReportsFailingStatementIndex) {
  Engine engine;
  std::vector<Engine::Result> results;
  size_t failed = 999;
  Status status = engine.TryExecuteScript(
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); "
      "SELECT * FROM missing; INSERT INTO t VALUES (2);",
      &results, &failed);
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(status.kind, Status::Kind::kExecutionError);
  EXPECT_EQ(failed, 2u);  // 0-based index of the SELECT
  EXPECT_NE(status.message.find("statement 3 of 4"), std::string::npos);
  // The first two statements ran and their results were kept...
  ASSERT_EQ(results.size(), 2u);
  // ...and the statement after the failure did not run.
  Engine::Result count = engine.Execute("SELECT a FROM t;");
  EXPECT_EQ(count.rows.size(), 1u);
}

TEST(SqlStatusTest, TryExecuteScriptParseErrorRunsNothing) {
  Engine engine;
  std::vector<Engine::Result> results;
  size_t failed = 999;
  Status status = engine.TryExecuteScript(
      "CREATE TABLE t (a INT); THIS IS NOT SQL;", &results, &failed);
  EXPECT_EQ(status.kind, Status::Kind::kParseError);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(failed, 999u);  // untouched on parse errors
  EXPECT_FALSE(engine.database().Exists("t"));
}

TEST(SqlStatusTest, ExecuteScriptThrowsWithStatementIndex) {
  Engine engine;
  try {
    engine.ExecuteScript(
        "CREATE TABLE t (a INT); SELECT * FROM missing; SHOW VIEWS;");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("statement 2 of 3"),
              std::string::npos);
  }
}

// ------------------------------------------------------- SHOW STATS ---

TEST(SqlShowStatsTest, TabularStats) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT, b INT);"
      "CREATE MATERIALIZED VIEW v AS SELECT a, b FROM t WHERE a < 10;"
      "INSERT INTO t VALUES (1, 2), (50, 3);");
  Engine::Result result = engine.Execute("SHOW STATS;");
  ASSERT_EQ(result.kind, Engine::Result::Kind::kRows);
  ASSERT_EQ(result.schema.size(), 3u);
  EXPECT_EQ(result.schema.attribute(0).name, "view");
  EXPECT_EQ(result.schema.attribute(1).name, "metric");
  EXPECT_EQ(result.schema.attribute(2).name, "value");
  auto value_of = [&result](const std::string& view,
                            const std::string& metric) -> int64_t {
    for (const auto& [tuple, count] : result.rows) {
      if (tuple.at(0).AsString() == view &&
          tuple.at(1).AsString() == metric) {
        return tuple.at(2).AsInt64();
      }
    }
    return -1;
  };
  EXPECT_EQ(value_of("*", "commits"), 1);
  EXPECT_EQ(value_of("v", "transactions"), 1);
  EXPECT_EQ(value_of("v", "updates_seen"), 2);
  EXPECT_EQ(value_of("v", "updates_filtered"), 1);  // a=50 is irrelevant
  EXPECT_EQ(value_of("v", "delta_inserts"), 1);
  EXPECT_EQ(value_of("v", "deltas_recorded"), 1);
}

TEST(SqlShowStatsTest, JsonStats) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT);"
      "CREATE MATERIALIZED VIEW v AS SELECT a FROM t WHERE a < 10;"
      "INSERT INTO t VALUES (1);");
  Engine::Result result = engine.Execute("SHOW STATS JSON;");
  ASSERT_EQ(result.kind, Engine::Result::Kind::kMessage);
  EXPECT_EQ(result.message.front(), '{');
  EXPECT_NE(result.message.find("\"commits\": 1"), std::string::npos);
  EXPECT_NE(result.message.find("\"views\": {\"v\": {"), std::string::npos);
  EXPECT_NE(result.message.find("\"delta_size_histogram\""),
            std::string::npos);
}

TEST(SqlShowStatsTest, StatsFollowDropView) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT);"
      "CREATE MATERIALIZED VIEW v AS SELECT a FROM t;"
      "DROP VIEW v;");
  Engine::Result result = engine.Execute("SHOW STATS JSON;");
  EXPECT_EQ(result.message.find("\"v\""), std::string::npos);
}

}  // namespace
}  // namespace mview::sql
