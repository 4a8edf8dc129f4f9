#ifndef MVIEW_SQL_LEXER_H_
#define MVIEW_SQL_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mview::sql {

/// Token kinds produced by the SQL lexer.
enum class TokenKind : uint8_t {
  kIdentifier,  // bare or keyword (parser decides case-insensitively)
  kInteger,     // digits; a leading '-' is a symbol the parser combines
  kString,      // '...' with '' escaping
  kSymbol,      // punctuation / operators, text holds the exact lexeme
  kEnd,
};

/// One lexical token with its source offset (for error messages).
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  // kInteger: the digit run's value, at most 2^63 (`INT64_MIN`'s
  // magnitude); the parser applies the sign and range-checks the result.
  uint64_t magnitude = 0;
  size_t offset = 0;

  /// Case-insensitive keyword/identifier comparison.
  bool Is(const char* upper_keyword) const;

  /// True for an exact symbol match.
  bool IsSymbol(const char* symbol) const;
};

/// Streams the tokens of a SQL text in one pass over its bytes, one token
/// per `Next` call, so a parser holds one token at a time rather than a
/// list (which, at ~30 times the bytes of a bulk INSERT, would cost more
/// to fill than lexing does).  Supported symbols:
/// `( ) , ; . * + - = == != <> <= >= < >`.  `--` starts a comment running
/// to end of line.  `Next` throws `Error`, naming the offset, on an
/// unterminated string, an unexpected character, or a digit run whose
/// value exceeds 2^63.
class Lexer {
 public:
  /// `sql` must outlive the lexer.
  explicit Lexer(std::string_view sql) : src_(sql) {}

  /// Overwrites `*token` with the next token (reusing its text buffer);
  /// at the end of the text, a `kEnd` token at offset `size()`, again on
  /// every further call.
  void Next(Token* token);

 private:
  std::string_view src_;
  size_t pos_ = 0;
};

/// All tokens of `sql`, ending with the `kEnd` token; throws like
/// `Lexer::Next`.
std::vector<Token> Lex(const std::string& sql);

}  // namespace mview::sql

#endif  // MVIEW_SQL_LEXER_H_
