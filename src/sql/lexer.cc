#include "sql/lexer.h"

#include <cctype>
#include <cstring>

#include "util/digits.h"
#include "util/error.h"

namespace mview::sql {

namespace {

bool EqualsIgnoreCase(const std::string& a, const char* b) {
  size_t i = 0;
  for (; i < a.size() && b[i] != '\0'; ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return i == a.size() && b[i] == '\0';
}

bool IsIdentifierStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool IsIdentifierChar(char c) {
  return IsIdentifierStart(c) || util::IsDigit(c);
}

}  // namespace

bool Token::Is(const char* upper_keyword) const {
  return kind == TokenKind::kIdentifier && EqualsIgnoreCase(text, upper_keyword);
}

bool Token::IsSymbol(const char* symbol) const {
  return kind == TokenKind::kSymbol && text == symbol;
}

void Lexer::Next(Token* token) {
  const size_t n = src_.size();
  size_t i = pos_;
  // Sets `*token` to the source bytes [offset, end) and moves past them.
  auto emit = [&](TokenKind kind, size_t offset, size_t end) {
    token->kind = kind;
    token->text.assign(src_.data() + offset, end - offset);
    token->magnitude = 0;
    token->offset = offset;
    pos_ = end;
  };
  while (i < n) {
    const size_t offset = i;
    const char c = src_[i];
    // The length of a symbol that may take a second character `next`.
    auto pair = [&](char next) {
      return offset + 1 < n && src_[offset + 1] == next ? 2 : 1;
    };
    switch (c) {
      case ' ':
      case '\t':
      case '\n':
      case '\v':
      case '\f':
      case '\r':
        ++i;
        continue;
      case '(':
      case ')':
      case ',':
      case ';':
      case '.':
      case '*':
      case '+':
        return emit(TokenKind::kSymbol, offset, offset + 1);
      case '-':
        if (pair('-') == 2) {  // a comment, to the end of the line
          const void* eol = std::memchr(src_.data() + i, '\n', n - i);
          i = eol == nullptr ? n
                             : static_cast<const char*>(eol) - src_.data();
          continue;
        }
        return emit(TokenKind::kSymbol, offset, offset + 1);
      case '=':
      case '>':
        return emit(TokenKind::kSymbol, offset, offset + pair('='));
      case '<':
        return emit(TokenKind::kSymbol, offset,
                    offset + (pair('=') == 2 || pair('>') == 2 ? 2 : 1));
      case '!':
        if (pair('=') == 1) {
          internal::ThrowError("unexpected character '!' at offset ", offset);
        }
        return emit(TokenKind::kSymbol, offset, offset + 2);
      case '\'': {
        // '' inside the quotes stands for one quote.
        token->kind = TokenKind::kString;
        token->text.clear();
        token->magnitude = 0;
        token->offset = offset;
        ++i;
        while (true) {
          const void* quote = std::memchr(src_.data() + i, '\'', n - i);
          MVIEW_CHECK(quote != nullptr,
                      "unterminated string literal at offset ", offset);
          const size_t q = static_cast<const char*>(quote) - src_.data();
          token->text.append(src_.data() + i, q - i);
          i = q + 1;
          if (i >= n || src_[i] != '\'') break;
          token->text += '\'';
          ++i;
        }
        pos_ = i;
        return;
      }
      default:
        if (util::IsDigit(c)) {
          uint64_t magnitude = 0;
          MVIEW_CHECK(util::ScanDigits(src_, &i, &magnitude),
                      "integer literal out of range at offset ", offset);
          emit(TokenKind::kInteger, offset, i);
          token->magnitude = magnitude;
          return;
        }
        if (IsIdentifierStart(c)) {
          while (i < n && IsIdentifierChar(src_[i])) ++i;
          return emit(TokenKind::kIdentifier, offset, i);
        }
        internal::ThrowError("unexpected character '", std::string(1, c),
                             "' at offset ", offset);
    }
  }
  emit(TokenKind::kEnd, n, n);
}

std::vector<Token> Lex(const std::string& sql) {
  Lexer lexer(sql);
  std::vector<Token> tokens;
  do {
    lexer.Next(&tokens.emplace_back());
  } while (tokens.back().kind != TokenKind::kEnd);
  return tokens;
}

}  // namespace mview::sql
