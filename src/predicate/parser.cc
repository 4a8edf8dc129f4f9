#include "predicate/parser.h"

#include <cctype>
#include <limits>
#include <memory>

#include "util/digits.h"
#include "util/error.h"

namespace mview {
namespace {

// Internal parse tree with arbitrary nesting; flattened to DNF at the end.
struct Node {
  enum Kind { kAtom, kAnd, kOr, kNot, kTrue, kFalse } kind;
  Atom atom;
  std::unique_ptr<Node> left;
  std::unique_ptr<Node> right;
};

std::unique_ptr<Node> MakeNode(Node::Kind kind) {
  auto n = std::make_unique<Node>();
  n->kind = kind;
  return n;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::unique_ptr<Node> Parse() {
    auto node = ParseOr();
    SkipSpace();
    MVIEW_CHECK(pos_ == text_.size(), "trailing input in condition at offset ",
                pos_, ": '", text_.substr(pos_), "'");
    return node;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(const char* token) {
    SkipSpace();
    size_t len = std::char_traits<char>::length(token);
    if (text_.compare(pos_, len, token) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  std::unique_ptr<Node> ParseOr() {
    auto left = ParseAnd();
    while (Consume("||")) {
      auto node = MakeNode(Node::kOr);
      node->left = std::move(left);
      node->right = ParseAnd();
      left = std::move(node);
    }
    return left;
  }

  std::unique_ptr<Node> ParseAnd() {
    auto left = ParseUnary();
    while (Consume("&&")) {
      auto node = MakeNode(Node::kAnd);
      node->left = std::move(left);
      node->right = ParseUnary();
      left = std::move(node);
    }
    return left;
  }

  std::unique_ptr<Node> ParseUnary() {
    if (Consume("!")) {
      // Guard against consuming the '!' of '!=' (cannot happen: an atom
      // starts with an identifier, so a bare '!' here is a negation).
      auto node = MakeNode(Node::kNot);
      node->left = ParseUnary();
      return node;
    }
    if (Consume("(")) {
      auto node = ParseOr();
      MVIEW_CHECK(Consume(")"), "expected ')' at offset ", pos_);
      return node;
    }
    return ParseAtom();
  }

  std::string ParseIdent() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.') {
        ++pos_;
      } else {
        break;
      }
    }
    MVIEW_CHECK(pos_ > start, "expected identifier at offset ", start);
    char first = text_[start];
    MVIEW_CHECK(!std::isdigit(static_cast<unsigned char>(first)),
                "identifier cannot start with a digit at offset ", start);
    return text_.substr(start, pos_ - start);
  }

  // [-]digits; the minus and the digit run's magnitude combine, so
  // "-9223372036854775808" is INT64_MIN.
  int64_t ParseInt() {
    SkipSpace();
    const size_t start = pos_;
    const bool negative = Peek() == '-';
    if (negative) ++pos_;
    MVIEW_CHECK(pos_ < text_.size() && util::IsDigit(text_[pos_]),
                "expected integer at offset ", start);
    uint64_t magnitude = 0;
    int64_t value = 0;
    MVIEW_CHECK(util::ScanDigits(text_, &pos_, &magnitude) &&
                    util::SignedFromMagnitude(magnitude, negative, &value),
                "integer literal out of range at offset ", start);
    return value;
  }

  // The integer after a `+`/`-` offset sign.  Offsets are negated, so
  // INT64_MIN (a second minus) is out of their range.
  int64_t ParseOffset() {
    const size_t start = pos_;
    const int64_t offset = ParseInt();
    MVIEW_CHECK(offset != std::numeric_limits<int64_t>::min(),
                "integer offset out of range at offset ", start);
    return offset;
  }

  CompareOp ParseOp() {
    if (Consume("==") || Consume("=")) return CompareOp::kEq;
    if (Consume("!=") || Consume("<>")) return CompareOp::kNe;
    if (Consume("<=")) return CompareOp::kLe;
    if (Consume(">=")) return CompareOp::kGe;
    if (Consume("<")) return CompareOp::kLt;
    if (Consume(">")) return CompareOp::kGt;
    internal::ThrowError("expected comparison operator at offset ", pos_);
  }

  std::unique_ptr<Node> ParseAtom() {
    char c = Peek();
    MVIEW_CHECK(c != '\0', "unexpected end of condition");
    std::string lhs = ParseIdent();
    if (lhs == "true") return MakeNode(Node::kTrue);
    if (lhs == "false") return MakeNode(Node::kFalse);
    CompareOp op = ParseOp();
    auto node = MakeNode(Node::kAtom);
    SkipSpace();
    char r = Peek();
    if (r == '"') {
      ++pos_;
      size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
      MVIEW_CHECK(pos_ < text_.size(), "unterminated string literal");
      std::string s = text_.substr(start, pos_ - start);
      ++pos_;
      node->atom = Atom::VarConst(std::move(lhs), op, Value(std::move(s)));
      return node;
    }
    if (std::isdigit(static_cast<unsigned char>(r)) || r == '-') {
      node->atom = Atom::VarConst(std::move(lhs), op, Value(ParseInt()));
      return node;
    }
    std::string rhs = ParseIdent();
    int64_t offset = 0;
    if (Consume("+")) {
      offset = ParseOffset();
    } else {
      SkipSpace();
      // A '-' here is an offset subtraction, e.g. "A <= B - 2".
      if (pos_ < text_.size() && text_[pos_] == '-') {
        ++pos_;
        offset = -ParseOffset();
      }
    }
    node->atom = Atom::VarVar(std::move(lhs), op, std::move(rhs), offset);
    return node;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Converts the parse tree into DNF, pushing negation down to atoms.
Condition ToDnf(const Node& node, bool negated) {
  switch (node.kind) {
    case Node::kTrue:
      return negated ? Condition::False() : Condition::True();
    case Node::kFalse:
      return negated ? Condition::True() : Condition::False();
    case Node::kAtom:
      return Condition::FromAtom(negated ? node.atom.Negated() : node.atom);
    case Node::kNot:
      return ToDnf(*node.left, !negated);
    case Node::kAnd: {
      Condition l = ToDnf(*node.left, negated);
      Condition r = ToDnf(*node.right, negated);
      return negated ? l.Or(r) : l.And(r);  // De Morgan
    }
    case Node::kOr: {
      Condition l = ToDnf(*node.left, negated);
      Condition r = ToDnf(*node.right, negated);
      return negated ? l.And(r) : l.Or(r);
    }
  }
  internal::ThrowError("corrupt parse tree");
}

}  // namespace

Condition ParseCondition(const std::string& text) {
  Parser parser(text);
  auto tree = parser.Parse();
  return ToDnf(*tree, /*negated=*/false);
}

}  // namespace mview
