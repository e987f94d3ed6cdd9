#include "classad/lexer.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace phisched::classad {

namespace {
const char* kind_names[] = {
    "end", "integer", "real", "string", "identifier", ".",  "(",  ")", "+",
    "-",   "*",       "/",    "%",      "<",          "<=", ">",  ">=", "==",
    "!=",  "=?=",     "=!=",  "&&",     "||",         "!",  "?",  ":"};
}

const char* token_kind_name(TokenKind kind) {
  return kind_names[static_cast<std::size_t>(kind)];
}

ParseError::ParseError(const std::string& message, std::size_t offset)
    : std::runtime_error(message + " (at offset " + std::to_string(offset) + ")"),
      offset_(offset) {}

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0;
  const std::size_t n = src.size();

  auto push = [&](TokenKind kind, std::size_t at, std::string text = {}) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.offset = at;
    out.push_back(std::move(t));
  };

  while (i < n) {
    const char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    const std::size_t at = i;
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      std::size_t j = i;
      bool is_real = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(src[j]))) ++j;
      if (j < n && src[j] == '.') {
        is_real = true;
        ++j;
        while (j < n && std::isdigit(static_cast<unsigned char>(src[j]))) ++j;
      }
      if (j < n && (src[j] == 'e' || src[j] == 'E')) {
        std::size_t k = j + 1;
        if (k < n && (src[k] == '+' || src[k] == '-')) ++k;
        if (k < n && std::isdigit(static_cast<unsigned char>(src[k]))) {
          is_real = true;
          j = k;
          while (j < n && std::isdigit(static_cast<unsigned char>(src[j]))) ++j;
        }
      }
      const std::string text(src.substr(i, j - i));
      Token t;
      t.offset = at;
      if (is_real) {
        t.kind = TokenKind::kReal;
        t.real_value = std::strtod(text.c_str(), nullptr);
      } else {
        t.kind = TokenKind::kInteger;
        auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                         t.int_value);
        if (ec != std::errc{}) {
          throw ParseError("integer literal out of range: " + text, at);
        }
      }
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    if (c == '"') {
      std::string text;
      std::size_t j = i + 1;
      for (;;) {
        if (j >= n) throw ParseError("unterminated string literal", at);
        if (src[j] == '"') break;
        if (src[j] == '\\') {
          if (j + 1 >= n) throw ParseError("dangling escape in string", j);
          const char e = src[j + 1];
          switch (e) {
            case 'n': text += '\n'; break;
            case 't': text += '\t'; break;
            case '\\': text += '\\'; break;
            case '"': text += '"'; break;
            default: throw ParseError(std::string("unknown escape \\") + e, j);
          }
          j += 2;
          continue;
        }
        text += src[j];
        ++j;
      }
      push(TokenKind::kString, at, std::move(text));
      i = j + 1;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      push(TokenKind::kIdentifier, at, std::string(src.substr(i, j - i)));
      i = j;
      continue;
    }
    switch (c) {
      case '.': push(TokenKind::kDot, at); ++i; continue;
      case '(': push(TokenKind::kLParen, at); ++i; continue;
      case ')': push(TokenKind::kRParen, at); ++i; continue;
      case '+': push(TokenKind::kPlus, at); ++i; continue;
      case '-': push(TokenKind::kMinus, at); ++i; continue;
      case '*': push(TokenKind::kStar, at); ++i; continue;
      case '/': push(TokenKind::kSlash, at); ++i; continue;
      case '%': push(TokenKind::kPercent, at); ++i; continue;
      case '?': push(TokenKind::kQuestion, at); ++i; continue;
      case ':': push(TokenKind::kColon, at); ++i; continue;
      case '<':
        if (i + 1 < n && src[i + 1] == '=') { push(TokenKind::kLe, at); i += 2; }
        else { push(TokenKind::kLt, at); ++i; }
        continue;
      case '>':
        if (i + 1 < n && src[i + 1] == '=') { push(TokenKind::kGe, at); i += 2; }
        else { push(TokenKind::kGt, at); ++i; }
        continue;
      case '=':
        if (i + 2 < n && src[i + 1] == '?' && src[i + 2] == '=') {
          push(TokenKind::kIs, at);
          i += 3;
        } else if (i + 2 < n && src[i + 1] == '!' && src[i + 2] == '=') {
          push(TokenKind::kIsnt, at);
          i += 3;
        } else if (i + 1 < n && src[i + 1] == '=') {
          push(TokenKind::kEq, at);
          i += 2;
        } else {
          throw ParseError("single '=' is not a ClassAd operator", at);
        }
        continue;
      case '!':
        if (i + 1 < n && src[i + 1] == '=') { push(TokenKind::kNe, at); i += 2; }
        else { push(TokenKind::kNot, at); ++i; }
        continue;
      case '&':
        if (i + 1 < n && src[i + 1] == '&') { push(TokenKind::kAnd, at); i += 2; continue; }
        throw ParseError("expected '&&'", at);
      case '|':
        if (i + 1 < n && src[i + 1] == '|') { push(TokenKind::kOr, at); i += 2; continue; }
        throw ParseError("expected '||'", at);
      default:
        throw ParseError(std::string("unexpected character '") + c + "'", at);
    }
  }
  push(TokenKind::kEnd, n);
  return out;
}

}  // namespace phisched::classad
