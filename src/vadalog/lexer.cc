#include "vadalog/lexer.h"

#include <cctype>
#include <charconv>

namespace vadasa::vadalog {

std::string Token::ToString() const {
  switch (kind) {
    case TokenKind::kIdent:
    case TokenKind::kVariable:
      return text;
    case TokenKind::kExternal:
      return "#" + text;
    case TokenKind::kInt:
      return std::to_string(int_value);
    case TokenKind::kDouble:
      return std::to_string(double_value);
    case TokenKind::kString:
      return "\"" + text + "\"";
    case TokenKind::kLParen: return "(";
    case TokenKind::kRParen: return ")";
    case TokenKind::kComma: return ",";
    case TokenKind::kDot: return ".";
    case TokenKind::kImplies: return ":-";
    case TokenKind::kAssign: return "=";
    case TokenKind::kEq: return "==";
    case TokenKind::kNe: return "!=";
    case TokenKind::kLt: return "<";
    case TokenKind::kLe: return "<=";
    case TokenKind::kGt: return ">";
    case TokenKind::kGe: return ">=";
    case TokenKind::kPlus: return "+";
    case TokenKind::kMinus: return "-";
    case TokenKind::kStar: return "*";
    case TokenKind::kSlash: return "/";
    case TokenKind::kPercent: return "%";
    case TokenKind::kAt: return "@";
    case TokenKind::kEof: return "<eof>";
  }
  return "?";
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Lex(std::string_view src) {
  std::vector<Token> out;
  int line = 1;
  size_t i = 0;
  auto push = [&](TokenKind k) {
    Token t;
    t.kind = k;
    t.line = line;
    out.push_back(std::move(t));
  };
  while (i < src.size()) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '%' || (c == '/' && i + 1 < src.size() && src[i + 1] == '/')) {
      while (i < src.size() && src[i] != '\n') ++i;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < src.size() && IsIdentChar(src[i])) ++i;
      Token t;
      t.text = std::string(src.substr(start, i - start));
      t.line = line;
      t.kind = (std::isupper(static_cast<unsigned char>(c)) || c == '_')
                   ? TokenKind::kVariable
                   : TokenKind::kIdent;
      out.push_back(std::move(t));
      continue;
    }
    if (c == '#') {
      ++i;
      if (i >= src.size() || !IsIdentStart(src[i])) {
        return Status::ParseError("line " + std::to_string(line) +
                                  ": '#' must start an external predicate name");
      }
      size_t start = i;
      while (i < src.size() && IsIdentChar(src[i])) ++i;
      Token t;
      t.kind = TokenKind::kExternal;
      t.text = std::string(src.substr(start, i - start));
      t.line = line;
      out.push_back(std::move(t));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < src.size() && std::isdigit(static_cast<unsigned char>(src[i]))) ++i;
      bool is_double = false;
      if (i + 1 < src.size() && src[i] == '.' &&
          std::isdigit(static_cast<unsigned char>(src[i + 1]))) {
        is_double = true;
        ++i;
        while (i < src.size() && std::isdigit(static_cast<unsigned char>(src[i]))) ++i;
      }
      if (i < src.size() && (src[i] == 'e' || src[i] == 'E')) {
        size_t j = i + 1;
        if (j < src.size() && (src[j] == '+' || src[j] == '-')) ++j;
        if (j < src.size() && std::isdigit(static_cast<unsigned char>(src[j]))) {
          is_double = true;
          i = j;
          while (i < src.size() && std::isdigit(static_cast<unsigned char>(src[i]))) ++i;
        }
      }
      Token t;
      t.line = line;
      const std::string_view text = src.substr(start, i - start);
      const char* const end = text.data() + text.size();
      std::from_chars_result parsed{};
      if (is_double) {
        t.kind = TokenKind::kDouble;
        parsed = std::from_chars(text.data(), end, t.double_value);
      } else {
        t.kind = TokenKind::kInt;
        parsed = std::from_chars(text.data(), end, t.int_value);
      }
      if (parsed.ec != std::errc() || parsed.ptr != end) {
        return Status::ParseError("line " + std::to_string(line) +
                                  ": numeric literal out of range: " + std::string(text));
      }
      out.push_back(std::move(t));
      continue;
    }
    if (c == '"') {
      ++i;
      std::string s;
      bool closed = false;
      while (i < src.size()) {
        if (src[i] == '"') {
          closed = true;
          ++i;
          break;
        }
        if (src[i] == '\\' && i + 1 < src.size()) {
          ++i;
          switch (src[i]) {
            case 'n': s += '\n'; break;
            case 't': s += '\t'; break;
            default: s += src[i];
          }
        } else {
          if (src[i] == '\n') ++line;
          s += src[i];
        }
        ++i;
      }
      if (!closed) {
        return Status::ParseError("line " + std::to_string(line) +
                                  ": unterminated string literal");
      }
      Token t;
      t.kind = TokenKind::kString;
      t.text = std::move(s);
      t.line = line;
      out.push_back(std::move(t));
      continue;
    }
    auto two = [&](char next) {
      return i + 1 < src.size() && src[i + 1] == next;
    };
    switch (c) {
      case '(': push(TokenKind::kLParen); ++i; break;
      case ')': push(TokenKind::kRParen); ++i; break;
      case ',': push(TokenKind::kComma); ++i; break;
      case '.': push(TokenKind::kDot); ++i; break;
      case '@': push(TokenKind::kAt); ++i; break;
      case '+': push(TokenKind::kPlus); ++i; break;
      case '-': push(TokenKind::kMinus); ++i; break;
      case '*': push(TokenKind::kStar); ++i; break;
      case '/': push(TokenKind::kSlash); ++i; break;
      case ':':
        if (two('-')) {
          push(TokenKind::kImplies);
          i += 2;
        } else {
          return Status::ParseError("line " + std::to_string(line) +
                                    ": expected ':-' after ':'");
        }
        break;
      case '=':
        if (two('=')) {
          push(TokenKind::kEq);
          i += 2;
        } else {
          push(TokenKind::kAssign);
          ++i;
        }
        break;
      case '!':
        if (two('=')) {
          push(TokenKind::kNe);
          i += 2;
        } else {
          return Status::ParseError("line " + std::to_string(line) +
                                    ": expected '!=' after '!'");
        }
        break;
      case '<':
        if (two('=')) {
          push(TokenKind::kLe);
          i += 2;
        } else {
          push(TokenKind::kLt);
          ++i;
        }
        break;
      case '>':
        if (two('=')) {
          push(TokenKind::kGe);
          i += 2;
        } else {
          push(TokenKind::kGt);
          ++i;
        }
        break;
      default:
        return Status::ParseError("line " + std::to_string(line) +
                                  ": unexpected character '" + std::string(1, c) + "'");
    }
  }
  push(TokenKind::kEof);
  return out;
}

}  // namespace vadasa::vadalog
