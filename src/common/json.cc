#include "common/json.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>

namespace vadasa {

namespace {

const Json& NullJson() {
  static const Json* null = new Json();
  return *null;
}

const std::string& EmptyString() {
  static const std::string* s = new std::string();
  return *s;
}

const Json::Array& EmptyArray() {
  static const Json::Array* a = new Json::Array();
  return *a;
}

const Json::Object& EmptyObject() {
  static const Json::Object* o = new Json::Object();
  return *o;
}

/// The escape JSON needs for each byte: 0 when it is written as is, 'u' when
/// it needs a \uXXXX escape, else the letter after the backslash. The bytes
/// with an escape are the ones that end a string's plain run when parsing.
constexpr std::array<char, 256> kJsonEscape = [] {
  std::array<char, 256> table{};
  for (size_t c = 0; c < 0x20; ++c) table[c] = 'u';
  table['"'] = '"';
  table['\\'] = '\\';
  table['\b'] = 'b';
  table['\f'] = 'f';
  table['\n'] = 'n';
  table['\r'] = 'r';
  table['\t'] = 't';
  return table;
}();

char JsonEscape(char c) { return kJsonEscape[static_cast<unsigned char>(c)]; }

void AppendUtf8(std::string* out, uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> ParseDocument() {
    VADASA_ASSIGN_OR_RETURN(Json value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError("json: " + what + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    const size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Result<Json> ParseValue() {
    if (++depth_ > kMaxDepth) return Error("nesting too deep");
    struct DepthGuard {
      size_t* d;
      ~DepthGuard() { --*d; }
    } guard{&depth_};
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      VADASA_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Json(std::move(s));
    }
    if (ConsumeWord("true")) return Json(true);
    if (ConsumeWord("false")) return Json(false);
    if (ConsumeWord("null")) return Json(nullptr);
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Error(std::string("unexpected character '") + c + "'");
  }

  Result<Json> ParseObject() {
    ++pos_;  // '{'
    Json::Object object;
    SkipWhitespace();
    if (Consume('}')) return Json(std::move(object));
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      VADASA_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      VADASA_ASSIGN_OR_RETURN(Json value, ParseValue());
      object[std::move(key)] = std::move(value);
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Json(std::move(object));
      return Error("expected ',' or '}' in object");
    }
  }

  Result<Json> ParseArray() {
    ++pos_;  // '['
    Json::Array array;
    SkipWhitespace();
    if (Consume(']')) return Json(std::move(array));
    for (;;) {
      VADASA_ASSIGN_OR_RETURN(Json value, ParseValue());
      array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Json(std::move(array));
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      // The run up to the next quote, backslash or control byte is literal.
      size_t run_end = pos_;
      while (run_end < text_.size() && JsonEscape(text_[run_end]) == 0) ++run_end;
      out.append(text_, pos_, run_end - pos_);
      pos_ = run_end;
      if (pos_ == text_.size()) break;
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') return Error("unescaped control character in string");
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          VADASA_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          // Surrogate pair: a high surrogate must be followed by \uDC00-DFFF.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              VADASA_ASSIGN_OR_RETURN(uint32_t lo, ParseHex4());
              if (lo >= 0xDC00 && lo <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              } else {
                return Error("invalid low surrogate");
              }
            } else {
              return Error("unpaired high surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(&out, cp);
          break;
        }
        default:
          return Error(std::string("invalid escape '\\") + e + "'");
      }
    }
    return Error("unterminated string");
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  Result<Json> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    if (Consume('0')) {
      // No leading zeros.
    } else if (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    } else {
      return Error("malformed number");
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("malformed number fraction");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("malformed number exponent");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("malformed number");
    return Json(value);
  }

  static constexpr size_t kMaxDepth = 128;
  const std::string& text_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

void DumpTo(const Json& value, std::string* out);

void DumpTo(const Json& value, std::string* out) {
  if (value.is_null()) {
    *out += "null";
  } else if (value.is_bool()) {
    *out += value.AsBool() ? "true" : "false";
  } else if (value.is_number()) {
    AppendJsonNumber(out, value.AsDouble());
  } else if (value.is_string()) {
    AppendJsonQuoted(out, value.AsString());
  } else if (value.is_array()) {
    out->push_back('[');
    bool first = true;
    for (const Json& element : value.AsArray()) {
      if (!first) out->push_back(',');
      first = false;
      DumpTo(element, out);
    }
    out->push_back(']');
  } else {
    out->push_back('{');
    bool first = true;
    for (const auto& [key, element] : value.AsObject()) {
      if (!first) out->push_back(',');
      first = false;
      AppendJsonQuoted(out, key);
      out->push_back(':');
      DumpTo(element, out);
    }
    out->push_back('}');
  }
}

}  // namespace

int64_t Json::AsInt(int64_t fallback) const {
  if (!is_number()) return fallback;
  const double d = std::get<double>(repr_);
  // 2^63 is exact as a double. Doubles at or above it, or below -2^63, are
  // outside int64_t, where the cast is undefined.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (std::isnan(d)) return fallback;
  if (d >= kTwo63) return std::numeric_limits<int64_t>::max();
  if (d < -kTwo63) return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(d);
}

bool Json::IsIntegerIn(int64_t lo, int64_t hi) const {
  if (!is_number()) return false;
  const double d = std::get<double>(repr_);
  return d >= static_cast<double>(lo) && d <= static_cast<double>(hi) &&
         d == std::trunc(d);
}

const std::string& Json::AsString() const {
  if (is_string()) return std::get<std::string>(repr_);
  return EmptyString();
}

const Json::Array& Json::AsArray() const {
  if (is_array()) return std::get<Array>(repr_);
  return EmptyArray();
}

const Json::Object& Json::AsObject() const {
  if (is_object()) return std::get<Object>(repr_);
  return EmptyObject();
}

const Json& Json::operator[](const std::string& key) const {
  if (is_object()) {
    const Object& object = std::get<Object>(repr_);
    auto it = object.find(key);
    if (it != object.end()) return it->second;
  }
  return NullJson();
}

Json& Json::operator[](const std::string& key) {
  if (!is_object()) repr_ = Object();
  return std::get<Object>(repr_)[key];
}

std::string Json::GetString(const std::string& key, const std::string& fallback) const {
  const Json& v = (*this)[key];
  return v.is_string() ? v.AsString() : fallback;
}

double Json::GetDouble(const std::string& key, double fallback) const {
  const Json& v = (*this)[key];
  return v.is_number() ? v.AsDouble() : fallback;
}

int64_t Json::GetInt(const std::string& key, int64_t fallback) const {
  const Json& v = (*this)[key];
  return v.is_number() ? v.AsInt() : fallback;
}

bool Json::GetBool(const std::string& key, bool fallback) const {
  const Json& v = (*this)[key];
  return v.is_bool() ? v.AsBool() : fallback;
}

bool Json::Has(const std::string& key) const {
  return is_object() && std::get<Object>(repr_).count(key) > 0;
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

Result<Json> Json::Parse(const std::string& text) {
  Parser parser(text);
  return parser.ParseDocument();
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  AppendJsonQuoted(&out, s);
  return out;
}

void AppendJsonQuoted(std::string* out, std::string_view s) {
  out->push_back('"');
  AppendJsonEscaped(out, s);
  out->push_back('"');
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;  // Start of the bytes not yet appended, all written as is.
  for (size_t i = 0; i < s.size(); ++i) {
    const char escape = JsonEscape(s[i]);
    if (escape == 0) continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    out->push_back('\\');
    if (escape == 'u') {
      const auto c = static_cast<unsigned char>(s[i]);
      const char hex[] = {'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
      out->append(hex, sizeof(hex));
    } else {
      out->push_back(escape);
    }
  }
  out->append(s.data() + run, s.size() - run);
}

void AppendJsonNumber(std::string* out, double d) {
  if (!std::isfinite(d)) {  // JSON has no Inf/NaN; null is the least-wrong spelling.
    *out += "null";
    return;
  }
  // What printf's "%lld" and "%.17g" write.
  char buf[32];
  char* const end =
      std::fabs(d) < 1e15 && d == std::trunc(d)
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d)).ptr
          : std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general, 17).ptr;
  out->append(buf, end);
}

}  // namespace vadasa
