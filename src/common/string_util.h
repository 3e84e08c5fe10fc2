#ifndef VADASA_COMMON_STRING_UTIL_H_
#define VADASA_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace vadasa {

/// Whether `c` is ASCII whitespace: space, \t, \n, \v, \f or \r, what
/// std::isspace accepts in the "C" locale.
constexpr bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Removes leading/trailing ASCII whitespace.
inline std::string_view TrimView(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsAsciiSpace(s[b])) ++b;
  while (e > b && IsAsciiSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}
std::string Trim(std::string_view s);

/// ASCII lower-case copy.
std::string ToLower(std::string_view s);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on runs of whitespace; drops empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

}  // namespace vadasa

#endif  // VADASA_COMMON_STRING_UTIL_H_
