#ifndef VADASA_COMMON_JSON_H_
#define VADASA_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"

namespace vadasa {

/// A minimal JSON document model for the serving wire protocol (RFC 8259
/// subset: UTF-8 passed through verbatim, \uXXXX escapes decoded to UTF-8,
/// numbers held as double). Small by design — the exporters in obs/ keep
/// their hand-rolled writers; this type exists for the code that must *parse*
/// requests off a socket and echo structured replies.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : repr_(nullptr) {}                       ///< null
  Json(std::nullptr_t) : repr_(nullptr) {}         // NOLINT(runtime/explicit)
  Json(bool b) : repr_(b) {}                       // NOLINT(runtime/explicit)
  Json(double d) : repr_(d) {}                     // NOLINT(runtime/explicit)
  Json(int i) : repr_(static_cast<double>(i)) {}   // NOLINT(runtime/explicit)
  Json(int64_t i) : repr_(static_cast<double>(i)) {}  // NOLINT(runtime/explicit)
  Json(uint64_t i) : repr_(static_cast<double>(i)) {}  // NOLINT(runtime/explicit)
  Json(const char* s) : repr_(std::string(s)) {}   // NOLINT(runtime/explicit)
  Json(std::string s) : repr_(std::move(s)) {}     // NOLINT(runtime/explicit)
  Json(Array a) : repr_(std::move(a)) {}           // NOLINT(runtime/explicit)
  Json(Object o) : repr_(std::move(o)) {}          // NOLINT(runtime/explicit)

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(repr_); }
  bool is_bool() const { return std::holds_alternative<bool>(repr_); }
  bool is_number() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }
  bool is_array() const { return std::holds_alternative<Array>(repr_); }
  bool is_object() const { return std::holds_alternative<Object>(repr_); }

  bool AsBool(bool fallback = false) const {
    return is_bool() ? std::get<bool>(repr_) : fallback;
  }
  double AsDouble(double fallback = 0.0) const {
    return is_number() ? std::get<double>(repr_) : fallback;
  }
  /// The number truncated toward zero and saturated to the int64_t range, so
  /// every double converts (1e19 reads INT64_MAX); `fallback` when this is
  /// not a number or is NaN. Fields that must be integers check
  /// IsIntegerIn first.
  int64_t AsInt(int64_t fallback = 0) const;
  /// Whether this is a number holding an integer in [lo, hi]. Both bounds
  /// must be exactly representable as doubles (|bound| <= 2^53).
  bool IsIntegerIn(int64_t lo, int64_t hi) const;
  const std::string& AsString() const;  ///< Empty string when not a string.

  const Array& AsArray() const;    ///< Empty array when not an array.
  const Object& AsObject() const;  ///< Empty object when not an object.

  /// Object member lookup; a shared null when absent or not an object.
  const Json& operator[](const std::string& key) const;
  /// Mutable object member access (converts a null to an object first).
  Json& operator[](const std::string& key);

  /// Typed member accessors with fallbacks, for request decoding.
  std::string GetString(const std::string& key, const std::string& fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;
  bool Has(const std::string& key) const;

  /// Compact single-line serialization (object keys in map order).
  std::string Dump() const;

  /// Parses one JSON document; trailing non-whitespace is a ParseError.
  static Result<Json> Parse(const std::string& text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> repr_;
};

/// Escapes `s` into a double-quoted JSON string literal.
std::string JsonQuote(std::string_view s);

/// Appends JsonQuote(s) to `out`.
void AppendJsonQuoted(std::string* out, std::string_view s);

/// Appends JsonQuote(s) without its quotes, so a string literal can be
/// written a piece at a time.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// Appends a number as Json::Dump writes it: integers without a fraction,
/// everything else with enough digits to round-trip, non-finite as null.
void AppendJsonNumber(std::string* out, double d);

}  // namespace vadasa

#endif  // VADASA_COMMON_JSON_H_
