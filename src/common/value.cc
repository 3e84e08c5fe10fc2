#include "common/value.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace vadasa {

namespace {

size_t HashCombine(size_t seed, size_t h) {
  // Boost-style combiner.
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Hash of a number's value: ints hash through their double, so Int(2) and
/// Double(2.0) collide (ints that round to one double only share a hash).
/// Every NaN hashes alike and -0.0 like 0.0, as Equals has them equal.
size_t NumberHash(double d) {
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  if (d == 0) d = 0.0;
  return std::hash<double>()(d);
}

template <typename T>
int ThreeWay(T a, T b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

/// Orders doubles numerically, with -0.0 equal to 0.0 and NaN equal to NaN
/// and after every other double.
int CompareDoubles(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
  }
  return ThreeWay(a, b);
}

/// Orders an int against a double by exact value, without rounding the int.
int CompareIntDouble(int64_t i, double d) {
  constexpr double kTwo63 = 9223372036854775808.0;
  if (std::isnan(d) || d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  // d is in [-2^63, 2^63), so its integer part converts to int64 exactly.
  const double whole = std::trunc(d);
  const int c = ThreeWay(i, static_cast<int64_t>(whole));
  return c != 0 ? c : CompareDoubles(whole, d);
}

}  // namespace

Value Value::String(std::string s) {
  return WithPayload(ValueKind::kString, new StringPayload(std::move(s)));
}

Value Value::List(std::vector<Value> items) {
  return WithPayload(ValueKind::kList, new ItemsPayload(std::move(items)));
}

Value Value::Set(std::vector<Value> items) {
  std::sort(items.begin(), items.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  items.erase(std::unique(items.begin(), items.end(),
                          [](const Value& a, const Value& b) {
                            return a.Compare(b) == 0;
                          }),
              items.end());
  return WithPayload(ValueKind::kSet, new ItemsPayload(std::move(items)));
}

void Value::DestroyPayload() noexcept {
  if (kind_ == ValueKind::kString) {
    delete static_cast<StringPayload*>(payload());
  } else {
    delete static_cast<ItemsPayload*>(payload());
  }
}

Result<double> Value::ToNumeric() const {
  if (is_numeric()) return as_double();
  return Status::TypeError("value is not numeric: " + ToString());
}

bool Value::Equals(const Value& other) const { return Compare(other) == 0; }

bool Value::MaybeEquals(const Value& other) const {
  if (is_null() || other.is_null()) return true;
  return Equals(other);
}

int Value::Compare(const Value& other) const {
  // Cross-kind numeric comparison so Int(2) == Double(2.0).
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return ThreeWay(as_int(), other.as_int());
    if (is_double() && other.is_double()) {
      return CompareDoubles(as_double(), other.as_double());
    }
    return is_int() ? CompareIntDouble(as_int(), other.as_double())
                    : -CompareIntDouble(other.as_int(), as_double());
  }
  if (kind_ != other.kind_) {
    return static_cast<int>(kind_) < static_cast<int>(other.kind_) ? -1 : 1;
  }
  switch (kind_) {
    case ValueKind::kNull:
    case ValueKind::kBool:
    case ValueKind::kInt:
    case ValueKind::kDouble:
      return ThreeWay(as_int(), other.as_int());
    case ValueKind::kString:
      return as_string().compare(other.as_string());
    case ValueKind::kList:
    case ValueKind::kSet: {
      const auto& a = items();
      const auto& b = other.items();
      const size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        const int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return ThreeWay(a.size(), b.size());
    }
  }
  return 0;
}

size_t Value::Hash() const {
  size_t seed = 0;
  switch (kind_) {
    case ValueKind::kNull:
      seed = HashCombine(1, std::hash<int64_t>()(as_int()));
      break;
    case ValueKind::kBool:
      seed = HashCombine(2, std::hash<int64_t>()(as_int()));
      break;
    case ValueKind::kInt:
    case ValueKind::kDouble:
      seed = HashCombine(3, NumberHash(as_double()));
      break;
    case ValueKind::kString:
      seed = HashCombine(4, std::hash<std::string>()(as_string()));
      break;
    case ValueKind::kList:
    case ValueKind::kSet:
      seed = kind_ == ValueKind::kList ? 5 : 6;
      for (const Value& v : items()) seed = HashCombine(seed, v.Hash());
      break;
  }
  return seed;
}

std::string Value::ToString() const {
  switch (kind_) {
    case ValueKind::kNull:
      return "⊥_" + std::to_string(as_int());
    case ValueKind::kBool:
      return as_bool() ? "true" : "false";
    case ValueKind::kInt:
      return std::to_string(as_int());
    case ValueKind::kDouble: {
      // Render integral doubles without a trailing ".0" explosion, but keep
      // precision for the rest.
      std::ostringstream os;
      os << as_double();
      return os.str();
    }
    case ValueKind::kString:
      return as_string();
    case ValueKind::kList:
    case ValueKind::kSet: {
      std::string out = kind_ == ValueKind::kList ? "(" : "{";
      for (size_t i = 0; i < items().size(); ++i) {
        if (i > 0) out += ",";
        out += items()[i].ToString();
      }
      out += kind_ == ValueKind::kList ? ")" : "}";
      return out;
    }
  }
  return "?";
}

size_t HashValues(const std::vector<Value>& values) {
  size_t seed = values.size();
  for (const Value& v : values) seed = HashCombine(seed, v.Hash());
  return seed;
}

}  // namespace vadasa
