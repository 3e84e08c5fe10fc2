#ifndef VADASA_COMMON_VALUE_H_
#define VADASA_COMMON_VALUE_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace vadasa {

/// Runtime type tag of a Value.
enum class ValueKind : uint8_t {
  kNull = 0,  ///< A labelled null ⊥_id (not SQL NULL: nulls are distinguishable).
  kBool,
  kInt,
  kDouble,
  kString,
  kList,  ///< An ordered tuple of values.
  kSet,   ///< A canonically sorted, duplicate-free collection of values.
};

/// A dynamically typed value: the domain of microdata cells and Vadalog terms.
///
/// Labelled nulls carry a numeric label so that ⊥_1 ≠ ⊥_2 under the standard
/// (Skolem-chase) semantics, while the *maybe-match* semantics of the paper
/// (Section 4.3) lets a null match anything; see MaybeEquals().
///
/// Values are small, copyable and totally ordered (ordering first by kind,
/// then by payload), so they can serve as keys in maps and sets.
///
/// Layout: 16 bytes, the kind and one 64-bit word. The word holds a null's
/// label, a bool, an int or a double's bits inline; for a string, list or set
/// it points to an immutable heap payload with an atomic reference count, so
/// copies share one payload (as_string() and items() return references into
/// it) and threads may copy and destroy Values that share one concurrently.
class Value {
 public:
  /// Default-constructs the labelled null ⊥_0.
  Value() noexcept : kind_(ValueKind::kNull), word_(0) {}
  Value(const Value& other) noexcept : kind_(other.kind_), word_(other.word_) {
    if (has_payload()) payload()->refs.fetch_add(1, std::memory_order_relaxed);
  }
  /// Leaves `other` as ⊥_0.
  Value(Value&& other) noexcept : kind_(other.kind_), word_(other.word_) {
    other.kind_ = ValueKind::kNull;
    other.word_ = 0;
  }
  // Both assignments take the source before releasing the old payload, so
  // they are safe when the source lives inside it (v = v.items()[0]) and on
  // self-assignment.
  Value& operator=(const Value& other) noexcept {
    Value copy(other);
    Swap(copy);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    Value moved(std::move(other));
    Swap(moved);
    return *this;
  }
  ~Value() {
    if (has_payload() && payload()->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      DestroyPayload();
    }
  }

  static Value Null(uint64_t label) { return Value(ValueKind::kNull, label); }
  static Value Bool(bool b) { return Value(ValueKind::kBool, b ? 1 : 0); }
  static Value Int(int64_t i) { return Value(ValueKind::kInt, static_cast<uint64_t>(i)); }
  static Value Double(double d) {
    return Value(ValueKind::kDouble, std::bit_cast<uint64_t>(d));
  }
  static Value String(std::string s);
  /// Builds an ordered tuple.
  static Value List(std::vector<Value> items);
  /// Builds a set: items are sorted and deduplicated.
  static Value Set(std::vector<Value> items);

  ValueKind kind() const { return kind_; }
  bool is_null() const { return kind_ == ValueKind::kNull; }
  bool is_bool() const { return kind_ == ValueKind::kBool; }
  bool is_int() const { return kind_ == ValueKind::kInt; }
  bool is_double() const { return kind_ == ValueKind::kDouble; }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == ValueKind::kString; }
  bool is_list() const { return kind_ == ValueKind::kList; }
  bool is_set() const { return kind_ == ValueKind::kSet; }
  bool is_collection() const { return is_list() || is_set(); }

  // The word accessors read 0 (false) on a string, list or set; on another
  // inline kind they reinterpret its word (as_int() of a double is its bits).
  uint64_t null_label() const { return inline_word(); }
  bool as_bool() const { return inline_word() != 0; }
  int64_t as_int() const { return static_cast<int64_t>(inline_word()); }
  double as_double() const {
    return kind_ == ValueKind::kDouble ? std::bit_cast<double>(word_)
                                       : static_cast<double>(as_int());
  }
  /// The string's payload; only for is_string().
  const std::string& as_string() const;
  /// The list's or set's items; only for is_collection().
  const std::vector<Value>& items() const;

  /// Numeric value of an int or double; TypeError otherwise.
  Result<double> ToNumeric() const;

  /// Strict equality: labelled nulls are equal iff their labels are equal;
  /// ints and doubles compare exactly by numeric value (Int(2) equals
  /// Double(2.0), but no int is rounded to a double), and NaN equals NaN.
  bool Equals(const Value& other) const;

  /// The paper's =⊥ maybe-match relation: values match if strictly equal or
  /// if either side is a labelled null (any null, regardless of label).
  bool MaybeEquals(const Value& other) const;

  /// Total order for container keys: by kind, then payload. Numerics of
  /// different kinds (int vs double) are ordered by exact numeric value
  /// first; NaN sorts after +inf.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Equals(other); }
  bool operator!=(const Value& other) const { return !Equals(other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Agrees with Equals: equal values hash alike.
  size_t Hash() const;

  /// Renders the value: nulls as "⊥_k", strings unquoted, lists as (a,b),
  /// sets as {a,b}. For diagnostics and golden tests.
  std::string ToString() const;

 private:
  /// The counted head of a heap payload; StringPayload or ItemsPayload by kind.
  struct Payload {
    std::atomic<uint64_t> refs{1};
  };
  struct StringPayload;
  struct ItemsPayload;

  Value(ValueKind kind, uint64_t word) noexcept : kind_(kind), word_(word) {}
  static Value WithPayload(ValueKind kind, Payload* payload) {
    return Value(kind, reinterpret_cast<uintptr_t>(payload));
  }

  /// kString, kList and kSet are the kinds past kDouble.
  bool has_payload() const { return kind_ > ValueKind::kDouble; }
  Payload* payload() const { return reinterpret_cast<Payload*>(static_cast<uintptr_t>(word_)); }
  uint64_t inline_word() const { return has_payload() ? 0 : word_; }
  void Swap(Value& other) noexcept {
    std::swap(kind_, other.kind_);
    std::swap(word_, other.word_);
  }
  /// Deletes the payload whose last reference this value held.
  void DestroyPayload() noexcept;

  ValueKind kind_;
  uint64_t word_;
};

struct Value::StringPayload : Payload {
  explicit StringPayload(std::string s) : value(std::move(s)) {}
  const std::string value;
};

struct Value::ItemsPayload : Payload {
  explicit ItemsPayload(std::vector<Value> v) : items(std::move(v)) {}
  const std::vector<Value> items;
};

static_assert(sizeof(Value) == 16, "a Value is its kind and one 64-bit word");
static_assert(sizeof(uintptr_t) <= sizeof(uint64_t), "a payload pointer fits the word");

inline const std::string& Value::as_string() const {
  return static_cast<const StringPayload*>(payload())->value;
}

inline const std::vector<Value>& Value::items() const {
  return static_cast<const ItemsPayload*>(payload())->items;
}

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Hash/equality over tuples of values (rows, grouping keys).
size_t HashValues(const std::vector<Value>& values);

}  // namespace vadasa

#endif  // VADASA_COMMON_VALUE_H_
