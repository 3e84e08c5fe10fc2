#ifndef VADASA_COMMON_FLAT_MAP_H_
#define VADASA_COMMON_FLAT_MAP_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "common/value.h"

namespace vadasa {

/// splitmix64's finalizer: the hash of a packed key.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A linear-probing hash table from a trivially copyable key to a mapped
/// value: the utility report's per-cell and per-pair counters and the CSV
/// loader's per-column intern tables. Power-of-two capacity, grows at half
/// load, never erases. Nothing reads it in slot order except order-free
/// tallies.
template <typename Key, typename Mapped, typename Hash>
class FlatMap {
 public:
  explicit FlatMap(size_t expected = 0) {
    size_t capacity = 16;
    while (capacity < 2 * expected) capacity <<= 1;
    slots_.resize(capacity);
  }

  /// The slot of `key`, value-initialized (and `*inserted` set) when new.
  Mapped& Emplace(const Key& key, bool* inserted) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Slot& slot = slots_[Probe(key)];
    *inserted = !slot.used;
    if (!slot.used) {
      slot = Slot{key, Mapped{}, true};
      ++size_;
    }
    return slot.mapped;
  }

  /// The slot of `key`, or nullptr when absent.
  Mapped* Find(const Key& key) {
    if (size_ == 0) return nullptr;
    Slot& slot = slots_[Probe(key)];
    return slot.used ? &slot.mapped : nullptr;
  }

  template <typename F>
  void ForEach(F&& f) const {
    for (const Slot& slot : slots_) {
      if (slot.used) f(slot.mapped);
    }
  }

 private:
  struct Slot {
    Key key{};
    Mapped mapped{};
    bool used = false;
  };

  size_t Probe(const Key& key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(Hash()(key)) & mask;
    while (slots_[i].used && !(slots_[i].key == key)) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
    for (Slot& slot : old) {
      if (slot.used) slots_[Probe(slot.key)] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// A cell's payload identity: its kind and raw payload word (the integer,
/// the double's bits, or the address of a string's or collection's shared
/// payload). Equal identities are equal values; unequal ones may still be
/// equal (two payloads of one string, Int(2) and Double(2.0)). An address
/// names a payload only while it lives, so a table keyed on identities must
/// not outlive the cells it was filled from.
struct CellKey {
  uint64_t bits = 0;
  ValueKind kind = ValueKind::kNull;

  static CellKey Of(const Value& v) {
    CellKey key;
    key.kind = v.kind();
    switch (v.kind()) {
      case ValueKind::kDouble: {
        const double d = v.as_double();
        std::memcpy(&key.bits, &d, sizeof(d));
        break;
      }
      case ValueKind::kString:
        key.bits = reinterpret_cast<uintptr_t>(&v.as_string());
        break;
      case ValueKind::kList:
      case ValueKind::kSet:
        key.bits = reinterpret_cast<uintptr_t>(&v.items());
        break;
      default:  // Null label, bool and int share the integer payload.
        key.bits = static_cast<uint64_t>(v.as_int());
        break;
    }
    return key;
  }
  bool operator==(const CellKey& other) const {
    return bits == other.bits && kind == other.kind;
  }
};

struct CellKeyHash {
  uint64_t operator()(const CellKey& key) const {
    return Mix64(key.bits + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(key.kind) + 1));
  }
};

struct WordHash {
  uint64_t operator()(uint64_t key) const { return Mix64(key + 0x9e3779b97f4a7c15ULL); }
};

/// A hash of a string's length and bytes, read a word at a time: eight bytes
/// at a time from 8 bytes on (the last word overlapping the one before), two
/// overlapping 4-byte halves from 4 to 7 bytes, and the first, middle and
/// last byte below that.
struct BytesHash {
  uint64_t operator()(std::string_view s) const {
    const char* const p = s.data();
    const size_t n = s.size();
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
    if (n >= 8) {
      for (size_t i = 0; i + 8 < n; i += 8) h = Mix64(h ^ Load<uint64_t>(p + i));
      return Mix64(h ^ Load<uint64_t>(p + n - 8));
    }
    uint64_t word = 0;
    if (n >= 4) {
      word = (uint64_t{Load<uint32_t>(p)} << 32) | Load<uint32_t>(p + n - 4);
    } else if (n > 0) {
      word = (uint64_t{static_cast<unsigned char>(p[0])} << 16) |
             (uint64_t{static_cast<unsigned char>(p[n / 2])} << 8) |
             static_cast<unsigned char>(p[n - 1]);
    }
    return Mix64(h ^ word);
  }

 private:
  template <typename Word>
  static Word Load(const char* p) {
    Word word;
    std::memcpy(&word, p, sizeof(word));
    return word;
  }
};

}  // namespace vadasa

#endif  // VADASA_COMMON_FLAT_MAP_H_
