#ifndef VADASA_VADALOG_DATABASE_H_
#define VADASA_VADALOG_DATABASE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"

namespace vadasa::vadalog {

/// Globally unique id of a fact within a Database (insertion order).
using FactId = uint32_t;
inline constexpr FactId kInvalidFactId = 0xffffffff;

/// Dense id of a predicate within a Database, in order of first use.
using PredId = uint32_t;

/// Why a fact exists: asserted (EDB) or derived by a rule from support facts.
struct Provenance {
  int rule_index = -1;          ///< -1 for asserted facts.
  std::vector<FactId> support;  ///< Body facts that justified the derivation.
};

/// A substitution of labelled nulls by label, from EGD unification.
using NullSubstitution = std::unordered_map<uint64_t, Value>;

/// Rewrites the labelled nulls of `row` through `subst`, following chains
/// null -> null -> constant and recursing into collections (VSets hold nulls
/// inside (name,value) pairs).
void SubstituteNullsInRow(const NullSubstitution& subst, std::vector<Value>* row);

/// All rows of one predicate, with a hash index for O(1) duplicate checks and
/// lazily built per-column hash indexes for joins. A predicate may hold rows
/// of several widths.
class Relation {
 public:
  size_t size() const { return rows_.size(); }
  const std::vector<Value>& row(size_t i) const { return rows_[i]; }
  FactId fact_id(size_t i) const { return fact_ids_[i]; }
  const std::vector<std::vector<Value>>& rows() const { return rows_; }

  /// Returns the local row index, or -1 if absent.
  int64_t Find(const std::vector<Value>& row) const { return Find(row, HashValues(row)); }

  /// Inserts if new; returns (local index, inserted?).
  std::pair<size_t, bool> Insert(std::vector<Value> row, FactId id);

  /// Row indices whose column `col` strictly equals `v` (hash-indexed). Only
  /// rows wider than `col` are indexed, so the candidates are those a scan
  /// of column `col` finds.
  const std::vector<uint32_t>& RowsWithValue(size_t col, const Value& v) const;

 private:
  using HashIndex = std::unordered_map<size_t, std::vector<uint32_t>>;
  struct ColumnIndex {
    HashIndex rows;         // Value hash -> row indices.
    size_t indexed_upto = 0;
  };

  int64_t Find(const std::vector<Value>& row, size_t hash) const;

  std::vector<std::vector<Value>> rows_;
  std::vector<FactId> fact_ids_;
  HashIndex dedup_;  // Row hash -> candidate row indices.
  // One per column of the widest row, grown only by Insert, so a candidate
  // list stays valid while a join probes another column.
  mutable std::vector<ColumnIndex> columns_;
};

/// The extensional + derived-extensional store of a reasoning task, with
/// per-fact provenance for full explainability (desideratum (vi)). A
/// relation's row is the only copy of a fact; a FactId names its relation
/// and row.
class Database {
 public:
  Database() = default;

  /// Adds a fact. No-op (returning the existing id) if already present.
  /// `prov` records how it was derived; pass {} for asserted facts.
  FactId AddFact(PredId predicate, std::vector<Value> row, Provenance prov = {});
  FactId AddFact(const std::string& predicate, std::vector<Value> row,
                 Provenance prov = {}) {
    return AddFact(Intern(predicate), std::move(row), std::move(prov));
  }

  bool Contains(PredId predicate, const std::vector<Value>& row) const {
    return relations_[predicate].Find(row) >= 0;
  }
  bool Contains(const std::string& predicate, const std::vector<Value>& row) const;

  /// Number of distinct facts.
  size_t size() const { return locations_.size(); }

  /// The id of `predicate`, assigned (with an empty relation) on first use.
  PredId Intern(const std::string& predicate);
  /// Ids run from 0 to num_predicates() - 1.
  size_t num_predicates() const { return relations_.size(); }
  const Relation& relation(PredId predicate) const { return relations_[predicate]; }

  /// The relation for `predicate`, or nullptr if no fact of it exists.
  const Relation* relation(const std::string& predicate) const;

  /// All rows of `predicate` (empty if absent).
  const std::vector<std::vector<Value>>& Rows(const std::string& predicate) const;

  /// Predicates holding at least one fact, sorted.
  std::vector<std::string> Predicates() const;

  /// The predicate, the row and the provenance of fact `id`.
  const std::string& predicate(FactId id) const { return names_[locations_[id].predicate]; }
  const std::vector<Value>& row(FactId id) const {
    return relations_[locations_[id].predicate].row(locations_[id].row);
  }
  const Provenance& provenance(FactId id) const { return provenance_[id]; }
  /// `p(a,b)`, as DumpPredicate prints it.
  std::string FactString(FactId id) const;

  /// Applies a substitution of labelled nulls (from EGD unification) to every
  /// fact, merging facts that become equal into the earliest of them. Returns
  /// each old FactId's new id (a merged fact's is its survivor's), through
  /// which every kept support list is rewritten.
  std::vector<FactId> SubstituteNulls(const NullSubstitution& subst);

  /// How many substitutions have rewritten this database's rows; a view of
  /// them built before the last one is stale.
  uint64_t substitutions() const { return substitutions_; }

  /// Allocates a fresh labelled-null label, unique within this database.
  uint64_t FreshNullLabel() { return next_null_label_++; }

  /// Pretty-prints all facts of a predicate, sorted, one per line.
  std::string DumpPredicate(const std::string& predicate) const;

 private:
  struct Location {
    PredId predicate;
    uint32_t row;
  };

  std::unordered_map<std::string, PredId> ids_;
  std::vector<std::string> names_;      // By PredId.
  std::deque<Relation> relations_;      // By PredId; a deque keeps them in place.
  std::vector<Location> locations_;     // By FactId.
  std::vector<Provenance> provenance_;  // By FactId.
  uint64_t substitutions_ = 0;
  uint64_t next_null_label_ = 1;
};

}  // namespace vadasa::vadalog

#endif  // VADASA_VADALOG_DATABASE_H_
