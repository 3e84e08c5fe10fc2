#include "vadalog/database.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace vadasa::vadalog {

namespace {

const std::vector<std::vector<Value>> kEmptyRows = {};

/// Rewrites `*v` through `subst`; true when it changed.
bool SubstituteNullsIn(const NullSubstitution& subst, Value* v) {
  if (v->is_null()) {
    bool changed = false;
    int guard = 0;
    while (v->is_null() && guard++ < 64) {
      auto it = subst.find(v->null_label());
      if (it == subst.end()) break;
      *v = it->second;
      changed = true;
    }
    return changed;
  }
  if (v->is_collection()) {
    std::vector<Value> items = v->items();
    bool changed = false;
    for (Value& item : items) changed |= SubstituteNullsIn(subst, &item);
    if (changed) {
      *v = v->is_set() ? Value::Set(std::move(items)) : Value::List(std::move(items));
    }
    return changed;
  }
  return false;
}

std::string RowString(const std::string& predicate, const std::vector<Value>& row) {
  std::string out = predicate + "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ",";
    out += row[i].ToString();
  }
  return out + ")";
}

}  // namespace

void SubstituteNullsInRow(const NullSubstitution& subst, std::vector<Value>* row) {
  for (Value& v : *row) SubstituteNullsIn(subst, &v);
}

int64_t Relation::Find(const std::vector<Value>& row, size_t hash) const {
  auto it = dedup_.find(hash);
  if (it == dedup_.end()) return -1;
  for (uint32_t idx : it->second) {
    if (rows_[idx].size() != row.size()) continue;
    bool eq = true;
    for (size_t i = 0; i < row.size(); ++i) {
      if (!rows_[idx][i].Equals(row[i])) {
        eq = false;
        break;
      }
    }
    if (eq) return idx;
  }
  return -1;
}

std::pair<size_t, bool> Relation::Insert(std::vector<Value> row, FactId id) {
  const size_t h = HashValues(row);
  const int64_t existing = Find(row, h);
  if (existing >= 0) return {static_cast<size_t>(existing), false};
  const uint32_t idx = static_cast<uint32_t>(rows_.size());
  dedup_[h].push_back(idx);
  if (row.size() > columns_.size()) columns_.resize(row.size());
  rows_.push_back(std::move(row));
  fact_ids_.push_back(id);
  return {idx, true};
}

const std::vector<uint32_t>& Relation::RowsWithValue(size_t col, const Value& v) const {
  static const std::vector<uint32_t> kEmpty;
  if (col >= columns_.size()) return kEmpty;
  // Extend the index incrementally to cover new rows.
  ColumnIndex& column = columns_[col];
  for (size_t i = column.indexed_upto; i < rows_.size(); ++i) {
    if (col < rows_[i].size()) {
      column.rows[rows_[i][col].Hash()].push_back(static_cast<uint32_t>(i));
    }
  }
  column.indexed_upto = rows_.size();
  auto it = column.rows.find(v.Hash());
  if (it == column.rows.end()) return kEmpty;
  return it->second;
}

FactId Database::AddFact(PredId predicate, std::vector<Value> row, Provenance prov) {
  Relation& rel = relations_[predicate];
  const FactId id = static_cast<FactId>(locations_.size());
  auto [idx, inserted] = rel.Insert(std::move(row), id);
  if (!inserted) return rel.fact_id(idx);
  locations_.push_back({predicate, static_cast<uint32_t>(idx)});
  provenance_.push_back(std::move(prov));
  return id;
}

bool Database::Contains(const std::string& predicate,
                        const std::vector<Value>& row) const {
  const Relation* rel = relation(predicate);
  return rel != nullptr && rel->Find(row) >= 0;
}

PredId Database::Intern(const std::string& predicate) {
  auto [it, inserted] = ids_.try_emplace(predicate, static_cast<PredId>(names_.size()));
  if (inserted) {
    names_.push_back(predicate);
    relations_.emplace_back();
  }
  return it->second;
}

const Relation* Database::relation(const std::string& predicate) const {
  auto it = ids_.find(predicate);
  if (it == ids_.end() || relations_[it->second].size() == 0) return nullptr;
  return &relations_[it->second];
}

const std::vector<std::vector<Value>>& Database::Rows(
    const std::string& predicate) const {
  const Relation* rel = relation(predicate);
  return rel == nullptr ? kEmptyRows : rel->rows();
}

std::vector<std::string> Database::Predicates() const {
  std::vector<std::string> out;
  for (PredId p = 0; p < relations_.size(); ++p) {
    if (relations_[p].size() > 0) out.push_back(names_[p]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Database::FactString(FactId id) const {
  return RowString(predicate(id), row(id));
}

std::vector<FactId> Database::SubstituteNulls(const NullSubstitution& subst) {
  std::vector<FactId> new_ids(size());
  std::iota(new_ids.begin(), new_ids.end(), FactId{0});
  if (subst.empty()) return new_ids;
  ++substitutions_;
  // Rebuild every relation with substituted rows, in FactId order;
  // duplicates collapse into the earliest.
  std::deque<Relation> fresh(relations_.size());
  std::vector<Location> locations;
  std::vector<Provenance> provenance;
  for (FactId id = 0; id < new_ids.size(); ++id) {
    const PredId p = locations_[id].predicate;
    std::vector<Value> row = relations_[p].row(locations_[id].row);
    SubstituteNullsInRow(subst, &row);
    const FactId next = static_cast<FactId>(locations.size());
    auto [idx, inserted] = fresh[p].Insert(std::move(row), next);
    new_ids[id] = fresh[p].fact_id(idx);
    if (inserted) {
      locations.push_back({p, static_cast<uint32_t>(idx)});
      provenance.push_back(std::move(provenance_[id]));
    }
  }
  // A support precedes what it supports, and so does its survivor.
  for (Provenance& prov : provenance) {
    for (FactId& s : prov.support) s = s < new_ids.size() ? new_ids[s] : kInvalidFactId;
  }
  relations_ = std::move(fresh);
  locations_ = std::move(locations);
  provenance_ = std::move(provenance);
  return new_ids;
}

std::string Database::DumpPredicate(const std::string& predicate) const {
  std::vector<std::string> lines;
  for (const auto& row : Rows(predicate)) lines.push_back(RowString(predicate, row));
  std::sort(lines.begin(), lines.end());
  std::ostringstream os;
  for (const auto& l : lines) os << l << "\n";
  return os.str();
}

}  // namespace vadasa::vadalog
