#ifndef VADASA_VADALOG_EXTERNALS_H_
#define VADASA_VADALOG_EXTERNALS_H_

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "vadalog/database.h"

namespace vadasa::vadalog {

/// An external predicate `#name(...)` usable in rule bodies — the paper's
/// plug-in mechanism for `#risk`, `#rel`, etc. (Section 4.2).
///
/// The callback receives the argument vector with bound positions filled
/// (nullopt = unbound) plus read-only access to the current database, and
/// returns the matching rows (full arity). Returning zero rows fails the
/// binding; multiple rows enumerate alternatives.
using ExternalPredicateFn =
    std::function<Result<std::vector<std::vector<Value>>>(
        const std::vector<std::optional<Value>>& bound_args, const Database& db)>;

class Engine;

/// Handed to external actions so they can inject facts into the running
/// chase (the injected facts join the next round's delta).
class ActionContext {
 public:
  ActionContext(Database* db, std::vector<std::pair<std::string, std::vector<Value>>>* emitted)
      : db_(db), emitted_(emitted) {}

  const Database& db() const { return *db_; }

  /// Queues a fact for insertion; it becomes visible in the next round.
  void Emit(std::string predicate, std::vector<Value> row) {
    emitted_->emplace_back(std::move(predicate), std::move(row));
  }

  /// Allocates a fresh labelled null (e.g. for local suppression); the engine
  /// counts it in RunStats::nulls_created.
  Value FreshNull() {
    ++nulls_created_;
    return Value::Null(db_->FreshNullLabel());
  }

  size_t nulls_created() const { return nulls_created_; }

 private:
  Database* db_;
  std::vector<std::pair<std::string, std::vector<Value>>>* emitted_;
  size_t nulls_created_ = 0;
};

/// An external action `#name(...)` usable in rule heads — the paper's
/// `#anonymize`. Invoked once per distinct body binding.
using ExternalActionFn =
    std::function<Status(const std::vector<Value>& args, ActionContext* ctx)>;

/// Name → callback registry for external predicates and actions. Names are
/// stored *with* the leading '#'.
class ExternalRegistry {
 public:
  void RegisterPredicate(const std::string& name, ExternalPredicateFn fn) {
    predicates_[Normalize(name)] = std::move(fn);
  }
  void RegisterAction(const std::string& name, ExternalActionFn fn) {
    actions_[Normalize(name)] = std::move(fn);
  }

  const ExternalPredicateFn* FindPredicate(const std::string& name) const {
    auto it = predicates_.find(name);
    return it == predicates_.end() ? nullptr : &it->second;
  }
  const ExternalActionFn* FindAction(const std::string& name) const {
    auto it = actions_.find(name);
    return it == actions_.end() ? nullptr : &it->second;
  }

 private:
  static std::string Normalize(const std::string& name) {
    return name.empty() || name[0] == '#' ? name : "#" + name;
  }

  std::unordered_map<std::string, ExternalPredicateFn> predicates_;
  std::unordered_map<std::string, ExternalActionFn> actions_;
};

}  // namespace vadasa::vadalog

#endif  // VADASA_VADALOG_EXTERNALS_H_
