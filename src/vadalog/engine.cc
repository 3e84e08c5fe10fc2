#include "vadalog/engine.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include <chrono>

#include "obs/trace.h"
#include "vadalog/expr_eval.h"
#include "vadalog/parser.h"

namespace vadasa::vadalog {

namespace {

// ---------------------------------------------------------------------------
// Rule compilation
// ---------------------------------------------------------------------------

/// Variable-name → slot mapping for one rule.
struct VarMap {
  std::unordered_map<std::string, int> slots;
  std::vector<std::string> names;

  int SlotOf(const std::string& name) {
    auto it = slots.find(name);
    if (it != slots.end()) return it->second;
    const int s = static_cast<int>(names.size());
    slots.emplace(name, s);
    names.push_back(name);
    return s;
  }
  int Find(const std::string& name) const {
    auto it = slots.find(name);
    return it == slots.end() ? -1 : it->second;
  }
};

struct CompiledArg {
  bool is_const = false;
  Value constant;
  int slot = -1;
};

struct CompiledAtom {
  std::string predicate;
  bool external = false;
  std::vector<CompiledArg> args;
};

struct Step {
  enum class Kind { kMatch, kExternal, kNegated, kAssign, kAssignCheck, kCondition };
  Kind kind;
  int index = -1;       // body/assignment/condition index in the source rule
  CompiledAtom atom;    // literal kinds only
};

struct CompiledAggregate {
  int target_slot = -1;
  AggregateFunc func = AggregateFunc::kSum;
  const Expr* value = nullptr;  // may be null (mcount)
  std::vector<const Expr*> contributors;
};

struct CompiledRule {
  const Rule* rule = nullptr;
  int rule_index = -1;
  VarMap vars;
  std::vector<Step> steps;

  // Aggregation (at most on single-head rules).
  std::vector<CompiledAggregate> aggregates;
  std::vector<int> post_assignments;  // indices into rule->assignments
  std::vector<int> post_conditions;   // indices into rule->conditions
  std::set<int> aggregate_target_slots;
  /// Aggregate targets plus post-assignment targets: head positions holding
  /// these slots are derived values, not part of the group key.
  std::set<int> post_slots;

  std::vector<CompiledAtom> head;
  std::set<int> existential_slots;
  std::vector<int> frontier_slots;  // bound slots appearing in the head

  bool is_egd = false;
  int egd_lhs_slot = -1;
  int egd_rhs_slot = -1;

  // Positions (indices into steps) of positive internal matches, used to pick
  // the delta literal in semi-naive evaluation.
  std::vector<int> match_steps;
};

CompiledAtom CompileAtom(const Atom& atom, VarMap* vars) {
  CompiledAtom out;
  out.predicate = atom.predicate;
  out.external = atom.is_external();
  for (const Term& t : atom.args) {
    CompiledArg a;
    if (t.is_constant()) {
      a.is_const = true;
      a.constant = t.constant;
    } else {
      a.slot = vars->SlotOf(t.var);
    }
    out.args.push_back(std::move(a));
  }
  return out;
}

/// Collects the variable slots an expression reads.
void ExprSlots(const Expr& e, const VarMap& vars, std::set<int>* out) {
  std::vector<std::string> names;
  e.CollectVars(&names);
  for (const auto& n : names) {
    const int s = vars.Find(n);
    if (s >= 0) out->insert(s);
  }
}

Result<CompiledRule> CompileRule(const Rule& rule, int index) {
  CompiledRule cr;
  cr.rule = &rule;
  cr.rule_index = index;

  // Register every variable so slots are stable.
  for (const Literal& l : rule.body) {
    for (const Term& t : l.atom.args) {
      if (t.is_variable()) cr.vars.SlotOf(t.var);
    }
  }
  for (const Assignment& a : rule.assignments) {
    std::vector<std::string> names;
    a.expr->CollectVars(&names);
    for (const auto& n : names) cr.vars.SlotOf(n);
    cr.vars.SlotOf(a.target);
  }
  for (const AggregateSpec& g : rule.aggregates) {
    std::vector<std::string> names;
    if (g.value) g.value->CollectVars(&names);
    for (const auto& c : g.contributors) c->CollectVars(&names);
    for (const auto& n : names) cr.vars.SlotOf(n);
    cr.vars.SlotOf(g.target);
  }
  for (const Condition& c : rule.conditions) {
    std::vector<std::string> names;
    c.lhs->CollectVars(&names);
    c.rhs->CollectVars(&names);
    for (const auto& n : names) cr.vars.SlotOf(n);
  }
  for (const Atom& h : rule.head) {
    for (const Term& t : h.args) {
      if (t.is_variable()) cr.vars.SlotOf(t.var);
    }
  }
  if (rule.is_egd) {
    cr.is_egd = true;
    cr.egd_lhs_slot = cr.vars.SlotOf(rule.egd_lhs);
    cr.egd_rhs_slot = cr.vars.SlotOf(rule.egd_rhs);
  }

  // Post/pre split: assignments/conditions depending (transitively) on
  // aggregate targets are evaluated at emission time.
  std::set<int> post_slots;
  for (const AggregateSpec& g : rule.aggregates) {
    const int s = cr.vars.SlotOf(g.target);
    post_slots.insert(s);
    cr.aggregate_target_slots.insert(s);
  }
  std::set<int> pre_assignments;
  for (size_t i = 0; i < rule.assignments.size(); ++i) {
    std::set<int> reads;
    ExprSlots(*rule.assignments[i].expr, cr.vars, &reads);
    bool post = false;
    for (int s : reads) {
      if (post_slots.count(s)) post = true;
    }
    if (post) {
      cr.post_assignments.push_back(static_cast<int>(i));
      post_slots.insert(cr.vars.SlotOf(rule.assignments[i].target));
    } else {
      pre_assignments.insert(static_cast<int>(i));
    }
  }
  std::set<int> pre_conditions;
  for (size_t i = 0; i < rule.conditions.size(); ++i) {
    std::set<int> reads;
    ExprSlots(*rule.conditions[i].lhs, cr.vars, &reads);
    ExprSlots(*rule.conditions[i].rhs, cr.vars, &reads);
    bool post = false;
    for (int s : reads) {
      if (post_slots.count(s)) post = true;
    }
    if (post) {
      cr.post_conditions.push_back(static_cast<int>(i));
    } else {
      pre_conditions.insert(static_cast<int>(i));
    }
  }
  cr.post_slots = post_slots;

  // --- Greedy step scheduling ---
  std::set<int> bound;
  std::vector<bool> lit_done(rule.body.size(), false);
  std::vector<bool> asg_done(rule.assignments.size(), false);
  std::vector<bool> cond_done(rule.conditions.size(), false);
  auto all_bound = [&](const std::set<int>& reads) {
    for (int s : reads) {
      if (!bound.count(s)) return false;
    }
    return true;
  };
  size_t remaining = 0;
  for (size_t i = 0; i < rule.body.size(); ++i) remaining++;
  remaining += pre_assignments.size() + pre_conditions.size();

  while (remaining > 0) {
    bool scheduled = false;
    // 1. Ready pre-assignments (in order).
    for (size_t i = 0; i < rule.assignments.size() && !scheduled; ++i) {
      if (asg_done[i] || !pre_assignments.count(static_cast<int>(i))) continue;
      std::set<int> reads;
      ExprSlots(*rule.assignments[i].expr, cr.vars, &reads);
      if (!all_bound(reads)) continue;
      Step st;
      const int target = cr.vars.SlotOf(rule.assignments[i].target);
      st.kind = bound.count(target) ? Step::Kind::kAssignCheck : Step::Kind::kAssign;
      st.index = static_cast<int>(i);
      cr.steps.push_back(std::move(st));
      bound.insert(target);
      asg_done[i] = true;
      scheduled = true;
    }
    if (scheduled) {
      --remaining;
      continue;
    }
    // 2. Ready pre-conditions.
    for (size_t i = 0; i < rule.conditions.size() && !scheduled; ++i) {
      if (cond_done[i] || !pre_conditions.count(static_cast<int>(i))) continue;
      std::set<int> reads;
      ExprSlots(*rule.conditions[i].lhs, cr.vars, &reads);
      ExprSlots(*rule.conditions[i].rhs, cr.vars, &reads);
      if (!all_bound(reads)) continue;
      Step st;
      st.kind = Step::Kind::kCondition;
      st.index = static_cast<int>(i);
      cr.steps.push_back(std::move(st));
      cond_done[i] = true;
      scheduled = true;
    }
    if (scheduled) {
      --remaining;
      continue;
    }
    // 3. Ready negated literals.
    for (size_t i = 0; i < rule.body.size() && !scheduled; ++i) {
      if (lit_done[i] || !rule.body[i].negated) continue;
      std::set<int> reads;
      for (const Term& t : rule.body[i].atom.args) {
        if (t.is_variable()) reads.insert(cr.vars.SlotOf(t.var));
      }
      if (!all_bound(reads)) continue;
      Step st;
      st.kind = Step::Kind::kNegated;
      st.index = static_cast<int>(i);
      st.atom = CompileAtom(rule.body[i].atom, &cr.vars);
      cr.steps.push_back(std::move(st));
      lit_done[i] = true;
      scheduled = true;
    }
    if (scheduled) {
      --remaining;
      continue;
    }
    // 4. Next positive internal literal, source order.
    for (size_t i = 0; i < rule.body.size() && !scheduled; ++i) {
      if (lit_done[i] || rule.body[i].negated || rule.body[i].atom.is_external()) {
        continue;
      }
      Step st;
      st.kind = Step::Kind::kMatch;
      st.index = static_cast<int>(i);
      st.atom = CompileAtom(rule.body[i].atom, &cr.vars);
      for (const CompiledArg& a : st.atom.args) {
        if (!a.is_const) bound.insert(a.slot);
      }
      cr.match_steps.push_back(static_cast<int>(cr.steps.size()));
      cr.steps.push_back(std::move(st));
      lit_done[i] = true;
      scheduled = true;
    }
    if (scheduled) {
      --remaining;
      continue;
    }
    // 5. Externals: prefer one with at least one bound/const argument.
    for (int pass = 0; pass < 2 && !scheduled; ++pass) {
      for (size_t i = 0; i < rule.body.size() && !scheduled; ++i) {
        if (lit_done[i] || rule.body[i].negated || !rule.body[i].atom.is_external()) {
          continue;
        }
        bool has_anchor = false;
        for (const Term& t : rule.body[i].atom.args) {
          if (t.is_constant() ||
              (t.is_variable() && bound.count(cr.vars.SlotOf(t.var)))) {
            has_anchor = true;
          }
        }
        if (pass == 0 && !has_anchor) continue;
        Step st;
        st.kind = Step::Kind::kExternal;
        st.index = static_cast<int>(i);
        st.atom = CompileAtom(rule.body[i].atom, &cr.vars);
        for (const CompiledArg& a : st.atom.args) {
          if (!a.is_const) bound.insert(a.slot);
        }
        cr.steps.push_back(std::move(st));
        lit_done[i] = true;
        scheduled = true;
      }
    }
    if (scheduled) {
      --remaining;
      continue;
    }
    return Status::Internal("rule scheduling stuck (unsafe rule?): " + rule.ToString());
  }

  // Compile aggregates.
  for (const AggregateSpec& g : rule.aggregates) {
    CompiledAggregate ca;
    ca.target_slot = cr.vars.SlotOf(g.target);
    ca.func = g.func;
    ca.value = g.value.get();
    for (const auto& c : g.contributors) ca.contributors.push_back(c.get());
    cr.aggregates.push_back(std::move(ca));
  }
  if (!cr.aggregates.empty() && rule.head.size() != 1) {
    return Status::FailedPrecondition("aggregate rules must have exactly one head atom: " +
                                      rule.ToString());
  }

  // Compile head; detect existential slots.
  std::set<int> head_bound = bound;
  for (const int s : cr.aggregate_target_slots) head_bound.insert(s);
  for (const int i : cr.post_assignments) {
    head_bound.insert(cr.vars.SlotOf(rule.assignments[i].target));
  }
  for (const Atom& h : rule.head) {
    CompiledAtom ch = CompileAtom(h, &cr.vars);
    for (const CompiledArg& a : ch.args) {
      if (!a.is_const && !head_bound.count(a.slot)) {
        cr.existential_slots.insert(a.slot);
      }
    }
    cr.head.push_back(std::move(ch));
  }
  if (!cr.existential_slots.empty() && !cr.aggregates.empty()) {
    return Status::FailedPrecondition(
        "a rule cannot combine existential head variables with aggregates: " +
        rule.ToString());
  }
  std::set<int> frontier;
  for (const CompiledAtom& h : cr.head) {
    for (const CompiledArg& a : h.args) {
      if (!a.is_const && head_bound.count(a.slot)) frontier.insert(a.slot);
    }
  }
  cr.frontier_slots.assign(frontier.begin(), frontier.end());
  return cr;
}

// ---------------------------------------------------------------------------
// Aggregate state
// ---------------------------------------------------------------------------

struct GroupState {
  // Per aggregate: contributor key -> current contribution (or set for
  // munion).
  std::vector<std::map<std::vector<Value>, Value>> contributions;
  std::vector<Value> last_emitted;  // last emitted aggregate values
  bool ever_emitted = false;
};

Value ComputeAggregate(const CompiledAggregate& agg,
                       const std::map<std::vector<Value>, Value>& contribs) {
  switch (agg.func) {
    case AggregateFunc::kCount:
      return Value::Int(static_cast<int64_t>(contribs.size()));
    case AggregateFunc::kSum: {
      bool all_int = true;
      double sum = 0.0;
      int64_t isum = 0;
      for (const auto& [k, v] : contribs) {
        (void)k;
        sum += v.as_double();
        // An int sum that overflows int64 yields the double sum instead.
        if (!v.is_int() || __builtin_add_overflow(isum, v.as_int(), &isum)) all_int = false;
      }
      return all_int ? Value::Int(isum) : Value::Double(sum);
    }
    case AggregateFunc::kProd: {
      double prod = 1.0;
      for (const auto& [k, v] : contribs) {
        (void)k;
        prod *= v.as_double();
      }
      return Value::Double(prod);
    }
    case AggregateFunc::kMin:
    case AggregateFunc::kMax: {
      bool first = true;
      Value best;
      for (const auto& [k, v] : contribs) {
        (void)k;
        if (first || (agg.func == AggregateFunc::kMin ? v.Compare(best) < 0
                                                      : v.Compare(best) > 0)) {
          best = v;
          first = false;
        }
      }
      return best;
    }
    case AggregateFunc::kUnion: {
      std::vector<Value> items;
      for (const auto& [k, v] : contribs) {
        (void)k;
        if (v.is_set()) {
          items.insert(items.end(), v.items().begin(), v.items().end());
        } else {
          items.push_back(v);
        }
      }
      return Value::Set(std::move(items));
    }
  }
  return Value();
}

// ---------------------------------------------------------------------------
// Evaluation context
// ---------------------------------------------------------------------------

struct PendingFact {
  std::string predicate;
  std::vector<Value> row;
  Provenance prov;
};

struct PendingAction {
  int rule_index;
  std::string name;  // with '#'
  std::vector<Value> args;
  std::vector<FactId> support;
};

class Evaluator {
 public:
  Evaluator(const EngineOptions& options, const ExternalRegistry& externals,
            const Program& program, Database* db)
      : options_(options), externals_(externals), program_(program), db_(db) {}

  Result<RunStats> Run() {
    obs::Span run_span("engine.run");
    VADASA_RETURN_NOT_OK(CheckSafety(program_));
    if (options_.require_warded) {
      const WardednessReport report = AnalyzeWardedness(program_);
      if (!report.program_warded) {
        for (size_t i = 0; i < report.rules.size(); ++i) {
          if (!report.rules[i].warded) {
            return Status::FailedPrecondition(
                "program is not warded: rule " + std::to_string(i + 1) + ": " +
                report.rules[i].diagnostic);
          }
        }
      }
    }
    VADASA_ASSIGN_OR_RETURN(const StratificationResult strat, Stratify(program_));

    for (const Atom& f : program_.facts) {
      std::vector<Value> row;
      row.reserve(f.args.size());
      for (const Term& t : f.args) row.push_back(t.constant);
      db_->AddFact(f.predicate, std::move(row));
    }

    compiled_.reserve(program_.rules.size());
    for (size_t i = 0; i < program_.rules.size(); ++i) {
      VADASA_ASSIGN_OR_RETURN(CompiledRule cr,
                              CompileRule(program_.rules[i], static_cast<int>(i)));
      compiled_.push_back(std::move(cr));
    }
    agg_state_.resize(compiled_.size());
    action_seen_.resize(compiled_.size());
    stats_.rule_firings.assign(compiled_.size(), 0);

    for (int s = 0; s < strat.num_strata; ++s) {
      obs::Span stratum_span("engine.stratum");
      VADASA_RETURN_NOT_OK(RunStratum(strat.rules_by_stratum[s]));
    }
    VADASA_METRIC_COUNT("vadalog.runs", 1);
    VADASA_METRIC_COUNT("vadalog.rounds", stats_.rounds);
    VADASA_METRIC_COUNT("vadalog.facts_derived", stats_.facts_derived);
    VADASA_METRIC_COUNT("vadalog.nulls_created", stats_.nulls_created);
    VADASA_METRIC_COUNT("vadalog.egd_substitutions", stats_.egd_substitutions);
    return stats_;
  }

 private:
  // Per-predicate row count before the previous round (delta = [prev, cur)).
  using Watermarks = std::unordered_map<std::string, size_t>;

  size_t RelationSize(const std::string& pred) const {
    const Relation* rel = db_->relation(pred);
    return rel == nullptr ? 0 : rel->size();
  }

  Status RunStratum(const std::vector<int>& rule_indices) {
    prev_marks_.clear();
    bool first_round = true;
    for (size_t round = 0;; ++round) {
      if (round > options_.max_rounds) {
        return Status::LimitExceeded("chase exceeded max_rounds=" +
                                     std::to_string(options_.max_rounds));
      }
      obs::Span round_span("engine.round");
      ++stats_.rounds;
      // Snapshot current sizes: rows >= prev_marks_ are the delta.
      cur_marks_.clear();
      for (const std::string& p : db_->Predicates()) cur_marks_[p] = RelationSize(p);

      pending_.clear();
      pending_keys_.clear();
      pending_actions_.clear();
      egd_substitutions_.clear();

      for (const int ri : rule_indices) {
        CompiledRule& cr = compiled_[ri];
        if (cr.match_steps.empty()) {
          if (first_round) {
            VADASA_RETURN_NOT_OK(EvaluateRule(&cr, /*delta_step=*/-1));
          }
          continue;
        }
        for (const int step_idx : cr.match_steps) {
          const std::string& pred = cr.steps[step_idx].atom.predicate;
          const size_t prev = prev_marks_.count(pred) ? prev_marks_[pred] : 0;
          const size_t cur = cur_marks_.count(pred) ? cur_marks_[pred] : RelationSize(pred);
          if (!first_round && prev >= cur) continue;  // Empty delta.
          VADASA_RETURN_NOT_OK(EvaluateRule(&cr, step_idx));
          if (first_round) break;  // Round 0: delta = everything; one pass is enough.
        }
      }

      // Apply EGD substitutions (rewrites the database).
      bool changed = false;
      if (!egd_substitutions_.empty()) {
        db_->SubstituteNulls(egd_substitutions_);
        stats_.egd_substitutions += egd_substitutions_.size();
        // Conservative restart of the stratum: everything is delta again.
        prev_marks_.clear();
        for (auto& st : agg_state_) st.clear();
        changed = true;
        first_round = true;
        // Re-queue pending facts (they may mention substituted nulls).
        for (PendingFact& pf : pending_) {
          for (Value& v : pf.row) {
            int guard = 0;
            while (v.is_null() && guard++ < 64) {
              auto it = egd_substitutions_.find(v.null_label());
              if (it == egd_substitutions_.end()) break;
              v = it->second;
            }
          }
        }
      }

      // Insert pending head facts.
      for (PendingFact& pf : pending_) {
        if (db_->size() >= options_.max_facts) {
          return Status::LimitExceeded("chase exceeded max_facts=" +
                                       std::to_string(options_.max_facts));
        }
        const size_t before = db_->size();
        db_->AddFact(pf.predicate, std::move(pf.row),
                     options_.track_provenance ? std::move(pf.prov) : Provenance{});
        if (db_->size() > before) {
          ++stats_.facts_derived;
          changed = true;
        }
      }

      // Invoke queued external actions against the settled database.
      for (PendingAction& pa : pending_actions_) {
        const ExternalActionFn* fn = externals_.FindAction(pa.name);
        if (fn == nullptr) {
          return Status::NotFound("external action not registered: " + pa.name);
        }
        std::vector<std::pair<std::string, std::vector<Value>>> emitted;
        ActionContext ctx(db_, &emitted);
        VADASA_RETURN_NOT_OK((*fn)(pa.args, &ctx));
        ++stats_.action_invocations;
        stats_.nulls_created += ctx.nulls_created();
        for (auto& [pred, row] : emitted) {
          if (db_->size() >= options_.max_facts) {
            return Status::LimitExceeded("chase exceeded max_facts");
          }
          const size_t before = db_->size();
          Provenance prov;
          if (options_.track_provenance) {
            prov.rule_index = pa.rule_index;
            prov.support = pa.support;
          }
          db_->AddFact(pred, std::move(row), std::move(prov));
          if (db_->size() > before) {
            ++stats_.facts_derived;
            changed = true;
          }
        }
      }

      if (!changed && !first_round) break;
      if (!changed && first_round && round > 0) break;
      prev_marks_ = cur_marks_;
      if (!egd_substitutions_.empty()) {
        prev_marks_.clear();  // After substitution, re-derive from scratch.
      }
      if (first_round && egd_substitutions_.empty()) first_round = false;
      if (!changed) break;
    }
    return Status::OK();
  }

  // --- Rule evaluation -----------------------------------------------------

  Status EvaluateRule(CompiledRule* cr, int delta_step) {
    slots_.assign(cr->vars.names.size(), Value());
    bound_.assign(cr->vars.names.size(), false);
    support_.clear();
    return EvalStep(cr, 0, delta_step);
  }

  Status EvalStep(CompiledRule* cr, size_t step_idx, int delta_step) {
    if (step_idx == cr->steps.size()) return EmitBinding(cr);
    const Step& st = cr->steps[step_idx];
    switch (st.kind) {
      case Step::Kind::kMatch:
        return EvalMatch(cr, step_idx, delta_step);
      case Step::Kind::kExternal:
        return EvalExternal(cr, step_idx, delta_step);
      case Step::Kind::kNegated: {
        std::vector<Value> row;
        row.reserve(st.atom.args.size());
        for (const CompiledArg& a : st.atom.args) {
          row.push_back(a.is_const ? a.constant : slots_[a.slot]);
        }
        if (db_->Contains(st.atom.predicate, row)) return Status::OK();
        return EvalStep(cr, step_idx + 1, delta_step);
      }
      case Step::Kind::kAssign: {
        const Assignment& asg = cr->rule->assignments[st.index];
        VADASA_ASSIGN_OR_RETURN(Value v, EvalExpr(*asg.expr, Lookup(cr)));
        const int slot = cr->vars.Find(asg.target);
        slots_[slot] = std::move(v);
        bound_[slot] = true;
        const Status s = EvalStep(cr, step_idx + 1, delta_step);
        bound_[slot] = false;
        return s;
      }
      case Step::Kind::kAssignCheck: {
        const Assignment& asg = cr->rule->assignments[st.index];
        VADASA_ASSIGN_OR_RETURN(Value v, EvalExpr(*asg.expr, Lookup(cr)));
        const int slot = cr->vars.Find(asg.target);
        if (!slots_[slot].Equals(v)) return Status::OK();
        return EvalStep(cr, step_idx + 1, delta_step);
      }
      case Step::Kind::kCondition: {
        const Condition& cond = cr->rule->conditions[st.index];
        auto ok = EvalCondition(cond, Lookup(cr));
        if (!ok.ok()) {
          // Treat evaluation errors on this binding (e.g. get() on a missing
          // key) as a failed match rather than a fatal error.
          if (ok.status().code() == StatusCode::kNotFound) return Status::OK();
          return ok.status();
        }
        if (!ok.value()) return Status::OK();
        return EvalStep(cr, step_idx + 1, delta_step);
      }
    }
    return Status::Internal("unknown step kind");
  }

  VarLookup Lookup(CompiledRule* cr) {
    return [this, cr](const std::string& name) -> const Value* {
      const int slot = cr->vars.Find(name);
      if (slot < 0 || !bound_[slot]) return nullptr;
      return &slots_[slot];
    };
  }

  Status EvalMatch(CompiledRule* cr, size_t step_idx, int delta_step) {
    const Step& st = cr->steps[step_idx];
    const Relation* rel = db_->relation(st.atom.predicate);
    if (rel == nullptr) return Status::OK();
    // Rows visible this round: [0, cur_mark); delta: [prev_mark, cur_mark).
    const size_t cur =
        cur_marks_.count(st.atom.predicate) ? cur_marks_[st.atom.predicate] : rel->size();
    size_t lo = 0;
    if (static_cast<int>(step_idx) == delta_step) {
      lo = prev_marks_.count(st.atom.predicate) ? prev_marks_[st.atom.predicate] : 0;
    }
    // Candidate selection: first const/bound arg, if any, via column index.
    int sel_col = -1;
    const Value* sel_val = nullptr;
    for (size_t i = 0; i < st.atom.args.size(); ++i) {
      const CompiledArg& a = st.atom.args[i];
      if (a.is_const) {
        sel_col = static_cast<int>(i);
        sel_val = &a.constant;
        break;
      }
      if (bound_[a.slot]) {
        sel_col = static_cast<int>(i);
        sel_val = &slots_[a.slot];
        break;
      }
    }
    auto try_row = [&](size_t r) -> Status {
      const std::vector<Value>& row = rel->row(r);
      if (row.size() != st.atom.args.size()) return Status::OK();
      // Verify + bind.
      std::vector<int> newly_bound;
      bool ok = true;
      for (size_t i = 0; i < st.atom.args.size() && ok; ++i) {
        const CompiledArg& a = st.atom.args[i];
        if (a.is_const) {
          ok = a.constant.Equals(row[i]);
        } else if (bound_[a.slot]) {
          ok = slots_[a.slot].Equals(row[i]);
        } else {
          slots_[a.slot] = row[i];
          bound_[a.slot] = true;
          newly_bound.push_back(a.slot);
        }
      }
      Status s = Status::OK();
      if (ok) {
        support_.push_back(rel->fact_id(r));
        s = EvalStep(cr, step_idx + 1, delta_step);
        support_.pop_back();
      }
      for (const int slot : newly_bound) bound_[slot] = false;
      return s;
    };
    if (sel_col >= 0) {
      // Hash candidates (may contain collisions; try_row verifies).
      const std::vector<uint32_t>& candidates =
          rel->RowsWithValue(static_cast<size_t>(sel_col), *sel_val);
      for (const uint32_t r : candidates) {
        if (r < lo || r >= cur) continue;
        VADASA_RETURN_NOT_OK(try_row(r));
      }
      return Status::OK();
    }
    for (size_t r = lo; r < cur; ++r) {
      VADASA_RETURN_NOT_OK(try_row(r));
    }
    return Status::OK();
  }

  Status EvalExternal(CompiledRule* cr, size_t step_idx, int delta_step) {
    const Step& st = cr->steps[step_idx];
    const ExternalPredicateFn* fn = externals_.FindPredicate(st.atom.predicate);
    if (fn == nullptr) {
      return Status::NotFound("external predicate not registered: " + st.atom.predicate);
    }
    std::vector<std::optional<Value>> bound_args(st.atom.args.size());
    for (size_t i = 0; i < st.atom.args.size(); ++i) {
      const CompiledArg& a = st.atom.args[i];
      if (a.is_const) {
        bound_args[i] = a.constant;
      } else if (bound_[a.slot]) {
        bound_args[i] = slots_[a.slot];
      }
    }
    VADASA_ASSIGN_OR_RETURN(auto rows, (*fn)(bound_args, *db_));
    for (const std::vector<Value>& row : rows) {
      if (row.size() != st.atom.args.size()) {
        return Status::Internal("external " + st.atom.predicate +
                                " returned a row of wrong arity");
      }
      std::vector<int> newly_bound;
      bool ok = true;
      for (size_t i = 0; i < st.atom.args.size() && ok; ++i) {
        const CompiledArg& a = st.atom.args[i];
        if (a.is_const) {
          ok = a.constant.Equals(row[i]);
        } else if (bound_[a.slot]) {
          ok = slots_[a.slot].Equals(row[i]);
        } else {
          slots_[a.slot] = row[i];
          bound_[a.slot] = true;
          newly_bound.push_back(a.slot);
        }
      }
      Status s = Status::OK();
      if (ok) s = EvalStep(cr, step_idx + 1, delta_step);
      for (const int slot : newly_bound) bound_[slot] = false;
      VADASA_RETURN_NOT_OK(s);
    }
    return Status::OK();
  }

  // --- Emission ------------------------------------------------------------

  Status EmitBinding(CompiledRule* cr) {
    ++stats_.rule_firings[cr->rule_index];
    if (cr->is_egd) return EmitEgd(cr);
    if (!cr->aggregates.empty()) return EmitAggregate(cr);
    return EmitHeads(cr);
  }

  Status EmitEgd(CompiledRule* cr) {
    const Value& a = slots_[cr->egd_lhs_slot];
    const Value& b = slots_[cr->egd_rhs_slot];
    if (a.Equals(b)) return Status::OK();
    if (a.is_null() && b.is_null()) {
      const uint64_t hi = std::max(a.null_label(), b.null_label());
      const uint64_t lo = std::min(a.null_label(), b.null_label());
      egd_substitutions_[hi] = Value::Null(lo);
      return Status::OK();
    }
    if (a.is_null()) {
      egd_substitutions_[a.null_label()] = b;
      return Status::OK();
    }
    if (b.is_null()) {
      egd_substitutions_[b.null_label()] = a;
      return Status::OK();
    }
    const std::string msg = "EGD " + cr->rule->ToString() + " equates distinct constants " +
                            a.ToString() + " and " + b.ToString();
    if (options_.egd_mode == EgdMode::kCollect) {
      stats_.egd_violations.push_back(msg);
      return Status::OK();
    }
    return Status::EgdViolation(msg);
  }

  Status EmitAggregate(CompiledRule* cr) {
    // Group key: head args that are not aggregate targets.
    const CompiledAtom& h = cr->head[0];
    std::vector<Value> group_key;
    for (const CompiledArg& a : h.args) {
      if (a.is_const) {
        group_key.push_back(a.constant);
      } else if (!cr->post_slots.count(a.slot)) {
        if (!bound_[a.slot]) {
          return Status::FailedPrecondition(
              "aggregate rule head uses unbound non-aggregate variable " +
              cr->vars.names[a.slot] + ": " + cr->rule->ToString());
        }
        group_key.push_back(slots_[a.slot]);
      }
    }
    auto& groups = agg_state_[cr->rule_index];
    auto it = groups.find(group_key);
    if (it == groups.end()) {
      GroupState gs;
      gs.contributions.resize(cr->aggregates.size());
      gs.last_emitted.resize(cr->aggregates.size());
      it = groups.emplace(std::move(group_key), std::move(gs)).first;
    }
    GroupState& gs = it->second;

    bool any_change = false;
    for (size_t gi = 0; gi < cr->aggregates.size(); ++gi) {
      const CompiledAggregate& agg = cr->aggregates[gi];
      std::vector<Value> contrib_key;
      for (const Expr* c : agg.contributors) {
        VADASA_ASSIGN_OR_RETURN(Value v, EvalExpr(*c, Lookup(cr)));
        contrib_key.push_back(std::move(v));
      }
      Value contribution = Value::Int(1);
      if (agg.value != nullptr) {
        VADASA_ASSIGN_OR_RETURN(contribution, EvalExpr(*agg.value, Lookup(cr)));
      }
      auto& contribs = gs.contributions[gi];
      if (agg.func == AggregateFunc::kUnion && agg.contributors.empty()) {
        // Contributor-free munion: each contribution is its own contributor.
        contrib_key.push_back(contribution);
      }
      auto cit = contribs.find(contrib_key);
      if (cit == contribs.end()) {
        contribs.emplace(std::move(contrib_key), std::move(contribution));
        any_change = true;
      } else {
        // Contributor replacement: keep the extremal contribution so that the
        // "least risk" version wins (Section 4.3).
        bool replace = false;
        switch (agg.func) {
          case AggregateFunc::kSum:
          case AggregateFunc::kProd:
          case AggregateFunc::kMax:
          case AggregateFunc::kCount:
            replace = contribution.Compare(cit->second) > 0;
            break;
          case AggregateFunc::kMin:
            replace = contribution.Compare(cit->second) < 0;
            break;
          case AggregateFunc::kUnion: {
            // Merge into the contributor's set.
            std::vector<Value> merged;
            auto add = [&merged](const Value& v) {
              if (v.is_set()) {
                merged.insert(merged.end(), v.items().begin(), v.items().end());
              } else {
                merged.push_back(v);
              }
            };
            add(cit->second);
            add(contribution);
            Value v = Value::Set(std::move(merged));
            if (!v.Equals(cit->second)) {
              cit->second = std::move(v);
              any_change = true;
            }
            replace = false;
            break;
          }
        }
        if (replace) {
          cit->second = std::move(contribution);
          any_change = true;
        }
      }
    }
    if (!any_change && gs.ever_emitted) return Status::OK();

    // Compute aggregate values and bind the targets.
    std::vector<Value> agg_values(cr->aggregates.size());
    bool value_changed = !gs.ever_emitted;
    for (size_t gi = 0; gi < cr->aggregates.size(); ++gi) {
      agg_values[gi] = ComputeAggregate(cr->aggregates[gi], gs.contributions[gi]);
      if (!gs.ever_emitted || !agg_values[gi].Equals(gs.last_emitted[gi])) {
        value_changed = true;
      }
    }
    if (!value_changed) return Status::OK();
    gs.last_emitted = agg_values;
    gs.ever_emitted = true;

    std::vector<int> temp_bound;
    for (size_t gi = 0; gi < cr->aggregates.size(); ++gi) {
      const int slot = cr->aggregates[gi].target_slot;
      slots_[slot] = agg_values[gi];
      if (!bound_[slot]) {
        bound_[slot] = true;
        temp_bound.push_back(slot);
      }
    }
    Status s = EmitPostAndHeads(cr);
    for (const int slot : temp_bound) bound_[slot] = false;
    return s;
  }

  Status EmitPostAndHeads(CompiledRule* cr) {
    std::vector<int> temp_bound;
    Status result = Status::OK();
    bool pass = true;
    for (const int i : cr->post_assignments) {
      const Assignment& asg = cr->rule->assignments[i];
      auto v = EvalExpr(*asg.expr, Lookup(cr));
      if (!v.ok()) {
        result = v.status();
        pass = false;
        break;
      }
      const int slot = cr->vars.Find(asg.target);
      slots_[slot] = std::move(v).value();
      if (!bound_[slot]) {
        bound_[slot] = true;
        temp_bound.push_back(slot);
      }
    }
    if (pass) {
      for (const int i : cr->post_conditions) {
        auto ok = EvalCondition(cr->rule->conditions[i], Lookup(cr));
        if (!ok.ok()) {
          result = ok.status();
          pass = false;
          break;
        }
        if (!ok.value()) {
          pass = false;
          break;
        }
      }
    }
    if (pass) result = EmitHeads(cr);
    for (const int slot : temp_bound) bound_[slot] = false;
    return result;
  }

  Status EmitHeads(CompiledRule* cr) {
    // Bind existential slots via memoized Skolem terms.
    std::vector<int> temp_bound;
    if (!cr->existential_slots.empty()) {
      std::vector<Value> frontier;
      frontier.reserve(cr->frontier_slots.size());
      for (const int s : cr->frontier_slots) frontier.push_back(slots_[s]);
      if (options_.restricted_chase && cr->head.size() == 1 && !cr->head[0].external) {
        // The termination check is only timed under tracing: two clock reads
        // per emission are measurable on the existential hot path.
        if (obs::TracingEnabled()) {
          const auto t0 = std::chrono::steady_clock::now();
          const bool satisfied = HeadSatisfied(cr);
          stats_.termination_check_seconds +=
              std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();
          if (satisfied) return Status::OK();
        } else if (HeadSatisfied(cr)) {
          return Status::OK();
        }
      }
      for (const int slot : cr->existential_slots) {
        std::vector<Value> key = frontier;
        key.push_back(Value::Int(cr->rule_index));
        key.push_back(Value::String(cr->vars.names[slot]));
        auto it = skolem_.find(key);
        uint64_t label;
        if (it == skolem_.end()) {
          label = db_->FreshNullLabel();
          skolem_.emplace(std::move(key), label);
          ++stats_.nulls_created;
        } else {
          label = it->second;
        }
        slots_[slot] = Value::Null(label);
        if (!bound_[slot]) {
          bound_[slot] = true;
          temp_bound.push_back(slot);
        }
      }
    }
    Status result = Status::OK();
    for (const CompiledAtom& h : cr->head) {
      std::vector<Value> row;
      row.reserve(h.args.size());
      for (const CompiledArg& a : h.args) {
        row.push_back(a.is_const ? a.constant : slots_[a.slot]);
      }
      if (h.external) {
        QueueAction(cr, h.predicate, std::move(row));
      } else {
        QueueFact(cr, h.predicate, std::move(row));
      }
    }
    for (const int slot : temp_bound) bound_[slot] = false;
    return result;
  }

  /// Restricted-chase check: does a fact already satisfy the (single) head
  /// atom with the current universal bindings (existential positions free)?
  bool HeadSatisfied(CompiledRule* cr) {
    const CompiledAtom& h = cr->head[0];
    const Relation* rel = db_->relation(h.predicate);
    auto row_matches = [&](const std::vector<Value>& row) {
      if (row.size() != h.args.size()) return false;
      for (size_t i = 0; i < h.args.size(); ++i) {
        const CompiledArg& a = h.args[i];
        if (a.is_const) {
          if (!a.constant.Equals(row[i])) return false;
        } else if (!cr->existential_slots.count(a.slot)) {
          if (!slots_[a.slot].Equals(row[i])) return false;
        }
      }
      return true;
    };
    if (rel != nullptr) {
      // Use an index on the first universal position if possible.
      int sel_col = -1;
      const Value* sel_val = nullptr;
      for (size_t i = 0; i < h.args.size(); ++i) {
        const CompiledArg& a = h.args[i];
        if (a.is_const) {
          sel_col = static_cast<int>(i);
          sel_val = &a.constant;
          break;
        }
        if (!cr->existential_slots.count(a.slot)) {
          sel_col = static_cast<int>(i);
          sel_val = &slots_[a.slot];
          break;
        }
      }
      if (sel_col >= 0) {
        for (const uint32_t r : rel->RowsWithValue(sel_col, *sel_val)) {
          if (row_matches(rel->row(r))) return true;
        }
      } else {
        for (const auto& row : rel->rows()) {
          if (row_matches(row)) return true;
        }
      }
    }
    // Facts still pending in this round are not scanned: re-derivations of
    // the same binding are already folded by the Skolem memo, and a
    // different rule satisfying the head within the same round merely costs
    // one extra null (still a correct chase) — scanning the pending buffer
    // here would make existential rounds quadratic.
    return false;
  }

  void QueueFact(CompiledRule* cr, const std::string& predicate, std::vector<Value> row) {
    if (db_->Contains(predicate, row)) return;
    // Dedup within the round (hash first, verify on hit).
    const size_t key = std::hash<std::string>()(predicate) * 31 + HashValues(row);
    if (pending_keys_.count(key) > 0) {
      for (const PendingFact& pf : pending_) {
        if (pf.predicate != predicate || pf.row.size() != row.size()) continue;
        bool eq = true;
        for (size_t i = 0; i < row.size(); ++i) {
          if (!pf.row[i].Equals(row[i])) {
            eq = false;
            break;
          }
        }
        if (eq) return;
      }
    }
    pending_keys_.insert(key);
    PendingFact pf;
    pf.predicate = predicate;
    pf.row = std::move(row);
    if (options_.track_provenance) {
      pf.prov.rule_index = cr->rule_index;
      pf.prov.support = support_;
    }
    pending_.push_back(std::move(pf));
  }

  void QueueAction(CompiledRule* cr, const std::string& name, std::vector<Value> args) {
    // Dedup per rule on the full current binding, so re-derivations of the
    // same body do not retrigger the action, but new bindings (e.g. a new
    // anonymized tuple version) do.
    std::vector<Value> binding;
    binding.reserve(slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i) {
      binding.push_back(bound_[i] ? slots_[i] : Value::String("<unbound>"));
    }
    auto& seen = action_seen_[cr->rule_index];
    if (!seen.emplace(std::move(binding)).second) return;
    PendingAction pa;
    pa.rule_index = cr->rule_index;
    pa.name = name;
    pa.args = std::move(args);
    pa.support = support_;
    pending_actions_.push_back(std::move(pa));
  }

  struct ValueVecLess {
    bool operator()(const std::vector<Value>& a, const std::vector<Value>& b) const {
      const size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        const int c = a[i].Compare(b[i]);
        if (c != 0) return c < 0;
      }
      return a.size() < b.size();
    }
  };

  const EngineOptions& options_;
  const ExternalRegistry& externals_;
  const Program& program_;
  Database* db_;

  std::vector<CompiledRule> compiled_;
  std::vector<std::map<std::vector<Value>, GroupState, ValueVecLess>> agg_state_;
  std::vector<std::set<std::vector<Value>, ValueVecLess>> action_seen_;
  std::map<std::vector<Value>, uint64_t, ValueVecLess> skolem_;

  Watermarks prev_marks_;
  Watermarks cur_marks_;

  // Per-binding scratch.
  std::vector<Value> slots_;
  std::vector<char> bound_;
  std::vector<FactId> support_;

  // Per-round buffers.
  std::vector<PendingFact> pending_;
  std::unordered_set<size_t> pending_keys_;
  std::vector<PendingAction> pending_actions_;
  std::unordered_map<uint64_t, Value> egd_substitutions_;

  RunStats stats_;
};

}  // namespace

Result<RunStats> Engine::Run(const Program& program, Database* db) {
  Evaluator evaluator(options_, externals_, program, db);
  return evaluator.Run();
}

Result<RunStats> RunSource(const std::string& source, Database* db, Engine* engine) {
  VADASA_ASSIGN_OR_RETURN(const Program program, Parse(source));
  return engine->Run(program, db);
}

std::vector<std::vector<Value>> FinalAggregateRows(const Database& db,
                                                   const std::string& predicate,
                                                   size_t value_col, bool take_max) {
  std::map<std::vector<Value>, std::vector<Value>> best;
  for (const auto& row : db.Rows(predicate)) {
    if (value_col >= row.size()) continue;
    std::vector<Value> key;
    key.reserve(row.size() - 1);
    for (size_t i = 0; i < row.size(); ++i) {
      if (i != value_col) key.push_back(row[i]);
    }
    auto it = best.find(key);
    if (it == best.end()) {
      best.emplace(std::move(key), row);
    } else {
      const int c = row[value_col].Compare(it->second[value_col]);
      if ((take_max && c > 0) || (!take_max && c < 0)) it->second = row;
    }
  }
  std::vector<std::vector<Value>> out;
  out.reserve(best.size());
  for (auto& [k, v] : best) {
    (void)k;
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace vadasa::vadalog
