#include "vadalog/explain.h"

#include <set>
#include <sstream>

namespace vadasa::vadalog {

namespace {

void ExplainRec(const Database& db, const Program& program, FactId id, int depth,
                int max_depth, std::ostringstream* os) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  if (id >= db.size()) {
    *os << indent << "(no such fact)\n";
    return;
  }
  const Provenance& prov = db.provenance(id);
  *os << indent << db.FactString(id);
  if (prov.rule_index < 0) {
    *os << "  [asserted]\n";
    return;
  }
  if (prov.rule_index < static_cast<int>(program.rules.size())) {
    const Rule& rule = program.rules[prov.rule_index];
    *os << "  [by " << (rule.label.empty() ? "rule " + std::to_string(prov.rule_index + 1)
                                           : rule.label)
        << ": " << rule.ToString() << "]\n";
  } else {
    *os << "  [by rule " << prov.rule_index + 1 << "]\n";
  }
  if (depth + 1 > max_depth) {
    *os << indent << "  ...\n";
    return;
  }
  for (const FactId s : prov.support) {
    ExplainRec(db, program, s, depth + 1, max_depth, os);
  }
}

}  // namespace

std::string ExplainFact(const Database& db, const Program& program, FactId id,
                        int max_depth) {
  std::ostringstream os;
  ExplainRec(db, program, id, 0, max_depth, &os);
  return os.str();
}

namespace {

std::string EscapeForDot(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string EscapeForJson(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string RuleLabel(const Program& program, int rule_index) {
  if (rule_index < 0) return "";
  if (rule_index < static_cast<int>(program.rules.size())) {
    const Rule& rule = program.rules[rule_index];
    return rule.label.empty() ? "rule " + std::to_string(rule_index + 1) : rule.label;
  }
  return "rule " + std::to_string(rule_index + 1);
}

void CollectDag(const Database& db, FactId id, std::set<FactId>* seen) {
  if (id >= db.size() || seen->count(id)) return;
  seen->insert(id);
  for (const FactId s : db.provenance(id).support) {
    CollectDag(db, s, seen);
  }
}

void JsonRec(const Database& db, const Program& program, FactId id, int depth,
             int max_depth, std::ostringstream* os) {
  if (id >= db.size()) {
    *os << "{\"fact\":null}";
    return;
  }
  const Provenance& prov = db.provenance(id);
  *os << "{\"fact\":\"" << EscapeForJson(db.FactString(id)) << "\",";
  if (prov.rule_index < 0) {
    *os << "\"rule\":null,\"support\":[]}";
    return;
  }
  *os << "\"rule\":\"" << EscapeForJson(RuleLabel(program, prov.rule_index))
      << "\",\"support\":[";
  if (depth + 1 <= max_depth) {
    for (size_t i = 0; i < prov.support.size(); ++i) {
      if (i > 0) *os << ",";
      JsonRec(db, program, prov.support[i], depth + 1, max_depth, os);
    }
  }
  *os << "]}";
}

}  // namespace

std::string ExplainFactDot(const Database& db, const Program& program, FactId id) {
  std::set<FactId> nodes;
  CollectDag(db, id, &nodes);
  std::ostringstream os;
  os << "digraph explanation {\n  rankdir=BT;\n";
  for (const FactId n : nodes) {
    const bool asserted = db.provenance(n).rule_index < 0;
    os << "  f" << n << " [label=\"" << EscapeForDot(db.FactString(n)) << "\""
       << (asserted ? ", shape=box" : ", shape=ellipse") << "];\n";
  }
  for (const FactId n : nodes) {
    const Provenance& prov = db.provenance(n);
    for (const FactId s : prov.support) {
      if (s >= db.size()) continue;
      os << "  f" << s << " -> f" << n << " [label=\""
         << EscapeForDot(RuleLabel(program, prov.rule_index)) << "\"];\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string ExplainFactJson(const Database& db, const Program& program, FactId id,
                            int max_depth) {
  std::ostringstream os;
  JsonRec(db, program, id, 0, max_depth, &os);
  return os.str();
}

FactId FindFact(const Database& db, const std::string& predicate,
                const std::vector<Value>& row) {
  const Relation* rel = db.relation(predicate);
  if (rel == nullptr) return kInvalidFactId;
  const int64_t idx = rel->Find(row);
  if (idx < 0) return kInvalidFactId;
  return rel->fact_id(static_cast<size_t>(idx));
}

}  // namespace vadasa::vadalog
