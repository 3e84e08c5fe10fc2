#include "testing/generators.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

namespace vadasa::testing {

using core::Attribute;
using core::AttributeCategory;
using core::Hierarchy;
using core::MicrodataTable;
using core::OwnershipGraph;

core::MicrodataTable RandomTable(Rng* rng, const TableGenOptions& options) {
  const size_t rows =
      options.min_rows + rng->NextBelow(options.max_rows - options.min_rows + 1);
  const int num_qi =
      options.min_qi + static_cast<int>(rng->NextBelow(
                           static_cast<uint64_t>(options.max_qi - options.min_qi + 1)));

  std::vector<Attribute> attrs;
  if (options.with_identifier) {
    attrs.push_back({"Id", "Entity identifier", AttributeCategory::kIdentifier});
  }
  std::vector<bool> int_column;
  for (int q = 0; q < num_qi; ++q) {
    attrs.push_back({"Q" + std::to_string(q + 1), "Generated quasi-identifier",
                     AttributeCategory::kQuasiIdentifier});
    int_column.push_back(rng->NextDouble() < options.int_column_probability);
  }
  if (options.with_non_identifying) {
    attrs.push_back({"Growth", "Non-identifying payload",
                     AttributeCategory::kNonIdentifying});
  }
  if (options.with_weight) {
    attrs.push_back({"W", "Sampling weight", AttributeCategory::kWeight});
  }
  MicrodataTable table("prop", std::move(attrs));

  // Per-column domain sizes; small domains force group collisions.
  std::vector<int> domain;
  for (int q = 0; q < num_qi; ++q) {
    domain.push_back(2 + static_cast<int>(rng->NextBelow(
                             static_cast<uint64_t>(options.max_domain - 1))));
  }

  uint64_t null_label = 1;
  std::vector<std::vector<Value>> qi_history;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> qis;
    if (!qi_history.empty() && rng->NextDouble() < options.duplicate_probability) {
      qis = qi_history[rng->NextBelow(qi_history.size())];
    } else {
      for (int q = 0; q < num_qi; ++q) {
        const int v = static_cast<int>(
            rng->NextZipf(static_cast<size_t>(domain[q]), options.skew));
        qis.push_back(int_column[q] ? Value::Int(v)
                                    : Value::String("v" + std::to_string(v)));
      }
    }
    for (auto& cell : qis) {
      if (rng->NextDouble() < options.null_probability) {
        cell = Value::Null(null_label++);
      }
    }
    qi_history.push_back(qis);

    std::vector<Value> row;
    if (options.with_identifier) {
      row.push_back(Value::String("e" + std::to_string(r)));
    }
    for (auto& cell : qis) row.push_back(std::move(cell));
    if (options.with_non_identifying) {
      row.push_back(Value::Int(rng->NextInt(-30, 300)));
    }
    if (options.with_weight) {
      row.push_back(Value::Double(1.0 + static_cast<double>(rng->NextBelow(50))));
    }
    Status st = table.AddRow(std::move(row));
    (void)st;  // Row width is correct by construction.
  }
  return table;
}

core::Hierarchy RandomHierarchy(Rng* rng, const core::MicrodataTable& table) {
  Hierarchy h;
  for (const size_t c : table.QuasiIdentifierColumns()) {
    std::set<std::string> values;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Value& cell = table.cell(r, c);
      if (cell.is_string()) values.insert(cell.as_string());
    }
    if (values.size() < 2) continue;
    std::vector<std::string> bands(values.begin(), values.end());
    const size_t fan_in = 2 + rng->NextBelow(2);
    h.AddIntervalHierarchy(table.attributes()[c].name, bands, fan_in);
  }
  return h;
}

core::OwnershipGraph RandomOwnershipGraph(Rng* rng, const core::MicrodataTable& table,
                                          double edge_probability) {
  OwnershipGraph graph;
  const auto ids = table.ColumnsWithCategory(AttributeCategory::kIdentifier);
  if (ids.empty()) return graph;
  std::vector<std::string> companies;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    companies.push_back(table.cell(r, ids[0]).ToString());
  }
  for (const std::string& owner : companies) {
    for (const std::string& owned : companies) {
      if (owner == owned) continue;
      if (rng->NextDouble() < edge_probability) {
        graph.AddOwnership(owner, owned, 0.2 + 0.8 * rng->NextDouble());
      }
    }
  }
  return graph;
}

namespace {

/// Shared vocabulary of the program grammar.
const std::vector<std::string> kPreds = {"p", "q", "r", "s", "t"};
const std::vector<std::string> kConsts = {"a", "b", "c", "d", "e"};
const std::vector<std::string> kVars = {"X", "Y", "Z", "W", "V"};

}  // namespace

std::string RandomVadalogProgram(Rng* rng, const ProgramGenOptions& options) {
  std::map<std::string, int> arity;
  for (const auto& p : kPreds) arity[p] = 1 + static_cast<int>(rng->NextBelow(2));

  std::string src;
  const size_t num_facts = 3 + rng->NextBelow(options.max_facts - 2);
  for (size_t i = 0; i < num_facts; ++i) {
    const std::string& p = kPreds[rng->NextBelow(kPreds.size())];
    src += p + "(";
    for (int a = 0; a < arity[p]; ++a) {
      if (a > 0) src += ", ";
      src += kConsts[rng->NextBelow(kConsts.size())];
    }
    src += ").\n";
  }

  const size_t num_rules = 1 + rng->NextBelow(options.max_rules);
  for (size_t i = 0; i < num_rules; ++i) {
    const size_t body_len = 1 + rng->NextBelow(3);
    std::vector<std::string> body;
    std::vector<std::string> bound_vars;
    for (size_t b = 0; b < body_len; ++b) {
      const std::string& p = kPreds[rng->NextBelow(kPreds.size())];
      std::string atom = p + "(";
      for (int a = 0; a < arity[p]; ++a) {
        if (a > 0) atom += ", ";
        if (rng->NextDouble() < 0.8) {
          const std::string& v = kVars[rng->NextBelow(kVars.size())];
          atom += v;
          bound_vars.push_back(v);
        } else {
          atom += kConsts[rng->NextBelow(kConsts.size())];
        }
      }
      atom += ")";
      body.push_back(std::move(atom));
    }
    if (bound_vars.empty()) continue;  // Head would be ground; skip.

    // Negated extra literal: stratified by construction when it only guards
    // (its variables are already positively bound).
    if (!options.positive_fragment_only && options.allow_negation &&
        rng->NextDouble() < 0.25) {
      const std::string& p = kPreds[rng->NextBelow(kPreds.size())];
      std::string atom = "not " + p + "(";
      for (int a = 0; a < arity[p]; ++a) {
        if (a > 0) atom += ", ";
        atom += bound_vars[rng->NextBelow(bound_vars.size())];
      }
      atom += ")";
      body.push_back(std::move(atom));
    }

    std::string condition;
    if (bound_vars.size() >= 2 && rng->NextDouble() < 0.4) {
      const char* ops[] = {"!=", "==", "<", ">="};
      condition = ", " + bound_vars[rng->NextBelow(bound_vars.size())] + " " +
                  ops[rng->NextBelow(4)] + " " +
                  bound_vars[rng->NextBelow(bound_vars.size())];
    }

    const std::string& h = kPreds[rng->NextBelow(kPreds.size())];
    std::string head = h + "(";
    for (int a = 0; a < arity[h]; ++a) {
      if (a > 0) head += ", ";
      if (!options.positive_fragment_only && options.allow_existentials &&
          rng->NextDouble() < 0.15) {
        head += "E" + std::to_string(rng->NextBelow(3));  // Existential variable.
      } else {
        head += bound_vars[rng->NextBelow(bound_vars.size())];
      }
    }
    head += ")";
    src += head + " :- ";
    for (size_t b = 0; b < body.size(); ++b) {
      if (b > 0) src += ", ";
      src += body[b];
    }
    src += condition + ".\n";
  }

  // One msum aggregation over a fresh output predicate — monotone, so it
  // cannot interfere with the rules above.
  if (!options.positive_fragment_only && options.allow_aggregates &&
      rng->NextDouble() < 0.3) {
    const std::string& p = kPreds[rng->NextBelow(kPreds.size())];
    if (arity[p] == 2) {
      src += "agg(X, S) :- " + p + "(X, Y), S = mcount(<Y>).\n";
    } else {
      src += "agg(X, S) :- " + p + "(X), S = mcount(<X>).\n";
    }
  }
  return src;
}

std::string RandomTokenSoup(Rng* rng, size_t max_tokens) {
  static const char* kTokens[] = {
      "p",   "q",    "X",     "Y",   "(",    ")",    ",",   ".",  ":-",   "=",
      "==",  "!=",   "<",     ">",   "<=",   ">=",   "not", "1",  "2.5",  "-3",
      "\"s\"", "#risk", "msum", "mprod", "mcount", "<X>", "@output", "@bind",
      "%",   "+",    "*",     "/",   "_",    "⊥",    "E0",  "agg"};
  std::string src;
  const size_t len = 1 + rng->NextBelow(max_tokens);
  for (size_t i = 0; i < len; ++i) {
    src += kTokens[rng->NextBelow(std::size(kTokens))];
    src += " ";
  }
  return src;
}

std::string RandomBytes(Rng* rng, size_t max_len) {
  std::string src;
  const size_t len = rng->NextBelow(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    // Mostly printable ASCII with occasional raw bytes.
    if (rng->NextDouble() < 0.9) {
      src += static_cast<char>(32 + rng->NextBelow(95));
    } else {
      src += static_cast<char>(rng->NextBelow(256));
    }
  }
  return src;
}

namespace {

/// The decimal spelling of a random double with 1 to `max_digits`
/// significant digits.
std::string RandomDoubleText(Rng* rng, int max_digits) {
  const int digits = static_cast<int>(rng->NextInt(1, max_digits));
  const double magnitude = std::pow(10.0, static_cast<double>(rng->NextInt(-4, 8)));
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.*g", digits,
                (rng->NextDouble() - 0.5) * magnitude);
  return buffer;
}

/// One raw CSV field, quoted or not.
std::string RandomDocumentCell(Rng* rng) {
  static const char* const kCells[] = {
      "a", "North", "South", "x y", " padded", "padded ", "\tpadded\t", "",
      "\"Rossi, Mario\"", "\"said \"\"hi\"\"\"", "\"multi\nline\"",
      "\"cr\r\nlf\"", "\" quoted pad \"", "ab\"c,d\"e", "\"\"", "NULL_3", "⊥_7",
      " NULL_2 ", "NULL_x", "⊥_", "NULL_18446744073709551615", "42", "-7", " 13 ",
      "0", "-0.0", "1e5", "1e400", "0x10", "1.2.3", "inf", "nan", "+5", "\"42\"",
      "\" 7 \""};
  if (rng->NextDouble() < 0.25) return RandomDoubleText(rng, 17);
  return kCells[rng->NextBelow(std::size(kCells))];
}

}  // namespace

std::string RandomCsvDocument(Rng* rng) {
  static const char* const kHeaders[] = {"area", " spaced ", "\"a,b\"",
                                         "\"two\nlines\"", "say \"\"hi\"\"", ""};
  const std::string eol = rng->NextDouble() < 0.3 ? "\r\n" : "\n";
  const size_t columns = 1 + rng->NextBelow(4);
  std::string doc;
  for (size_t c = 0; c < columns; ++c) {
    if (c > 0) doc += ',';
    doc += rng->NextDouble() < 0.7 ? "c" + std::to_string(c)
                                   : kHeaders[rng->NextBelow(std::size(kHeaders))];
  }
  doc += eol;
  std::vector<std::vector<std::string>> pools(columns);
  for (auto& pool : pools) {
    for (int i = 0; i < 3; ++i) pool.push_back(RandomDocumentCell(rng));
  }
  const size_t rows = rng->NextBelow(14);
  const size_t ragged_row = rng->NextDouble() < 0.15 ? rng->NextBelow(rows + 1) : rows;
  for (size_t r = 0; r < rows; ++r) {
    size_t width = columns;
    if (r == ragged_row) {
      width = (columns > 1 && rng->NextDouble() < 0.5) ? columns - 1 : columns + 1;
    }
    for (size_t c = 0; c < width; ++c) {
      if (c > 0) doc += ',';
      doc += c < columns && rng->NextDouble() < 0.7
                 ? pools[c][rng->NextBelow(pools[c].size())]
                 : RandomDocumentCell(rng);
    }
    doc += eol;
    if (rng->NextDouble() < 0.05) doc += eol;  // A blank line inside.
  }
  if (rng->NextDouble() < 0.3) {
    for (uint64_t i = 1 + rng->NextBelow(2); i > 0; --i) doc += eol;
  }
  if (rng->NextDouble() < 0.2) doc.resize(doc.size() - eol.size());
  if (rng->NextDouble() < 0.04) doc += "\"unterminated,";
  return doc;
}

core::MicrodataTable RandomCsvTable(Rng* rng) {
  static const char* const kNames[] = {"area", "sector, code", "say \"hi\"",
                                       " spaced ", "weight"};
  static const char* const kStrings[] = {"North", "Rossi, Mario", "say \"hi\"",
                                         "two\nlines", "cr\rinside", "⊥ sign",
                                         "a,b,\"c\"", "x y", ""};
  enum Kind { kString, kInt, kDouble };
  const size_t columns = 1 + rng->NextBelow(4);
  const int max_digits = rng->NextDouble() < 0.5 ? 6 : 17;
  std::vector<Attribute> attrs;
  std::vector<Kind> kinds;
  bool has_weight = false;
  for (size_t c = 0; c < columns; ++c) {
    const Kind kind = static_cast<Kind>(rng->NextBelow(3));
    AttributeCategory category = rng->NextDouble() < 0.8
                                     ? AttributeCategory::kQuasiIdentifier
                                     : AttributeCategory::kNonIdentifying;
    if (kind != kString && !has_weight && rng->NextDouble() < 0.3) {
      category = AttributeCategory::kWeight;
      has_weight = true;
    }
    attrs.push_back({kNames[rng->NextBelow(std::size(kNames))] + std::to_string(c),
                     "", category});
    kinds.push_back(kind);
  }
  MicrodataTable table("csv", std::move(attrs));
  const size_t rows = rng->NextBelow(13);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < columns; ++c) {
      const bool weight = table.attributes()[c].category == AttributeCategory::kWeight;
      if (!weight && rng->NextDouble() < 0.1) {
        row.push_back(Value::Null(rng->NextBelow(50)));
      } else if (kinds[c] == kString) {
        row.push_back(Value::String(kStrings[rng->NextBelow(std::size(kStrings))]));
      } else if (kinds[c] == kInt) {
        row.push_back(Value::Int(rng->NextInt(-1000, 100000)));
      } else {
        const std::string text = RandomDoubleText(rng, max_digits);
        double value = 0;
        std::from_chars(text.data(), text.data() + text.size(), value);
        row.push_back(Value::Double(value));
      }
    }
    (void)table.AddRow(std::move(row));
  }
  return table;
}

}  // namespace vadasa::testing
