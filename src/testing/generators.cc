#include "testing/generators.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

namespace vadasa::testing {

using core::Attribute;
using core::AttributeCategory;
using core::Hierarchy;
using core::MicrodataTable;
using core::OwnershipGraph;

namespace {

/// One of the numeric edges TableGenOptions::numeric_edge_probability lists.
Value NumericEdgeCell(Rng* rng) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  static const int64_t kInts[] = {kTwo53,
                                  -kTwo53,
                                  kTwo53 + 1,
                                  -kTwo53 - 1,
                                  std::numeric_limits<int64_t>::max(),
                                  std::numeric_limits<int64_t>::min()};
  static const double kDoubles[] = {static_cast<double>(kTwo53),
                                    -static_cast<double>(kTwo53),
                                    std::numeric_limits<double>::quiet_NaN(),
                                    std::numeric_limits<double>::infinity(),
                                    -std::numeric_limits<double>::infinity(),
                                    0.0,
                                    -0.0};
  const size_t pick = rng->NextBelow(std::size(kInts) + std::size(kDoubles));
  return pick < std::size(kInts) ? Value::Int(kInts[pick])
                                 : Value::Double(kDoubles[pick - std::size(kInts)]);
}

}  // namespace

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
        // Tested first so a probability of 0 draws nothing more.
        if (options.numeric_edge_probability > 0 &&
            rng->NextDouble() < options.numeric_edge_probability) {
          qis.push_back(NumericEdgeCell(rng));
          continue;
        }
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

  // An EGD over a two-column predicate, after two rules that give one key
  // both a labelled null and a constant there: the chase unifies the null
  // and merges the facts built on either.
  if (!options.positive_fragment_only && options.allow_existentials &&
      rng->NextDouble() < 0.6) {
    const size_t first = rng->NextBelow(kPreds.size());
    const std::string& q = kPreds[rng->NextBelow(kPreds.size())];
    const std::string& c = kConsts[rng->NextBelow(kConsts.size())];
    for (size_t k = 0; k < kPreds.size(); ++k) {
      const std::string& p = kPreds[(first + k) % kPreds.size()];
      if (arity[p] != 2) continue;
      const std::string body = q + (arity[q] == 2 ? "(X, Y).\n" : "(X).\n");
      src += p + "(X, E0) :- " + body + p + "(X, " + c + ") :- " + body;
      src += "Z1 = Z2 :- " + p + "(X, Z1), " + p + "(X, Z2).\n";
      break;
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
  // A spelling at each branch of the cell reader: number starts it must and
  // must not parse, both null prefixes, and an int64_t overflow that reads as
  // a double.
  static const char* const kNumberLike[] = {
      "+5", "-0", "007", "1e5", ".5", "5.", "-", "inf", "-Infinity", "nan", "NaN",
      "0x10", "N/A", "NULL_", "NULL_7", "NULL_x", "⊥_3", "⊥_", "99999999999999999999"};
  // Each "C"-locale space, and two bytes that are none (a no-break space and
  // 0x1F). A CR or LF pad goes inside quotes, where it belongs to the field.
  static const char* const kPads[] = {" ", "\t", "\v", "\f", "\r", "\n", "\xC2\xA0", "\x1f"};
  const double pick = rng->NextDouble();
  if (pick < 0.25) return RandomDoubleText(rng, 17);
  if (pick < 0.45) {
    const std::string cell = kNumberLike[rng->NextBelow(std::size(kNumberLike))];
    if (rng->NextDouble() < 0.3) return cell;
    const std::string pad = kPads[rng->NextBelow(std::size(kPads))];
    const std::string padded = pad + cell + pad;
    const bool line_break = pad == "\r" || pad == "\n";
    return line_break || rng->NextDouble() < 0.3 ? "\"" + padded + "\"" : padded;
  }
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

Value RandomSpellingCell(Rng* rng) {
  static const int64_t kInts[] = {0, 1, 7, -3, 1234567, 1234568, 100000};
  static const double kDoubles[] = {0.0,       -0.0,       1.0,       7.0,
                                    1234567.0, 1234567.1,  1234568.0, 1.0000001,
                                    1.0000002, 0.1 + 0.2,  0.3,       -3.0};
  // "a\x1f" beside "b" and "a" beside "\x1f" "b" would share a pair key if
  // the two spellings were joined with 0x1F.
  static const char* const kStrings[] = {
      "0", "-0",  "1", "7", "1234567", "1.23457e+06", "true", "⊥_1", "a",
      "b", "a\x1f", "\x1f" "b", "\x1f", "v1", "v2"};
  switch (rng->NextBelow(5)) {
    case 0:
      return Value::Int(kInts[rng->NextBelow(std::size(kInts))]);
    case 1:
      return Value::Double(kDoubles[rng->NextBelow(std::size(kDoubles))]);
    case 2:
      return rng->NextDouble() < 0.1 ? Value::Bool(rng->NextDouble() < 0.5)
                                     : Value::String(kStrings[rng->NextBelow(
                                           std::size(kStrings))]);
    case 3:
      return NumericEdgeCell(rng);
    default:
      return Value::String("v" + std::to_string(rng->NextZipf(5, 1.1)));
  }
}

core::MicrodataTable RandomSpellingTable(Rng* rng) {
  const bool wide = rng->NextDouble() < 0.1;
  const size_t rows = wide ? 1500 + rng->NextBelow(1500) : 1 + rng->NextBelow(60);
  const size_t num_qi = 1 + rng->NextBelow(4);
  const size_t wide_column = wide ? rng->NextBelow(num_qi) : num_qi;
  enum class Payload { kNumeric, kString, kNone };
  const double draw = rng->NextDouble();
  const Payload payload =
      draw < 0.6 ? Payload::kNumeric : draw < 0.8 ? Payload::kString : Payload::kNone;
  const bool with_weight = rng->NextDouble() < 0.7;

  std::vector<Attribute> attrs;
  for (size_t q = 0; q < num_qi; ++q) {
    attrs.push_back({"Q" + std::to_string(q + 1), "", AttributeCategory::kQuasiIdentifier});
  }
  if (payload != Payload::kNone) {
    attrs.push_back({"Growth", "", AttributeCategory::kNonIdentifying});
  }
  if (with_weight) attrs.push_back({"W", "", AttributeCategory::kWeight});
  MicrodataTable table("spelling", std::move(attrs));

  // Each column draws from a small pool, so cells repeat; half of the
  // repeats share the pool's payload and half are fresh copies.
  std::vector<std::vector<Value>> pools(num_qi);
  for (auto& pool : pools) {
    const size_t size = 2 + rng->NextBelow(6);
    for (size_t i = 0; i < size; ++i) pool.push_back(RandomSpellingCell(rng));
  }
  uint64_t null_label = 1;
  std::vector<std::vector<Value>> history;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> qis;
    if (!history.empty() && rng->NextDouble() < 0.2) {
      qis = history[rng->NextBelow(history.size())];
    } else {
      for (size_t q = 0; q < num_qi; ++q) {
        if (q == wide_column) {
          qis.push_back(rng->NextDouble() < 0.5
                            ? Value::Int(rng->NextInt(0, 100000))
                            : Value::Double(static_cast<double>(rng->NextInt(0, 100000)) /
                                            7.0));
          continue;
        }
        const Value& pick = pools[q][rng->NextZipf(pools[q].size(), 1.1)];
        qis.push_back(pick.is_string() && rng->NextDouble() < 0.5
                          ? Value::String(pick.as_string())
                          : pick);
      }
    }
    for (auto& cell : qis) {
      if (rng->NextDouble() < 0.05) {
        cell = Value::Null(rng->NextDouble() < 0.3 ? 1 : null_label++);
      }
    }
    history.push_back(qis);
    std::vector<Value> row = std::move(qis);
    if (payload == Payload::kNumeric) {
      row.push_back(rng->NextDouble() < 0.5 ? Value::Int(rng->NextInt(-30, 300))
                                            : Value::Double(rng->NextInt(-300, 3000) / 8.0));
    } else if (payload == Payload::kString) {
      row.push_back(Value::String("g" + std::to_string(rng->NextBelow(4))));
    }
    if (with_weight) {
      row.push_back(rng->NextDouble() < 0.5
                        ? Value::Int(rng->NextInt(1, 20))
                        : Value::Double(static_cast<double>(rng->NextInt(4, 80)) / 4.0));
    }
    (void)table.AddRow(std::move(row));
  }
  return table;
}

namespace {

void AppendJsonSpace(Rng* rng, std::string* out) {
  static const char kSpace[] = {' ', '\t', '\n', '\r'};
  while (rng->NextDouble() < 0.15) out->push_back(kSpace[rng->NextBelow(4)]);
}

void AppendRandomJson(Rng* rng, int depth, std::string* out) {
  static const char* const kNumbers[] = {
      "0", "-0", "-0.0", "1", "-1", "1.9", "0.1", "2.5e-3", "1E2", "1e-400",
      "9007199254740992", "-9007199254740992", "9007199254740993",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "18446744073709551616", "1e19", "-1e19", "1e400",
      "-1e400", "4294967296", "4294967298", "2147483648", "-2147483649",
      "123456789012345678901234567890", "1e15", "999999999999999.5"};
  static const char* const kStrings[] = {
      R"("")",           R"("a")",        R"("\u0000")",  R"("😀")",
      R"("\"\\\/\b\f\n\r\t")", "\"\xc3\xa9\"", R"("é")", R"("op")",
      R"("submit")",     R"("NULL_3")",   R"("\u001f")"};
  static const char* const kKeys[] = {"op", "k", "row", "seed", "id", "priority",
                                      "posterior_draws", "v", "ops", "values", ""};
  AppendJsonSpace(rng, out);
  // Documents are mostly containers; below depth 5 only scalars.
  const uint64_t kind = depth == 0 && rng->NextDouble() < 0.8 ? 4 + rng->NextBelow(2)
                        : depth >= 5                           ? rng->NextBelow(4)
                                                               : rng->NextBelow(6);
  switch (kind) {
    case 0:
      *out += kNumbers[rng->NextBelow(std::size(kNumbers))];
      break;
    case 1: {
      char buffer[40];
      if (rng->NextDouble() < 0.5) {
        std::snprintf(buffer, sizeof(buffer), "%lld",
                      static_cast<long long>(rng->NextInt(-100000, 5000000000LL)));
      } else {
        const double d = (rng->NextDouble() - 0.5) *
                         std::pow(10.0, static_cast<double>(rng->NextInt(-20, 25)));
        std::snprintf(buffer, sizeof(buffer), "%.17g", d);
      }
      *out += buffer;
      break;
    }
    case 2:
      *out += kStrings[rng->NextBelow(std::size(kStrings))];
      break;
    case 3:
      *out += rng->NextDouble() < 0.4 ? "null" : rng->NextDouble() < 0.5 ? "true" : "false";
      break;
    case 4: {
      out->push_back('[');
      const size_t n = rng->NextBelow(5);
      for (size_t i = 0; i < n; ++i) {
        if (i > 0) out->push_back(',');
        AppendRandomJson(rng, depth + 1, out);
      }
      AppendJsonSpace(rng, out);
      out->push_back(']');
      break;
    }
    default: {
      out->push_back('{');
      const size_t n = rng->NextBelow(6);
      for (size_t i = 0; i < n; ++i) {
        if (i > 0) out->push_back(',');
        AppendJsonSpace(rng, out);
        *out += "\"" + std::string(kKeys[rng->NextBelow(std::size(kKeys))]) + "\"";
        AppendJsonSpace(rng, out);
        out->push_back(':');
        AppendRandomJson(rng, depth + 1, out);
      }
      AppendJsonSpace(rng, out);
      out->push_back('}');
      break;
    }
  }
  AppendJsonSpace(rng, out);
}

}  // namespace

std::string RandomJsonDocument(Rng* rng) {
  std::string out;
  AppendRandomJson(rng, 0, &out);
  return out;
}

}  // namespace vadasa::testing
