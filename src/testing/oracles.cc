#include "testing/oracles.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/string_util.h"
#include "core/anonymize.h"
#include "core/group_index.h"
#include "core/infoloss.h"
#include "core/suda.h"

namespace vadasa::testing {

using core::GroupStats;
using core::KAnonymityRisk;
using core::MicrodataTable;
using core::NullSemantics;

namespace {

constexpr double kEps = 1e-9;

std::string RowTag(size_t row) { return "row " + std::to_string(row); }

/// Whether rows `a` and `b` hold equal values (Value::Equals) in every QI
/// column selected by `mask`.
bool EqualOn(const MicrodataTable& table, const std::vector<size_t>& qi_columns,
             size_t a, size_t b, uint32_t mask) {
  for (size_t i = 0; i < qi_columns.size(); ++i) {
    if ((mask & (1u << i)) != 0 &&
        !table.cell(a, qi_columns[i]).Equals(table.cell(b, qi_columns[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

Status CheckRisksInUnitRange(const std::vector<double>& risks) {
  for (size_t r = 0; r < risks.size(); ++r) {
    if (!(risks[r] >= -kEps && risks[r] <= 1.0 + kEps) || std::isnan(risks[r])) {
      return Status::FailedPrecondition("risk outside [0,1] at " + RowTag(r) + ": " +
                                        std::to_string(risks[r]));
    }
  }
  return Status::OK();
}

Status CheckPostCycleRisks(const core::MicrodataTable& released,
                           const core::RiskMeasure& measure,
                           const core::RiskContext& context, double threshold) {
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> risks,
                          measure.ComputeRisks(released, context));
  VADASA_RETURN_NOT_OK(CheckRisksInUnitRange(risks));
  const std::vector<size_t> qis = context.ResolveQiColumns(released);
  for (size_t r = 0; r < risks.size(); ++r) {
    if (risks[r] <= threshold) continue;
    // Over threshold: only acceptable when the tuple is exhausted — every
    // quasi-identifier already suppressed, no further step exists.
    for (const size_t c : qis) {
      if (!released.cell(r, c).is_null()) {
        return Status::FailedPrecondition(
            RowTag(r) + " released with risk " + std::to_string(risks[r]) +
            " > T=" + std::to_string(threshold) + " but quasi-identifier \"" +
            released.attributes()[c].name + "\" is not suppressed");
      }
    }
  }
  return Status::OK();
}

Status CheckSuppressionMonotone(const core::MicrodataTable& table, size_t row,
                                size_t column, const core::RiskContext& context) {
  core::RiskContext ctx = context;
  ctx.semantics = NullSemantics::kMaybeMatch;  // The invariant is a =⊥ property.
  const std::vector<size_t> qis = ctx.ResolveQiColumns(table);
  VADASA_RETURN_NOT_OK(core::ValidateQiWidth(qis, ctx.semantics));
  if (std::find(qis.begin(), qis.end(), column) == qis.end() ||
      row >= table.num_rows() || table.cell(row, column).is_null()) {
    return Status::OK();  // Nothing to suppress: trivially monotone.
  }

  const GroupStats before = core::ComputeGroupStats(table, qis, ctx.semantics);
  KAnonymityRisk k_anon;
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> risks_before,
                          k_anon.ComputeRisks(table, ctx));

  MicrodataTable suppressed = table;
  // Labels must stay fresh: continue past the highest label in the table.
  uint64_t max_label = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (const size_t c : qis) {
      if (table.cell(r, c).is_null()) {
        max_label = std::max(max_label, table.cell(r, c).null_label());
      }
    }
  }
  suppressed.set_cell(row, column, Value::Null(max_label + 1));

  const GroupStats after = core::ComputeGroupStats(suppressed, qis, ctx.semantics);
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> risks_after,
                          k_anon.ComputeRisks(suppressed, ctx));

  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (after.frequency[r] + kEps < before.frequency[r]) {
      return Status::FailedPrecondition(
          "suppressing (" + std::to_string(row) + "," + std::to_string(column) +
          ") shrank the maybe-match group of " + RowTag(r) + ": " +
          std::to_string(before.frequency[r]) + " -> " +
          std::to_string(after.frequency[r]));
    }
    if (risks_after[r] > risks_before[r] + kEps) {
      return Status::FailedPrecondition(
          "suppressing (" + std::to_string(row) + "," + std::to_string(column) +
          ") raised the k-anonymity risk of " + RowTag(r) + ": " +
          std::to_string(risks_before[r]) + " -> " + std::to_string(risks_after[r]));
    }
  }
  return Status::OK();
}

Status CheckSuppressionFreshLabels(const core::MicrodataTable& table, size_t row,
                                   size_t column) {
  const std::vector<size_t> qis = table.QuasiIdentifierColumns();
  if (std::find(qis.begin(), qis.end(), column) == qis.end() ||
      row >= table.num_rows() || table.cell(row, column).is_null()) {
    return Status::OK();  // Nothing to suppress.
  }
  const GroupStats before =
      core::ComputeGroupStats(table, qis, NullSemantics::kStandard);

  MicrodataTable suppressed = table;
  core::LocalSuppression method;
  if (!method.CanApply(suppressed, row, column)) return Status::OK();
  auto step = method.Apply(&suppressed, row, column);
  VADASA_RETURN_NOT_OK(step.status());

  const GroupStats after =
      core::ComputeGroupStats(suppressed, qis, NullSemantics::kStandard);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (after.frequency[r] > before.frequency[r] + kEps) {
      return Status::FailedPrecondition(
          "suppressing (" + std::to_string(row) + "," + std::to_string(column) +
          ") with label ⊥_" + std::to_string(suppressed.cell(row, column).null_label()) +
          " grew the standard-semantics group of " + RowTag(r) + " from " +
          std::to_string(before.frequency[r]) + " to " +
          std::to_string(after.frequency[r]) +
          " — the injected null collides with a pre-existing label");
    }
  }
  return Status::OK();
}

Status CheckSudaPermutationInvariance(const core::MicrodataTable& table,
                                      const core::RiskContext& context, Rng* rng) {
  if (table.num_rows() < 2) return Status::OK();
  core::SudaRisk suda;
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> scores,
                          suda.ComputeScores(table, context));
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> risks,
                          suda.ComputeRisks(table, context));

  std::vector<size_t> perm(table.num_rows());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  rng->Shuffle(&perm);

  MicrodataTable permuted(table.name(), table.attributes());
  for (const size_t r : perm) {
    const std::span<const Value> row = table.row(r);
    VADASA_RETURN_NOT_OK(permuted.AddRow(std::vector<Value>(row.begin(), row.end())));
  }
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> scores_perm,
                          suda.ComputeScores(permuted, context));
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> risks_perm,
                          suda.ComputeRisks(permuted, context));

  for (size_t i = 0; i < perm.size(); ++i) {
    if (std::abs(scores_perm[i] - scores[perm[i]]) > kEps) {
      return Status::FailedPrecondition(
          "SUDA score not permutation-invariant: original " + RowTag(perm[i]) +
          " scored " + std::to_string(scores[perm[i]]) + ", permuted copy scored " +
          std::to_string(scores_perm[i]));
    }
    if (std::abs(risks_perm[i] - risks[perm[i]]) > kEps) {
      return Status::FailedPrecondition(
          "SUDA risk not permutation-invariant at original " + RowTag(perm[i]));
    }
  }
  return Status::OK();
}

Status CheckClusterRiskBounds(const core::MicrodataTable& table,
                              const core::OwnershipGraph& graph,
                              const std::string& id_column,
                              const std::vector<double>& base_risks) {
  const int id_col = table.ColumnIndex(id_column);
  if (id_col < 0 || base_risks.size() != table.num_rows()) {
    return Status::InvalidArgument("cluster oracle: bad id column or risk vector");
  }
  std::vector<double> transformed = base_risks;
  core::MakeClusterRiskTransform(&graph, id_column)(table, &transformed);

  // Independent recomputation of the closed form 1 − Π_c (1 − ρ_c).
  const auto clusters = graph.ComputeClusters();
  std::unordered_map<int, double> survive;
  std::vector<int> row_cluster(table.num_rows(), -1);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    auto it = clusters.find(table.cell(r, static_cast<size_t>(id_col)).ToString());
    if (it == clusters.end()) continue;
    row_cluster[r] = it->second;
    auto [sit, ignore] = survive.try_emplace(it->second, 1.0);
    (void)ignore;
    sit->second *= 1.0 - std::clamp(base_risks[r], 0.0, 1.0);
  }

  for (size_t r = 0; r < table.num_rows(); ++r) {
    const double t = transformed[r];
    if (std::isnan(t) || t > 1.0 + kEps) {
      return Status::FailedPrecondition("cluster risk exceeds 1 at " + RowTag(r) +
                                        ": " + std::to_string(t));
    }
    if (t + kEps < base_risks[r]) {
      return Status::FailedPrecondition(
          "cluster risk below the member's own risk at " + RowTag(r) + ": " +
          std::to_string(base_risks[r]) + " -> " + std::to_string(t));
    }
    if (row_cluster[r] < 0) {
      if (std::abs(t - base_risks[r]) > kEps) {
        return Status::FailedPrecondition(
            "unlinked " + RowTag(r) + " had its risk rewritten: " +
            std::to_string(base_risks[r]) + " -> " + std::to_string(t));
      }
      continue;
    }
    const double expected =
        std::max(base_risks[r], 1.0 - survive[row_cluster[r]]);
    if (std::abs(t - expected) > 1e-6) {
      return Status::FailedPrecondition(
          "cluster risk at " + RowTag(r) + " is " + std::to_string(t) +
          ", expected 1 - prod(1-rho) = " + std::to_string(expected));
    }
  }
  return Status::OK();
}

Status CheckInfoLossMonotone(const core::MicrodataTable& table, size_t steps,
                             Rng* rng) {
  const std::vector<size_t> qis = table.QuasiIdentifierColumns();
  if (qis.empty() || table.num_rows() == 0) return Status::OK();

  MicrodataTable working = table;
  core::LocalSuppression method;
  double last_fraction = -1.0;
  double last_paper = -1.0;
  size_t nulls = 0;
  // Treat every tuple as initially risky for the paper metric's denominator:
  // monotonicity must hold for any fixed denominator.
  const size_t denom_tuples = table.num_rows();
  for (size_t s = 0; s < steps; ++s) {
    const size_t row = rng->NextBelow(working.num_rows());
    const size_t col = qis[rng->NextBelow(qis.size())];
    if (method.CanApply(working, row, col)) {
      auto step = method.Apply(&working, row, col);
      VADASA_RETURN_NOT_OK(step.status());
      nulls += step->nulls_injected;
    }
    const core::InformationLoss loss =
        core::MeasureInformationLoss(table, working, nullptr);
    const double paper = core::PaperInformationLoss(nulls, denom_tuples, qis.size());
    if (loss.suppressed_cell_fraction + kEps < last_fraction) {
      return Status::FailedPrecondition(
          "suppressed-cell fraction decreased after step " + std::to_string(s) +
          ": " + std::to_string(last_fraction) + " -> " +
          std::to_string(loss.suppressed_cell_fraction));
    }
    if (paper + kEps < last_paper) {
      return Status::FailedPrecondition(
          "paper information loss decreased after step " + std::to_string(s));
    }
    if (loss.suppressed_cell_fraction < -kEps ||
        loss.suppressed_cell_fraction > 1.0 + kEps || paper < -kEps ||
        paper > 1.0 + kEps) {
      return Status::FailedPrecondition("information loss left [0,1] after step " +
                                        std::to_string(s));
    }
    last_fraction = loss.suppressed_cell_fraction;
    last_paper = paper;
  }
  return Status::OK();
}

Status CheckChaseProvenance(const vadalog::Program& program, const vadalog::Database& db) {
  for (vadalog::FactId id = 0; id < db.size(); ++id) {
    const vadalog::Provenance& prov = db.provenance(id);
    if (prov.rule_index < 0) continue;  // Asserted.
    auto fail = [&](const std::string& why) {
      return Status::FailedPrecondition("fact " + std::to_string(id) + " " +
                                        db.FactString(id) + ": " + why);
    };
    if (prov.rule_index >= static_cast<int>(program.rules.size())) {
      return fail("cites rule " + std::to_string(prov.rule_index + 1) + " of " +
                  std::to_string(program.rules.size()));
    }
    const vadalog::Rule& rule = program.rules[prov.rule_index];
    std::vector<const vadalog::Atom*> body;
    for (const vadalog::Literal& l : rule.body) {
      if (!l.negated && !l.atom.is_external()) body.push_back(&l.atom);
    }
    if (prov.support.size() != body.size()) {
      return fail("cites " + std::to_string(prov.support.size()) + " facts for the " +
                  std::to_string(body.size()) + " positive body literals of " +
                  rule.ToString());
    }
    std::map<std::string, Value> binding;
    for (size_t i = 0; i < body.size(); ++i) {
      const vadalog::FactId s = prov.support[i];
      if (s >= id) return fail("cites fact " + std::to_string(s) + ", not an earlier one");
      const std::vector<Value>& row = db.row(s);
      bool match = db.predicate(s) == body[i]->predicate && row.size() == body[i]->args.size();
      for (size_t j = 0; match && j < row.size(); ++j) {
        const vadalog::Term& t = body[i]->args[j];
        match = t.is_constant() ? t.constant.Equals(row[j])
                                : binding.try_emplace(t.var, row[j]).first->second.Equals(row[j]);
      }
      if (!match) {
        return fail("support " + db.FactString(s) + " does not match " +
                    body[i]->ToString() + " of " + rule.ToString());
      }
    }
    bool action = false;
    for (const vadalog::Atom& h : rule.head) action |= h.is_external();
    if (action) continue;
    const std::vector<Value>& row = db.row(id);
    bool derived = false;
    for (const vadalog::Atom& h : rule.head) {
      bool match = h.predicate == db.predicate(id) && h.args.size() == row.size();
      for (size_t j = 0; match && j < row.size(); ++j) {
        if (!h.args[j].is_variable()) continue;
        auto it = binding.find(h.args[j].var);
        match = it == binding.end() || it->second.Equals(row[j]);
      }
      derived |= match;
    }
    if (!derived) {
      return fail("no head atom of " + rule.ToString() +
                  " carries its supports' values");
    }
  }
  return Status::OK();
}

GroupStats NaiveGroupStats(const MicrodataTable& table,
                           const std::vector<size_t>& qi_columns,
                           NullSemantics semantics) {
  const size_t n = table.num_rows();
  GroupStats stats;
  stats.frequency.assign(n, 0.0);
  stats.weight_sum.assign(n, 0.0);
  for (size_t r = 0; r < n; ++r) {
    std::vector<Value> pattern;
    for (const size_t c : qi_columns) pattern.push_back(table.cell(r, c));
    const core::PatternMass mass =
        NaivePatternMass(table, qi_columns, pattern, semantics);
    stats.frequency[r] = mass.count;
    stats.weight_sum[r] = mass.weight;
  }
  return stats;
}

core::PatternMass NaivePatternMass(const MicrodataTable& table,
                                   const std::vector<size_t>& qi_columns,
                                   const std::vector<Value>& pattern,
                                   NullSemantics semantics) {
  core::PatternMass mass;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    bool match = true;
    for (size_t i = 0; i < qi_columns.size() && match; ++i) {
      const Value& cell = table.cell(r, qi_columns[i]);
      match = semantics == NullSemantics::kMaybeMatch ? cell.MaybeEquals(pattern[i])
                                                      : cell.Equals(pattern[i]);
    }
    if (match) {
      mass.count += 1.0;
      mass.weight += table.RowWeight(r);
    }
  }
  return mass;
}

std::vector<std::vector<core::MinimalSampleUnique>> NaiveMsus(
    const MicrodataTable& table, const std::vector<size_t>& qi_columns, int max_size) {
  const size_t n = table.num_rows();
  const uint32_t limit = 1u << qi_columns.size();
  std::vector<std::vector<core::MinimalSampleUnique>> msus(n);
  std::vector<std::vector<uint32_t>> uniques(n);  // Per row, ascending size.
  for (int size = 1; size <= max_size; ++size) {
    for (uint32_t mask = 1; mask < limit; ++mask) {
      if (__builtin_popcount(mask) != size) continue;
      for (size_t r = 0; r < n; ++r) {
        bool suppressed = false;
        for (size_t i = 0; i < qi_columns.size(); ++i) {
          if ((mask & (1u << i)) != 0 && table.cell(r, qi_columns[i]).is_null()) {
            suppressed = true;
          }
        }
        if (suppressed) continue;
        size_t equal_rows = 0;
        for (size_t o = 0; o < n; ++o) {
          if (EqualOn(table, qi_columns, r, o, mask)) ++equal_rows;
        }
        if (equal_rows != 1) continue;
        bool minimal = true;
        for (const uint32_t u : uniques[r]) {
          if ((u & mask) == u) minimal = false;
        }
        uniques[r].push_back(mask);
        if (minimal) msus[r].push_back(core::MinimalSampleUnique{mask, size});
      }
    }
  }
  return msus;
}

namespace {

/// The retired record parser: one character at a time, a fresh vector and
/// fresh strings per record.
std::vector<std::string> ReferenceParseRecord(std::string_view text, size_t* pos) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  size_t i = *pos;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (c == '\n') {
      ++i;
      break;
    } else if (c == '\r') {
      // Swallow; \r\n handled by the \n branch on the next char.
    } else {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  *pos = i;
  return fields;
}

/// The retired field writer.
void ReferenceAppendField(std::string* out, const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) {
    *out += field;
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void ReferenceFnvMixString(uint64_t* hash, const std::string& s) {
  for (const char c : s + '\x1f') {
    *hash ^= static_cast<unsigned char>(c);
    *hash *= kFnvPrime;
  }
}

/// The retired trim: std::isspace at each end.
std::string_view ReferenceTrim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// The retired number tests: true if the trimmed `s` parses fully as an
/// integer / floating literal.
bool LooksLikeInt(std::string_view s) {
  s = ReferenceTrim(s);
  if (s.empty()) return false;
  int64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool LooksLikeDouble(std::string_view s) {
  s = ReferenceTrim(s);
  if (s.empty()) return false;
  double v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// Equal status code and message.
Status SameStatus(const char* what, const Status& got, const Status& want) {
  if (got.code() == want.code() && got.message() == want.message()) {
    return Status::OK();
  }
  return Status::FailedPrecondition(std::string(what) + " returned \"" +
                                    got.ToString() + "\", the reference \"" +
                                    want.ToString() + "\"");
}

std::string CellTag(size_t row, size_t column) {
  return RowTag(row) + " column " + std::to_string(column);
}

}  // namespace

Value ReferenceCellToValue(std::string_view cell) {
  const std::string_view trimmed = ReferenceTrim(cell);
  for (std::string_view prefix : {std::string_view("NULL_"), std::string_view("⊥_")}) {
    if (StartsWith(trimmed, prefix)) {
      const std::string_view rest = trimmed.substr(prefix.size());
      uint64_t label = 0;
      auto [ptr, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), label);
      if (ec == std::errc() && ptr == rest.data() + rest.size()) {
        return Value::Null(label);
      }
    }
  }
  if (LooksLikeInt(trimmed)) {
    int64_t v = 0;
    std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), v);
    return Value::Int(v);
  }
  if (LooksLikeDouble(trimmed)) {
    double v = 0;
    std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), v);
    return Value::Double(v);
  }
  return Value::String(std::string(trimmed));
}

std::string ReferenceRoundTripDouble(double d) {
  if (d == 0 && std::signbit(d)) return "-0.0";
  char buffer[32];
  int precision = 6;
  int size = std::snprintf(buffer, sizeof(buffer), "%.*g", precision, d);
  while (std::isfinite(d) && precision < 17) {
    double parsed = 0;
    std::from_chars(buffer, buffer + size, parsed);
    if (parsed == d) break;
    size = std::snprintf(buffer, sizeof(buffer), "%.*g", ++precision, d);
  }
  return std::string(buffer, static_cast<size_t>(size));
}

Result<CsvTable> ReferenceParseCsv(std::string_view text) {
  CsvTable table;
  size_t pos = 0;
  if (text.empty()) return Status::ParseError("empty CSV document");
  table.header = ReferenceParseRecord(text, &pos);
  size_t line = 1;
  while (pos < text.size()) {
    ++line;
    auto row = ReferenceParseRecord(text, &pos);
    if (row.size() == 1 && row[0].empty()) continue;  // Trailing blank line.
    if (row.size() != table.header.size()) {
      return Status::ParseError("CSV row " + std::to_string(line) + " has " +
                                std::to_string(row.size()) + " fields, header has " +
                                std::to_string(table.header.size()));
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

Result<MicrodataTable> ReferenceLoadCsv(const std::string& name,
                                        std::string_view text) {
  VADASA_ASSIGN_OR_RETURN(const CsvTable csv, ReferenceParseCsv(text));
  std::vector<core::Attribute> attrs;
  for (const std::string& col : csv.header) {
    core::Attribute a;
    a.name = col;
    a.category = col.empty() ? core::AttributeCategory::kWeight
                             : core::AttributeCategory::kQuasiIdentifier;
    attrs.push_back(std::move(a));
  }
  MicrodataTable table(name, std::move(attrs));
  for (const auto& row : csv.rows) {
    std::vector<Value> values;
    values.reserve(row.size());
    for (const std::string& cell : row) values.push_back(ReferenceCellToValue(cell));
    VADASA_RETURN_NOT_OK(table.AddRow(std::move(values)));
  }
  VADASA_RETURN_NOT_OK(table.Validate());
  return table;
}

uint64_t ReferenceFingerprint(const MicrodataTable& table) {
  uint64_t hash = kFnvOffset;
  for (const core::Attribute& attribute : table.attributes()) {
    ReferenceFnvMixString(&hash, attribute.name);
    ReferenceFnvMixString(&hash, core::AttributeCategoryToString(attribute.category));
  }
  std::string text;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) text += ',';
    ReferenceAppendField(&text, table.attributes()[c].name);
  }
  text += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) text += ',';
      const Value& v = table.cell(r, c);
      ReferenceAppendField(&text, v.is_null() ? "NULL_" + std::to_string(v.null_label())
                                              : v.ToString());
    }
    text += '\n';
  }
  ReferenceFnvMixString(&hash, text);
  return hash;
}

Status CheckLoadMatchesReference(std::string_view text) {
  const Result<CsvTable> parsed = ParseCsv(text);
  const Result<CsvTable> parsed_reference = ReferenceParseCsv(text);
  if (!parsed.ok() || !parsed_reference.ok()) {
    VADASA_RETURN_NOT_OK(
        SameStatus("ParseCsv", parsed.status(), parsed_reference.status()));
  } else if (parsed->header != parsed_reference->header ||
             parsed->rows != parsed_reference->rows) {
    return Status::FailedPrecondition(
        "ParseCsv and the reference parser read different fields");
  }

  const Result<MicrodataTable> loaded = MicrodataTable::FromCsvText("doc", text);
  const Result<MicrodataTable> reference = ReferenceLoadCsv("doc", text);
  if (!loaded.ok() || !reference.ok()) {
    return SameStatus("the loader", loaded.status(), reference.status());
  }
  if (loaded->num_columns() != reference->num_columns() ||
      loaded->num_rows() != reference->num_rows()) {
    return Status::FailedPrecondition(
        "the loader read " + std::to_string(loaded->num_rows()) + "x" +
        std::to_string(loaded->num_columns()) + " cells, the reference " +
        std::to_string(reference->num_rows()) + "x" +
        std::to_string(reference->num_columns()));
  }
  for (size_t c = 0; c < loaded->num_columns(); ++c) {
    const core::Attribute& got = loaded->attributes()[c];
    const core::Attribute& want = reference->attributes()[c];
    if (got.name != want.name || got.category != want.category) {
      return Status::FailedPrecondition("the loader's column " + std::to_string(c) +
                                        " is \"" + got.name + "\", the reference's \"" +
                                        want.name + "\"");
    }
  }
  // Per column, the payload of each string read so far: equal strings in a
  // column must share one.
  std::vector<std::unordered_map<std::string_view, const std::string*>> payloads(
      loaded->num_columns());
  for (size_t r = 0; r < loaded->num_rows(); ++r) {
    for (size_t c = 0; c < loaded->num_columns(); ++c) {
      const Value& got = loaded->cell(r, c);
      const Value& want = reference->cell(r, c);
      if (got.kind() != want.kind() || !got.Equals(want)) {
        return Status::FailedPrecondition("the loader read " + CellTag(r, c) + " as \"" +
                                          got.ToString() + "\", the reference as \"" +
                                          want.ToString() + "\"");
      }
      if (!got.is_string()) continue;
      const std::string* payload = &got.as_string();
      const auto [first, inserted] = payloads[c].emplace(*payload, payload);
      if (!inserted && first->second != payload) {
        return Status::FailedPrecondition("the loader gave " + CellTag(r, c) + " (\"" +
                                          *payload + "\") a payload of its own, not the "
                                          "one an earlier row of its column holds");
      }
    }
  }
  return Status::OK();
}

Status CheckCsvWriteStable(std::string_view text) {
  const Result<MicrodataTable> loaded = MicrodataTable::FromCsvText("doc", text);
  if (!loaded.ok()) return Status::OK();
  const std::string once = loaded->CsvText();
  const Result<MicrodataTable> reloaded = MicrodataTable::FromCsvText("doc", once);
  if (!reloaded.ok()) {
    return Status::FailedPrecondition("the text writer's output does not load: " +
                                      reloaded.status().ToString());
  }
  const std::string twice = reloaded->CsvText();
  if (twice != once) {
    size_t at = 0;
    while (at < once.size() && at < twice.size() && once[at] == twice[at]) ++at;
    return Status::FailedPrecondition(
        "writing the reloaded text changes it at byte " + std::to_string(at) +
        " of " + std::to_string(once.size()));
  }
  return Status::OK();
}

namespace {

/// Normalized value distribution of a column, keyed by spelling; nulls are
/// skipped.
std::map<std::string, double> ReferenceColumnDistribution(const MicrodataTable& t,
                                                          size_t column) {
  std::map<std::string, double> dist;
  double total = 0.0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const Value& v = t.cell(r, column);
    if (v.is_null()) continue;
    dist[v.ToString()] += 1.0;
    total += 1.0;
  }
  if (total > 0.0) {
    for (auto& [k, mass] : dist) {
      (void)k;
      mass /= total;
    }
  }
  return dist;
}

double ReferenceTotalVariation(const std::map<std::string, double>& a,
                               const std::map<std::string, double>& b) {
  double tv = 0.0;
  for (const auto& [k, pa] : a) {
    auto it = b.find(k);
    tv += std::fabs(pa - (it == b.end() ? 0.0 : it->second));
  }
  for (const auto& [k, pb] : b) {
    if (!a.count(k)) tv += pb;
  }
  return tv / 2.0;
}

}  // namespace

Result<core::UtilityReport> ReferenceMeasureUtility(const MicrodataTable& original,
                                                    const MicrodataTable& anonymized) {
  if (original.num_rows() != anonymized.num_rows() ||
      original.num_columns() != anonymized.num_columns()) {
    return Status::InvalidArgument(
        "utility comparison requires identically shaped tables");
  }
  core::UtilityReport report;
  const auto qis = anonymized.QuasiIdentifierColumns();

  for (const size_t c : qis) {
    core::MarginalDistance m;
    m.attribute = anonymized.attributes()[c].name;
    m.total_variation = ReferenceTotalVariation(
        ReferenceColumnDistribution(original, c), ReferenceColumnDistribution(anonymized, c));
    size_t nulls = 0;
    for (size_t r = 0; r < anonymized.num_rows(); ++r) {
      if (anonymized.cell(r, c).is_null()) ++nulls;
    }
    m.suppressed_fraction = anonymized.num_rows() == 0
                                ? 0.0
                                : static_cast<double>(nulls) /
                                      static_cast<double>(anonymized.num_rows());
    report.max_total_variation = std::max(report.max_total_variation, m.total_variation);
    report.marginals.push_back(std::move(m));
  }

  // Weighted mean of the first numeric non-identifying attribute.
  for (const size_t c :
       anonymized.ColumnsWithCategory(core::AttributeCategory::kNonIdentifying)) {
    bool numeric = anonymized.num_rows() > 0 && anonymized.cell(0, c).is_numeric();
    if (!numeric) continue;
    double num_orig = 0.0;
    double num_anon = 0.0;
    double wsum = 0.0;
    for (size_t r = 0; r < anonymized.num_rows(); ++r) {
      const double w = original.RowWeight(r);
      if (original.cell(r, c).is_numeric()) num_orig += w * original.cell(r, c).as_double();
      if (anonymized.cell(r, c).is_numeric()) {
        num_anon += w * anonymized.cell(r, c).as_double();
      }
      wsum += w;
    }
    if (wsum > 0.0 && num_orig != 0.0) {
      report.weighted_mean_ratio = num_anon / num_orig;
    }
    break;
  }

  // 2-way contingency disturbance across QI pairs, each cell keyed by its
  // pair of spellings.
  using PairKey = std::pair<std::string, std::string>;
  size_t cells = 0;
  size_t disturbed = 0;
  for (size_t i = 0; i + 1 < qis.size(); ++i) {
    for (size_t j = i + 1; j < qis.size(); ++j) {
      std::map<PairKey, double> before;
      std::map<PairKey, double> after;
      double n_before = 0.0;
      double n_after = 0.0;
      for (size_t r = 0; r < anonymized.num_rows(); ++r) {
        const Value& a0 = original.cell(r, qis[i]);
        const Value& a1 = original.cell(r, qis[j]);
        before[{a0.ToString(), a1.ToString()}] += 1.0;
        n_before += 1.0;
        const Value& b0 = anonymized.cell(r, qis[i]);
        const Value& b1 = anonymized.cell(r, qis[j]);
        if (b0.is_null() || b1.is_null()) continue;
        after[{b0.ToString(), b1.ToString()}] += 1.0;
        n_after += 1.0;
      }
      for (const auto& [key, count] : before) {
        const double p_before = n_before > 0 ? count / n_before : 0.0;
        auto it = after.find(key);
        const double p_after =
            n_after > 0 && it != after.end() ? it->second / n_after : 0.0;
        ++cells;
        if (std::fabs(p_before - p_after) > 0.01) ++disturbed;
      }
    }
  }
  if (cells > 0) {
    report.disturbed_pairs_fraction =
        static_cast<double>(disturbed) / static_cast<double>(cells);
  }
  return report;
}

Result<std::vector<double>> NaiveStatsMeasure::ComputeRisks(
    const MicrodataTable& table, const core::RiskContext& context,
    core::RiskEvalCache* cache) const {
  (void)cache;  // The cache's stats are exactly what this decorator replaces.
  const auto* grouping = dynamic_cast<const core::GroupingRiskMeasure*>(inner_);
  if (grouping == nullptr) return inner_->ComputeRisks(table, context);
  const std::vector<size_t> qis = context.ResolveQiColumns(table);
  VADASA_RETURN_NOT_OK(core::ValidateQiWidth(qis, context.semantics));
  return grouping->RisksFromStats(NaiveGroupStats(table, qis, context.semantics),
                                  context);
}

}  // namespace vadasa::testing
