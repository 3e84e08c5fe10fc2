#ifndef VADASA_TESTING_GENERATORS_H_
#define VADASA_TESTING_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/business.h"
#include "core/hierarchy.h"
#include "core/microdata.h"

namespace vadasa::testing {

/// Knobs of the random-microdata generator. The defaults produce small,
/// collision-heavy tables (tiny value domains, skewed draws, duplicates,
/// pre-suppressed cells) — the regime where grouping, maybe-match and the
/// anonymization cycle actually have work to do.
struct TableGenOptions {
  size_t min_rows = 1;
  size_t max_rows = 48;
  int min_qi = 1;
  int max_qi = 5;
  /// Distinct values per quasi-identifier column (domain size is drawn
  /// uniformly in [2, max_domain]).
  int max_domain = 6;
  /// Probability that a generated QI cell starts out as a labelled null
  /// (models partially pre-anonymized inputs).
  double null_probability = 0.04;
  /// Probability that a row copies the QI projection of an earlier row.
  double duplicate_probability = 0.25;
  /// Probability that a QI column is integer-valued instead of string-valued.
  double int_column_probability = 0.2;
  /// Probability that a freshly drawn QI cell is a numeric edge instead:
  /// ±2^53 (as an int or a double), ±(2^53 + 1), INT64_MAX, INT64_MIN, NaN,
  /// ±inf or ±0.0, the numbers where exact and double comparison part.
  double numeric_edge_probability = 0.0;
  bool with_identifier = true;
  bool with_weight = true;
  bool with_non_identifying = true;
  /// Zipf exponent for value draws (0 = uniform; higher = more uniques).
  double skew = 1.1;
};

/// A random microdata table drawn from `options`. Deterministic in `*rng`.
core::MicrodataTable RandomTable(Rng* rng, const TableGenOptions& options = {});

/// A random generalization hierarchy covering every string-valued
/// quasi-identifier column of `table`: per column, the distinct values are
/// folded into interval-style roll-ups with a random fan-in.
core::Hierarchy RandomHierarchy(Rng* rng, const core::MicrodataTable& table);

/// A random ownership graph over the identifier values of `table`.
/// `edge_probability` is the chance that a given ordered company pair gets an
/// ownership edge; shares are drawn in (0.2, 1.0], so some edges confer
/// control (> 0.5) and some do not.
core::OwnershipGraph RandomOwnershipGraph(Rng* rng, const core::MicrodataTable& table,
                                          double edge_probability = 0.06);

/// Grammar knobs of the random Vadalog program generator.
struct ProgramGenOptions {
  /// Stay in the fragment the naive reference evaluator understands
  /// (positive Datalog with variable comparisons) — required for
  /// differential testing; turn off for fuzzing.
  bool positive_fragment_only = false;
  /// Allow existential head variables (warded by construction: existential
  /// rules are stratified, never recursive through the existential).
  bool allow_existentials = true;
  /// Allow a monotonic msum aggregation rule.
  bool allow_aggregates = true;
  /// Allow stratified negation in rule bodies.
  bool allow_negation = true;
  size_t max_facts = 14;
  size_t max_rules = 6;
};

/// A random Vadalog program from a small warded-by-construction grammar:
/// EDB facts, positive join rules with optional comparisons, optional linear
/// recursion, and (outside the positive fragment) existential heads,
/// stratified negation, monotonic aggregation and an EGD over a two-column
/// predicate. Deterministic in `*rng`.
std::string RandomVadalogProgram(Rng* rng, const ProgramGenOptions& options = {});

/// A whitespace-joined soup of Vadalog-ish tokens — parser stress input.
std::string RandomTokenSoup(Rng* rng, size_t max_tokens = 40);

/// Random printable-ASCII bytes — lexer stress input.
std::string RandomBytes(Rng* rng, size_t max_len = 200);

/// A random CSV document in the corners of the reader's rules: quoted fields
/// with commas, doubled quotes and embedded line breaks, padded cells, \n or
/// \r\n line ends, blank and missing final lines, ragged rows, an
/// unterminated quote, NULL_k and ⊥_k cells, number-like strings and doubles
/// of up to 17 significant digits, and spellings at each branch of the cell
/// reader ("+5", ".5", "-Infinity", "NULL_", "99999999999999999999", ...),
/// bare or padded by each "C"-locale space. Each column draws mostly from a
/// few values, so cells repeat the way quasi-identifiers do.
std::string RandomCsvDocument(Rng* rng);

/// A random table whose cells the CSV writer must spell faithfully: strings
/// with commas, quotes and line breaks (each one CellToValue reads back as
/// itself), ints, labelled nulls, and non-integral doubles of up to 17
/// significant digits — in about half the tables only doubles that 6 digits
/// round-trip.
core::MicrodataTable RandomCsvTable(Rng* rng);

/// A random table whose quasi-identifier cells differ in spelling where they
/// compare equal, and agree where they differ: Int 1234567 beside Double
/// 1234567.0, 0 beside -0.0, doubles equal to six digits, strings spelled
/// like numbers or like labelled nulls, strings holding byte 0x1F, the
/// numeric edges of TableGenOptions::numeric_edge_probability, and labelled
/// nulls in the original. Tables have one to four QIs; about one in
/// ten has a QI with thousands of distinct values; the non-identifying column
/// is numeric, a string or absent. Equal cells share a payload only
/// sometimes. Deterministic in `*rng`.
core::MicrodataTable RandomSpellingTable(Rng* rng);

/// One QI cell drawn from RandomSpellingTable's value families.
Value RandomSpellingCell(Rng* rng);

/// A random JSON document near the protocol's shapes: nested objects and
/// arrays, request-like members ("op", "k", "row", "seed", "id"), numbers at
/// and past the exact and int64 ranges (±2^53, ±2^63, 1e19, 1e400, -0,
/// fractions), strings with every escape, surrogate pairs and raw UTF-8, and
/// random whitespace between tokens. Deterministic in `*rng`.
std::string RandomJsonDocument(Rng* rng);

}  // namespace vadasa::testing

#endif  // VADASA_TESTING_GENERATORS_H_
