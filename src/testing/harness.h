#ifndef VADASA_TESTING_HARNESS_H_
#define VADASA_TESTING_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "testing/properties.h"
#include "testing/repro.h"

namespace vadasa::testing {

/// Run-time knobs of the property harness, normally taken from the
/// environment so CI lanes can widen the search without recompiling:
///   VADASA_PROP_SEED       master seed (default fixed — runs are reproducible)
///   VADASA_PROP_CASES      generated cases per property
///   VADASA_PROP_BUDGET_MS  soft wall-clock budget per property (0 = none)
///   VADASA_PROP_REPRO_DIR  where shrunk failure repros are written
///   VADASA_PROP_REPRO      a repro file to replay instead of generating
struct HarnessOptions {
  uint64_t seed = 20210406;  // EDBT 2021 — fixed so every run regenerates
                             // the same cases unless VADASA_PROP_SEED is set.
  size_t cases_per_property = 20;
  uint64_t budget_ms = 0;
  std::string repro_dir;
};

/// Reads the VADASA_PROP_* environment, falling back to the defaults above.
HarnessOptions HarnessOptionsFromEnv();

/// Outcome of running one property over many generated cases.
struct HarnessReport {
  size_t cases_run = 0;
  size_t failures = 0;
  /// Shrunk repro for each failure, in discovery order.
  std::vector<ReproCase> repros;
  /// Paths the repros were saved to (when options.repro_dir is set).
  std::vector<std::string> saved_paths;
};

/// Generates and evaluates up to `options.cases_per_property` cases of
/// `property` (stopping early when the time budget runs out). Every failure
/// is shrunk with the property's own evaluator as the predicate and, when
/// `options.repro_dir` is set, saved as a self-contained repro file.
HarnessReport RunProperty(const Property& property, const HarnessOptions& options);

/// Greedily shrinks one failing case (table rows/columns or program lines,
/// per the property) until the failure no longer reproduces on any smaller
/// input. A smaller input counts only when it fails with the original status
/// code and message, digits masked. The returned case still fails, with its
/// message refreshed.
ReproCase ShrinkCase(const Property& property, const ReproCase& failing);

/// Loads a repro file and re-evaluates it; the Status is the property's
/// verdict (OK = the bug no longer reproduces).
Status ReplayReproFile(const std::string& path);

}  // namespace vadasa::testing

#endif  // VADASA_TESTING_HARNESS_H_
