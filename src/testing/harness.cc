#include "testing/harness.h"

#include <chrono>
#include <cstdlib>
#include <string>

#include "testing/shrink.h"

namespace vadasa::testing {

namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// What kind of failure a verdict is: its status code and message with every
/// run of digits masked, so row numbers and counts may change as a case
/// shrinks while the failure stays the same.
std::string FailureMode(const Status& verdict) {
  std::string mode;
  for (const char c : verdict.ToString()) {
    if (c < '0' || c > '9') {
      mode += c;
    } else if (mode.empty() || mode.back() != '#') {
      mode += '#';
    }
  }
  return mode;
}

}  // namespace

HarnessOptions HarnessOptionsFromEnv() {
  HarnessOptions options;
  options.seed = EnvU64("VADASA_PROP_SEED", options.seed);
  options.cases_per_property =
      static_cast<size_t>(EnvU64("VADASA_PROP_CASES", options.cases_per_property));
  options.budget_ms = EnvU64("VADASA_PROP_BUDGET_MS", options.budget_ms);
  const char* dir = std::getenv("VADASA_PROP_REPRO_DIR");
  if (dir != nullptr) options.repro_dir = dir;
  return options;
}

ReproCase ShrinkCase(const Property& property, const ReproCase& failing) {
  // A candidate is kept only when it fails the way the original does; a
  // smaller input failing for another reason would be a different bug.
  const std::string mode = FailureMode(property.evaluate(failing));
  const auto fails_alike = [&](const ReproCase& probe) {
    const Status verdict = property.evaluate(probe);
    return !verdict.ok() && FailureMode(verdict) == mode;
  };
  ReproCase shrunk = failing;
  if (property.shrink_program) {
    shrunk.program = ShrinkProgram(failing.program, [&](const std::string& candidate) {
      ReproCase probe = failing;
      probe.program = candidate;
      return fails_alike(probe);
    });
  } else {
    shrunk.table =
        ShrinkTable(failing.table, [&](const core::MicrodataTable& candidate) {
          ReproCase probe = failing;
          probe.table = candidate;
          return fails_alike(probe);
        });
  }
  Status verdict = property.evaluate(shrunk);
  // The shrunk case must still fail; fall back to the original otherwise
  // (a non-reproducing "repro" would be worse than a big one).
  if (verdict.ok()) return failing;
  shrunk.message = verdict.ToString();
  return shrunk;
}

HarnessReport RunProperty(const Property& property, const HarnessOptions& options) {
  HarnessReport report;
  Rng rng(options.seed ^ std::hash<std::string>{}(property.name));
  const uint64_t deadline =
      options.budget_ms == 0 ? 0 : NowMs() + options.budget_ms;
  for (uint64_t i = 0; i < options.cases_per_property; ++i) {
    if (deadline != 0 && NowMs() >= deadline) break;
    ReproCase repro = property.generate(&rng, i);
    ++report.cases_run;
    Status verdict = property.evaluate(repro);
    if (verdict.ok()) continue;
    ++report.failures;
    repro.message = verdict.ToString();
    ReproCase shrunk = ShrinkCase(property, repro);
    if (!options.repro_dir.empty()) {
      const std::string path = options.repro_dir + "/" + property.name + "-case" +
                               std::to_string(i) + ".repro";
      if (SaveRepro(shrunk, path).ok()) report.saved_paths.push_back(path);
    }
    report.repros.push_back(std::move(shrunk));
  }
  return report;
}

Status ReplayReproFile(const std::string& path) {
  VADASA_ASSIGN_OR_RETURN(const ReproCase repro, LoadRepro(path));
  return EvaluateRepro(repro);
}

}  // namespace vadasa::testing
