#ifndef VADASA_TESTING_DIFFERENTIAL_H_
#define VADASA_TESTING_DIFFERENTIAL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/business.h"
#include "core/cycle.h"
#include "core/microdata.h"
#include "core/vadalog_bridge.h"

namespace vadasa::testing {

/// Differential drivers: the same input through two implementations that the
/// paper claims compute the same thing, with the agreement contract asserted.

/// Outcome of one imperative-vs-declarative run, for diagnostics.
struct DifferentialReport {
  core::MicrodataTable imperative;
  /// The declarative release as the bridge returned it, and its chase.
  core::MicrodataTable declarative;
  vadalog::RunStats declarative_stats;
  core::CycleStats imperative_stats;
  size_t initially_risky = 0;
};

/// Runs `input` through the imperative AnonymizationCycle and through the
/// bridge's RunDeclarativeCycle (same measure, k, T, =⊥ semantics) and checks
/// the agreement contract of the paper's Algorithm 2:
///   1. both converge;
///   2. tuples safe in the input are released bit-identical by both paths
///      (quasi-identifier cells; the declarative release drops identifiers);
///   3. every released tuple is safe (risk <= T) or exhausted, in both
///      releases;
///   4. only initially risky tuples carry labelled nulls, in both releases.
/// `graph` switches both paths to the Algorithm-9 enhanced cycle (cluster
/// risk transform / RunDeclarativeEnhancedCycle).
Result<DifferentialReport> CheckCycleDifferential(const core::MicrodataTable& input,
                                                  const core::BridgeOptions& options,
                                                  const core::OwnershipGraph* graph);

/// Runs the imperative cycle (and risk evaluation) sequentially and with an
/// `n`-thread global pool on copies of `input` and checks bit-identity:
/// identical released cells (including null labels), identical risk vectors
/// (double ==) and identical cycle counters. Restores the previous global
/// pool size on exit.
Status CheckParallelDeterminism(const core::MicrodataTable& input,
                                const core::CycleOptions& options,
                                const std::string& measure_name, size_t threads);

}  // namespace vadasa::testing

#endif  // VADASA_TESTING_DIFFERENTIAL_H_
