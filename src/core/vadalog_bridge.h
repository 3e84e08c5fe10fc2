#ifndef VADASA_CORE_VADALOG_BRIDGE_H_
#define VADASA_CORE_VADALOG_BRIDGE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/business.h"
#include "core/microdata.h"
#include "vadalog/engine.h"

namespace vadasa::core {

/// Glue between the native Vada-SA core and the Vadalog engine: the paper's
/// architecture runs the whole statistical disclosure control process as a
/// reasoning task whose extensional component is the microdata + metadata
/// dictionary and whose external atoms (#risk, #anonymize, #rel) are plug-in
/// implementations — which is exactly what this module wires up.
///
/// The native modules (risk.h, cycle.h, ...) remain the fast path; the bridge
/// demonstrates declarative end-to-end runs and powers tests/examples that
/// check both paths agree.
///
/// Knobs of the declarative pipeline.
struct BridgeOptions {
  /// Risk plugged into #risk: "k-anonymity" or "reidentification" (or an
  /// alias MakeRiskMeasure accepts); the cycles refuse any other measure.
  std::string risk_measure = "k-anonymity";
  int k = 2;
  double threshold = 0.5;
  /// Null comparison used by #risk when grouping (Fig. 7c switch).
  bool maybe_match = true;
};

/// InvalidArgument naming `risk_measure` unless #risk can plug it in.
Status ValidateBridgeMeasure(const std::string& risk_measure);

class VadalogBridge {
 public:
  explicit VadalogBridge(BridgeOptions options = {});

  /// Encodes table rows as facts:
  ///   microdb("M").  att("M","Area").  cat("M","Area","Quasi-identifier").
  ///   tuple("M", I, VSet)   — VSet a pairset of QI (name,value) pairs,
  ///   weight("M", I, W).
  /// The direct identifiers are dropped (as in Algorithm 2's Rule 1);
  /// non-identifying attributes are omitted from VSet.
  void EncodeMicrodata(const MicrodataTable& table, vadalog::Database* db) const;

  /// Registers #risk, #anonymize and #rel on `engine`. #rel answers from
  /// `graph` (may be nullptr: only reflexive pairs). #risk and #anonymize
  /// query a GroupIndex over each tuple's latest version (at most
  /// kMaxMaybeMatchQis quasi-identifiers under =⊥, see ValidateQiWidth).
  void RegisterExternals(vadalog::Engine* engine, const OwnershipGraph* graph) const;

  /// The Vadalog source of the anonymization cycle (Algorithm 2, Rules 2-3).
  std::string CycleProgram() const;

  /// The Vadalog source of the *enhanced* cycle (Algorithm 9): per-tuple
  /// base risk via #risk, cluster risk 1 − mprod(1−R, ⟨I2⟩) over #rel-linked
  /// entities, anonymization of threshold violations. The monotone mprod
  /// keeps, per linked entity, its least-risky (most anonymized) version —
  /// the contributor semantics of §4.3 doing real work.
  std::string EnhancedCycleProgram() const;

  /// Like RunDeclarativeCycle but with the Algorithm-9 program, propagating
  /// risk along the control clusters of `graph`.
  Result<MicrodataTable> RunDeclarativeEnhancedCycle(const MicrodataTable& table,
                                                     const OwnershipGraph& graph,
                                                     vadalog::RunStats* stats) const;

  /// The Vadalog source of Algorithm 1 (attribute categorization with a
  /// recursive experience base and the one-category EGD). Uses the #similar
  /// external registered by RegisterExternals.
  static std::string CategorizationProgram();

  /// Runs the declarative cycle end-to-end on a copy of `table` and decodes
  /// the anonymized result: per tuple, the tupleA version carrying the fewest
  /// labelled nulls (least information removed that passed validation).
  Result<MicrodataTable> RunDeclarativeCycle(const MicrodataTable& table,
                                             const OwnershipGraph* graph,
                                             vadalog::RunStats* stats) const;

 private:
  BridgeOptions options_;
};

}  // namespace vadasa::core

#endif  // VADASA_CORE_VADALOG_BRIDGE_H_
