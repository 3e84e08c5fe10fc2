#ifndef VADASA_TESTING_BRIDGE_REFERENCE_H_
#define VADASA_TESTING_BRIDGE_REFERENCE_H_

#include "common/result.h"
#include "core/business.h"
#include "core/microdata.h"
#include "core/vadalog_bridge.h"
#include "vadalog/engine.h"

namespace vadasa::testing {

/// Linear-scan reference for core::VadalogBridge's declarative cycles. It
/// runs the bridge's own encoding, program text, #rel and #similar, but
/// evaluates #risk, #anonymize and the decode literally over the facts:
/// every external call re-derives each tuple's latest version (the most
/// nulls, the first seen on ties) and its weight from the whole database and
/// compares them pair by pair under the =⊥ match of Section 4.3 (or strict
/// equality), and the decode validates its picks pairwise. The k-anonymity
/// and re-identification formulas are written out here rather than taken
/// from core::RiskMeasure, so the reference shares neither grouping nor
/// formulas with the bridge. Θ(n) per external call and Θ(n²) per decode
/// sweep: keep inputs small. A non-null `graph` runs the Algorithm-9
/// enhanced program.
Result<core::MicrodataTable> ReferenceDeclarativeCycle(
    const core::MicrodataTable& table, const core::BridgeOptions& options,
    const core::OwnershipGraph* graph, vadalog::RunStats* stats);

}  // namespace vadasa::testing

#endif  // VADASA_TESTING_BRIDGE_REFERENCE_H_
