#include "core/vadalog_bridge.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "common/similarity.h"
#include "core/categorize.h"
#include "core/group_index.h"
#include "core/risk.h"
#include "obs/trace.h"

namespace vadasa::core {

namespace {

using vadalog::ActionContext;
using vadalog::Database;

/// Number of labelled-null values inside a VSet pairset.
size_t NullsIn(const Value& vset) {
  if (!vset.is_collection()) return 0;
  size_t count = 0;
  for (const Value& pair : vset.items()) {
    if (pair.is_list() && pair.items().size() == 2 && pair.items()[1].is_null()) {
      ++count;
    }
  }
  return count;
}

/// Value for key `k` in a VSet; nullptr if absent.
const Value* VsetGet(const Value& vset, const Value& k) {
  if (!vset.is_collection()) return nullptr;
  for (const Value& pair : vset.items()) {
    if (pair.is_list() && pair.items().size() == 2 && pair.items()[0].Equals(k)) {
      return &pair.items()[1];
    }
  }
  return nullptr;
}

/// The measure #risk plugs in: k-anonymity or re-identification, the two
/// measures BridgeOptions parameterizes.
Result<std::shared_ptr<const GroupingRiskMeasure>> BridgeMeasure(
    const std::string& name) {
  auto made = MakeRiskMeasure(name);
  const std::string resolved = made.ok() ? (*made)->name() : "";
  if (resolved != KAnonymityRisk().name() && resolved != ReidentificationRisk().name()) {
    return Status::InvalidArgument(
        "the declarative cycle supports the k-anonymity and reidentification "
        "measures, not \"" + name + "\"");
  }
  return std::shared_ptr<const GroupingRiskMeasure>(
      static_cast<GroupingRiskMeasure*>(made->release()));
}

/// The measure's risk for one group of `mass`: RisksFromStats over one row.
double GroupRisk(const GroupingRiskMeasure& measure, int k, const PatternMass& mass) {
  RiskContext ctx;
  ctx.k = k;
  return measure.RisksFromStats(GroupStats{{mass.count}, {mass.weight}}, ctx)[0];
}

/// One microdata DB's tuples as a table the group index answers from: a row
/// per tuple id with the QI cells of one version (columns in the key order of
/// the first version seen) and the tuple's weight fact (1.0 when absent).
/// Sync keeps each row at its tuple's latest version, the one with the most
/// nulls (the first seen on ties); after the chase the decode takes over the
/// run's view and moves rows with Set. An engine calls its externals from one
/// thread.
struct TupleView {
  TupleView(Value m, NullSemantics semantics) : m(std::move(m)), semantics(semantics) {}

  Value m;
  NullSemantics semantics;
  const vadalog::Relation* tuples = nullptr;  // The relation last synced.
  uint64_t substitutions = 0;                 // Its database's count then.
  size_t consumed = 0;
  std::map<int64_t, double> weights;
  std::vector<Value> names;
  MicrodataTable table;
  std::vector<Value> versions;
  std::map<int64_t, size_t> row_of;
  std::unique_ptr<GroupIndex> index;  // Built on the first Query.

  /// Advances over the tuple facts appended since the last call. A new tuple
  /// relation (another database), one that shrank or one a null substitution
  /// rewrote restarts the view.
  Status Sync(const Database& db) {
    const vadalog::Relation* now = db.relation("tuple");
    const size_t size = now == nullptr ? 0 : now->size();
    if (now != tuples || db.substitutions() != substitutions || size < consumed) {
      *this = TupleView(m, semantics);
      tuples = now;
      substitutions = db.substitutions();
      for (const auto& row : db.Rows("weight")) {
        if (row.size() == 3 && row[0].Equals(m) && row[1].is_int()) {
          weights[row[1].as_int()] = row[2].as_double();
        }
      }
    }
    std::vector<uint32_t> changed;
    for (; consumed < size; ++consumed) {
      const std::vector<Value>& row = now->row(consumed);
      if (row.size() != 3 || !row[0].Equals(m) || !row[1].is_int() ||
          !row[2].is_collection()) {
        continue;
      }
      auto it = row_of.find(row[1].as_int());
      if (it == row_of.end()) {
        VADASA_RETURN_NOT_OK(AddRow(row[1].as_int(), row[2]));
      } else if (NullsIn(row[2]) > NullsIn(versions[it->second])) {
        Set(it->second, row[2]);
        changed.push_back(static_cast<uint32_t>(it->second));
      }
    }
    if (index != nullptr && !changed.empty()) index->UpdateRows(table, changed);
    return Status::OK();
  }

  /// The QI cells of `vset` in column order; a missing key reads as a null.
  std::vector<Value> Cells(const Value& vset) const {
    std::vector<Value> cells;
    for (const Value& name : names) {
      const Value* v = VsetGet(vset, name);
      cells.push_back(v != nullptr ? *v : Value::Null(0));
    }
    return cells;
  }

  /// Moves `row` to version `vset`; the caller re-groups it.
  void Set(size_t row, const Value& vset) {
    versions[row] = vset;
    std::vector<Value> cells = Cells(vset);
    for (size_t c = 0; c < cells.size(); ++c) table.set_cell(row, c, std::move(cells[c]));
  }

  /// Count and weight of the rows compatible with `cells`.
  PatternMass Query(const std::vector<Value>& cells) {
    if (index == nullptr) {
      std::vector<size_t> columns(names.size());
      std::iota(columns.begin(), columns.end(), size_t{0});
      index = std::make_unique<GroupIndex>(table, std::move(columns), semantics);
    }
    return index->Query(cells);
  }

  Status AddRow(int64_t id, const Value& vset) {
    if (row_of.empty()) {  // The first version fixes the columns.
      std::vector<Attribute> attributes;
      for (const Value& pair : vset.items()) {
        if (!pair.is_list() || pair.items().size() != 2) continue;
        names.push_back(pair.items()[0]);
        attributes.push_back(
            {pair.items()[0].ToString(), "", AttributeCategory::kQuasiIdentifier});
      }
      VADASA_RETURN_NOT_OK(ValidateQiWidth(std::vector<size_t>(names.size()), semantics));
      attributes.push_back({"weight", "", AttributeCategory::kWeight});
      table = MicrodataTable(m.ToString(), std::move(attributes));
    }
    std::vector<Value> cells = Cells(vset);
    auto weight = weights.find(id);
    cells.push_back(Value::Double(weight == weights.end() ? 1.0 : weight->second));
    VADASA_RETURN_NOT_OK(table.AddRow(std::move(cells)));
    row_of.emplace(id, versions.size());
    versions.push_back(vset);
    index.reset();  // Regrouped from scratch by the next Query.
    return Status::OK();
  }
};

/// The views of one run's externals, one per microdata DB.
using TupleViews = std::unordered_map<Value, TupleView, ValueHash>;

/// The view of `m`, advanced to `db`'s current tuple facts.
Result<TupleView*> SyncedView(TupleViews* views, const Database& db, const Value& m,
                              NullSemantics semantics) {
  TupleView& view = views->try_emplace(m, m, semantics).first->second;
  VADASA_RETURN_NOT_OK(view.Sync(db));
  return &view;
}

/// Decodes the engine's tupleA facts back into a released table, reusing the
/// run's view of the table's tuples.
Result<MicrodataTable> DecodeRelease(const Database& db, const MicrodataTable& table,
                                     const GroupingRiskMeasure& measure,
                                     const BridgeOptions& options, TupleViews* views) {
  // Candidate versions per tuple: the accepted (tupleA) versions ordered by
  // null count ascending, then the most anonymized version seen at all as a
  // safe fallback. Starting from the least-suppressed candidates, the chosen
  // combination is validated as a whole and risky rows are pushed to their
  // next (more suppressed) candidate: per-tuple "fewest nulls" alone is
  // unsound, because two originals may have validated only against each
  // other's suppressed versions. The view's rows hold the picked versions.
  const Value m = Value::String(table.name());
  const NullSemantics semantics =
      options.maybe_match ? NullSemantics::kMaybeMatch : NullSemantics::kStandard;
  VADASA_ASSIGN_OR_RETURN(TupleView* const view, SyncedView(views, db, m, semantics));
  std::map<int64_t, std::vector<Value>> candidates;
  for (const auto& row : db.Rows("tupleA")) {
    if (row.size() != 3 || !row[0].Equals(m) || !row[1].is_int()) continue;
    if (view->row_of.count(row[1].as_int()) == 0) continue;
    candidates[row[1].as_int()].push_back(row[2]);
  }
  for (const auto& [id, row] : view->row_of) {
    candidates[id].push_back(view->versions[row]);
  }
  std::map<int64_t, size_t> pick;
  std::vector<uint32_t> moved;
  for (auto& [id, versions] : candidates) {
    std::sort(versions.begin(), versions.end(), [](const Value& a, const Value& b) {
      return NullsIn(a) < NullsIn(b);
    });
    pick[id] = 0;
    const size_t row = view->row_of[id];
    if (!versions[0].Equals(view->versions[row])) {
      view->Set(row, versions[0]);
      moved.push_back(static_cast<uint32_t>(row));
    }
  }
  // The externals grouped the view over the latest versions.
  if (view->index != nullptr && !moved.empty()) {
    view->index->UpdateRows(view->table, moved);
  }
  // Validate the assembled combination; advance risky rows. Each advance
  // strictly increases some pick index, so this terminates.
  for (bool changed = true; changed;) {
    changed = false;
    for (auto& [id, index] : pick) {
      const auto& versions = candidates[id];
      const PatternMass mass = view->Query(view->Cells(versions[index]));
      if (GroupRisk(measure, options.k, mass) > options.threshold &&
          index + 1 < versions.size()) {
        ++index;
        const size_t row = view->row_of[id];
        view->Set(row, versions[index]);
        view->index->UpdateRows(view->table, {static_cast<uint32_t>(row)});
        changed = true;
      }
    }
  }

  MicrodataTable out = table;
  const auto qis = out.QuasiIdentifierColumns();
  for (size_t r = 0; r < out.num_rows(); ++r) {
    auto it = pick.find(static_cast<int64_t>(r));
    if (it == pick.end()) continue;
    const Value& vset = candidates[it->first][it->second];
    for (const size_t c : qis) {
      const Value* v = VsetGet(vset, Value::String(out.attributes()[c].name));
      if (v != nullptr) out.set_cell(r, c, *v);
    }
    // Direct identifiers are dropped from the release (Algorithm 2, Rule 1).
    for (const size_t c : out.ColumnsWithCategory(AttributeCategory::kIdentifier)) {
      out.set_cell(r, c, Value::String("<dropped>"));
    }
  }
  return out;
}

}  // namespace

Status ValidateBridgeMeasure(const std::string& risk_measure) {
  return BridgeMeasure(risk_measure).status();
}

VadalogBridge::VadalogBridge(BridgeOptions options) : options_(std::move(options)) {}

void VadalogBridge::EncodeMicrodata(const MicrodataTable& table,
                                    Database* db) const {
  const Value m = Value::String(table.name());
  db->AddFact("microdb", {m});
  for (const Attribute& a : table.attributes()) {
    db->AddFact("att", {m, Value::String(a.name)});
    db->AddFact("cat", {m, Value::String(a.name),
                        Value::String(AttributeCategoryToString(a.category))});
  }
  const auto qis = table.QuasiIdentifierColumns();
  const auto identifiers = table.ColumnsWithCategory(AttributeCategory::kIdentifier);
  std::vector<Value> qi_names;  // One name payload per column, shared by its cells.
  for (const size_t c : qis) qi_names.push_back(Value::String(table.attributes()[c].name));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<Value> pairs;
    pairs.reserve(qis.size());
    for (size_t q = 0; q < qis.size(); ++q) {
      pairs.push_back(Value::List({qi_names[q], table.cell(r, qis[q])}));
    }
    const Value id = Value::Int(static_cast<int64_t>(r));
    db->AddFact("tuple", {m, id, Value::Set(std::move(pairs))});
    db->AddFact("weight", {m, id, Value::Double(table.RowWeight(r))});
    // Entity names for #rel joins (Algorithm 9); the raw identifier values
    // stay in the extensional component but never reach tupleA.
    if (!identifiers.empty()) {
      db->AddFact("entity",
                  {m, id, Value::String(table.cell(r, identifiers[0]).ToString())});
    }
  }
}

namespace {

/// Registers the bridge's externals on `engine`; #risk and #anonymize answer
/// from `views`.
void RegisterBridgeExternals(const BridgeOptions& options, vadalog::Engine* engine,
                             const OwnershipGraph* graph,
                             std::shared_ptr<TupleViews> views) {
  const int k = options.k;
  const NullSemantics semantics =
      options.maybe_match ? NullSemantics::kMaybeMatch : NullSemantics::kStandard;
  const auto measure = BridgeMeasure(options.risk_measure);

  // --- #risk(M, I, VSet, R): the polymorphic risk plug-in, answered by the
  // group index over every tuple's latest version. ---
  engine->externals()->RegisterPredicate(
      "#risk",
      [k, semantics, measure, views](const std::vector<std::optional<Value>>& args,
                                     const Database& db)
          -> Result<std::vector<std::vector<Value>>> {
        obs::Span span("risk.external");
        VADASA_RETURN_NOT_OK(measure.status());
        if (args.size() != 4) {
          return Status::InvalidArgument("#risk expects (M, I, VSet, R)");
        }
        if (!args[0] || !args[1] || !args[2]) {
          return Status::FailedPrecondition("#risk needs M, I and VSet bound");
        }
        const Value& m = *args[0];
        const Value& vset = *args[2];
        VADASA_ASSIGN_OR_RETURN(TupleView* const view,
                                SyncedView(views.get(), db, m, semantics));
        const double risk = GroupRisk(**measure, k, view->Query(view->Cells(vset)));
        return std::vector<std::vector<Value>>{
            {m, *args[1], vset, Value::Double(risk)}};
      });

  // --- #anonymize(M, I, VSet): one local-suppression step, choosing the
  // quasi-identifier with the widest risk-reduction reach ("most risky
  // first", Section 4.4). ---
  engine->externals()->RegisterAction(
      "#anonymize",
      [semantics, views](const std::vector<Value>& args, ActionContext* ctx) -> Status {
        obs::Span span("anonymize.external");
        if (args.size() != 3) {
          return Status::InvalidArgument("#anonymize expects (M, I, VSet)");
        }
        const Value& m = args[0];
        const Value& id = args[1];
        const Value& vset = args[2];
        if (!vset.is_collection() || !id.is_int()) {
          return Status::InvalidArgument("#anonymize: malformed tuple");
        }
        VADASA_ASSIGN_OR_RETURN(TupleView* const view,
                                SyncedView(views.get(), ctx->db(), m, semantics));
        // Only anonymize the latest version of the tuple; a stale re-trigger
        // on an older VSet would fork divergent versions.
        auto it = view->row_of.find(id.as_int());
        if (it != view->row_of.end() &&
            NullsIn(view->versions[it->second]) > NullsIn(vset)) {
          return Status::OK();
        }
        // Score every non-null key by the group the tuple would reach if
        // that key were wildcarded; suppress the best one.
        const std::vector<Value>& pairs = vset.items();
        int best = -1;
        double best_reach = -1.0;
        for (size_t p = 0; p < pairs.size(); ++p) {
          if (!pairs[p].is_list() || pairs[p].items().size() != 2) continue;
          if (pairs[p].items()[1].is_null()) continue;
          std::vector<Value> candidate = pairs;
          candidate[p] = Value::List({pairs[p].items()[0], Value::Null(0)});
          const double reach = view->Query(view->Cells(Value::Set(candidate))).count;
          if (reach > best_reach) {
            best_reach = reach;
            best = static_cast<int>(p);
          }
        }
        if (best < 0) return Status::OK();  // Everything already suppressed.
        std::vector<Value> next = pairs;
        next[best] = Value::List({pairs[best].items()[0], ctx->FreshNull()});
        ctx->Emit("tuple", {m, id, Value::Set(std::move(next))});
        return Status::OK();
      });

  // --- #rel(X, Y): same-control-cluster relation (reflexive). ---
  std::shared_ptr<std::unordered_map<std::string, int>> clusters;
  if (graph != nullptr) {
    clusters = std::make_shared<std::unordered_map<std::string, int>>(
        graph->ComputeClusters());
  }
  engine->externals()->RegisterPredicate(
      "#rel",
      [clusters](const std::vector<std::optional<Value>>& args, const Database& db)
          -> Result<std::vector<std::vector<Value>>> {
        (void)db;
        if (args.size() != 2) return Status::InvalidArgument("#rel expects (X, Y)");
        if (!args[0]) return Status::FailedPrecondition("#rel needs X bound");
        std::vector<std::vector<Value>> rows;
        const Value& x = *args[0];
        if (args[1]) {
          // Fully bound: test.
          if (x.Equals(*args[1])) {
            rows.push_back({x, *args[1]});
          } else if (clusters) {
            auto a = clusters->find(x.ToString());
            auto b = clusters->find(args[1]->ToString());
            if (a != clusters->end() && b != clusters->end() && a->second == b->second) {
              rows.push_back({x, *args[1]});
            }
          }
          return rows;
        }
        // Enumerate cluster members of x.
        rows.push_back({x, x});
        if (clusters) {
          auto a = clusters->find(x.ToString());
          if (a != clusters->end()) {
            for (const auto& [name, cid] : *clusters) {
              if (cid == a->second && name != x.ToString()) {
                rows.push_back({x, Value::String(name)});
              }
            }
          }
        }
        return rows;
      });

  // --- #similar(A, B): the pluggable ∼ of Algorithm 1. ---
  engine->externals()->RegisterPredicate(
      "#similar",
      [](const std::vector<std::optional<Value>>& args, const Database& db)
          -> Result<std::vector<std::vector<Value>>> {
        (void)db;
        if (args.size() != 2) return Status::InvalidArgument("#similar expects (A, B)");
        if (!args[0] || !args[1]) {
          return Status::FailedPrecondition("#similar needs both names bound");
        }
        if (!args[0]->is_string() || !args[1]->is_string()) {
          return std::vector<std::vector<Value>>{};
        }
        if (AttributeNameSimilarity(args[0]->as_string(), args[1]->as_string()) >=
            kSimilarityThreshold) {
          return std::vector<std::vector<Value>>{{*args[0], *args[1]}};
        }
        return std::vector<std::vector<Value>>{};
      });
}

/// Encodes `table`, chases `program` with the bridge's externals and decodes
/// the release: the body of both declarative cycles.
Result<MicrodataTable> RunCycle(const VadalogBridge& bridge, const BridgeOptions& options,
                                const std::string& program, const MicrodataTable& table,
                                const OwnershipGraph* graph, vadalog::RunStats* stats) {
  VADASA_ASSIGN_OR_RETURN(const auto measure, BridgeMeasure(options.risk_measure));
  vadalog::EngineOptions engine_options;
  engine_options.track_provenance = true;
  vadalog::Engine engine(engine_options);
  const auto views = std::make_shared<TupleViews>();
  RegisterBridgeExternals(options, &engine, graph, views);

  Database db;
  bridge.EncodeMicrodata(table, &db);
  VADASA_ASSIGN_OR_RETURN(const vadalog::RunStats run,
                          vadalog::RunSource(program, &db, &engine));
  if (stats != nullptr) *stats = run;
  return DecodeRelease(db, table, *measure, options, views.get());
}

}  // namespace

void VadalogBridge::RegisterExternals(vadalog::Engine* engine,
                                      const OwnershipGraph* graph) const {
  RegisterBridgeExternals(options_, engine, graph, std::make_shared<TupleViews>());
}

std::string VadalogBridge::CycleProgram() const {
  std::ostringstream os;
  os << "% Anonymization cycle (Algorithm 2, Rules 2-3).\n";
  os << "#anonymize(M, I, VSet) :- tuple(M, I, VSet), #risk(M, I, VSet, R), R > "
     << options_.threshold << ".\n";
  os << "tupleA(M, I, VSet) :- tuple(M, I, VSet), #risk(M, I, VSet, R), R <= "
     << options_.threshold << ".\n";
  os << "@output(\"tupleA\").\n";
  return os.str();
}

std::string VadalogBridge::EnhancedCycleProgram() const {
  std::ostringstream os;
  os << "% Enhanced anonymization cycle (Algorithm 9, Rules 2-4).\n";
  os << "clusterrisk(M, I1, R) :- entity(M, I1, N1), entity(M, I2, N2),\n"
     << "                         #rel(N1, N2), tuple(M, I2, VSet2),\n"
     << "                         #risk(M, I2, VSet2, Q), S = 1 - Q,\n"
     << "                         P = mprod(S, <I2>), R = 1 - P.\n";
  os << "#anonymize(M, I, VSet) :- tuple(M, I, VSet), clusterrisk(M, I, R), R > "
     << options_.threshold << ".\n";
  // A version is releasable when the cluster is settled AND the version
  // itself carries acceptable base risk (the per-version refinement that
  // keeps the decode minimal, as in the basic cycle).
  os << "tupleA(M, I, VSet) :- tuple(M, I, VSet), clusterrisk(M, I, R), R <= "
     << options_.threshold << ", #risk(M, I, VSet, Q), Q <= " << options_.threshold
     << ".\n";
  os << "@output(\"tupleA\").\n";
  return os.str();
}

std::string VadalogBridge::CategorizationProgram() {
  return R"prog(% Algorithm 1: attribute categorization.
% Rule 2: borrow the category of a similar known attribute.
cat(M, A, C) :- att(M, A), expbase(A1, C), #similar(A, A1).
% Rule 3: recursive feedback into the experience base.
expbase(A, C) :- cat(M, A, C).
% Rule 1: every attribute gets some category (existential labelled null,
% unified with the concrete category by the EGD when one is derivable).
cat(M, A, C) :- att(M, A).
% Rule 4 (EGD): one category per attribute.
C1 = C2 :- cat(M, A, C1), cat(M, A, C2).
@output("cat").
)prog";
}

Result<MicrodataTable> VadalogBridge::RunDeclarativeCycle(
    const MicrodataTable& table, const OwnershipGraph* graph,
    vadalog::RunStats* stats) const {
  obs::Span span("bridge.declarative_cycle");
  return RunCycle(*this, options_, CycleProgram(), table, graph, stats);
}

Result<MicrodataTable> VadalogBridge::RunDeclarativeEnhancedCycle(
    const MicrodataTable& table, const OwnershipGraph& graph,
    vadalog::RunStats* stats) const {
  obs::Span span("bridge.declarative_enhanced_cycle");
  return RunCycle(*this, options_, EnhancedCycleProgram(), table, &graph, stats);
}

}  // namespace vadasa::core
