#include "testing/bridge_reference.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace vadasa::testing {

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
  for (const Value& pair : vset.items()) {
    if (pair.is_list() && pair.items().size() == 2 && pair.items()[0].Equals(k)) {
      return &pair.items()[1];
    }
  }
  return nullptr;
}

/// Do two VSets match on every shared key, under the chosen semantics?
bool VsetsMatch(const Value& a, const Value& b, bool maybe_match) {
  for (const Value& pair : a.items()) {
    if (!pair.is_list() || pair.items().size() != 2) continue;
    const Value* other = VsetGet(b, pair.items()[0]);
    if (other == nullptr) continue;
    const bool ok = maybe_match ? pair.items()[1].MaybeEquals(*other)
                                : pair.items()[1].Equals(*other);
    if (!ok) return false;
  }
  return true;
}

/// Latest (most anonymized) VSet version per tuple id, for one microdata DB.
std::map<int64_t, Value> LatestVersions(const Database& db, const Value& m) {
  std::map<int64_t, Value> latest;
  for (const auto& row : db.Rows("tuple")) {
    if (row.size() != 3 || !row[0].Equals(m) || !row[1].is_int()) continue;
    const int64_t id = row[1].as_int();
    auto it = latest.find(id);
    if (it == latest.end() || NullsIn(row[2]) > NullsIn(it->second)) {
      latest[id] = row[2];
    }
  }
  return latest;
}

bool IsReidentification(const core::BridgeOptions& options) {
  return options.risk_measure == "reidentification" ||
         options.risk_measure == "re-identification";
}

/// Replaces the bridge's #risk and #anonymize on `engine` with the scans.
void RegisterScanExternals(vadalog::Engine* engine,
                           const core::BridgeOptions& options) {
  engine->externals()->RegisterPredicate(
      "#risk",
      [options](const std::vector<std::optional<Value>>& args, const Database& db)
          -> Result<std::vector<std::vector<Value>>> {
        if (args.size() != 4) {
          return Status::InvalidArgument("#risk expects (M, I, VSet, R)");
        }
        if (!args[0] || !args[1] || !args[2]) {
          return Status::FailedPrecondition("#risk needs M, I and VSet bound");
        }
        const Value& m = *args[0];
        const Value& vset = *args[2];
        const auto latest = LatestVersions(db, m);
        double count = 0.0;
        double weight_sum = 0.0;
        std::unordered_map<int64_t, double> weights;
        for (const auto& row : db.Rows("weight")) {
          if (row.size() == 3 && row[0].Equals(m) && row[1].is_int()) {
            weights[row[1].as_int()] = row[2].as_double();
          }
        }
        for (const auto& [id, other] : latest) {
          if (VsetsMatch(vset, other, options.maybe_match)) {
            count += 1.0;
            auto w = weights.find(id);
            weight_sum += w == weights.end() ? 1.0 : w->second;
          }
        }
        double risk;
        if (IsReidentification(options)) {
          risk = weight_sum <= 1.0 ? 1.0 : std::min(1.0, 1.0 / weight_sum);
        } else {  // k-anonymity
          risk = count < static_cast<double>(options.k) ? 1.0 : 0.0;
        }
        return std::vector<std::vector<Value>>{
            {m, *args[1], vset, Value::Double(risk)}};
      });

  engine->externals()->RegisterAction(
      "#anonymize",
      [options](const std::vector<Value>& args, ActionContext* ctx) -> Status {
        if (args.size() != 3) {
          return Status::InvalidArgument("#anonymize expects (M, I, VSet)");
        }
        const Value& m = args[0];
        const Value& id = args[1];
        const Value& vset = args[2];
        if (!vset.is_collection() || !id.is_int()) {
          return Status::InvalidArgument("#anonymize: malformed tuple");
        }
        const auto latest = LatestVersions(ctx->db(), m);
        auto it = latest.find(id.as_int());
        if (it != latest.end() && NullsIn(it->second) > NullsIn(vset)) {
          return Status::OK();
        }
        const std::vector<Value>& pairs = vset.items();
        int best = -1;
        double best_reach = -1.0;
        for (size_t p = 0; p < pairs.size(); ++p) {
          if (!pairs[p].is_list() || pairs[p].items().size() != 2) continue;
          if (pairs[p].items()[1].is_null()) continue;
          std::vector<Value> candidate = pairs;
          candidate[p] = Value::List({pairs[p].items()[0], Value::Null(0)});
          const Value probe = Value::Set(candidate);
          double reach = 0.0;
          for (const auto& [other_id, other] : latest) {
            (void)other_id;
            if (VsetsMatch(probe, other, options.maybe_match)) reach += 1.0;
          }
          if (reach > best_reach) {
            best_reach = reach;
            best = static_cast<int>(p);
          }
        }
        if (best < 0) return Status::OK();
        std::vector<Value> next = pairs;
        next[best] = Value::List({pairs[best].items()[0], ctx->FreshNull()});
        ctx->Emit("tuple", {m, id, Value::Set(std::move(next))});
        return Status::OK();
      });
}

/// The decode with every validation done pairwise.
core::MicrodataTable ScanDecode(const Database& db, const core::MicrodataTable& table,
                                const core::BridgeOptions& options) {
  const Value m = Value::String(table.name());
  std::map<int64_t, std::vector<Value>> candidates;
  for (const auto& row : db.Rows("tupleA")) {
    if (row.size() != 3 || !row[0].Equals(m) || !row[1].is_int()) continue;
    candidates[row[1].as_int()].push_back(row[2]);
  }
  const auto latest = LatestVersions(db, m);
  for (const auto& [id, version] : latest) {
    candidates[id].push_back(version);
  }
  for (auto& [id, versions] : candidates) {
    (void)id;
    std::sort(versions.begin(), versions.end(), [](const Value& a, const Value& b) {
      return NullsIn(a) < NullsIn(b);
    });
  }
  std::map<int64_t, size_t> pick;
  for (const auto& [id, versions] : candidates) {
    (void)versions;
    pick[id] = 0;
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (auto& [id, index] : pick) {
      const auto& versions = candidates[id];
      double mass = 0.0;
      for (const auto& [other_id, other_index] : pick) {
        if (!VsetsMatch(versions[index], candidates[other_id][other_index],
                        options.maybe_match)) {
          continue;
        }
        if (IsReidentification(options)) {
          for (const auto& w : db.Rows("weight")) {
            if (w[1].is_int() && w[1].as_int() == other_id) mass += w[2].as_double();
          }
        } else {
          mass += 1.0;
        }
      }
      const bool risky = IsReidentification(options)
                             ? (mass <= 1.0 || 1.0 / mass > options.threshold)
                             : mass < static_cast<double>(options.k);
      if (risky && index + 1 < versions.size()) {
        ++index;
        changed = true;
      }
    }
  }

  core::MicrodataTable out = table;
  const auto qis = out.QuasiIdentifierColumns();
  for (size_t r = 0; r < out.num_rows(); ++r) {
    auto it = pick.find(static_cast<int64_t>(r));
    if (it == pick.end()) continue;
    const Value& vset = candidates[it->first][it->second];
    for (const size_t c : qis) {
      const Value* v = VsetGet(vset, Value::String(out.attributes()[c].name));
      if (v != nullptr) out.set_cell(r, c, *v);
    }
    for (const size_t c : out.ColumnsWithCategory(core::AttributeCategory::kIdentifier)) {
      out.set_cell(r, c, Value::String("<dropped>"));
    }
  }
  return out;
}

}  // namespace

Result<core::MicrodataTable> ReferenceDeclarativeCycle(
    const core::MicrodataTable& table, const core::BridgeOptions& options,
    const core::OwnershipGraph* graph, vadalog::RunStats* stats) {
  const core::VadalogBridge bridge(options);
  vadalog::EngineOptions engine_options;
  engine_options.track_provenance = true;
  vadalog::Engine engine(engine_options);
  bridge.RegisterExternals(&engine, graph);  // #rel and #similar.
  RegisterScanExternals(&engine, options);
  Database db;
  bridge.EncodeMicrodata(table, &db);
  const std::string program =
      graph != nullptr ? bridge.EnhancedCycleProgram() : bridge.CycleProgram();
  VADASA_ASSIGN_OR_RETURN(const vadalog::RunStats run,
                          vadalog::RunSource(program, &db, &engine));
  if (stats != nullptr) *stats = run;
  return ScanDecode(db, table, options);
}

}  // namespace vadasa::testing
