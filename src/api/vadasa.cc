#include "api/vadasa.h"

#include <utility>

#include "core/anonymize.h"
#include "core/cycle.h"
#include "core/vadalog_bridge.h"
#include "obs/trace.h"

namespace vadasa::api {

using core::MicrodataTable;

Result<SessionOptions> ValidateSessionOptions(SessionOptions options) {
  // MakeRiskMeasure is the single source of truth for valid measure names.
  VADASA_RETURN_NOT_OK(core::MakeRiskMeasure(options.risk_measure).status());
  if (options.declarative) {
    VADASA_RETURN_NOT_OK(core::ValidateBridgeMeasure(options.risk_measure));
  }
  if (options.k < 1) {
    return Status::InvalidArgument("k must be >= 1, got " +
                                   std::to_string(options.k));
  }
  if (!(options.threshold >= 0.0 && options.threshold <= 1.0)) {
    return Status::InvalidArgument("threshold must be in [0, 1], got " +
                                   std::to_string(options.threshold));
  }
  if (options.posterior_draws < 0) {
    return Status::InvalidArgument("posterior_draws must be >= 0");
  }
  return options;
}

Status WarmState::Build(core::NullSemantics semantics, bool* built) {
  if (built != nullptr) *built = false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<const core::GroupIndex>& slot =
      indexes_[static_cast<size_t>(semantics)];
  if (slot != nullptr) return Status::OK();
  std::vector<size_t> qis = table_->QuasiIdentifierColumns();
  VADASA_RETURN_NOT_OK(core::ValidateQiWidth(qis, semantics));
  // The index's Stats() go through the same collapse/aggregation machinery in
  // the same order as a cold ComputeGroupStats, so the warm stats equal a
  // cold pass. They are forced before publishing: from here on the index is
  // only read.
  auto index = std::make_shared<const core::GroupIndex>(*table_, std::move(qis),
                                                        semantics);
  index->Stats();
  slot = std::move(index);
  if (built != nullptr) *built = true;
  return Status::OK();
}

std::shared_ptr<const core::GroupIndex> WarmState::Find(
    core::NullSemantics semantics) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return indexes_[static_cast<size_t>(semantics)];
}

std::shared_ptr<WarmState> WarmState::Derive(
    std::shared_ptr<const MicrodataTable> child_table,
    const core::DeltaRowPlan& plan) const {
  auto child = std::make_shared<WarmState>(std::move(child_table));
  for (size_t s = 0; s < 2; ++s) {
    const auto parent_index = Find(static_cast<core::NullSemantics>(s));
    if (parent_index == nullptr) continue;
    std::shared_ptr<const core::GroupIndex> index =
        parent_index->ApplyDelta(*child->table_, plan);
    index->Stats();
    child->indexes_[s] = std::move(index);
  }
  return child;
}

std::string AnonymizeResponse::ToText() const {
  if (!declarative) return audit.ToText();
  return "declarative cycle: " + std::to_string(declarative_stats.rounds) +
         " rounds, " + std::to_string(declarative_stats.facts_derived) +
         " facts derived, " + std::to_string(declarative_stats.nulls_created) +
         " nulls\n";
}

Result<Session> Session::Open(const std::string& csv_path, SessionOptions options) {
  VADASA_ASSIGN_OR_RETURN(SessionOptions validated,
                          ValidateSessionOptions(std::move(options)));
  VADASA_ASSIGN_OR_RETURN(MicrodataTable table, MicrodataTable::LoadCsv(csv_path));
  core::AttributeCategorizer categorizer =
      core::AttributeCategorizer::WithDefaultExperience();
  auto dictionary = std::make_shared<core::MetadataDictionary>();
  VADASA_RETURN_NOT_OK(
      categorizer.CategorizeTable(&table, dictionary.get()).status());
  Session session;
  session.table_ = std::make_shared<const MicrodataTable>(std::move(table));
  session.dictionary_ = std::move(dictionary);
  session.conflicts_ = categorizer.conflicts();
  session.options_ = std::move(validated);
  session.warm_ = std::make_shared<WarmState>(session.table_);
  return session;
}

Result<Session> Session::FromTable(MicrodataTable table, SessionOptions options) {
  VADASA_RETURN_NOT_OK(table.Validate());
  return FromShared(std::make_shared<const MicrodataTable>(std::move(table)),
                    nullptr, std::move(options));
}

Result<Session> Session::FromShared(
    std::shared_ptr<const MicrodataTable> table,
    std::shared_ptr<const core::MetadataDictionary> dictionary,
    SessionOptions options, std::shared_ptr<WarmState> warm) {
  if (table == nullptr) {
    return Status::InvalidArgument("Session::FromShared: null table");
  }
  if (warm != nullptr && warm->table() != table.get()) {
    return Status::InvalidArgument(
        "Session::FromShared: the warm state belongs to another table");
  }
  VADASA_ASSIGN_OR_RETURN(SessionOptions validated,
                          ValidateSessionOptions(std::move(options)));
  Session session;
  session.warm_ = warm != nullptr ? std::move(warm)
                                  : std::make_shared<WarmState>(table);
  session.table_ = std::move(table);
  session.dictionary_ = dictionary != nullptr
                            ? std::move(dictionary)
                            : std::make_shared<core::MetadataDictionary>();
  session.options_ = std::move(validated);
  return session;
}

Status Session::CheckOpen() const {
  if (table_ == nullptr) {
    return Status::FailedPrecondition(
        "empty Session: construct one via Open/FromTable/FromShared");
  }
  return Status::OK();
}

core::RiskContext Session::MakeRiskContext() const {
  core::RiskContext ctx;
  ctx.k = options_.k;
  ctx.semantics = options_.standard_nulls ? core::NullSemantics::kStandard
                                          : core::NullSemantics::kMaybeMatch;
  ctx.posterior_draws = options_.posterior_draws;
  ctx.seed = options_.seed;
  return ctx;
}

Status Session::Warm(bool* built) const {
  VADASA_RETURN_NOT_OK(CheckOpen());
  return warm_->Build(MakeRiskContext().semantics, built);
}

Result<Session> Session::Apply(const core::DeltaBatch& batch) const {
  obs::Span span("api.apply_delta");
  VADASA_RETURN_NOT_OK(CheckOpen());
  core::DeltaRowPlan plan;
  VADASA_ASSIGN_OR_RETURN(MicrodataTable next,
                          core::ApplyDeltaToTable(*table_, batch, &plan));
  Session child;
  child.table_ = std::make_shared<const MicrodataTable>(std::move(next));
  child.dictionary_ = dictionary_;
  child.conflicts_ = conflicts_;
  child.options_ = options_;
  child.warm_ = warm_->Derive(child.table_, plan);
  return child;
}

Result<RiskReport> Session::Risk(double quantile, bool explain) const {
  obs::Span span("api.risk");
  VADASA_RETURN_NOT_OK(CheckOpen());
  VADASA_ASSIGN_OR_RETURN(const auto measure,
                          core::MakeRiskMeasure(options_.risk_measure));
  const core::RiskContext ctx = MakeRiskContext();
  // One grouping for the whole report (ρ = 1/λ(σ_{q=q̂} M) for every
  // measure, Section 4.2): the warm index when built, else one private build.
  core::RiskEvalCache cache(warm_->Find(ctx.semantics));
  RiskReport report;
  report.threshold = options_.threshold;
  VADASA_ASSIGN_OR_RETURN(report.tuple_risks,
                          measure->ComputeRisks(*table_, ctx, &cache));
  VADASA_ASSIGN_OR_RETURN(
      report.global,
      core::ComputeGlobalRisk(*table_, *measure, ctx, options_.threshold, &cache));
  for (size_t r = 0; r < report.tuple_risks.size(); ++r) {
    if (report.tuple_risks[r] > options_.threshold) {
      RiskyTuple risky;
      risky.row = r;
      risky.risk = report.tuple_risks[r];
      if (explain) {
        risky.explanation = measure->Explain(*table_, ctx, r, risky.risk, &cache);
      }
      report.risky.push_back(std::move(risky));
    }
  }
  if (quantile > 0.0) {
    VADASA_ASSIGN_OR_RETURN(
        report.inferred_threshold,
        core::InferThreshold(*table_, *measure, ctx, quantile, &cache));
  }
  return report;
}

Result<double> Session::InferThreshold(double quantile) const {
  VADASA_RETURN_NOT_OK(CheckOpen());
  VADASA_ASSIGN_OR_RETURN(const auto measure,
                          core::MakeRiskMeasure(options_.risk_measure));
  const core::RiskContext ctx = MakeRiskContext();
  core::RiskEvalCache cache(warm_->Find(ctx.semantics));
  return core::InferThreshold(*table_, *measure, ctx, quantile, &cache);
}

Result<AnonymizeResponse> Session::Anonymize(const AnonymizeRequest& request) const {
  obs::Span span("api.anonymize");
  VADASA_RETURN_NOT_OK(CheckOpen());
  if (request.cancel != nullptr) {
    VADASA_RETURN_NOT_OK(request.cancel->Check());
  }
  AnonymizeResponse response;

  // Resolve the Algorithm-9 hook up front so both paths agree on the column.
  std::string id_column = request.ownership_id_column;
  if (request.ownership != nullptr && id_column.empty()) {
    const auto ids =
        table_->ColumnsWithCategory(core::AttributeCategory::kIdentifier);
    if (ids.empty()) {
      return Status::FailedPrecondition(
          "ownership graph supplied but the table has no identifier column");
    }
    id_column = table_->attributes()[ids[0]].name;
  }

  if (options_.declarative) {
    core::BridgeOptions bridge_options;
    bridge_options.risk_measure = options_.risk_measure;
    bridge_options.k = options_.k;
    bridge_options.threshold = options_.threshold;
    bridge_options.maybe_match = !options_.standard_nulls;
    const core::VadalogBridge bridge(bridge_options);
    response.declarative = true;
    if (request.ownership != nullptr) {
      VADASA_ASSIGN_OR_RETURN(
          response.table,
          bridge.RunDeclarativeEnhancedCycle(*table_, *request.ownership,
                                             &response.declarative_stats));
    } else {
      VADASA_ASSIGN_OR_RETURN(
          response.table,
          bridge.RunDeclarativeCycle(*table_, nullptr,
                                     &response.declarative_stats));
    }
    return response;
  }

  VADASA_ASSIGN_OR_RETURN(const auto measure,
                          core::MakeRiskMeasure(options_.risk_measure));
  core::LocalSuppression anonymizer;
  core::CycleOptions cycle_options;
  cycle_options.threshold = options_.threshold;
  cycle_options.risk = MakeRiskContext();
  cycle_options.single_step = options_.single_step;
  cycle_options.cancel = request.cancel;
  if (request.ownership != nullptr) {
    cycle_options.risk_transform =
        core::MakeClusterRiskTransform(request.ownership, id_column);
  }
  MicrodataTable released = *table_;
  // The copy starts with the version's exact contents, so the warm index may
  // seed the release's cache until the cycle's first mutation.
  core::RiskEvalCache cache(warm_->Find(cycle_options.risk.semantics));
  VADASA_ASSIGN_OR_RETURN(
      response.audit, core::RunAuditedRelease(&released, *measure, &anonymizer,
                                              cycle_options, &cache));
  response.table = std::move(released);
  return response;
}

}  // namespace vadasa::api
