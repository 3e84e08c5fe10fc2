#include "testing/properties.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/vadasa.h"
#include "common/csv.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "core/anonymize.h"
#include "core/business.h"
#include "core/cycle.h"
#include "core/datagen.h"
#include "core/delta.h"
#include "core/group_index.h"
#include "core/microdata.h"
#include "core/risk.h"
#include "core/suda.h"
#include "core/utility.h"
#include "core/vadalog_bridge.h"
#include "serve/dataset_registry.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "testing/bridge_reference.h"
#include "testing/differential.h"
#include "testing/generators.h"
#include "testing/oracles.h"
#include "vadalog/engine.h"
#include "vadalog/parser.h"

namespace vadasa::testing {

using core::AttributeCategory;
using core::MicrodataTable;
using core::NullSemantics;
using core::RiskContext;

namespace {

std::string Param(const ReproCase& repro, const std::string& key,
                  const std::string& fallback) {
  auto it = repro.params.find(key);
  return it == repro.params.end() ? fallback : it->second;
}

uint64_t ParamU64(const ReproCase& repro, const std::string& key, uint64_t fallback) {
  auto it = repro.params.find(key);
  return it == repro.params.end() ? fallback : std::stoull(it->second);
}

double ParamDouble(const ReproCase& repro, const std::string& key, double fallback) {
  auto it = repro.params.find(key);
  return it == repro.params.end() ? fallback : std::stod(it->second);
}

/// Seeds a base case: fresh aux seed plus a generated table.
ReproCase TableCase(const std::string& property, Rng* rng, uint64_t case_index,
                    const TableGenOptions& options = {}) {
  ReproCase repro;
  repro.property = property;
  repro.seed = rng->Next();
  repro.case_index = case_index;
  repro.table = RandomTable(rng, options);
  return repro;
}

RiskContext ContextFrom(const ReproCase& repro) {
  RiskContext ctx;
  ctx.k = static_cast<int>(ParamU64(repro, "k", 2));
  ctx.semantics = Param(repro, "semantics", "maybe") == "standard"
                      ? NullSemantics::kStandard
                      : NullSemantics::kMaybeMatch;
  return ctx;
}

/// Picks a suppressible cell from the table's current shape. Deterministic in
/// (seed, table) so shrunk candidates re-pick a valid cell.
bool PickQiCell(const ReproCase& repro, size_t* row, size_t* column) {
  const std::vector<size_t> qis = repro.table.QuasiIdentifierColumns();
  if (qis.empty() || repro.table.num_rows() == 0) return false;
  Rng aux(repro.seed);
  *row = aux.NextBelow(repro.table.num_rows());
  *column = qis[aux.NextBelow(qis.size())];
  return true;
}

// --- Evaluators. Each is a pure function of the ReproCase. ---

Status EvalRiskUnitRange(const ReproCase& repro) {
  RiskContext ctx = ContextFrom(repro);
  for (const char* name : {"reidentification", "k-anonymity", "individual", "suda"}) {
    VADASA_ASSIGN_OR_RETURN(const auto measure, core::MakeRiskMeasure(name));
    VADASA_ASSIGN_OR_RETURN(const std::vector<double> risks,
                            measure->ComputeRisks(repro.table, ctx));
    Status st = CheckRisksInUnitRange(risks);
    if (!st.ok()) {
      return Status::FailedPrecondition(std::string(name) + ": " + st.ToString());
    }
  }
  return Status::OK();
}

Status EvalPostCycleSafety(const ReproCase& repro) {
  const std::string measure_name = Param(repro, "measure", "k-anonymity");
  const double threshold = ParamDouble(repro, "threshold", 0.5);
  VADASA_ASSIGN_OR_RETURN(const auto measure, core::MakeRiskMeasure(measure_name));
  core::CycleOptions options;
  options.threshold = threshold;
  options.risk = ContextFrom(repro);
  core::LocalSuppression suppression;
  core::AnonymizationCycle cycle(measure.get(), &suppression, options);
  MicrodataTable released = repro.table;
  VADASA_RETURN_NOT_OK(cycle.Run(&released).status());
  return CheckPostCycleRisks(released, *measure, options.risk, threshold);
}

Status EvalSuppressionMonotone(const ReproCase& repro) {
  size_t row = 0, column = 0;
  if (!PickQiCell(repro, &row, &column)) return Status::OK();
  return CheckSuppressionMonotone(repro.table, row, column, ContextFrom(repro));
}

Status EvalSuppressionFreshLabels(const ReproCase& repro) {
  size_t row = 0, column = 0;
  if (!PickQiCell(repro, &row, &column)) return Status::OK();
  return CheckSuppressionFreshLabels(repro.table, row, column);
}

Status EvalSudaPermutation(const ReproCase& repro) {
  Rng aux(repro.seed);
  return CheckSudaPermutationInvariance(repro.table, ContextFrom(repro), &aux);
}

Status EvalClusterRiskBounds(const ReproCase& repro) {
  const auto id_cols = repro.table.ColumnsWithCategory(AttributeCategory::kIdentifier);
  if (id_cols.empty() || repro.table.num_rows() == 0) return Status::OK();
  Rng aux(repro.seed);
  const core::OwnershipGraph graph =
      RandomOwnershipGraph(&aux, repro.table, ParamDouble(repro, "edge_p", 0.15));
  VADASA_ASSIGN_OR_RETURN(const auto measure,
                          core::MakeRiskMeasure("reidentification"));
  VADASA_ASSIGN_OR_RETURN(const std::vector<double> base,
                          measure->ComputeRisks(repro.table, ContextFrom(repro)));
  return CheckClusterRiskBounds(repro.table, graph,
                                repro.table.attributes()[id_cols[0]].name, base);
}

Status EvalInfoLossMonotone(const ReproCase& repro) {
  Rng aux(repro.seed);
  const size_t steps = 1 + aux.NextBelow(24);
  return CheckInfoLossMonotone(repro.table, steps, &aux);
}

core::BridgeOptions BridgeOptionsFrom(const ReproCase& repro) {
  core::BridgeOptions options;
  options.risk_measure = Param(repro, "measure", "k-anonymity");
  options.k = static_cast<int>(ParamU64(repro, "k", 2));
  options.threshold = ParamDouble(repro, "threshold", 0.5);
  options.maybe_match = Param(repro, "semantics", "maybe") != "standard";
  return options;
}

Status EvalCycleDifferential(const ReproCase& repro) {
  const core::BridgeOptions options = BridgeOptionsFrom(repro);
  std::optional<core::OwnershipGraph> graph;
  if (ParamU64(repro, "with_graph", 0) != 0) {
    Rng aux(repro.seed);
    graph = RandomOwnershipGraph(&aux, repro.table, ParamDouble(repro, "edge_p", 0.15));
  }
  const core::OwnershipGraph* g = graph ? &*graph : nullptr;
  VADASA_ASSIGN_OR_RETURN(const DifferentialReport report,
                          CheckCycleDifferential(repro.table, options, g));
  // The bridge's index-backed externals and decode against the linear-scan
  // reference: the same chase and the same release bytes.
  vadalog::RunStats want;
  VADASA_ASSIGN_OR_RETURN(const MicrodataTable reference,
                          ReferenceDeclarativeCycle(repro.table, options, g, &want));
  const vadalog::RunStats& got = report.declarative_stats;
  if (got.rounds != want.rounds || got.facts_derived != want.facts_derived ||
      got.nulls_created != want.nulls_created ||
      got.action_invocations != want.action_invocations) {
    return Status::FailedPrecondition(
        "declarative chase differs from the scan reference: rounds " +
        std::to_string(got.rounds) + " vs " + std::to_string(want.rounds) +
        ", facts " + std::to_string(got.facts_derived) + " vs " +
        std::to_string(want.facts_derived) + ", nulls " +
        std::to_string(got.nulls_created) + " vs " +
        std::to_string(want.nulls_created) + ", actions " +
        std::to_string(got.action_invocations) + " vs " +
        std::to_string(want.action_invocations));
  }
  if (WriteCsv(report.declarative.ToCsv()) != WriteCsv(reference.ToCsv())) {
    return Status::FailedPrecondition(
        "declarative release differs from the scan reference");
  }
  return Status::OK();
}

Status EvalCycleDifferentialAtScale(const ReproCase& repro) {
  return CheckCycleDifferential(repro.table, BridgeOptionsFrom(repro), nullptr).status();
}

Status EvalParallelDeterminism(const ReproCase& repro) {
  core::CycleOptions options;
  options.threshold = ParamDouble(repro, "threshold", 0.5);
  options.risk = ContextFrom(repro);
  const size_t threads = ParamU64(repro, "threads", 4);
  return CheckParallelDeterminism(repro.table, options,
                                  Param(repro, "measure", "k-anonymity"), threads);
}

Status EvalServeConcurrentBitIdentical(const ReproCase& repro) {
  api::SessionOptions options;
  options.risk_measure = Param(repro, "measure", "k-anonymity");
  options.k = static_cast<int>(ParamU64(repro, "k", 2));
  options.threshold = ParamDouble(repro, "threshold", 0.5);
  options.standard_nulls = Param(repro, "semantics", "maybe") == "standard";

  const auto shared =
      std::make_shared<const MicrodataTable>(repro.table);
  VADASA_ASSIGN_OR_RETURN(api::Session session,
                          api::Session::FromShared(shared, nullptr, options));

  const size_t njobs = ParamU64(repro, "njobs", 4);
  // Alternate actions so one case exercises both result paths.
  auto action_for = [](size_t j) {
    return j % 2 == 1 ? serve::JobAction::kRisk : serve::JobAction::kAnonymize;
  };

  // References: sequential facade calls on a single library thread, encoded
  // as the scheduler encodes a done job's payload.
  const size_t previous = ThreadPool::SetGlobalThreads(1);
  auto run = [&]() -> Status {
    std::vector<std::string> expected(njobs);
    for (size_t j = 0; j < njobs; ++j) {
      if (action_for(j) == serve::JobAction::kRisk) {
        VADASA_ASSIGN_OR_RETURN(const api::RiskReport report, session.Risk());
        expected[j] = serve::EncodeResult(report);
      } else {
        VADASA_ASSIGN_OR_RETURN(const api::AnonymizeResponse response,
                                session.Anonymize());
        expected[j] = serve::EncodeResult(response);
      }
    }

    // Same jobs through the scheduler, concurrently, with data-parallel shards.
    ThreadPool::SetGlobalThreads(ParamU64(repro, "threads", 2));
    serve::SchedulerOptions scheduler_options;
    scheduler_options.workers = ParamU64(repro, "workers", 2);
    scheduler_options.max_queue = njobs;
    serve::JobScheduler scheduler(scheduler_options);
    std::vector<uint64_t> ids(njobs);
    for (size_t j = 0; j < njobs; ++j) {
      serve::JobRequest request;
      request.session = session;
      request.action = action_for(j);
      request.explain = true;  // As the reference's Session::Risk().
      VADASA_ASSIGN_OR_RETURN(ids[j], scheduler.Submit(std::move(request)));
    }
    for (size_t j = 0; j < njobs; ++j) {
      VADASA_ASSIGN_OR_RETURN(const serve::JobResult result,
                              scheduler.Wait(ids[j]));
      if (result.state != serve::JobState::kDone) {
        return Status::FailedPrecondition(
            "job " + std::to_string(j) + " ended " +
            serve::JobStateToString(result.state) + ": " +
            result.status.ToString());
      }
      if (*result.payload != expected[j]) {
        return Status::FailedPrecondition(
            "job " + std::to_string(j) + ": scheduler " +
            (action_for(j) == serve::JobAction::kRisk ? "risk report" : "release") +
            " is not byte-identical to the sequential facade call");
      }
    }
    scheduler.Shutdown();
    return Status::OK();
  };
  const Status status = run();
  ThreadPool::SetGlobalThreads(previous);
  return status;
}

Status EvalChaosServeNeverCorrupts(const ReproCase& repro) {
  // Chaos harness (docs/robustness.md): one fault-free reference pass
  // through the live protocol+scheduler stack, then `rounds` passes with
  // random failpoint policies armed. Faults may fail any individual request,
  // but every response must stay one well-formed JSON line, nothing may
  // hang, and every request that still succeeds must return a payload
  // byte-identical to the reference.
  failpoint::DisarmAll();  // A fault leaked from elsewhere would taint the reference.

  const size_t njobs = ParamU64(repro, "njobs", 3);
  const size_t rounds = ParamU64(repro, "rounds", 3);
  const size_t workers = ParamU64(repro, "workers", 2);

  // An on-disk copy of the table: jobs alternate between the in-memory
  // registration and this path so the registry's load/categorize failpoints
  // and its quarantine bookkeeping see real traffic. Some generated tables
  // do not survive a CSV round trip through the categorizer; probe once and
  // keep those cases in-memory only.
  const std::string csv_path = "/tmp/vadasa-chaos-" +
                               std::to_string(repro.seed) + "-" +
                               std::to_string(repro.case_index) + ".csv";
  {
    std::ofstream out(csv_path);
    out << WriteCsv(repro.table.ToCsv());
  }
  bool csv_usable = false;
  {
    serve::DatasetRegistry probe;
    csv_usable = probe.Load(csv_path).ok();
  }
  auto dataset_for = [&](size_t j) {
    return (csv_usable && j % 3 == 2) ? csv_path : std::string("chaos-mem");
  };
  auto action_for = [](size_t j) { return j % 2 == 1 ? "risk" : "anonymize"; };
  auto submit_line = [&](size_t j) {
    Json::Object req;
    req["op"] = "submit";
    req["dataset"] = dataset_for(j);
    req["action"] = action_for(j);
    req["measure"] = Param(repro, "measure", "k-anonymity");
    req["k"] = Json(static_cast<int64_t>(ParamU64(repro, "k", 2)));
    req["threshold"] = ParamDouble(repro, "threshold", 0.5);
    req["standard_nulls"] = Param(repro, "semantics", "maybe") == "standard";
    return Json(std::move(req)).Dump();
  };

  // The response-line contract every pass must honor, faulted or not.
  auto check_wellformed = [](const std::string& line) -> Result<Json> {
    auto parsed = Json::Parse(line);
    if (!parsed.ok()) {
      return Status::FailedPrecondition("response is not JSON: " + line);
    }
    if (!parsed->Has("ok") || !(*parsed)["ok"].is_bool()) {
      return Status::FailedPrecondition("response has no boolean \"ok\": " +
                                        line);
    }
    if (parsed->GetString("trace_id", "").size() != 16) {
      return Status::FailedPrecondition("response has no trace_id: " + line);
    }
    return parsed;
  };
  // The result fields that must match across runs (timings and trace ids
  // legitimately differ).
  auto payload_of = [](const Json& response) {
    Json::Object payload;
    for (const char* key : {"csv", "audit", "risk"}) {
      if (response.Has(key)) payload[key] = response[key];
    }
    return Json(std::move(payload)).Dump();
  };

  // One pass over a fresh stack; records the payload of every job that
  // reached kDone.
  auto run_pass = [&](serve::ClientQuota* quota,
                      std::map<size_t, std::string>* done) -> Status {
    serve::DatasetRegistry registry;
    VADASA_RETURN_NOT_OK(registry.Register("chaos-mem", repro.table));
    serve::SchedulerOptions scheduler_options;
    scheduler_options.workers = workers;
    scheduler_options.max_queue = njobs + 2;
    serve::JobScheduler scheduler(scheduler_options);
    serve::Protocol protocol(&registry, &scheduler);
    bool shutdown_requested = false;

    VADASA_RETURN_NOT_OK(
        check_wellformed(protocol.Handle("{\"op\":\"ping\"}",
                                         &shutdown_requested))
            .status());
    for (size_t j = 0; j < njobs; ++j) {
      VADASA_ASSIGN_OR_RETURN(
          const Json submitted,
          check_wellformed(protocol.Handle(submit_line(j), &shutdown_requested,
                                           quota)));
      if (!submitted.GetBool("ok", false)) continue;  // A clean injected rejection.
      Json::Object result_req;
      result_req["op"] = "result";
      result_req["id"] = submitted["id"];
      VADASA_ASSIGN_OR_RETURN(
          const Json result,
          check_wellformed(protocol.Handle(Json(std::move(result_req)).Dump(),
                                           &shutdown_requested)));
      if (!result.GetBool("ok", false)) {
        return Status::FailedPrecondition(
            "result for submitted job " + std::to_string(j) +
            " errored instead of reporting a terminal state");
      }
      if (result.GetString("state", "") == "done") {
        (*done)[j] = payload_of(result);
      }
    }
    // Malformed input and unknown ids must also stay clean errors mid-chaos.
    VADASA_ASSIGN_OR_RETURN(
        const Json unknown,
        check_wellformed(protocol.Handle("{\"op\":\"status\",\"id\":999999999}",
                                         &shutdown_requested)));
    if (unknown.GetBool("ok", false)) {
      return Status::FailedPrecondition("unknown job id did not error");
    }
    VADASA_ASSIGN_OR_RETURN(
        const Json garbled,
        check_wellformed(protocol.Handle("{not json", &shutdown_requested)));
    if (garbled.GetBool("ok", false)) {
      return Status::FailedPrecondition("garbled request did not error");
    }
    scheduler.Shutdown();
    return Status::OK();
  };

  // Reference pass: no faults, no quota. Every job must finish kDone — a
  // fault-free stack that fails is itself a bug this property catches.
  std::map<size_t, std::string> reference;
  VADASA_RETURN_NOT_OK(run_pass(nullptr, &reference));
  for (size_t j = 0; j < njobs; ++j) {
    if (reference.find(j) == reference.end()) {
      return Status::FailedPrecondition(
          "fault-free reference pass did not finish job " + std::to_string(j));
    }
  }

  // Chaos rounds: deterministic random policies from the case's aux stream.
  // crash-once is deliberately excluded — aborting the test runner is the
  // one injected behavior a property cannot observe.
  const char* kSites[] = {"serve.registry.load", "serve.registry.categorize",
                          "serve.scheduler.submit", "serve.scheduler.run"};
  const char* kCodes[] = {"internal",  "io",        "unavailable",
                          "failed",    "cancelled", "deadline"};
  Rng aux(repro.seed);
  for (size_t r = 0; r < rounds; ++r) {
    std::string spec;
    for (const char* site : kSites) {
      const double roll = aux.NextDouble();
      const char* code = kCodes[aux.NextBelow(6)];
      const uint64_t arg = aux.NextBelow(8);
      if (roll < 0.45) continue;  // This site stays healthy this round.
      std::string policy;
      if (roll < 0.65) {
        policy = std::string("error(") + code + ")";
      } else if (roll < 0.80) {
        policy = "delay(" + std::to_string(1 + arg) + ")";
      } else {
        policy = std::string("every(") + std::to_string(2 + arg % 3) + "," +
                 code + ")";
      }
      if (!spec.empty()) spec += ";";
      spec += std::string(site) + "=" + policy;
    }
    failpoint::ScopedFailpoints armed(spec);
    serve::QuotaOptions quota_options;
    if (aux.NextDouble() < 0.5) {
      quota_options.max_in_flight = 1 + aux.NextBelow(3);
    }
    serve::ClientQuota quota(quota_options);
    std::map<size_t, std::string> observed;
    Status round_status = run_pass(&quota, &observed);
    if (!round_status.ok()) {
      return Status::FailedPrecondition("chaos round " + std::to_string(r) +
                                        " [" + spec + "]: " +
                                        round_status.ToString());
    }
    for (const auto& [j, payload] : observed) {
      if (payload != reference[j]) {
        return Status::FailedPrecondition(
            "chaos round " + std::to_string(r) + " [" + spec + "]: job " +
            std::to_string(j) +
            " succeeded with a payload different from the fault-free run");
      }
    }
  }
  std::remove(csv_path.c_str());
  return Status::OK();
}

/// OK when `got` equals the naive scan's `want` exactly (== on doubles);
/// otherwise names `what` and the first differing row.
Status SameStats(const core::GroupStats& got, const core::GroupStats& want,
                 const std::string& what) {
  if (got.frequency.size() != want.frequency.size() ||
      got.weight_sum.size() != want.weight_sum.size()) {
    return Status::FailedPrecondition(what + ": stats cover " +
                                      std::to_string(got.frequency.size()) +
                                      " rows, the table has " +
                                      std::to_string(want.frequency.size()));
  }
  for (size_t r = 0; r < want.frequency.size(); ++r) {
    if (got.frequency[r] != want.frequency[r] ||
        got.weight_sum[r] != want.weight_sum[r]) {
      return Status::FailedPrecondition(
          what + ": row " + std::to_string(r) + " has frequency " +
          std::to_string(got.frequency[r]) + " and weight " +
          std::to_string(got.weight_sum[r]) + ", the naive scan " +
          std::to_string(want.frequency[r]) + " and " +
          std::to_string(want.weight_sum[r]));
    }
  }
  return Status::OK();
}

Status EvalGroupingMatchesNaiveOracle(const ReproCase& repro) {
  // Every grouping consumer against the definition of Section 4.3, evaluated
  // as a linear scan over the Value cells (oracles.h says why == is sound):
  // cold stats, an incrementally maintained cache and its what-if queries,
  // the grouping measures, SUDA's MSUs and a full cycle.
  const MicrodataTable& table = repro.table;
  const RiskContext ctx = ContextFrom(repro);
  const std::vector<size_t> qis = ctx.ResolveQiColumns(table);
  VADASA_RETURN_NOT_OK(SameStats(core::ComputeGroupStats(table, qis, ctx.semantics),
                                 NaiveGroupStats(table, qis, ctx.semantics),
                                 "ComputeGroupStats"));

  // A RiskEvalCache driven through local-suppression steps the way the cycle
  // drives it, probed after every step.
  Rng aux(repro.seed);
  MicrodataTable evolving = table;
  core::RiskEvalCache cache;
  core::LocalSuppression suppression;
  const size_t steps = ParamU64(repro, "steps", 4);
  for (size_t step = 0; step <= steps && !qis.empty() && table.num_rows() > 0; ++step) {
    if (step > 0) {
      const size_t row = aux.NextBelow(evolving.num_rows());
      const size_t column = qis[aux.NextBelow(qis.size())];
      if (suppression.CanApply(evolving, row, column)) {
        VADASA_ASSIGN_OR_RETURN(const core::AnonymizationStep applied,
                                suppression.Apply(&evolving, row, column));
        cache.NotifyRowsChanged(evolving, applied.changed_rows);
      }
    }
    const std::string at = "RiskEvalCache after " + std::to_string(step) + " step(s)";
    VADASA_RETURN_NOT_OK(SameStats(cache.Stats(evolving, qis, ctx.semantics),
                                   NaiveGroupStats(evolving, qis, ctx.semantics), at));
    // What-if probes: a row's own pattern with one cell replaced by a null
    // or by a value no column holds.
    const core::GroupIndex& index = cache.Index(evolving, qis, ctx.semantics);
    for (int probe = 0; probe < 4; ++probe) {
      std::vector<Value> pattern;
      const size_t row = aux.NextBelow(evolving.num_rows());
      for (const size_t c : qis) pattern.push_back(evolving.cell(row, c));
      pattern[aux.NextBelow(qis.size())] =
          probe % 2 == 0 ? Value::Null(static_cast<int>(aux.NextBelow(60)))
                         : Value::String("absent-from-every-column");
      const core::PatternMass got = index.Query(pattern);
      const core::PatternMass want =
          NaivePatternMass(evolving, qis, pattern, ctx.semantics);
      if (got.count != want.count || got.weight != want.weight) {
        return Status::FailedPrecondition(
            at + ": Query probe " + std::to_string(probe) + " gives count " +
            std::to_string(got.count) + " and weight " + std::to_string(got.weight) +
            ", the naive scan " + std::to_string(want.count) + " and " +
            std::to_string(want.weight));
      }
    }
  }

  // The grouping measures: their risks over the production stats equal
  // their formulas over the naive stats.
  for (const char* name : {"k-anonymity", "reidentification", "individual"}) {
    VADASA_ASSIGN_OR_RETURN(const auto measure, core::MakeRiskMeasure(name));
    VADASA_ASSIGN_OR_RETURN(const std::vector<double> got,
                            measure->ComputeRisks(table, ctx));
    VADASA_ASSIGN_OR_RETURN(const std::vector<double> want,
                            NaiveStatsMeasure(measure.get()).ComputeRisks(table, ctx));
    if (got != want) {
      return Status::FailedPrecondition(std::string(name) +
                                        ": risks differ from the naive stats' risks");
    }
  }

  // SUDA's pruned lattice search against brute-force enumeration.
  VADASA_ASSIGN_OR_RETURN(const core::SudaDetails details,
                          core::SudaRisk().ComputeDetails(table, ctx));
  const auto naive_msus =
      NaiveMsus(table, qis, std::min(ctx.k, static_cast<int>(qis.size())));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (details.msus[r] != naive_msus[r]) {
      return Status::FailedPrecondition(
          "suda: row " + std::to_string(r) + " has " +
          std::to_string(details.msus[r].size()) + " MSU(s), brute force finds " +
          std::to_string(naive_msus[r].size()) + " or different ones");
    }
  }

  // A full cycle releases the same bytes when its risks come from the
  // oracle.
  const std::string measure_name = Param(repro, "measure", "k-anonymity");
  VADASA_ASSIGN_OR_RETURN(const auto cycle_measure, core::MakeRiskMeasure(measure_name));
  const NaiveStatsMeasure naive_measure(cycle_measure.get());
  core::CycleOptions options;
  options.threshold = ParamDouble(repro, "threshold", 0.5);
  options.risk = ctx;
  auto release = [&](const core::RiskMeasure* measure) -> Result<std::string> {
    core::LocalSuppression cycle_suppression;
    core::AnonymizationCycle cycle(measure, &cycle_suppression, options);
    MicrodataTable released = table;
    VADASA_RETURN_NOT_OK(cycle.Run(&released).status());
    return WriteCsv(released.ToCsv());
  };
  VADASA_ASSIGN_OR_RETURN(const std::string production, release(cycle_measure.get()));
  VADASA_ASSIGN_OR_RETURN(const std::string naive, release(&naive_measure));
  if (production != naive) {
    return Status::FailedPrecondition(
        "cycle(" + measure_name +
        "): release differs from the cycle whose risks come from the naive scan");
  }
  return Status::OK();
}

/// A row for a delta against `table`: usually a copy of an existing row with
/// one cell perturbed, sometimes to a labelled null — the suppression-shaped
/// mutations a streaming feed actually carries. Deterministic in (aux state,
/// table).
std::vector<Value> RandomDeltaRow(Rng* aux, const MicrodataTable& table) {
  std::vector<Value> row;
  if (table.num_rows() > 0 && aux->NextDouble() < 0.8) {
    const std::span<const Value> source = table.row(aux->NextBelow(table.num_rows()));
    row.assign(source.begin(), source.end());
  } else {
    for (const auto& attribute : table.attributes()) {
      row.push_back(attribute.category == AttributeCategory::kWeight
                        ? Value::Double(1.0 + aux->NextBelow(4))
                        : Value::String("d" + std::to_string(aux->NextBelow(6))));
    }
  }
  // Perturb one non-weight cell so deltas actually move groups around.
  const size_t c = aux->NextBelow(table.num_columns());
  if (table.attributes()[c].category != AttributeCategory::kWeight) {
    row[c] = aux->NextDouble() < 0.3
                 ? Value::Null(static_cast<int>(aux->NextBelow(50)))
                 : Value::String("delta-" + std::to_string(aux->NextBelow(8)));
  }
  return row;
}

/// Builds a random DeltaBatch against `table`'s current shape from `aux`.
Result<core::DeltaBatch> RandomDelta(Rng* aux, const MicrodataTable& table) {
  core::DeltaBatchBuilder builder(table.num_columns());
  const size_t nops = 1 + aux->NextBelow(4);
  for (size_t o = 0; o < nops; ++o) {
    const double roll = aux->NextDouble();
    if (table.num_rows() == 0 || roll < 0.4) {
      builder.Append(RandomDeltaRow(aux, table));
    } else if (roll < 0.75) {
      builder.Update(aux->NextBelow(table.num_rows()), RandomDeltaRow(aux, table));
    } else {
      builder.Delete(aux->NextBelow(table.num_rows()));
    }
  }
  return builder.Build();
}

/// A random DeltaBatch that keeps `table`'s row count: updates, plus one
/// append per distinct delete — the shape of a streaming feed's batch (60
/// updates, 20 deletes, 20 appends per 100 ops in perfbench's feed).
Result<core::DeltaBatch> RowCountPreservingDelta(Rng* aux, const MicrodataTable& table) {
  core::DeltaBatchBuilder builder(table.num_columns());
  const size_t n = table.num_rows();
  if (n == 0) return builder.Build();
  const size_t updates = 1 + aux->NextBelow(3);
  for (size_t u = 0; u < updates; ++u) {
    builder.Update(aux->NextBelow(n), RandomDeltaRow(aux, table));
  }
  std::vector<size_t> rows(n);
  for (size_t r = 0; r < n; ++r) rows[r] = r;
  const size_t deletes = aux->NextBelow(std::min<size_t>(n, 3) + 1);
  for (size_t d = 0; d < deletes; ++d) {
    std::swap(rows[d], rows[d + aux->NextBelow(n - d)]);  // Distinct rows.
    builder.Delete(rows[d]);
    builder.Append(RandomDeltaRow(aux, table));
  }
  return builder.Build();
}

/// The served leg of delta-vs-full-recompute: a chain of row-count-preserving
/// deltas through DatasetRegistry::ApplyDelta, each version read by
/// concurrent risk and release jobs on a JobScheduler. Every version keeps
/// the row count, so a version that adopted another version's warm state
/// could not be told apart by shape; every served risk vector, release and
/// audit must equal a cold session's over the same table.
Status CheckServedDeltaChain(const api::SessionOptions& options,
                             const MicrodataTable& table, size_t steps, Rng* aux) {
  serve::DatasetRegistry registry;
  VADASA_RETURN_NOT_OK(registry.Register("delta-mem", table));
  serve::JobScheduler scheduler;
  for (size_t s = 0; s <= steps; ++s) {
    const std::string at = "served step " + std::to_string(s);
    if (s > 0) {
      VADASA_ASSIGN_OR_RETURN(const auto current, registry.Load("delta-mem"));
      VADASA_ASSIGN_OR_RETURN(const core::DeltaBatch batch,
                              RowCountPreservingDelta(aux, *current->table));
      VADASA_RETURN_NOT_OK(registry.ApplyDelta("delta-mem", batch).status());
    }
    VADASA_ASSIGN_OR_RETURN(const auto version, registry.Load("delta-mem"));
    std::vector<uint64_t> ids;
    for (size_t j = 0; j < 4; ++j) {
      serve::JobRequest request;
      VADASA_ASSIGN_OR_RETURN(request.session,
                              registry.OpenSession("delta-mem", options));
      request.action = j % 2 == 0 ? serve::JobAction::kRisk : serve::JobAction::kAnonymize;
      request.explain = true;  // As the cold session's Risk().
      VADASA_ASSIGN_OR_RETURN(const uint64_t id, scheduler.Submit(std::move(request)));
      ids.push_back(id);
    }
    VADASA_ASSIGN_OR_RETURN(const api::Session cold,
                            api::Session::FromShared(version->table, nullptr, options));
    VADASA_ASSIGN_OR_RETURN(const api::RiskReport risk, cold.Risk());
    VADASA_ASSIGN_OR_RETURN(const api::AnonymizeResponse release, cold.Anonymize());
    const std::string risk_payload = serve::EncodeResult(risk);
    const std::string release_payload = serve::EncodeResult(release);
    for (const uint64_t id : ids) {
      VADASA_ASSIGN_OR_RETURN(const serve::JobResult result, scheduler.Wait(id));
      if (result.state != serve::JobState::kDone) {
        return Status::FailedPrecondition(at + ": job ended " +
                                          serve::JobStateToString(result.state) +
                                          ": " + result.status.ToString());
      }
      if (result.action == serve::JobAction::kRisk) {
        if (*result.payload != risk_payload) {
          return Status::FailedPrecondition(
              at + ": served risks differ from the cold session's");
        }
      } else if (*result.payload != release_payload) {
        return Status::FailedPrecondition(
            at + ": served release is not byte-identical to the cold session's");
      }
    }
  }
  scheduler.Shutdown();
  return Status::OK();
}

Status EvalDeltaVsFullRecompute(const ReproCase& repro) {
  // The incremental-maintenance contract (docs/api.md §"Streaming deltas"):
  // a session maintained through Session::Apply must be indistinguishable —
  // risk vectors, released bytes, audit text — from a cold session built
  // from scratch over the exact post-delta table, across chained delta steps;
  // then the same for versions served through the registry and scheduler.
  api::SessionOptions options;
  options.risk_measure = Param(repro, "measure", "k-anonymity");
  options.k = static_cast<int>(ParamU64(repro, "k", 2));
  options.threshold = ParamDouble(repro, "threshold", 0.5);
  options.standard_nulls = Param(repro, "semantics", "maybe") == "standard";
  const size_t steps = ParamU64(repro, "steps", 2);

  Rng aux(repro.seed);
  const auto shared = std::make_shared<const MicrodataTable>(repro.table);
  VADASA_ASSIGN_OR_RETURN(
      api::Session session,
      api::Session::FromShared(shared, nullptr, options));
  VADASA_RETURN_NOT_OK(session.Warm());
  for (size_t s = 0; s < steps; ++s) {
    VADASA_ASSIGN_OR_RETURN(const core::DeltaBatch batch,
                            RandomDelta(&aux, *session.shared_table()));
    VADASA_ASSIGN_OR_RETURN(api::Session child, session.Apply(batch));
    VADASA_ASSIGN_OR_RETURN(
        api::Session cold,
        api::Session::FromShared(child.shared_table(), nullptr, options));
    VADASA_RETURN_NOT_OK(cold.Warm());
    VADASA_ASSIGN_OR_RETURN(const api::RiskReport incremental, child.Risk());
    VADASA_ASSIGN_OR_RETURN(const api::RiskReport reference, cold.Risk());
    if (incremental.tuple_risks != reference.tuple_risks) {
      return Status::FailedPrecondition(
          "step " + std::to_string(s) +
          ": incremental risks differ from the cold rebuild");
    }
    VADASA_ASSIGN_OR_RETURN(const api::AnonymizeResponse inc_release,
                            child.Anonymize());
    VADASA_ASSIGN_OR_RETURN(const api::AnonymizeResponse ref_release,
                            cold.Anonymize());
    if (WriteCsv(inc_release.table.ToCsv()) !=
        WriteCsv(ref_release.table.ToCsv())) {
      return Status::FailedPrecondition(
          "step " + std::to_string(s) +
          ": incremental release is not byte-identical to the cold rebuild");
    }
    if (inc_release.ToText() != ref_release.ToText()) {
      return Status::FailedPrecondition(
          "step " + std::to_string(s) +
          ": incremental audit text differs from the cold rebuild");
    }
    session = std::move(child);
  }
  return CheckServedDeltaChain(options, repro.table, steps, &aux);
}

Status EvalCachedResultBitIdentical(const ReproCase& repro) {
  // The result-cache coherence contract (docs/serving.md): a hit replays the
  // exact bytes of the cold run it memoized, a primed hot policy keeps
  // hitting across interleaved unique-policy traffic, and replacing the
  // dataset's content can never serve a stale payload — the first hot
  // request after a one-cell edit must miss and match the edited table's
  // cold run. Checked through the live protocol stack.
  failpoint::DisarmAll();  // A leaked serve.cache.fill fault would drop fills.

  const size_t storm = ParamU64(repro, "njobs", 4);
  const size_t workers = ParamU64(repro, "workers", 2);

  // The one-cell edit for the replace phase. Tables with no editable QI cell
  // skip that phase; the prime/storm interleaving checks still run.
  MicrodataTable edited = repro.table;
  size_t edit_row = 0, edit_col = 0;
  const bool can_edit = PickQiCell(repro, &edit_row, &edit_col);
  if (can_edit) {
    edited.set_cell(edit_row, edit_col,
                    Value::String("cache-coherence-edit"));
  }

  // `seed` participates in the canonical policy key, so a nonzero per-job
  // seed mints a unique policy (a guaranteed miss) over the same dataset.
  auto submit_line = [&](const std::string& action, uint64_t seed) {
    Json::Object req;
    req["op"] = "submit";
    req["dataset"] = "cache-mem";
    req["action"] = action;
    req["measure"] = Param(repro, "measure", "k-anonymity");
    req["k"] = Json(static_cast<int64_t>(ParamU64(repro, "k", 2)));
    req["threshold"] = ParamDouble(repro, "threshold", 0.5);
    req["standard_nulls"] = Param(repro, "semantics", "maybe") == "standard";
    if (seed != 0) req["seed"] = Json(static_cast<int64_t>(seed));
    return Json(std::move(req)).Dump();
  };
  auto submit = [](serve::Protocol* protocol,
                   const std::string& line) -> Result<uint64_t> {
    bool shutdown = false;
    VADASA_ASSIGN_OR_RETURN(const Json response,
                            Json::Parse(protocol->Handle(line, &shutdown)));
    if (!response.GetBool("ok", false)) {
      return Status::FailedPrecondition("submit rejected: " +
                                        response.GetString("error", "?"));
    }
    return static_cast<uint64_t>(response.GetInt("id", 0));
  };
  // One terminal result: the cached bit plus the payload fields that must be
  // byte-stable (timings and trace ids legitimately differ).
  struct Outcome {
    bool cached = false;
    std::string payload;
  };
  auto result_of = [](serve::Protocol* protocol,
                      uint64_t id) -> Result<Outcome> {
    Json::Object req;
    req["op"] = "result";
    req["id"] = Json(id);
    bool shutdown = false;
    VADASA_ASSIGN_OR_RETURN(
        const Json response,
        Json::Parse(protocol->Handle(Json(std::move(req)).Dump(), &shutdown)));
    if (!response.GetBool("ok", false) ||
        response.GetString("state", "") != "done") {
      return Status::FailedPrecondition(
          "job " + std::to_string(id) + " did not finish kDone: " +
          response.GetString("error", response.GetString("state", "?")));
    }
    Outcome out;
    out.cached = response.GetBool("cached", false);
    Json::Object payload;
    for (const char* key : {"csv", "audit", "risk"}) {
      if (response.Has(key)) payload[key] = response[key];
    }
    out.payload = Json(std::move(payload)).Dump();
    return out;
  };
  auto run_job = [&](serve::Protocol* protocol, const std::string& action,
                     uint64_t seed) -> Result<Outcome> {
    VADASA_ASSIGN_OR_RETURN(const uint64_t id,
                            submit(protocol, submit_line(action, seed)));
    return result_of(protocol, id);
  };

  const char* kActions[] = {"risk", "anonymize"};
  // References: the identical protocol stack with caching disabled,
  // before and after the content edit.
  std::map<std::string, std::string> reference;
  {
    serve::DatasetRegistry registry;
    VADASA_RETURN_NOT_OK(registry.Register("cache-mem", repro.table));
    serve::SchedulerOptions scheduler_options;
    scheduler_options.workers = workers;
    scheduler_options.max_queue = storm + 4;
    serve::JobScheduler scheduler(scheduler_options);
    serve::Protocol protocol(&registry, &scheduler);
    for (const char* action : kActions) {
      VADASA_ASSIGN_OR_RETURN(const Outcome cold,
                              run_job(&protocol, action, 0));
      if (cold.cached) {
        return Status::FailedPrecondition(
            "cache-free stack reported cached:true");
      }
      reference[action] = cold.payload;
    }
    if (can_edit) {
      VADASA_RETURN_NOT_OK(registry.Replace("cache-mem", edited));
      for (const char* action : kActions) {
        VADASA_ASSIGN_OR_RETURN(const Outcome cold,
                                run_job(&protocol, action, 0));
        reference[std::string(action) + "+edit"] = cold.payload;
      }
    }
    scheduler.Shutdown();
  }
  // The cached stack under test.
  serve::ResultCache cache;
  serve::DatasetRegistry registry;
  registry.set_result_cache(&cache);
  VADASA_RETURN_NOT_OK(registry.Register("cache-mem", repro.table));
  serve::SchedulerOptions scheduler_options;
  scheduler_options.workers = workers;
  scheduler_options.max_queue = storm + 4;
  scheduler_options.result_cache = &cache;
  serve::JobScheduler scheduler(scheduler_options);
  serve::Protocol protocol(&registry, &scheduler);

  // Prime both hot policies: each first run is a miss whose payload must
  // already match the cache-free reference.
  for (const char* action : kActions) {
    VADASA_ASSIGN_OR_RETURN(const Outcome prime,
                            run_job(&protocol, action, 0));
    if (prime.cached) {
      return Status::FailedPrecondition(std::string(action) +
                                        ": first run hit an empty cache");
    }
    if (prime.payload != reference[action]) {
      return Status::FailedPrecondition(
          std::string(action) +
          ": cold run differs from the cache-free stack");
    }
  }

  // Storm: interleave hot submits with unique-policy submits, then
  // collect the results in a shuffled order. Primed hot policies must
  // hit with the reference bytes; unique policies must miss.
  Rng aux(repro.seed);
  struct StormJob {
    uint64_t id = 0;
    bool hot = false;
    std::string action;
  };
  std::vector<StormJob> jobs(storm);
  for (size_t j = 0; j < storm; ++j) {
    jobs[j].hot = aux.NextDouble() < 0.6;
    jobs[j].action = kActions[aux.NextBelow(2)];
    const uint64_t seed = jobs[j].hot ? 0 : 1000 + j;
    VADASA_ASSIGN_OR_RETURN(
        jobs[j].id, submit(&protocol, submit_line(jobs[j].action, seed)));
  }
  for (size_t j = storm; j > 1; --j) {
    std::swap(jobs[j - 1], jobs[aux.NextBelow(j)]);
  }
  for (const StormJob& job : jobs) {
    VADASA_ASSIGN_OR_RETURN(const Outcome outcome,
                            result_of(&protocol, job.id));
    if (outcome.cached != job.hot) {
      return Status::FailedPrecondition(
          job.action + " job " + std::to_string(job.id) + ": expected " +
          (job.hot ? "a hit on the primed policy" :
                     "a miss on a unique policy") +
          ", got cached:" + (outcome.cached ? "true" : "false"));
    }
    if (job.hot && outcome.payload != reference[job.action]) {
      return Status::FailedPrecondition(
          job.action + " job " + std::to_string(job.id) +
          ": cache hit is not byte-identical to the cold run");
    }
  }

  // Replace the dataset's content: the very next hot request must MISS
  // (a stale hit would serve the old table's bytes) and match the edited
  // table's cold reference; the request after it must hit those bytes.
  if (can_edit) {
    VADASA_RETURN_NOT_OK(registry.Replace("cache-mem", edited));
    for (const char* action : kActions) {
      VADASA_ASSIGN_OR_RETURN(const Outcome first,
                              run_job(&protocol, action, 0));
      if (first.cached) {
        return Status::FailedPrecondition(
            std::string(action) +
            ": stale cache hit after the dataset content changed");
      }
      if (first.payload != reference[std::string(action) + "+edit"]) {
        return Status::FailedPrecondition(
            std::string(action) +
            ": post-replace run differs from the edited table's reference");
      }
      VADASA_ASSIGN_OR_RETURN(const Outcome second,
                              run_job(&protocol, action, 0));
      if (!second.cached || second.payload != first.payload) {
        return Status::FailedPrecondition(
            std::string(action) +
            ": re-primed entry did not replay the post-replace bytes");
      }
    }
  }
  scheduler.Shutdown();
  return Status::OK();
}

/// Whether FingerprintTable must still hash `table` as the retired
/// implementation did: every double is one that 6 significant digits
/// round-trip (and not a negative zero, now spelled -0.0), and no row writes
/// nothing (a one-column row holding the empty string, now written as a
/// quoted space).
bool KeepsRetiredBytes(const MicrodataTable& table) {
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Value& v = table.cell(r, c);
      if (v.is_string() && v.as_string().empty() && table.num_columns() == 1) {
        return false;
      }
      if (!v.is_double()) continue;
      const double d = v.as_double();
      char buffer[32];
      const int size = std::snprintf(buffer, sizeof(buffer), "%.6g", d);
      double parsed = 0;
      std::from_chars(buffer, buffer + size, parsed);
      if (parsed != d || (d == 0 && std::signbit(d))) return false;
    }
  }
  return true;
}

/// The same cell with a different value of the same kind.
Value EditedCell(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kInt:
      return Value::Int(v.as_int() + 1);
    case ValueKind::kDouble:
      return Value::Double(std::nextafter(v.as_double(), HUGE_VAL));
    case ValueKind::kNull:
      return Value::Null(v.null_label() + 1);
    default:
      return Value::String(v.ToString() + "!");
  }
}

Status EvalCsvStreamMatchesReference(const ReproCase& repro) {
  // The generated document: the streaming loader and ParseCsv against the
  // retired parser and load, and the writer's output stable after one pass.
  VADASA_RETURN_NOT_OK(CheckLoadMatchesReference(repro.program));
  VADASA_RETURN_NOT_OK(CheckCsvWriteStable(repro.program));

  // The generated table: its text, loaded back, gives its cells again.
  const MicrodataTable& table = repro.table;
  const std::string text = table.CsvText();
  if (text != WriteCsv(table.ToCsv())) {
    return Status::FailedPrecondition("CsvText() differs from WriteCsv(ToCsv())");
  }
  VADASA_RETURN_NOT_OK(CheckLoadMatchesReference(text));
  auto loaded = MicrodataTable::FromCsvText("csv", text);
  if (!loaded.ok()) {
    return Status::FailedPrecondition("the table's own CSV text does not load: " +
                                      loaded.status().ToString());
  }
  if (loaded->num_rows() != table.num_rows()) {
    return Status::FailedPrecondition(
        "the table's CSV text loads " + std::to_string(loaded->num_rows()) +
        " rows, the table has " + std::to_string(table.num_rows()));
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (!loaded->cell(r, c).Equals(table.cell(r, c))) {
        return Status::FailedPrecondition(
            "row " + std::to_string(r) + " column " + std::to_string(c) + " holds \"" +
            table.cell(r, c).ToString() + "\" but its CSV text loads back as \"" +
            loaded->cell(r, c).ToString() + "\"");
      }
    }
  }

  // The streamed fingerprint hashes the bytes the retired one did, wherever
  // those bytes are unchanged, and a one-cell edit changes it.
  const uint64_t fingerprint = serve::FingerprintTable(table);
  if (KeepsRetiredBytes(table) && fingerprint != ReferenceFingerprint(table)) {
    return Status::FailedPrecondition(
        "the streamed fingerprint differs from the retired one");
  }
  if (table.num_rows() > 0) {
    Rng aux(repro.seed);
    const size_t row = aux.NextBelow(table.num_rows());
    const size_t column = aux.NextBelow(table.num_columns());
    MicrodataTable edited = table;
    edited.set_cell(row, column, EditedCell(table.cell(row, column)));
    if (serve::FingerprintTable(edited) == fingerprint) {
      return Status::FailedPrecondition(
          "editing row " + std::to_string(row) + " column " + std::to_string(column) +
          " from \"" + table.cell(row, column).ToString() +
          "\" leaves the fingerprint unchanged");
    }
  }
  return Status::OK();
}

/// The same value spelled apart, or the same spelling in a fresh payload:
/// Int and Double of one number, 0 and -0.0, a double one ulp away (equal to
/// six digits), a string copied into its own payload.
Value SpelledTwin(const Value& v) {
  if (v.is_int()) return Value::Double(static_cast<double>(v.as_int()));
  if (v.is_double()) {
    const double d = v.as_double();
    if (d == 0) return Value::Double(-d);
    if (d == std::trunc(d) && std::fabs(d) < 1e15) {
      return Value::Int(static_cast<int64_t>(d));
    }
    return Value::Double(std::nextafter(d, HUGE_VAL));
  }
  if (v.is_string()) return Value::String(v.as_string());
  return v;
}

/// The release utility-matches-reference measures, re-derived from the case:
/// the table after an anonymization cycle, or after random hand edits.
MicrodataTable UtilityRelease(const ReproCase& repro) {
  MicrodataTable released = repro.table;
  Rng aux(repro.seed);
  if (Param(repro, "release", "edits") == "cycle") {
    auto measure = core::MakeRiskMeasure(Param(repro, "measure", "k-anonymity"));
    if (!measure.ok()) return released;
    core::CycleOptions options;
    options.threshold = ParamDouble(repro, "threshold", 0.5);
    options.risk = ContextFrom(repro);
    const core::Hierarchy hierarchy = RandomHierarchy(&aux, released);
    core::LocalSuppression suppression;
    core::RecodeThenSuppress recoding(&hierarchy);
    core::Anonymizer* anonymizer = Param(repro, "anonymizer", "suppress") == "recode"
                                       ? static_cast<core::Anonymizer*>(&recoding)
                                       : &suppression;
    core::AnonymizationCycle cycle(measure->get(), anonymizer, options);
    // A run that stops early still leaves a table of the same shape.
    (void)cycle.Run(&released);
    return released;
  }
  const size_t rows = released.num_rows();
  const std::vector<size_t> qis = released.QuasiIdentifierColumns();
  if (rows == 0 || qis.empty()) return released;
  const size_t edits = aux.NextBelow(2 * rows + 1);
  uint64_t label = 1000;
  for (size_t e = 0; e < edits; ++e) {
    const size_t row = aux.NextBelow(rows);
    const size_t column = qis[aux.NextBelow(qis.size())];
    Value edited;
    switch (aux.NextBelow(5)) {
      case 0:
        edited = Value::Null(label++);
        break;
      case 1:
        edited = RandomSpellingCell(&aux);
        break;
      case 2:
        edited = SpelledTwin(released.cell(row, column));
        break;
      case 3:
        edited = released.cell(aux.NextBelow(rows), column);
        break;
      default:
        edited = Value::String(released.cell(row, column).ToString() + "\x1f");
        break;
    }
    released.set_cell(row, column, std::move(edited));
  }
  for (const size_t c : released.ColumnsWithCategory(AttributeCategory::kNonIdentifying)) {
    if (aux.NextDouble() < 0.5) {
      const size_t row = aux.NextBelow(rows);
      released.set_cell(row, c,
                        aux.NextDouble() < 0.5 ? SpelledTwin(released.cell(row, c))
                                               : Value::Null(label++));
    }
  }
  return released;
}

Status SameUtilityField(const std::string& field, double got, double want) {
  if (got == want) return Status::OK();
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), " reads %.17g, the reference %.17g", got, want);
  return Status::FailedPrecondition(field + buffer);
}

Status EvalUtilityMatchesReference(const ReproCase& repro) {
  const MicrodataTable released = UtilityRelease(repro);
  auto got = core::MeasureUtility(repro.table, released);
  auto want = ReferenceMeasureUtility(repro.table, released);
  if (!got.ok() || !want.ok()) {
    if (got.ok() == want.ok() && got.status().code() == want.status().code()) {
      return Status::OK();
    }
    return Status::FailedPrecondition("MeasureUtility returns " +
                                      got.status().ToString() + ", the reference " +
                                      want.status().ToString());
  }
  if (got->marginals.size() != want->marginals.size()) {
    return Status::FailedPrecondition(
        "MeasureUtility reports " + std::to_string(got->marginals.size()) +
        " marginals, the reference " + std::to_string(want->marginals.size()));
  }
  for (size_t i = 0; i < got->marginals.size(); ++i) {
    const core::MarginalDistance& a = got->marginals[i];
    const core::MarginalDistance& b = want->marginals[i];
    if (a.attribute != b.attribute) {
      return Status::FailedPrecondition("marginal " + std::to_string(i) + " is \"" +
                                        a.attribute + "\", the reference's \"" +
                                        b.attribute + "\"");
    }
    VADASA_RETURN_NOT_OK(
        SameUtilityField(a.attribute + " total_variation", a.total_variation,
                         b.total_variation));
    VADASA_RETURN_NOT_OK(SameUtilityField(a.attribute + " suppressed_fraction",
                                          a.suppressed_fraction, b.suppressed_fraction));
  }
  VADASA_RETURN_NOT_OK(SameUtilityField("max_total_variation", got->max_total_variation,
                                        want->max_total_variation));
  VADASA_RETURN_NOT_OK(SameUtilityField("weighted_mean_ratio", got->weighted_mean_ratio,
                                        want->weighted_mean_ratio));
  return SameUtilityField("disturbed_pairs_fraction", got->disturbed_pairs_fraction,
                          want->disturbed_pairs_fraction);
}

vadalog::EngineOptions BoundedEngineOptions() {
  vadalog::EngineOptions options;
  options.max_rounds = 200;
  options.max_facts = 20000;
  options.track_provenance = false;
  return options;
}

Status EvalVadalogDeterminism(const ReproCase& repro) {
  auto program = vadalog::Parse(repro.program);
  if (!program.ok()) {
    // The grammar is parseable by construction; a shrunk fragment may not be.
    return Status::OK();
  }
  auto run_once = [&](vadalog::Database* db) {
    vadalog::Engine engine(BoundedEngineOptions());
    return engine.Run(*program, db);
  };
  vadalog::Database db1, db2;
  auto r1 = run_once(&db1);
  auto r2 = run_once(&db2);
  if (r1.ok() != r2.ok()) {
    return Status::FailedPrecondition(
        "engine nondeterministic: one run succeeded, the other failed with " +
        (r1.ok() ? r2.status() : r1.status()).ToString());
  }
  if (!r1.ok()) return Status::OK();  // Same failure both times: deterministic.
  if (db1.size() != db2.size()) {
    return Status::FailedPrecondition(
        "engine nondeterministic: " + std::to_string(db1.size()) + " vs " +
        std::to_string(db2.size()) + " facts across two identical runs");
  }
  for (const std::string& predicate : db1.Predicates()) {
    if (db1.DumpPredicate(predicate) != db2.DumpPredicate(predicate)) {
      return Status::FailedPrecondition(
          "engine nondeterministic: relation \"" + predicate +
          "\" differs across two identical runs");
    }
  }
  return Status::OK();
}

Status EvalChaseProvenanceExact(const ReproCase& repro) {
  auto program = vadalog::Parse(repro.program);
  if (!program.ok()) return Status::OK();  // A shrunk fragment may not parse.
  vadalog::EngineOptions options = BoundedEngineOptions();
  options.track_provenance = true;
  options.egd_mode = vadalog::EgdMode::kCollect;
  vadalog::Engine engine(options);
  vadalog::Database db;
  if (!engine.Run(*program, &db).ok()) return Status::OK();  // Out of bounds.
  return CheckChaseProvenance(*program, db);
}

Status EvalVadalogRobustness(const ReproCase& repro) {
  // Must not crash; any Status outcome is acceptable.
  auto program = vadalog::Parse(repro.program);
  if (!program.ok()) return Status::OK();
  vadalog::Database db;
  vadalog::Engine engine(BoundedEngineOptions());
  (void)engine.Run(*program, &db);
  return Status::OK();
}

// --- Generators. ---

const char* PickMeasure(Rng* rng) {
  return rng->NextDouble() < 0.5 ? "k-anonymity" : "reidentification";
}

const char* PickSemantics(Rng* rng, double maybe_probability) {
  return rng->NextDouble() < maybe_probability ? "maybe" : "standard";
}

/// A case over an Inflation & Growth table of `min_rows`-`max_rows` rows, 2-5
/// QIs and any distribution shape: each shape leaves some rows risky under
/// both PickMeasure measures.
ReproCase InflationGrowthCase(const std::string& property, Rng* rng, uint64_t i,
                              size_t min_rows, size_t max_rows) {
  ReproCase repro;
  repro.property = property;
  repro.seed = rng->Next();
  repro.case_index = i;
  using core::DistributionKind;
  const DistributionKind shapes[] = {DistributionKind::kRealWorld,
                                     DistributionKind::kUnbalanced,
                                     DistributionKind::kVeryUnbalanced};
  const DistributionKind shape = shapes[rng->NextBelow(3)];
  const size_t rows = min_rows + rng->NextBelow(max_rows - min_rows + 1);
  const int qis = static_cast<int>(rng->NextInt(2, 5));
  repro.table = core::GenerateInflationGrowth("prop", rows, qis, shape, rng->Next());
  repro.params["distribution"] = core::DistributionKindToString(shape);
  return repro;
}

std::vector<Property> BuildCatalog() {
  std::vector<Property> catalog;

  catalog.push_back(
      {"risk-unit-range",
       "every measure's per-tuple risk is a probability in [0,1] (Section 4.2)",
       false,
       [](Rng* rng, uint64_t i) {
         ReproCase repro = TableCase("risk-unit-range", rng, i);
         repro.params["k"] = std::to_string(rng->NextInt(2, 4));
         repro.params["semantics"] = PickSemantics(rng, 0.5);
         return repro;
       },
       EvalRiskUnitRange});

  catalog.push_back(
      {"post-cycle-safety",
       "after Algorithm 2 every released tuple is safe (risk <= T) or exhausted",
       false,
       [](Rng* rng, uint64_t i) {
         ReproCase repro = TableCase("post-cycle-safety", rng, i);
         repro.params["measure"] = PickMeasure(rng);
         repro.params["k"] = std::to_string(rng->NextInt(2, 4));
         repro.params["threshold"] =
             std::to_string(rng->NextDouble() < 0.5 ? 0.34 : 0.5);
         repro.params["semantics"] = PickSemantics(rng, 0.7);
         return repro;
       },
       EvalPostCycleSafety});

  catalog.push_back(
      {"suppression-monotone",
       "suppression never shrinks a =⊥ group nor raises k-anonymity risk",
       false,
       [](Rng* rng, uint64_t i) {
         ReproCase repro = TableCase("suppression-monotone", rng, i);
         repro.params["k"] = std::to_string(rng->NextInt(2, 4));
         return repro;
       },
       EvalSuppressionMonotone});

  catalog.push_back(
      {"suppression-fresh-labels",
       "an injected null is fresh: standard-semantics groups never grow",
       false,
       [](Rng* rng, uint64_t i) {
         TableGenOptions options;
         options.null_probability = 0.15;  // Pre-suppressed inputs are the point.
         return TableCase("suppression-fresh-labels", rng, i, options);
       },
       EvalSuppressionFreshLabels});

  catalog.push_back(
      {"suda-permutation",
       "SUDA scores are invariant under row permutation (Algorithm 6)",
       false,
       [](Rng* rng, uint64_t i) { return TableCase("suda-permutation", rng, i); },
       EvalSudaPermutation});

  catalog.push_back(
      {"cluster-risk-bounds",
       "cluster risk equals 1 - prod(1-rho), bounds members, caps at 1 (Alg. 9)",
       false,
       [](Rng* rng, uint64_t i) {
         ReproCase repro = TableCase("cluster-risk-bounds", rng, i);
         repro.params["edge_p"] = "0.15";
         repro.params["semantics"] = PickSemantics(rng, 0.5);
         return repro;
       },
       EvalClusterRiskBounds});

  catalog.push_back(
      {"infoloss-monotone",
       "information loss is monotone in anonymization steps (Fig. 7b)",
       false,
       [](Rng* rng, uint64_t i) { return TableCase("infoloss-monotone", rng, i); },
       EvalInfoLossMonotone});

  catalog.push_back(
      {"cycle-differential",
       "imperative cycle and declarative Vadalog cycle agree on the release "
       "contract, and the declarative release equals the linear-scan reference",
       false,
       [](Rng* rng, uint64_t i) {
         ReproCase repro = TableCase("cycle-differential", rng, i);
         repro.params["measure"] = PickMeasure(rng);
         repro.params["k"] = std::to_string(rng->NextInt(2, 3));
         repro.params["threshold"] =
             std::to_string(rng->NextDouble() < 0.5 ? 0.34 : 0.5);
         repro.params["semantics"] = PickSemantics(rng, 0.7);
         repro.params["with_graph"] = rng->NextDouble() < 0.3 ? "1" : "0";
         repro.params["edge_p"] = "0.15";
         return repro;
       },
       EvalCycleDifferential});

  catalog.push_back(
      {"cycle-differential-at-scale",
       "on 1,000-2,000-row tables the basic declarative and imperative cycles "
       "agree on the release contract",
       false,
       [](Rng* rng, uint64_t i) {
         ReproCase repro =
             InflationGrowthCase("cycle-differential-at-scale", rng, i, 1000, 2000);
         repro.params["measure"] = PickMeasure(rng);
         repro.params["k"] = std::to_string(rng->NextInt(2, 3));
         repro.params["threshold"] =
             std::to_string(rng->NextDouble() < 0.5 ? 0.34 : 0.5);
         repro.params["semantics"] = PickSemantics(rng, 0.5);
         return repro;
       },
       EvalCycleDifferentialAtScale});

  catalog.push_back(
      {"parallel-determinism",
       "sequential and VADASA_THREADS=N runs are bit-identical",
       false,
       [](Rng* rng, uint64_t i) {
         ReproCase repro = TableCase("parallel-determinism", rng, i);
         repro.params["measure"] = PickMeasure(rng);
         repro.params["threads"] = std::to_string(rng->NextInt(2, 5));
         repro.params["semantics"] = PickSemantics(rng, 0.5);
         return repro;
       },
       EvalParallelDeterminism});

  catalog.push_back(
      {"serve-concurrent-jobs-bit-identical",
       "N concurrent scheduler jobs match N sequential facade calls byte-for-byte",
       false,
       [](Rng* rng, uint64_t i) {
         TableGenOptions options;
         options.max_rows = 20;  // njobs full cycles per case; keep each cheap.
         options.max_qi = 3;
         ReproCase repro =
             TableCase("serve-concurrent-jobs-bit-identical", rng, i, options);
         repro.params["measure"] = PickMeasure(rng);
         repro.params["k"] = std::to_string(rng->NextInt(2, 4));
         repro.params["threshold"] =
             std::to_string(rng->NextDouble() < 0.5 ? 0.34 : 0.5);
         repro.params["semantics"] = PickSemantics(rng, 0.5);
         repro.params["njobs"] = std::to_string(rng->NextInt(2, 6));
         repro.params["workers"] = std::to_string(rng->NextInt(1, 4));
         repro.params["threads"] = std::to_string(rng->NextInt(2, 5));
         return repro;
       },
       EvalServeConcurrentBitIdentical});

  catalog.push_back(
      {"serve-concurrent-jobs-bit-identical-at-scale",
       "on 5,000-25,000-row tables N concurrent scheduler jobs match N "
       "sequential facade calls byte-for-byte",
       false,
       [](Rng* rng, uint64_t i) {
         ReproCase repro = InflationGrowthCase(
             "serve-concurrent-jobs-bit-identical-at-scale", rng, i, 5000, 25000);
         repro.params["measure"] = PickMeasure(rng);
         repro.params["k"] = std::to_string(rng->NextInt(2, 4));
         repro.params["threshold"] =
             std::to_string(rng->NextDouble() < 0.5 ? 0.34 : 0.5);
         repro.params["semantics"] = PickSemantics(rng, 0.5);
         repro.params["njobs"] = std::to_string(rng->NextInt(2, 6));
         repro.params["workers"] = std::to_string(rng->NextInt(2, 4));
         repro.params["threads"] = std::to_string(rng->NextInt(2, 4));
         return repro;
       },
       EvalServeConcurrentBitIdentical});

  catalog.push_back(
      {"chaos-serve-never-corrupts",
       "random failpoint storms leave every response well-formed and every "
       "success bit-identical to the fault-free run",
       false,
       [](Rng* rng, uint64_t i) {
         TableGenOptions options;
         options.max_rows = 16;  // Each case runs several full passes.
         options.max_qi = 3;
         ReproCase repro =
             TableCase("chaos-serve-never-corrupts", rng, i, options);
         repro.params["measure"] = PickMeasure(rng);
         repro.params["k"] = std::to_string(rng->NextInt(2, 4));
         repro.params["threshold"] =
             std::to_string(rng->NextDouble() < 0.5 ? 0.34 : 0.5);
         repro.params["semantics"] = PickSemantics(rng, 0.5);
         repro.params["njobs"] = std::to_string(rng->NextInt(2, 4));
         repro.params["rounds"] = std::to_string(rng->NextInt(2, 3));
         repro.params["workers"] = std::to_string(rng->NextInt(1, 3));
         return repro;
       },
       EvalChaosServeNeverCorrupts});

  catalog.push_back(
      {"grouping-matches-naive-oracle",
       "group stats, cache, what-if queries, risks, SUDA MSUs and the release "
       "equal a linear scan of the =⊥ definition (Section 4.3)",
       false,
       [](Rng* rng, uint64_t i) {
         TableGenOptions options;
         options.null_probability = 0.12;  // Exercise the reserved null band.
         options.numeric_edge_probability = 0.1;
         ReproCase repro =
             TableCase("grouping-matches-naive-oracle", rng, i, options);
         repro.params["measure"] = PickMeasure(rng);
         repro.params["k"] = std::to_string(rng->NextInt(2, 4));
         repro.params["threshold"] =
             std::to_string(rng->NextDouble() < 0.5 ? 0.34 : 0.5);
         repro.params["semantics"] = PickSemantics(rng, 0.6);
         repro.params["steps"] = std::to_string(rng->NextInt(2, 6));
         return repro;
       },
       EvalGroupingMatchesNaiveOracle});

  catalog.push_back(
      {"delta-vs-full-recompute-bit-identical",
       "incrementally maintained sessions, and versions served through the "
       "registry and scheduler, match a cold rebuild of the post-delta table "
       "byte-for-byte",
       false,
       [](Rng* rng, uint64_t i) {
         TableGenOptions options;
         options.max_rows = 18;  // Each case runs `steps` pairs of full cycles.
         options.max_qi = 3;
         options.null_probability = 0.1;
         ReproCase repro = TableCase("delta-vs-full-recompute-bit-identical",
                                     rng, i, options);
         repro.params["measure"] = PickMeasure(rng);
         repro.params["k"] = std::to_string(rng->NextInt(2, 4));
         repro.params["threshold"] =
             std::to_string(rng->NextDouble() < 0.5 ? 0.34 : 0.5);
         repro.params["semantics"] = PickSemantics(rng, 0.6);
         repro.params["steps"] = std::to_string(rng->NextInt(1, 3));
         return repro;
       },
       EvalDeltaVsFullRecompute});

  catalog.push_back(
      {"cached-result-bit-identical",
       "result-cache hits replay the cold run's exact bytes and a content "
       "edit never serves a stale payload",
       false,
       [](Rng* rng, uint64_t i) {
         TableGenOptions options;
         options.max_rows = 18;  // Each case runs several full cycles.
         options.max_qi = 3;
         ReproCase repro =
             TableCase("cached-result-bit-identical", rng, i, options);
         repro.params["measure"] = PickMeasure(rng);
         repro.params["k"] = std::to_string(rng->NextInt(2, 4));
         repro.params["threshold"] =
             std::to_string(rng->NextDouble() < 0.5 ? 0.34 : 0.5);
         repro.params["semantics"] = PickSemantics(rng, 0.5);
         repro.params["njobs"] = std::to_string(rng->NextInt(3, 6));
         repro.params["workers"] = std::to_string(rng->NextInt(1, 3));
         return repro;
       },
       EvalCachedResultBitIdentical});

  catalog.push_back(
      {"csv-stream-matches-reference",
       "the streaming CSV loader, text writer and fingerprint match the retired "
       "CsvTable path, the written text loads back to the same cells, and a "
       "one-cell edit changes the fingerprint",
       true,
       [](Rng* rng, uint64_t i) {
         ReproCase repro;
         repro.property = "csv-stream-matches-reference";
         repro.seed = rng->Next();
         repro.case_index = i;
         repro.program = RandomCsvDocument(rng);
         repro.table = RandomCsvTable(rng);
         return repro;
       },
       EvalCsvStreamMatchesReference});

  catalog.push_back(
      {"utility-matches-reference",
       "the utility report counted by spelling id equals the per-cell "
       "spelling reference field for field, on cycle releases and hand-edited "
       "tables",
       false,
       [](Rng* rng, uint64_t i) {
         ReproCase repro;
         repro.property = "utility-matches-reference";
         repro.seed = rng->Next();
         repro.case_index = i;
         repro.table = RandomSpellingTable(rng);
         const bool cycle = rng->NextDouble() < 0.5;
         repro.params["release"] = cycle ? "cycle" : "edits";
         if (cycle) {
           const double measure = rng->NextDouble();
           repro.params["measure"] = measure < 0.5   ? "k-anonymity"
                                     : measure < 0.8 ? "reidentification"
                                                     : "suda";
           repro.params["k"] = std::to_string(rng->NextInt(2, 3));
           repro.params["threshold"] =
               std::to_string(rng->NextDouble() < 0.5 ? 0.34 : 0.5);
           repro.params["semantics"] = PickSemantics(rng, 0.6);
           repro.params["anonymizer"] = rng->NextDouble() < 0.7 ? "suppress" : "recode";
         }
         return repro;
       },
       EvalUtilityMatchesReference});

  catalog.push_back(
      {"vadalog-determinism",
       "two chases of the same generated warded program agree fact-for-fact",
       true,
       [](Rng* rng, uint64_t i) {
         ReproCase repro;
         repro.property = "vadalog-determinism";
         repro.seed = rng->Next();
         repro.case_index = i;
         repro.program = RandomVadalogProgram(rng);
         return repro;
       },
       EvalVadalogDeterminism});

  catalog.push_back(
      {"chase-provenance-exact",
       "every derived fact cites earlier facts that match its rule's body and "
       "carry its head's values, also after an EGD merges facts",
       true,
       [](Rng* rng, uint64_t i) {
         ReproCase repro;
         repro.property = "chase-provenance-exact";
         repro.seed = rng->Next();
         repro.case_index = i;
         repro.program = RandomVadalogProgram(rng);
         return repro;
       },
       EvalChaseProvenanceExact});

  catalog.push_back(
      {"vadalog-robustness",
       "token soup and byte noise never crash the lexer, parser, or engine",
       true,
       [](Rng* rng, uint64_t i) {
         ReproCase repro;
         repro.property = "vadalog-robustness";
         repro.seed = rng->Next();
         repro.case_index = i;
         repro.program = rng->NextDouble() < 0.5 ? RandomTokenSoup(rng)
                                                 : RandomBytes(rng);
         return repro;
       },
       EvalVadalogRobustness});

  return catalog;
}

}  // namespace

const std::vector<Property>& PropertyCatalog() {
  static const std::vector<Property>* catalog =
      new std::vector<Property>(BuildCatalog());
  return *catalog;
}

const Property* FindProperty(const std::string& name) {
  for (const Property& property : PropertyCatalog()) {
    if (property.name == name) return &property;
  }
  return nullptr;
}

Status EvaluateRepro(const ReproCase& repro) {
  const Property* property = FindProperty(repro.property);
  if (property == nullptr) {
    return Status::NotFound("unknown property \"" + repro.property + "\"");
  }
  return property->evaluate(repro);
}

}  // namespace vadasa::testing
