// The in-process `release` workload: the data steward's CLI path (explained
// risk, audited native releases) and the paper's Vadalog reasoning cycle
// (declarative release). One caller, closed loop, count-bounded; see
// NOTES.md for why it exists and how it is sized.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/vadasa.h"
#include "client.h"
#include "common/csv.h"
#include "core/anonymize.h"
#include "core/columnar.h"
#include "core/cycle.h"
#include "core/datagen.h"
#include "core/global_risk.h"
#include "core/group_index.h"
#include "core/report.h"
#include "core/risk.h"
#include "core/suda.h"
#include "core/utility.h"
#include "core/vadalog_bridge.h"
#include "bench.h"
#include "testing/differential.h"
#include "testing/oracles.h"
#include "vadalog/database.h"
#include "vadalog/engine.h"

namespace perfbench {

namespace {

using vadasa::Json;
using vadasa::api::AnonymizeResponse;
using vadasa::api::RiskReport;
using vadasa::api::Session;
using vadasa::api::SessionOptions;
namespace core = vadasa::core;

/// The risk context api::Session builds for a cold session of `options`.
core::RiskContext ColdContext(const SessionOptions& options) {
  core::RiskContext ctx;
  ctx.k = options.k;
  ctx.semantics = options.standard_nulls ? core::NullSemantics::kStandard
                                         : core::NullSemantics::kMaybeMatch;
  ctx.posterior_draws = options.posterior_draws;
  ctx.seed = options.seed;
  return ctx;
}

std::string Digits(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Every byte of a risk report a caller can observe.
std::string RiskBytes(const RiskReport& report) {
  std::string out = report.global.ToString() + "\n";
  for (double r : report.tuple_risks) out += Digits(r) + ",";
  out += "\n";
  for (const auto& t : report.risky) {
    out += std::to_string(t.row) + ":" + Digits(t.risk) + ":" + t.explanation + "\n";
  }
  return out;
}

std::string ReleaseBytes(const core::MicrodataTable& table, const std::string& audit) {
  return vadasa::WriteCsv(table.ToCsv()) + "\n--\n" + audit;
}

Json Shape(const std::string& name, size_t rows, uint64_t seed) {
  return Json::Object{{"shape", Json(name)},
                      {"rows", Json(static_cast<int64_t>(rows))},
                      {"qis", Json(4)},
                      {"distribution", Json("unbalanced")},
                      {"generator", Json("core::GenerateInflationGrowth")},
                      {"seed", Json(seed)}};
}

/// Ops per run are fixed from --seconds by each workload's nominal op cost
/// on the reference machine (NOTES.md), never by a clock.
size_t CountFor(int seconds, double nominal_seconds_per_iteration, size_t floor) {
  const auto n = static_cast<size_t>(
      std::ceil(static_cast<double>(seconds) / nominal_seconds_per_iteration));
  return n < floor ? floor : n;
}

/// Per traced op: the facade call's self time (its wall minus the replayed
/// children's) and the tracing overhead (the traced replay's wall over the
/// facade's). Each pairs one facade call with its own replay, made right
/// after it, so the host's speed changes cancel; the record keeps the median.
void SelfAndOverhead(const std::string& op_class, double facade_ms, double children_ms,
                     double replay_ms, Recorder* recorder) {
  recorder->Layer("api.self_ms." + op_class, facade_ms - children_ms, "ms");
  if (facade_ms > 0) {
    recorder->Layer("trace.overhead." + op_class + "_ms", (replay_ms - facade_ms) / facade_ms,
                    "ratio");
  }
}

/// setup_s: the median over set-ups made before the loop and between timed
/// iterations, so it samples the whole run, not only its first second.
void SetupMetric(const std::vector<double>& setup_seconds, Recorder* recorder) {
  const Summary s = Summarize(setup_seconds);
  recorder->Metric("setup_s", s.median, "s", &s);
}

// ---------------------------------------------------------------- release --

/// The traced replay of one audited release, one layer down:
/// ComputeGlobalRisk -> AnonymizationCycle::Run -> ComputeGlobalRisk ->
/// MeasureUtility, exactly as core::RunAuditedRelease sequences them.
struct ReleaseReplay {
  std::string bytes;
  core::CycleStats stats;
  core::MicrodataTable original;
  core::MicrodataTable released;
  double children_ms = 0.0;
  double op_ms = 0.0;
  double global_before_ms = 0.0;
  double cycle_ms = 0.0;
  double utility_ms = 0.0;
};

vadasa::Result<ReleaseReplay> ReplayRelease(const Session& session, Tracer* tracer,
                                            uint64_t op, const std::string& name) {
  const SessionOptions& options = session.options();
  VADASA_ASSIGN_OR_RETURN(auto measure, core::MakeRiskMeasure(options.risk_measure));
  core::CycleOptions cycle_options;
  cycle_options.threshold = options.threshold;
  cycle_options.risk = ColdContext(options);
  cycle_options.log_steps = true;
  core::LocalSuppression anonymizer;

  ReleaseReplay replay;
  const long span = tracer->Begin("op." + name, -1, op);
  replay.original = session.table();
  replay.released = session.table();
  core::ReleaseAudit audit;
  audit.microdb = replay.released.name();
  audit.tuples = replay.released.num_rows();
  audit.quasi_identifiers = cycle_options.risk.ResolveQiColumns(replay.released).size();
  audit.risk_measure = measure->name();
  audit.threshold = cycle_options.threshold;
  double ms = 0.0;
  auto before = Traced(tracer, "core.global_risk", span, op, &ms, [&] {
    return core::ComputeGlobalRisk(replay.released, *measure, cycle_options.risk,
                                   cycle_options.threshold);
  });
  VADASA_RETURN_NOT_OK(before.status());
  audit.risk_before = *before;
  replay.global_before_ms = ms;
  core::AnonymizationCycle cycle(measure.get(), &anonymizer, cycle_options);
  auto stats = Traced(tracer, "core.cycle.run", span, op, &ms,
                      [&] { return cycle.Run(&replay.released); });
  VADASA_RETURN_NOT_OK(stats.status());
  audit.cycle = *stats;
  replay.cycle_ms = ms;
  auto after = Traced(tracer, "core.global_risk", span, op, &ms, [&] {
    return core::ComputeGlobalRisk(replay.released, *measure, cycle_options.risk,
                                   cycle_options.threshold);
  });
  VADASA_RETURN_NOT_OK(after.status());
  audit.risk_after = *after;
  auto utility = Traced(tracer, "core.utility", span, op, &ms, [&] {
    return core::MeasureUtility(replay.original, replay.released);
  });
  VADASA_RETURN_NOT_OK(utility.status());
  audit.utility = *utility;
  replay.utility_ms = ms;
  replay.op_ms = tracer->End(span);
  // Self time comes from the spans: what the op span's children cover.
  replay.children_ms = replay.op_ms - tracer->SelfMs(span);
  replay.stats = audit.cycle;
  replay.bytes = ReleaseBytes(replay.released, audit.ToText());
  return replay;
}

/// The traced replay of an explained risk report: ComputeRisks ->
/// ComputeGlobalRisk -> Explain per risky row, cache-less as Session::Risk
/// calls it.
struct RiskReplay {
  std::string bytes;
  double children_ms = 0.0;
  double op_ms = 0.0;
  size_t explained = 0;
};

vadasa::Result<RiskReplay> ReplayRisk(const Session& session, Tracer* tracer,
                                      uint64_t op, Recorder* recorder) {
  const SessionOptions& options = session.options();
  const core::MicrodataTable& table = session.table();
  VADASA_ASSIGN_OR_RETURN(auto measure, core::MakeRiskMeasure(options.risk_measure));
  const core::RiskContext ctx = ColdContext(options);
  RiskReplay replay;
  RiskReport report;
  report.threshold = options.threshold;
  const long span = tracer->Begin("op.risk", -1, op);
  double ms = 0.0;
  auto risks = Traced(tracer, "core.risk.compute", span, op, &ms,
                      [&] { return measure->ComputeRisks(table, ctx); });
  VADASA_RETURN_NOT_OK(risks.status());
  report.tuple_risks = std::move(*risks);
  recorder->Layer("core.risk.compute_ms", ms, "ms");
  auto global = Traced(tracer, "core.global_risk", span, op, &ms, [&] {
    return core::ComputeGlobalRisk(table, *measure, ctx, options.threshold);
  });
  VADASA_RETURN_NOT_OK(global.status());
  report.global = *global;
  recorder->Layer("core.global_risk_ms", ms, "ms");
  for (size_t r = 0; r < report.tuple_risks.size(); ++r) {
    if (!(report.tuple_risks[r] > options.threshold)) continue;
    vadasa::api::RiskyTuple risky;
    risky.row = r;
    risky.risk = report.tuple_risks[r];
    const long id = tracer->Begin("core.risk.explain", span, op);
    risky.explanation = measure->Explain(table, ctx, r, risky.risk);
    ms = tracer->End(id);
    recorder->Layer("core.risk.explain_ms", ms, "ms");
    report.risky.push_back(std::move(risky));
  }
  replay.op_ms = tracer->End(span);
  // Self time comes from the spans: what the op span's children cover.
  replay.children_ms = replay.op_ms - tracer->SelfMs(span);
  replay.explained = report.risky.size();
  replay.bytes = RiskBytes(report);
  return replay;
}

/// Layer probes with no facade of their own: the columnar build, a cold
/// group-stats pass, one incremental index update over a release's touched
/// rows, and the SUDA MSU search.
void ProbeLayers(const Session& session, const ReleaseReplay& release,
                 Tracer* tracer, uint64_t op, Recorder* recorder) {
  const core::MicrodataTable& table = session.table();
  const core::RiskContext ctx = ColdContext(Policy("k-anonymity", 2));
  const std::vector<size_t> qis = ctx.ResolveQiColumns(table);
  const long span = tracer->Begin("probe", -1, op);
  double ms = 0.0;
  Traced(tracer, "core.columnar.build", span, op, &ms, [&] {
    core::ColumnarView view(table);
    view.EnsureColumns(table, qis);
    return view.codes_bytes();
  });
  recorder->Layer("core.columnar.build_ms", ms, "ms");
  Traced(tracer, "core.group_index.build", span, op, &ms, [&] {
    return core::ComputeGroupStats(table, qis, ctx.semantics).frequency.size();
  });
  recorder->Layer("core.group_index.build_ms", ms, "ms");

  core::MicrodataTable evolving = release.original;
  core::GroupIndex index(evolving, qis, ctx.semantics);
  index.Stats();
  std::vector<uint32_t> touched;
  for (size_t r = 0; r < evolving.num_rows(); ++r) {
    bool changed = false;
    for (size_t c : qis) {
      if (!(evolving.cell(r, c) == release.released.cell(r, c))) {
        evolving.set_cell(r, c, release.released.cell(r, c));
        changed = true;
      }
    }
    if (changed) touched.push_back(static_cast<uint32_t>(r));
  }
  Traced(tracer, "core.group_index.update", span, op, &ms, [&] {
    index.UpdateRows(evolving, touched);
    return index.Stats().frequency.size();
  });
  recorder->Layer("core.group_index.update_ms", ms, "ms");
  recorder->Layer("core.group_index.update_rows", static_cast<double>(touched.size()),
                  "count");

  core::SudaRisk suda;
  auto details = Traced(tracer, "core.suda.search", span, op, &ms, [&] {
    return suda.ComputeDetails(table, ColdContext(Policy("suda", 3)));
  });
  recorder->Layer("core.suda.search_ms", ms, "ms");
  if (details.ok()) {
    const double evaluated = static_cast<double>(details->combos_evaluated);
    const double pruned = static_cast<double>(details->combos_pruned);
    recorder->Layer("core.suda.combos_evaluated", evaluated, "count");
    recorder->Layer("core.suda.pruned_share",
                    evaluated + pruned > 0 ? pruned / (evaluated + pruned) : 0.0,
                    "ratio");
  }
  tracer->End(span);
}

/// The declarative op of the release workload: Session::Anonymize with
/// declarative=true (k-anonymity k=2, T=0.5, =⊥ semantics) on its own
/// 800-row table, its output checks and, under tracing, its replay: encode
/// -> RunSource, then the full bridge call, whose remainder is the
/// file-private decode.
struct DeclarativeStage {
  std::shared_ptr<const core::MicrodataTable> table;
  std::shared_ptr<const core::MetadataDictionary> dictionary;
  SessionOptions policy = Policy("k-anonymity", 2, /*declarative=*/true);
  core::BridgeOptions bridge_options;
  std::string reference;

  /// Runs one op; returns its wall time. Iteration 0 is the warm-up.
  double Run(uint64_t op, bool timed, bool trace, Recorder* recorder, Tracer* tracer) {
    static const auto kanon = core::MakeRiskMeasure("k-anonymity");
    auto session = Session::FromShared(table, dictionary, policy);
    const auto start = Clock::now();
    auto response = session->Anonymize();
    const double ms = MsSince(start);
    if (trace && timed) tracer->Add("api.anonymize", start, ms, op);
    std::string error;
    if (!response.ok()) {
      error = response.status().ToString();
    } else {
      const std::string bytes = ReleaseBytes(response->table, response->ToText());
      if (reference.empty()) {
        vadasa::Status post = vadasa::testing::CheckPostCycleRisks(
            response->table, **kanon, ColdContext(policy), kThreshold);
        if (post.ok()) reference = bytes;
        else error = post.ToString();
      } else if (bytes != reference) {
        error = "released bytes differ from iteration 0";
      }
    }
    if (!timed) {
      if (!error.empty()) recorder->Check("warmup", error);
      return ms;
    }
    recorder->Op("declarative_release", ms, error);
    if (!trace) return ms;

    const core::VadalogBridge bridge(bridge_options);
    const long span = tracer->Begin("op.declarative_release", -1, op);
    vadasa::vadalog::EngineOptions engine_options;
    engine_options.track_provenance = true;  // As RunDeclarativeCycle runs it.
    vadasa::vadalog::Engine engine(engine_options);
    bridge.RegisterExternals(&engine, nullptr);
    vadasa::vadalog::Database db;
    double encode_ms = 0.0, engine_ms = 0.0, full_ms = 0.0;
    Traced(tracer, "core.bridge.encode", span, op, &encode_ms, [&] {
      bridge.EncodeMicrodata(*table, &db);
      return 0;
    });
    auto run = Traced(tracer, "vadalog.engine.run", span, op, &engine_ms, [&] {
      return vadasa::vadalog::RunSource(bridge.CycleProgram(), &db, &engine);
    });
    vadasa::vadalog::RunStats full_stats;
    auto full = Traced(tracer, "core.bridge.declarative_cycle", span, op, &full_ms, [&] {
      return bridge.RunDeclarativeCycle(*table, nullptr, &full_stats);
    });
    tracer->End(span);
    std::string replay_error;
    if (!run.ok() || !full.ok()) {
      replay_error = !run.ok() ? run.status().ToString() : full.status().ToString();
    } else if (run->rounds != full_stats.rounds ||
               run->facts_derived != full_stats.facts_derived ||
               run->nulls_created != full_stats.nulls_created) {
      replay_error = "replayed engine run differs from the bridge's";
    } else if (!response.ok() ||
               vadasa::WriteCsv(full->ToCsv()) != vadasa::WriteCsv(response->table.ToCsv())) {
      replay_error = "replayed declarative release differs from the facade";
    }
    recorder->Check("replay.declarative_release", replay_error);
    if (!run.ok()) return ms;
    // The bridge call is the op executed one layer down under tracing: its
    // encode + engine + decode are the facade's children.
    SelfAndOverhead("declarative_release", ms, full_ms, full_ms, recorder);
    recorder->Layer("core.bridge.encode_ms", encode_ms, "ms");
    recorder->Layer("vadalog.engine.run_ms", engine_ms, "ms");
    recorder->Layer("core.bridge.decode_ms", full_ms - encode_ms - engine_ms, "ms");
    recorder->Layer("vadalog.engine.rounds", static_cast<double>(run->rounds), "count");
    recorder->Layer("vadalog.engine.facts_derived",
                    static_cast<double>(run->facts_derived), "count");
    size_t firings = 0;
    for (size_t f : run->rule_firings) firings += f;
    recorder->Layer("vadalog.engine.rule_firings", static_cast<double>(firings), "count");
    return ms;
  }

  void Finish(Recorder* recorder) {
    // The paper's agreement contract between the two cycles, once per input.
    auto differential =
        vadasa::testing::CheckCycleDifferential(*table, bridge_options, nullptr);
    recorder->Check("cycle_differential",
                    differential.ok() ? "" : differential.status().ToString());
    recorder->LatencyMetric("declarative_release_ms", "declarative_release");
  }
};

}  // namespace

int RunReleaseWorkload(const RunConfig& config, Recorder* recorder, Tracer* tracer) {
  constexpr size_t kRows = 12000;
  constexpr size_t kDeclarativeRows = 800;
  const std::string tag = std::to_string(config.seed);
  // The generated tables live only until their CSVs are written, so the
  // run's peak RSS holds no copy of the input beside the program's own.
  const std::string csv_path = WriteDatasetCsv(
      config, "release-" + tag,
      vadasa::WriteCsv(core::GenerateInflationGrowth("R12A4U", kRows, 4,
                                                     core::DistributionKind::kUnbalanced,
                                                     config.seed)
                           .ToCsv()));
  const std::string small_csv_path = WriteDatasetCsv(
      config, "declarative-" + tag,
      vadasa::WriteCsv(core::GenerateInflationGrowth("R800A4U", kDeclarativeRows, 4,
                                                     core::DistributionKind::kUnbalanced,
                                                     config.seed + 1)
                           .ToCsv()));
  recorder->Note("datasets", Json::Array{Shape("R12A4U", kRows, config.seed),
                                         Shape("R800A4U", kDeclarativeRows, config.seed + 1)});

  // Set-up: open (load + categorize) both tables, 5 times before the loop
  // and once more before every timed iteration.
  std::vector<double> setup_seconds;
  DeclarativeStage declarative;
  auto set_up = [&](Session* session) {
    const auto start = Clock::now();
    auto opened = Session::Open(csv_path, Policy("k-anonymity", 2));
    auto opened_small = opened.ok() ? Session::Open(small_csv_path, declarative.policy)
                                    : opened.status();
    const double ms = MsSince(start);
    if (!opened_small.ok()) return opened_small.status();
    setup_seconds.push_back(ms / 1e3);
    recorder->Layer("api.session.open_ms", ms, "ms");
    if (session != nullptr) {
      *session = std::move(*opened);
      declarative.table = opened_small->shared_table();
      declarative.dictionary =
          std::make_shared<const core::MetadataDictionary>(opened_small->dictionary());
    }
    return vadasa::Status::OK();
  };
  Session opened;
  vadasa::Status status = set_up(&opened);
  for (int rep = 1; rep < 5 && status.ok(); ++rep) status = set_up(nullptr);
  if (!status.ok()) {
    std::fprintf(stderr, "release: %s\n", status.ToString().c_str());
    return 1;
  }
  const auto table = opened.shared_table();
  const auto dictionary =
      std::make_shared<const core::MetadataDictionary>(opened.dictionary());
  auto fresh = [&](const SessionOptions& options) {
    return Session::FromShared(table, dictionary, options);
  };
  declarative.bridge_options.risk_measure = declarative.policy.risk_measure;
  declarative.bridge_options.k = declarative.policy.k;
  declarative.bridge_options.threshold = declarative.policy.threshold;
  declarative.bridge_options.maybe_match = !declarative.policy.standard_nulls;

  // Iteration 0 is the untimed warm-up; its outputs are the references every
  // later iteration must reproduce byte for byte. A traced run times the
  // same facade calls as an untraced one and replays each after it.
  const size_t iterations = CountFor(config.seconds, 1.6, 3);
  recorder->Note("warmup", "1 untimed iteration (all four op classes)");
  recorder->Note("ops_per_iteration",
                 "risk, release, suda_release on 3 fresh cold Session::FromShared "
                 "sessions of the 12k table; declarative_release on the 800-row table");
  recorder->Note("iterations", static_cast<int64_t>(iterations));
  std::string ref_risk, ref_release, ref_suda;
  // ops_per_s: per timed iteration, the ops it completed over the summed
  // wall of its ops; the metric is the median over iterations.
  std::vector<double> iteration_rates;
  auto completed = [&] {
    size_t ops = 0;
    for (const char* c : {"risk", "release", "suda_release", "declarative_release"}) {
      ops += recorder->Samples(c).size();
    }
    return ops;
  };
  const auto kanon = core::MakeRiskMeasure("k-anonymity");
  const auto suda_measure = core::MakeRiskMeasure("suda");

  for (size_t it = 0; it <= iterations; ++it) {
    const bool timed = it > 0;
    const uint64_t op_base = it * 4;
    const size_t completed_before = completed();
    if (timed) {
      const vadasa::Status again = set_up(nullptr);
      recorder->Check("setup", again.ok() ? "" : again.ToString());
    }

    // risk: what `vadasa risk` runs — k-anonymity with explanations.
    auto risk_session = fresh(Policy("k-anonymity", 2));
    auto start = Clock::now();
    auto report = risk_session->Risk(-1.0, /*explain=*/true);
    const double risk_ms = MsSince(start);
    if (config.trace && timed) tracer->Add("api.risk", start, risk_ms, op_base);
    std::string error;
    std::string risk_bytes;
    if (!report.ok()) {
      error = report.status().ToString();
    } else {
      risk_bytes = RiskBytes(*report);
      if (!timed) ref_risk = risk_bytes;
      vadasa::Status unit = vadasa::testing::CheckRisksInUnitRange(report->tuple_risks);
      if (!unit.ok()) error = unit.ToString();
      else if (report->risky.size() != report->global.tuples_over_threshold)
        error = "risky rows disagree with the global report";
      else if (risk_bytes != ref_risk) error = "risk report differs from iteration 0";
    }
    // release and suda_release: the audited native cycle, what
    // `vadasa anonymize` runs, under k-anonymity and under SUDA.
    auto release_session = fresh(Policy("k-anonymity", 2));
    start = Clock::now();
    auto release = release_session->Anonymize();
    const double release_ms = MsSince(start);
    if (config.trace && timed) tracer->Add("api.anonymize", start, release_ms, op_base + 1);
    auto suda_session = fresh(Policy("suda", 3));
    start = Clock::now();
    auto suda_release = suda_session->Anonymize();
    const double suda_ms = MsSince(start);
    if (config.trace && timed) tracer->Add("api.anonymize", start, suda_ms, op_base + 2);

    auto check_release = [&](const vadasa::Result<AnonymizeResponse>& response,
                             const vadasa::Result<std::unique_ptr<core::RiskMeasure>>& measure,
                             int k, std::string* reference) -> std::string {
      if (!response.ok()) return response.status().ToString();
      const std::string bytes = ReleaseBytes(response->table, response->ToText());
      if (reference->empty()) {
        // The first release of this input: prove it safe once; later
        // iterations must match it byte for byte.
        vadasa::Status post = vadasa::testing::CheckPostCycleRisks(
            response->table, **measure, ColdContext(Policy("", k)), kThreshold);
        if (!post.ok()) return post.ToString();
        *reference = bytes;
        return "";
      }
      return bytes == *reference ? "" : "released bytes differ from iteration 0";
    };
    const std::string release_error = check_release(release, kanon, 2, &ref_release);
    const std::string suda_error = check_release(suda_release, suda_measure, 3, &ref_suda);
    if (timed) {
      recorder->Op("risk", risk_ms, error);
      recorder->Op("release", release_ms, release_error);
      recorder->Op("suda_release", suda_ms, suda_error);
    } else if (!error.empty() || !release_error.empty() || !suda_error.empty()) {
      recorder->Check("warmup", error + release_error + suda_error);
    }
    const double declarative_ms =
        declarative.Run(op_base + 3, timed, config.trace, recorder, tracer);
    if (timed) {
      const double wall_s = (risk_ms + release_ms + suda_ms + declarative_ms) / 1e3;
      iteration_rates.push_back(static_cast<double>(completed() - completed_before) / wall_s);
    }
    if (!config.trace || !timed) continue;

    // The traced replay of the same three ops, one layer down.
    auto risk_replay = ReplayRisk(*risk_session, tracer, op_base, recorder);
    recorder->Check("replay.risk", !risk_replay.ok() ? risk_replay.status().ToString()
                                   : risk_replay->bytes != risk_bytes
                                       ? "replayed risk report differs from the facade"
                                       : "");
    if (risk_replay.ok()) {
      SelfAndOverhead("risk", risk_ms, risk_replay->children_ms, risk_replay->op_ms, recorder);
      recorder->Layer("core.risk.explain_calls",
                      static_cast<double>(risk_replay->explained), "count");
    }
    auto release_replay = ReplayRelease(*release_session, tracer, op_base + 1, "release");
    recorder->Check("replay.release",
                    !release_replay.ok() ? release_replay.status().ToString()
                    : release.ok() && release_replay->bytes ==
                                          ReleaseBytes(release->table, release->ToText())
                        ? ""
                        : "replayed release differs from the facade");
    if (release_replay.ok()) {
      const core::CycleStats& stats = release_replay->stats;
      SelfAndOverhead("release", release_ms, release_replay->children_ms,
                      release_replay->op_ms, recorder);
      recorder->Layer("core.global_risk_ms", release_replay->global_before_ms, "ms");
      recorder->Layer("core.cycle.run_ms", release_replay->cycle_ms, "ms");
      recorder->Layer("core.cycle.iterations", static_cast<double>(stats.iterations), "count");
      recorder->Layer("core.cycle.risk_evaluations",
                      static_cast<double>(stats.risk_evaluations), "count");
      recorder->Layer("core.cycle.nulls_injected",
                      static_cast<double>(stats.nulls_injected), "count");
      recorder->Layer("core.cycle.risk_eval_share",
                      stats.total_seconds > 0 ? stats.risk_eval_seconds / stats.total_seconds
                                              : 0.0,
                      "ratio");
      recorder->Layer("core.utility_ms", release_replay->utility_ms, "ms");
      ProbeLayers(*release_session, *release_replay, tracer, op_base + 1, recorder);
    }
    auto suda_replay = ReplayRelease(*suda_session, tracer, op_base + 2, "suda_release");
    recorder->Check("replay.suda_release",
                    !suda_replay.ok() ? suda_replay.status().ToString()
                    : suda_release.ok() &&
                            suda_replay->bytes ==
                                ReleaseBytes(suda_release->table, suda_release->ToText())
                        ? ""
                        : "replayed suda_release differs from the facade");
    if (suda_replay.ok()) {
      SelfAndOverhead("suda_release", suda_ms, suda_replay->children_ms, suda_replay->op_ms,
                      recorder);
      recorder->Layer("core.cycle.suda_run_ms", suda_replay->cycle_ms, "ms");
    }
  }

  SetupMetric(setup_seconds, recorder);
  recorder->LatencyMetric("risk_ms", "risk");
  recorder->LatencyMetric("release_ms", "release");
  recorder->LatencyMetric("suda_release_ms", "suda_release");
  declarative.Finish(recorder);
  const Summary throughput = Summarize(iteration_rates);
  recorder->Metric("ops_per_s", throughput.median, "1/s", &throughput);
  recorder->Metric("peak_rss_mb", PeakRssMb(false), "MiB");
  return 0;
}

}  // namespace perfbench
