// Figure 7e: execution time of the full anonymization cycle (and of its risk
// estimation component — the RiskSeconds counter) by dataset size, for the
// three risk estimation techniques: individual risk (with the sampled
// negative-binomial posterior standing in for the paper's off-the-shelf
// statistical library), k-anonymity (k=2) and SUDA (MSU threshold 3), on the
// unbalanced A4U datasets, T = 0.5.
//
// Expected shape (paper): risk estimation dominates the elapsed time;
// k-anonymity is the cheapest and ~linear in the number of tuples;
// individual risk pays a per-tuple sampling overhead; SUDA sits above
// k-anonymity but avoids any combinatorial blowup.
//
// The `declarative` rows time the paper's own pipeline on the same tables:
// the reasoning-based cycle (Algorithm 2) chased by the Vadalog engine
// through the bridge, k-anonymity with k = 2, T = 0.5 and =⊥ semantics.

#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "obs/trace.h"
#include "core/anonymize.h"
#include "core/cycle.h"
#include "core/datagen.h"
#include "core/suda.h"
#include "core/vadalog_bridge.h"

namespace {

using namespace vadasa;
using namespace vadasa::core;

bench::JsonWriter* g_json = nullptr;

/// The million-tuple extrapolation point behind --large: same unbalanced A4U
/// family as Fig. 6, one decade beyond the paper's largest dataset.
DatasetSpec LargeDatasetSpec() {
  return {"R1MA4U", 4, 1000000, DistributionKind::kUnbalanced, true};
}

const MicrodataTable& CachedDataset(const std::string& name) {
  static std::map<std::string, MicrodataTable>* cache =
      new std::map<std::string, MicrodataTable>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    auto spec = name == LargeDatasetSpec().name ? Result<DatasetSpec>(LargeDatasetSpec())
                                                : FindDataset(name);
    it = cache->emplace(name, GenerateDataset(*spec)).first;
  }
  return it->second;
}

std::unique_ptr<RiskMeasure> MakeMeasure(const std::string& technique) {
  if (technique == "suda") {
    return std::make_unique<SudaRisk>();
  }
  return std::move(MakeRiskMeasure(technique).value());
}

void BM_CycleBySize(benchmark::State& state, const std::string& dataset,
                    const std::string& technique) {
  const MicrodataTable& base = CachedDataset(dataset);
  for (auto _ : state) {
    MicrodataTable table = base;
    auto measure = MakeMeasure(technique);
    LocalSuppression anon;
    CycleOptions options;
    options.threshold = 0.5;
    options.risk.k = technique == "suda" ? 3 : 2;
    if (technique == "individual") {
      options.risk.posterior_draws = 32;  // The "statistical library" mode.
    }
    AnonymizationCycle cycle(measure.get(), &anon, options);
    auto stats = cycle.Run(&table);
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    state.SetIterationTime(stats->total_seconds);
    state.counters["RiskSeconds"] = stats->risk_eval_seconds;
    state.counters["Nulls"] = static_cast<double>(stats->nulls_injected);
    state.counters["Risky"] = static_cast<double>(stats->initial_risky);
    state.counters["Tuples"] = static_cast<double>(base.num_rows());
    if (g_json != nullptr) {
      g_json->Add({{"dataset", dataset},
                   {"technique", technique},
                   {"tuples", base.num_rows()},
                   {"wall_seconds", stats->total_seconds},
                   {"risk_eval_seconds", stats->risk_eval_seconds},
                   {"iterations", stats->iterations},
                   {"nulls", stats->nulls_injected},
                   {"group_rebuilds", stats->group_rebuilds},
                   {"group_updates", stats->group_updates}});
    }
  }
}

void BM_DeclarativeBySize(benchmark::State& state, const std::string& dataset) {
  const MicrodataTable& base = CachedDataset(dataset);
  const VadalogBridge bridge(BridgeOptions{});  // k-anonymity, k=2, T=0.5, =⊥.
  for (auto _ : state) {
    vadalog::RunStats run;
    const auto start = std::chrono::steady_clock::now();
    auto released = bridge.RunDeclarativeCycle(base, nullptr, &run);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (!released.ok()) {
      state.SkipWithError(released.status().ToString().c_str());
      return;
    }
    state.SetIterationTime(seconds);
    state.counters["Rounds"] = static_cast<double>(run.rounds);
    state.counters["Facts"] = static_cast<double>(run.facts_derived);
    state.counters["Tuples"] = static_cast<double>(base.num_rows());
    if (g_json != nullptr) {
      g_json->Add({{"dataset", dataset},
                   {"technique", "declarative"},
                   {"tuples", base.num_rows()},
                   {"wall_seconds", seconds},
                   {"rounds", run.rounds},
                   {"facts_derived", run.facts_derived},
                   {"nulls", run.nulls_created}});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json = bench::JsonWriter::FromArgs("fig7e", &argc, argv);
  g_json = &json;
  const vadasa::obs::TraceArgs trace_args = vadasa::obs::ExtractTraceArgs(&argc, argv);
  if (trace_args.tracing_requested()) vadasa::obs::StartTracing();
  // --large appends the 1M-tuple point (minutes of generation + cycle time;
  // off by default so CI and quick local sweeps stay fast).
  bool large = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--large") {
      large = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  std::vector<std::string> datasets = {"R6A4U", "R12A4U", "R50A4U", "R100A4U"};
  if (large) datasets.push_back(LargeDatasetSpec().name);
  for (const std::string& dataset : datasets) {
    for (const char* technique : {"individual", "k-anonymity", "suda"}) {
      benchmark::RegisterBenchmark(
          (std::string("fig7e/") + dataset + "/" + technique).c_str(),
          [dataset, technique](benchmark::State& state) {
            BM_CycleBySize(state, dataset, technique);
          })
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(
        (std::string("fig7e/") + dataset + "/declarative").c_str(),
        [dataset](benchmark::State& state) { BM_DeclarativeBySize(state, dataset); })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!vadasa::obs::ExportRequested(trace_args)) return 1;
  return json.Flush() ? 0 : 1;
}
