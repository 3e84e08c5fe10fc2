// Incremental delta maintenance vs full re-warm (docs/api.md §"Streaming
// deltas"): on the 100k-tuple R100A4U dataset, apply small random delta
// batches (0.1% and 1% of the rows — the streaming-feed regime) through
//   (a) api::Session::Apply over a warm parent — table rebuild plus
//       copy-on-write GroupIndex patching of only the dirtied groups, and
//   (b) the full path — ApplyDeltaToTable, a fresh session, and a cold
//       Warm() over the post-delta table.
// Both produce bit-identical warm state (the
// delta-vs-full-recompute-bit-identical property pins that); this bench
// pins the payoff: incremental must be >= 5x faster for small deltas.
// The --json document embeds the delta.* metrics (groups_dirtied,
// groups_recomputed, rows_touched) the CI delta-smoke lane asserts on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "api/vadasa.h"
#include "bench_json.h"
#include "core/datagen.h"
#include "core/delta.h"
#include "obs/trace.h"

namespace {

using namespace vadasa;
using namespace vadasa::core;

bench::JsonWriter* g_json = nullptr;
constexpr const char* kDataset = "R100A4U";

const std::shared_ptr<const MicrodataTable>& SharedDataset() {
  static const auto* table = new std::shared_ptr<const MicrodataTable>(
      std::make_shared<const MicrodataTable>(
          GenerateDataset(*FindDataset(kDataset))));
  return *table;
}

/// The warm parent every incremental iteration patches from — warmed once,
/// outside all timed regions, exactly like a long-lived serving session.
const api::Session& WarmParent() {
  static const api::Session* session = [] {
    auto opened = api::Session::FromShared(SharedDataset(), nullptr, {});
    if (!opened.ok()) std::abort();
    auto* owned = new api::Session(std::move(*opened));
    if (!owned->Warm().ok()) std::abort();
    return owned;
  }();
  return *session;
}

/// A random batch of `delta_rows` mutations (40% updates, 30% appends, 30%
/// deletes of distinct rows) whose new rows copy existing rows — the
/// group-churn shape of a real feed. Deterministic per (delta_rows, round).
DeltaBatch RandomBatch(const MicrodataTable& table, size_t delta_rows,
                       uint64_t round) {
  std::mt19937_64 rng(0x5eedULL * (delta_rows + 1) + round);
  std::uniform_int_distribution<size_t> pick_row(0, table.num_rows() - 1);
  std::uniform_real_distribution<double> roll(0.0, 1.0);
  DeltaBatchBuilder builder(table.num_columns());
  std::set<size_t> deleted;
  for (size_t i = 0; i < delta_rows; ++i) {
    const double r = roll(rng);
    if (r < 0.4) {
      // The copied row is drawn before the row it replaces.
      const std::span<const Value> source = table.row(pick_row(rng));
      const size_t target = pick_row(rng);
      builder.Update(target, std::vector<Value>(source.begin(), source.end()));
    } else if (r < 0.7) {
      const std::span<const Value> source = table.row(pick_row(rng));
      builder.Append(std::vector<Value>(source.begin(), source.end()));
    } else {
      size_t victim = pick_row(rng);
      while (!deleted.insert(victim).second) victim = pick_row(rng);
      builder.Delete(victim);
    }
  }
  auto batch = builder.Build();
  if (!batch.ok()) std::abort();
  return std::move(*batch);
}

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void BM_DeltaVsFullRewarm(benchmark::State& state, size_t delta_rows) {
  const api::Session& parent = WarmParent();
  for (auto _ : state) {
    // Best-of-3 per path: small deltas are milliseconds, and the minimum is
    // the stable statistic on shared runners.
    constexpr int kReps = 3;
    double incremental = 1e300, full = 1e300;
    size_t post_rows = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const DeltaBatch batch =
          RandomBatch(*parent.shared_table(), delta_rows, rep);

      auto t0 = std::chrono::steady_clock::now();
      auto child = parent.Apply(batch);
      auto t1 = std::chrono::steady_clock::now();
      if (!child.ok()) {
        state.SkipWithError(child.status().ToString().c_str());
        return;
      }
      incremental = std::min(incremental, Seconds(t0, t1));
      post_rows = child->shared_table()->num_rows();

      // The full path re-derives the identical warm state from scratch.
      auto t2 = std::chrono::steady_clock::now();
      auto next = ApplyDeltaToTable(*parent.shared_table(), batch);
      if (!next.ok()) {
        state.SkipWithError(next.status().ToString().c_str());
        return;
      }
      auto cold = api::Session::FromShared(
          std::make_shared<const MicrodataTable>(std::move(*next)), nullptr,
          {});
      if (!cold.ok() || !cold->Warm().ok()) {
        state.SkipWithError("cold re-warm failed");
        return;
      }
      auto t3 = std::chrono::steady_clock::now();
      full = std::min(full, Seconds(t2, t3));
    }

    const double speedup = full / incremental;
    state.SetIterationTime(incremental);
    state.counters["FullSeconds"] = full;
    state.counters["Speedup"] = speedup;
    state.counters["DeltaRows"] = static_cast<double>(delta_rows);
    if (g_json != nullptr) {
      const std::string size_tag = "delta" + std::to_string(delta_rows);
      g_json->Add({{"dataset", kDataset},
                   {"technique", size_tag + "-incremental"},
                   {"tuples", parent.shared_table()->num_rows()},
                   {"delta_rows", delta_rows},
                   {"post_rows", post_rows},
                   {"wall_seconds", incremental},
                   {"speedup_vs_full", speedup}});
      g_json->Add({{"dataset", kDataset},
                   {"technique", size_tag + "-full-rewarm"},
                   {"tuples", parent.shared_table()->num_rows()},
                   {"delta_rows", delta_rows},
                   {"wall_seconds", full}});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json = bench::JsonWriter::FromArgs("bench_delta", &argc, argv);
  g_json = &json;
  const obs::TraceArgs trace_args = obs::ExtractTraceArgs(&argc, argv);
  if (trace_args.tracing_requested()) obs::StartTracing();
  // 0.1% and 1% of the 100k rows: the ISSUE's "small delta" regime.
  for (const size_t delta_rows : {100, 1000}) {
    benchmark::RegisterBenchmark(
        ("bench_delta/" + std::string(kDataset) + "/d" +
         std::to_string(delta_rows))
            .c_str(),
        [delta_rows](benchmark::State& state) {
          BM_DeltaVsFullRewarm(state, delta_rows);
        })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!obs::ExportRequested(trace_args)) return 1;
  return json.Flush() ? 0 : 1;
}
