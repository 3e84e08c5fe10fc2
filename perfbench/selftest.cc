// perfbench_selftest — tests of the benchmark's own helpers: the tail rule,
// the quartile rule, seeded scripts, and the served-payload checker. Run via
// `python3 perfbench/run.py --self-test`; exits non-zero on any failure.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "client.h"
#include "common/csv.h"
#include "common/json.h"
#include "core/datagen.h"
#include "core/delta.h"
#include "script.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TailRule() {
  using perfbench::Summarize;
  using perfbench::TailIndex;
  double pct = 0.0;
  Expect(TailIndex(19, &pct) < 0, "tail: 19 samples have no percentile with 10 beyond");
  Expect(TailIndex(20, &pct) == 9 && pct == 50.0, "tail: 20 samples -> p50, 10 beyond");
  Expect(TailIndex(100, &pct) == 89 && pct == 90.0, "tail: 100 samples -> p90, 10 beyond");
  Expect(TailIndex(1000, &pct) == 989 && pct == 99.0, "tail: 1000 samples -> p99");
  Expect(TailIndex(10000, &pct) == 9989 && pct == 99.9, "tail: 10000 samples -> p99.9");
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  const perfbench::Summary s = Summarize(samples);
  Expect(s.has_tail && s.tail_value == 90.0 && s.tail_beyond == 10,
         "tail: 1..100 -> p90 = 90 with 10 samples beyond");
  Expect(!Summarize(std::vector<double>(11, 1.0)).has_tail, "tail: 11 samples -> none");
  // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
  const auto q = perfbench::Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  Expect(Near(q[0], 2.75) && Near(q[1], 5.5) && Near(q[2], 8.25),
         "quartiles match Python's statistics.quantiles");
  const perfbench::Summary odd = Summarize({5, 1, 3});
  Expect(odd.median == 3 && Near(odd.q1, 1) && Near(odd.q3, 5), "median of 3 samples");
}

void SeededScripts() {
  using perfbench::MakeAnalystScript;
  const auto a = MakeAnalystScript(11, 50);
  const auto b = MakeAnalystScript(11, 50);
  const auto c = MakeAnalystScript(12, 50);
  auto same = [](const std::vector<perfbench::AnalystStep>& x,
                 const std::vector<perfbench::AnalystStep>& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].risk_seed != y[i].risk_seed || x[i].hit[0] != y[i].hit[0] ||
          x[i].hit[1] != y[i].hit[1] || x[i].release != y[i].release ||
          x[i].release_policy != y[i].release_policy ||
          x[i].release_seed != y[i].release_seed) {
        return false;
      }
    }
    return true;
  };
  Expect(a.size() == 51 && same(a, b), "same seed -> same analyst script");
  Expect(!same(a, c), "another seed -> another analyst script");
  std::set<uint64_t> fresh;
  size_t releases = 0;
  bool distinct_hits = true;
  for (const auto& step : a) {
    fresh.insert(step.risk_seed);
    if (step.release) {
      fresh.insert(step.release_seed);
      ++releases;
    }
    distinct_hits = distinct_hits && step.hit[0] != step.hit[1];
  }
  Expect(fresh.size() == a.size() + releases && !fresh.count(perfbench::kFillSeed),
         "fresh seeds never repeat and never equal the fill seed");
  Expect(releases == 11 && distinct_hits,
         "warm-up + every fifth step releases; hits name two distinct policies");

  const vadasa::CsvTable csv =
      vadasa::core::GenerateInflationGrowth("feed", 5000, 4,
                                            vadasa::core::DistributionKind::kUnbalanced, 3)
          .ToCsv();
  const auto x = perfbench::MakeFeedBatches(csv, 5, 4);
  const auto y = perfbench::MakeFeedBatches(csv, 5, 4);
  const auto z = perfbench::MakeFeedBatches(csv, 6, 4);
  bool same_batches = true, other_batches = false;
  for (size_t i = 0; i < x.size(); ++i) {
    same_batches = same_batches && perfbench::DeltaRequestLine("f", x[i]) ==
                                       perfbench::DeltaRequestLine("f", y[i]);
    other_batches = other_batches || perfbench::DeltaRequestLine("f", x[i]) !=
                                         perfbench::DeltaRequestLine("f", z[i]);
  }
  Expect(same_batches, "same seed -> same delta batches");
  Expect(other_batches, "another seed -> other delta batches");
  size_t updates = 0, deletes = 0, appends = 0;
  for (const auto& op : x[0]) {
    updates += op.kind == perfbench::FeedOp::kUpdate;
    deletes += op.kind == perfbench::FeedOp::kDelete;
    appends += op.kind == perfbench::FeedOp::kAppend;
  }
  Expect(updates == 6 && deletes == 2 && appends == 2,
         "a batch is 0.2% of rows: 60% updates, 20% deletes, 20% appends");
  auto table = vadasa::core::MicrodataTable::FromCsv("feed", csv, {}, "");
  auto batch = perfbench::ToDeltaBatch(x[0], csv.header.size());
  bool applies = table.ok() && batch.ok();
  if (applies) {
    auto next = vadasa::core::ApplyDeltaToTable(*table, *batch);
    applies = next.ok() && next->num_rows() == table->num_rows();
  }
  Expect(applies, "a batch applies and keeps the row count");
}

void PayloadChecker() {
  using vadasa::Json;
  auto result = [](const std::string& csv, int64_t id, const char* trace) {
    return Json(Json::Object{{"ok", Json(true)},
                             {"v", Json(2)},
                             {"id", Json(id)},
                             {"state", Json("done")},
                             {"cached", Json(true)},
                             {"queued_ns", Json(id * 7)},
                             {"run_ns", Json(0)},
                             {"trace_id", Json(trace)},
                             {"csv", Json(csv)},
                             {"audit", Json("=== Release audit ===\n")}})
        .Dump();
  };
  const std::string csv = "Id,Area\n1,Roma\n2,NULL_3\n";
  auto payload = [](const std::string& line) {
    auto parsed = Json::Parse(line);
    return parsed.ok() ? perfbench::ResultPayload(*parsed) : std::string();
  };
  const std::string fill = payload(result(csv, 1, "00000000000000aa"));
  Expect(!fill.empty() && payload(result(csv, 9, "00000000000000bb")) == fill,
         "payload checker ignores ids, trace ids, timings");
  std::string changed = csv;
  changed[changed.size() - 2] = '4';  // NULL_3 -> NULL_4: one byte.
  Expect(payload(result(changed, 1, "00000000000000aa")) != fill,
         "payload checker rejects a one-byte change");
  auto not_done = Json::Parse(result(csv, 1, "00"));
  (*not_done)["state"] = "failed";
  Expect(perfbench::ResultPayload(*not_done).empty(), "a failed job has no payload");
  Expect(perfbench::ResponseOk(*Json::Parse("{\"ok\":true,\"v\":2}")) &&
             !perfbench::ResponseOk(*Json::Parse("{\"ok\":true,\"v\":1}")) &&
             !perfbench::ResponseOk(*Json::Parse("{\"ok\":false,\"v\":2}")),
         "responses must say ok and v:2");
}

}  // namespace

int main() {
  TailRule();
  SeededScripts();
  PayloadChecker();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
