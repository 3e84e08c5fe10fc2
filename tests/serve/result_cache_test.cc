// Result-cache unit tests (docs/serving.md): keying (snapshot generation +
// canonical policy) and the FingerprintTable content hash, LRU eviction
// against the byte budget, invalidation through the registry's quarantine
// path, and fills raced against reads under the serve.cache.fill failpoint.
// The end-to-end coherence contract lives in the cached-result-bit-identical
// property.

#include "serve/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "core/datagen.h"
#include "obs/metrics.h"
#include "serve/dataset_registry.h"

namespace vadasa::serve {
namespace {

using core::Figure5Microdata;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().counter(name)->value();
}

/// A payload of `size` copies of `fill`.
std::shared_ptr<const std::string> Bytes(size_t size, char fill = 'x') {
  return std::make_shared<const std::string>(size, fill);
}

class ResultCacheTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

// --- Keying -----------------------------------------------------------------

TEST_F(ResultCacheTest, FingerprintFlipsOnAOneCellEdit) {
  const core::MicrodataTable original = Figure5Microdata();
  core::MicrodataTable edited = original;
  ASSERT_GT(edited.num_rows(), 0u);
  edited.set_cell(0, 0, Value::String("edited-cell"));

  EXPECT_EQ(FingerprintTable(original), FingerprintTable(Figure5Microdata()));
  EXPECT_NE(FingerprintTable(original), FingerprintTable(edited));
}

TEST_F(ResultCacheTest, FingerprintCoversSchemaButNotTableName) {
  const core::MicrodataTable table = Figure5Microdata();

  // Same attributes and rows under a different relation name: the registry
  // name is not part of the content, so two names over byte-identical data
  // share cached results.
  core::MicrodataTable renamed("another-name", table.attributes());
  core::MicrodataTable renamed_column("x", [&] {
    std::vector<core::Attribute> attributes = table.attributes();
    attributes[0].name += "_renamed";
    return attributes;
  }());
  core::MicrodataTable recategorized("x", [&] {
    std::vector<core::Attribute> attributes = table.attributes();
    attributes[0].category =
        attributes[0].category == core::AttributeCategory::kQuasiIdentifier
            ? core::AttributeCategory::kNonIdentifying
            : core::AttributeCategory::kQuasiIdentifier;
    return attributes;
  }());
  core::MicrodataTable same_schema("x", table.attributes());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const auto& row = table.row(r);
    ASSERT_TRUE(renamed.AddRow(row).ok());
    ASSERT_TRUE(renamed_column.AddRow(row).ok());
    ASSERT_TRUE(recategorized.AddRow(row).ok());
    ASSERT_TRUE(same_schema.AddRow(row).ok());
  }

  EXPECT_EQ(FingerprintTable(table), FingerprintTable(renamed));
  EXPECT_EQ(FingerprintTable(renamed), FingerprintTable(same_schema));
  EXPECT_NE(FingerprintTable(table), FingerprintTable(renamed_column));
  EXPECT_NE(FingerprintTable(table), FingerprintTable(recategorized));
}

/// Two tables whose weights differ past the sixth significant digit are two
/// contents: they must not share cached risks or releases.
TEST_F(ResultCacheTest, FingerprintSeesEveryDigitOfADouble) {
  const auto weights = [](double first, double second) {
    core::MicrodataTable table("w", {{"area", "", core::AttributeCategory::kQuasiIdentifier},
                                     {"weight", "", core::AttributeCategory::kWeight}});
    EXPECT_TRUE(table.AddRow({Value::String("North"), Value::Double(first)}).ok());
    EXPECT_TRUE(table.AddRow({Value::String("South"), Value::Double(second)}).ok());
    return table;
  };
  EXPECT_NE(FingerprintTable(weights(26284.5678, 1234567.1)),
            FingerprintTable(weights(26284.5679, 1234567.2)));
  EXPECT_EQ(FingerprintTable(weights(26284.5678, 1234567.1)),
            FingerprintTable(weights(26284.5678, 1234567.1)));
}

/// The risk payload appends its per-tuple numbers straight into the string;
/// the bytes are those of the whole report built as one Json document.
TEST_F(ResultCacheTest, RiskPayloadIsTheJsonDocumentsDump) {
  api::RiskReport report;
  report.tuple_risks = {0.0, 1.0, 1.0 / 3.0, 0.5, 2e-9};
  report.threshold = 0.34;
  report.inferred_threshold = 0.125;
  report.risky = {{1, 1.0, "row 1 is unique on \"area\"\n"}, {2, 1.0 / 3.0, ""}};
  report.global.expected_reidentifications = 2.5;
  report.global.global_risk_rate = 0.5;
  report.global.tuples_over_threshold = 2;
  report.global.max_risk = 1.0;
  report.global.sample_uniques = 1;
  for (const double inferred : {0.125, -1.0}) {
    report.inferred_threshold = inferred;
    Json::Object risk;
    risk["tuple_risks"] = Json::Array(report.tuple_risks.begin(), report.tuple_risks.end());
    risk["threshold"] = report.threshold;
    if (inferred >= 0.0) risk["inferred_threshold"] = inferred;
    Json::Array risky;
    for (const api::RiskyTuple& tuple : report.risky) {
      Json::Object entry;
      entry["row"] = static_cast<int64_t>(tuple.row);
      entry["risk"] = tuple.risk;
      if (!tuple.explanation.empty()) entry["explanation"] = tuple.explanation;
      risky.emplace_back(std::move(entry));
    }
    risk["risky"] = std::move(risky);
    Json::Object global;
    global["expected_reidentifications"] = report.global.expected_reidentifications;
    global["global_risk_rate"] = report.global.global_risk_rate;
    global["tuples_over_threshold"] =
        static_cast<int64_t>(report.global.tuples_over_threshold);
    global["max_risk"] = report.global.max_risk;
    global["sample_uniques"] = static_cast<int64_t>(report.global.sample_uniques);
    risk["global"] = std::move(global);
    EXPECT_EQ(EncodeResult(report), "\"risk\":" + Json(std::move(risk)).Dump());
  }
}

TEST_F(ResultCacheTest, ReleasePayloadQuotesTheAuditAndTheCsvText) {
  using core::AttributeCategory;
  // Figure 5; a table whose cells hold a comma, a quote, CR, LF, a tab, a
  // 0x01 byte and non-ASCII text, where rows 6, 7, 14 and 15 are unique and
  // are released with NULL_ cells; and a one-column table with an empty
  // cell, written as the " " record.
  core::MicrodataTable hard("hard", {{"name, \"q\"", "", AttributeCategory::kQuasiIdentifier},
                                     {"note", "", AttributeCategory::kQuasiIdentifier},
                                     {"weight", "", AttributeCategory::kWeight}});
  const char* const kCells[] = {"Rossi, Mario", "say \"hi\"", "cr\rin", "lf\nin",
                                "tab\tin", "ctl\x01in", "Zürich €", "plain"};
  for (size_t r = 0; r < 16; ++r) {
    const char* note = r % 8 < 6 ? kCells[(r + 1) % 8] : kCells[r % 3];
    ASSERT_TRUE(hard.AddRow({Value::String(kCells[r % 8]), Value::String(note),
                             Value::Double(1.5 + static_cast<double>(r))})
                    .ok());
  }
  core::MicrodataTable one_column("one", {{"note", "", AttributeCategory::kQuasiIdentifier}});
  for (const char* note : {"", "x", "", "x"}) {
    ASSERT_TRUE(one_column.AddRow({Value::String(note)}).ok());
  }
  std::vector<std::string> payloads;
  for (const core::MicrodataTable& table : {Figure5Microdata(), hard, one_column}) {
    auto session = api::Session::FromTable(table, {});
    ASSERT_TRUE(session.ok());
    auto response = session->Anonymize();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    payloads.push_back(EncodeResult(*response));
    EXPECT_EQ(payloads.back(), "\"audit\":" + JsonQuote(response->ToText()) +
                                   ",\"csv\":" + JsonQuote(WriteCsv(response->table.ToCsv())));
  }
  // The hard cells survive the release, quoted for CSV and escaped for JSON.
  for (const char* escaped : {R"(\"Rossi, Mario\")", R"(\"say \"\"hi\"\"\")", R"(\"cr\rin\")",
                              R"(\"lf\nin\")", R"(tab\tin)", R"(ctl\u0001in)", "Zürich €",
                              "NULL_"}) {
    EXPECT_NE(payloads[1].find(escaped), std::string::npos) << escaped;
  }
  EXPECT_NE(payloads[2].find(R"(\n\" \"\n)"), std::string::npos) << payloads[2];
}

TEST_F(ResultCacheTest, CanonicalPolicyKeySeparatesEveryPolicyField) {
  const api::SessionOptions base;
  const std::string key =
      CanonicalPolicyKey(base, JobAction::kRisk, -1.0, false);
  // Two identically-spelled policies collide (that is the point of
  // canonicalization: JSON field order and defaulted fields vanish).
  EXPECT_EQ(key, CanonicalPolicyKey(base, JobAction::kRisk, -1.0, false));

  std::vector<std::string> variants;
  {
    api::SessionOptions o = base;
    o.risk_measure = "suda";
    variants.push_back(CanonicalPolicyKey(o, JobAction::kRisk, -1.0, false));
  }
  {
    api::SessionOptions o = base;
    o.k += 1;
    variants.push_back(CanonicalPolicyKey(o, JobAction::kRisk, -1.0, false));
  }
  {
    api::SessionOptions o = base;
    o.threshold = o.threshold * 0.5 + 0.1;
    variants.push_back(CanonicalPolicyKey(o, JobAction::kRisk, -1.0, false));
  }
  {
    api::SessionOptions o = base;
    o.standard_nulls = !o.standard_nulls;
    variants.push_back(CanonicalPolicyKey(o, JobAction::kRisk, -1.0, false));
  }
  {
    api::SessionOptions o = base;
    o.seed += 17;
    variants.push_back(CanonicalPolicyKey(o, JobAction::kRisk, -1.0, false));
  }
  variants.push_back(CanonicalPolicyKey(base, JobAction::kAnonymize, -1.0, false));
  variants.push_back(CanonicalPolicyKey(base, JobAction::kRisk, 0.9, false));
  variants.push_back(CanonicalPolicyKey(base, JobAction::kRisk, -1.0, true));

  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(variants[i], key) << "variant " << i;
    for (size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_NE(variants[i], variants[j]) << i << " vs " << j;
    }
  }
}

TEST_F(ResultCacheTest, CacheKeyPrefixesTheHexGeneration) {
  const std::string key = ResultCacheKey(0xdeadbeefull, "measure=x");
  EXPECT_EQ(key, "00000000deadbeef|measure=x");
  EXPECT_NE(ResultCacheKey(1, "p"), ResultCacheKey(2, "p"));
}

// --- LRU + byte budget ------------------------------------------------------
//
// An entry costs its payload's size plus its key's, so bytes() is the sum of
// both over the live entries after every put, refresh, eviction and
// invalidation.

TEST_F(ResultCacheTest, EvictsLeastRecentlyUsedFirst) {
  // Three 193-byte entries (a 192-byte payload under a one-byte key) fit a
  // 600-byte budget; a fourth forces one eviction.
  ResultCacheOptions options;
  options.byte_budget = 600;
  ResultCache cache(options);
  const size_t cost = 192 + 1;
  const auto a = Bytes(192, 'a');

  cache.Put("a", "ds", a);
  cache.Put("b", "ds", Bytes(192, 'b'));
  cache.Put("c", "ds", Bytes(192, 'c'));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.bytes(), 3 * cost);

  // Touch "a": "b" becomes the coldest entry and must be the victim. A hit
  // hands out the stored string itself.
  EXPECT_EQ(cache.Get("a"), a);

  const uint64_t evictions_before = CounterValue("serve.cache.evictions");
  cache.Put("d", "ds", Bytes(192, 'd'));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.bytes(), 3 * cost);
  EXPECT_EQ(CounterValue("serve.cache.evictions") - evictions_before, 1u);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_EQ(cache.Get("a"), a);
  EXPECT_EQ(*cache.Get("c"), std::string(192, 'c'));
  EXPECT_EQ(*cache.Get("d"), std::string(192, 'd'));

  // Evicting by size: a 401-byte entry pushes out the two coldest, "a" and
  // "c" (the reads above left "d" the most recently used).
  cache.Put("e", "ds", Bytes(400, 'e'));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.bytes(), cost + 400 + 1);
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("c"), nullptr);
  EXPECT_NE(cache.Get("d"), nullptr);
}

TEST_F(ResultCacheTest, RefreshingAKeyReplacesItsBytesNotItsCount) {
  ResultCache cache;
  cache.Put("k", "ds", Bytes(8, '1'));
  EXPECT_EQ(cache.bytes(), 8u + 1);
  const auto refreshed = Bytes(64, '2');
  cache.Put("k", "ds", refreshed);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 64u + 1);
  EXPECT_EQ(cache.Get("k"), refreshed);
}

TEST_F(ResultCacheTest, OneOversizedEntryIsStillAdmitted) {
  // A single result bigger than the whole budget must not wedge the cache
  // into rejecting everything: it is admitted (alone) and evicted by the
  // next insert.
  ResultCacheOptions options;
  options.byte_budget = 64;
  ResultCache cache(options);
  cache.Put("big", "ds", Bytes(4096));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 4096u + 3);
  cache.Put("next", "ds", Bytes(4096));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 4096u + 4);
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_NE(cache.Get("next"), nullptr);
}

// --- Invalidation -----------------------------------------------------------

TEST_F(ResultCacheTest, InvalidateDatasetDropsOnlyThatDatasetsEntries) {
  ResultCache cache;
  cache.Put("k1", "alpha", Bytes(4));
  cache.Put("k2", "alpha", Bytes(5));
  cache.Put("k3", "beta", Bytes(6));
  EXPECT_EQ(cache.bytes(), (4u + 2) + (5 + 2) + (6 + 2));
  const uint64_t invalidations_before =
      CounterValue("serve.cache.invalidations");
  cache.InvalidateDataset("alpha");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 6u + 2);
  EXPECT_EQ(CounterValue("serve.cache.invalidations") - invalidations_before,
            2u);
  EXPECT_EQ(cache.Get("k1"), nullptr);
  EXPECT_NE(cache.Get("k3"), nullptr);

  cache.InvalidateAll();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST_F(ResultCacheTest, RegistryQuarantineInvalidatesTheDatasetsEntries) {
  const std::string csv_path =
      ::testing::TempDir() + "cache_quarantine_fig5.csv";
  {
    std::ofstream out(csv_path);
    out << WriteCsv(Figure5Microdata().ToCsv());
  }
  ResultCache cache;
  DatasetRegistry registry;
  registry.set_result_cache(&cache);
  registry.set_quarantine_after(2);
  cache.Put("stale|policy", csv_path, Bytes(4));
  cache.Put("other|policy", "unrelated", Bytes(4));

  ASSERT_TRUE(failpoint::ArmFromSpec("serve.registry.load=error(io)").ok());
  EXPECT_FALSE(registry.Load(csv_path).ok());
  EXPECT_EQ(cache.entries(), 2u);  // One failure: not quarantined yet.
  EXPECT_FALSE(registry.Load(csv_path).ok());
  ASSERT_TRUE(registry.IsQuarantined(csv_path));

  // The quarantine transition dropped the poisoned dataset's entries and
  // nothing else.
  EXPECT_EQ(cache.Get("stale|policy"), nullptr);
  EXPECT_NE(cache.Get("other|policy"), nullptr);
  EXPECT_EQ(cache.bytes(), 4u + std::string("other|policy").size());
  std::remove(csv_path.c_str());
}

// --- Fills raced against reads ---------------------------------------------

TEST_F(ResultCacheTest, SlowFillNeverServesAPartialEntry) {
  // serve.cache.fill=delay(25) stretches every fill; concurrent readers must
  // see either a clean miss or the complete entry, never a torn one.
  ASSERT_TRUE(failpoint::ArmFromSpec("serve.cache.fill=delay(25)").ok());
  ResultCache cache;
  std::atomic<bool> done{false};
  std::thread filler([&] {
    cache.Put("hot", "ds", Bytes(256, 'h'));
    done.store(true);
  });
  size_t hits = 0;
  for (;;) {
    if (const auto out = cache.Get("hot")) {
      ++hits;
      ASSERT_EQ(*out, std::string(256, 'h'));
    }
    if (done.load() && hits > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  filler.join();
  EXPECT_EQ(cache.entries(), 1u);
}

TEST_F(ResultCacheTest, InjectedFillFailureDropsTheFillNotTheCache) {
  ASSERT_TRUE(failpoint::ArmFromSpec("serve.cache.fill=error").ok());
  ResultCache cache;
  cache.Put("dropped", "ds", Bytes(8));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.Get("dropped"), nullptr);

  // The cache itself stays healthy once the fault clears.
  failpoint::DisarmAll();
  cache.Put("kept", "ds", Bytes(8));
  EXPECT_NE(cache.Get("kept"), nullptr);
}

}  // namespace
}  // namespace vadasa::serve
