#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/json.h"
#include "core/datagen.h"
#include "serve/quota.h"
#include "serve/result_cache.h"

namespace vadasa::serve {
namespace {

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest() : scheduler_(SchedulerOptions{}), protocol_(&registry_, &scheduler_) {
    EXPECT_TRUE(registry_.Register("fig5", core::Figure5Microdata()).ok());
  }

  Json Call(const std::string& line) {
    bool shutdown = false;
    auto parsed = Json::Parse(protocol_.Handle(line, &shutdown));
    EXPECT_TRUE(parsed.ok());
    return parsed.ok() ? *parsed : Json();
  }

  /// Submits `submit`, then checks the job's `result` line: it carries the
  /// `payload` bytes verbatim, and parses to exactly the envelope's members
  /// plus the payload's, each payload member equal to its encoding. Returns
  /// the parsed line.
  Json ExpectResultCarries(const std::string& submit, const std::string& payload) {
    const Json submitted = Call(submit);
    EXPECT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
    bool shutdown = false;
    const std::string line = protocol_.Handle(
        R"({"op":"result","id":)" + std::to_string(submitted.GetInt("id", 0)) + "}",
        &shutdown);
    EXPECT_NE(line.find(payload), std::string::npos);
    auto result = Json::Parse(line);
    auto members = Json::Parse("{" + payload + "}");
    EXPECT_TRUE(result.ok() && members.ok()) << line;
    if (!result.ok() || !members.ok()) return Json();
    EXPECT_EQ(result->GetString("state", ""), "done") << line;
    std::set<std::string> want = {"ok", "v", "trace_id", "id", "state",
                                  "queue_seconds", "run_seconds", "queued_ns",
                                  "run_ns", "job_trace_id", "cached"};
    for (const auto& [key, value] : members->AsObject()) {
      EXPECT_TRUE(want.insert(key).second) << key << " repeats an envelope member";
      EXPECT_EQ((*result)[key].Dump(), value.Dump()) << key;
    }
    std::set<std::string> got;
    for (const auto& [key, value] : result->AsObject()) got.insert(key);
    EXPECT_EQ(got, want);
    return *result;
  }

  DatasetRegistry registry_;
  JobScheduler scheduler_;
  Protocol protocol_;
};

TEST_F(ProtocolTest, PingAndDatasets) {
  EXPECT_TRUE(Call(R"({"op":"ping"})").GetBool("ok", false));
  const Json datasets = Call(R"({"op":"datasets"})");
  ASSERT_TRUE(datasets.GetBool("ok", false));
  ASSERT_EQ(datasets["datasets"].AsArray().size(), 1u);
  EXPECT_EQ(datasets["datasets"].AsArray()[0].AsString(), "fig5");
}

TEST_F(ProtocolTest, SubmitRiskRoundTrip) {
  auto session = registry_.OpenSession("fig5", {});
  ASSERT_TRUE(session.ok());
  auto direct = session->Risk(/*quantile=*/-1.0, /*explain=*/true);
  ASSERT_TRUE(direct.ok());
  const Json result = ExpectResultCarries(
      R"({"op":"submit","dataset":"fig5","action":"risk","k":2,"explain":true})",
      EncodeResult(*direct));
  EXPECT_EQ(result["risk"]["tuple_risks"].AsArray().size(), 7u);
  EXPECT_TRUE(result["risk"].Has("global"));
}

TEST_F(ProtocolTest, SubmitAnonymizeReturnsCsvAndAudit) {
  auto session = registry_.OpenSession("fig5", {});
  ASSERT_TRUE(session.ok());
  auto direct = session->Anonymize();
  ASSERT_TRUE(direct.ok());
  const Json result = ExpectResultCarries(
      R"({"op":"submit","dataset":"fig5","action":"anonymize"})", EncodeResult(*direct));
  EXPECT_EQ(result.GetString("csv", ""), WriteCsv(direct->table.ToCsv()));
  EXPECT_EQ(result.GetString("audit", ""), direct->ToText());
}

TEST_F(ProtocolTest, StatusReportsTerminalState) {
  const Json submitted =
      Call(R"({"op":"submit","dataset":"fig5","action":"risk"})");
  const std::string id = std::to_string(submitted.GetInt("id", 0));
  Call(R"({"op":"result","id":)" + id + "}");  // Wait for completion.
  const Json status = Call(R"({"op":"status","id":)" + id + "}");
  ASSERT_TRUE(status.GetBool("ok", false));
  EXPECT_EQ(status.GetString("state", ""), "done");
  // The state and the timings come from one snapshot of the job.
  EXPECT_GT(status.GetInt("run_ns", 0), 0);
  EXPECT_FALSE(status.Has("risk")) << "status carries no payload";
}

TEST_F(ProtocolTest, ErrorsAreStructured) {
  const Json garbage = Call("this is not json");
  EXPECT_FALSE(garbage.GetBool("ok", true));
  EXPECT_EQ(garbage.GetString("code", ""), "ParseError");

  const Json no_op = Call(R"({"dataset":"fig5"})");
  EXPECT_FALSE(no_op.GetBool("ok", true));

  const Json bad_op = Call(R"({"op":"frobnicate"})");
  EXPECT_FALSE(bad_op.GetBool("ok", true));
  EXPECT_EQ(bad_op.GetString("code", ""), "InvalidArgument");

  const Json bad_dataset =
      Call(R"({"op":"submit","dataset":"/missing.csv"})");
  EXPECT_FALSE(bad_dataset.GetBool("ok", true));

  const Json bad_action =
      Call(R"({"op":"submit","dataset":"fig5","action":"delete"})");
  EXPECT_FALSE(bad_action.GetBool("ok", true));

  const Json bad_id = Call(R"({"op":"result","id":999})");
  EXPECT_FALSE(bad_id.GetBool("ok", true));
  EXPECT_EQ(bad_id.GetString("code", ""), "NotFound");

  const Json no_id = Call(R"({"op":"result"})");
  EXPECT_FALSE(no_id.GetBool("ok", true));

  const Json bad_policy =
      Call(R"({"op":"submit","dataset":"fig5","measure":"nonsense"})");
  EXPECT_FALSE(bad_policy.GetBool("ok", true));

  // The declarative cycle runs k-anonymity or re-identification only; a
  // declarative SUDA release is refused at submit, never cached under "suda".
  const Json declarative_suda = Call(
      R"({"op":"submit","dataset":"fig5","action":"anonymize","measure":"suda",)"
      R"("declarative":true})");
  EXPECT_FALSE(declarative_suda.GetBool("ok", true));
  EXPECT_EQ(declarative_suda.GetString("code", ""), "InvalidArgument");
}

TEST_F(ProtocolTest, ResponsesEchoProtocolVersionTwo) {
  EXPECT_EQ(Call(R"({"op":"ping"})").GetInt("v", 0), 2);
  EXPECT_EQ(Call(R"({"op":"ping","v":1})").GetInt("v", 0), 2);
  EXPECT_EQ(Call(R"({"op":"ping","v":2})").GetInt("v", 0), 2);
  EXPECT_TRUE(Call(R"({"op":"ping","v":2.0})").GetBool("ok", false));
  const Json error = Call(R"({"op":"frobnicate"})");
  EXPECT_FALSE(error.GetBool("ok", true));
  EXPECT_EQ(error.GetInt("v", 0), 2) << "error lines carry the version too";
}

TEST_F(ProtocolTest, UnknownProtocolVersionsAreRejected) {
  const Json future = Call(R"({"op":"ping","v":3})");
  EXPECT_FALSE(future.GetBool("ok", true));
  EXPECT_EQ(future.GetString("code", ""), "InvalidArgument");
  EXPECT_EQ(future.GetInt("supported_max", 0), 2);
  const Json zero = Call(R"({"op":"submit","dataset":"fig5","v":0})");
  EXPECT_FALSE(zero.GetBool("ok", true));
  const Json stringy = Call(R"({"op":"ping","v":"two"})");
  EXPECT_FALSE(stringy.GetBool("ok", true));
  // A fraction or an infinity is not a version: refused, never truncated.
  for (const char* line : {R"({"op":"ping","v":2.9})", R"({"op":"ping","v":1e400})"}) {
    const Json refused = Call(line);
    EXPECT_FALSE(refused.GetBool("ok", true)) << line;
    EXPECT_EQ(refused.GetString("code", ""), "InvalidArgument") << line;
    EXPECT_FALSE(refused.Has("supported_max")) << line;
  }
}

TEST_F(ProtocolTest, TimeoutOutsideItsBoundIsRefusedAndQueuesNothing) {
  ClientQuota quota(QuotaOptions{/*max_in_flight=*/1});
  const std::vector<std::string> catalog = registry_.Catalog();
  for (const char* timeout : {"9.223372e9", "1e10", "1e400", "-1", R"("5")"}) {
    const std::string line =
        std::string(R"({"op":"submit","dataset":"fig5","action":"risk","timeout_seconds":)") +
        timeout + "}";
    bool shutdown = false;
    auto refused = Json::Parse(protocol_.Handle(line, &shutdown, &quota));
    ASSERT_TRUE(refused.ok()) << line;
    EXPECT_FALSE(refused->GetBool("ok", true)) << line;
    EXPECT_EQ(refused->GetString("code", ""), "InvalidArgument") << line;
    EXPECT_EQ(quota.in_flight(), 0) << line << ": the quota slot is released";
  }
  EXPECT_EQ(scheduler_.queue_depth(), 0u);
  EXPECT_EQ(Call(R"({"op":"status","id":1})").GetString("code", ""), "NotFound")
      << "nothing was queued";
  EXPECT_EQ(registry_.Catalog(), catalog);

  // Fields are checked before the dataset loads: a refused submit naming a
  // CSV nothing has loaded yet leaves the catalog as it was.
  const std::string csv_path = ::testing::TempDir() + "protocol_timeout_fig5.csv";
  {
    std::ofstream out(csv_path);
    out << core::Figure5Microdata().CsvText();
  }
  for (const char* field : {R"("timeout_seconds":1e10)", R"("timeout_seconds":"5")",
                            R"("k":2.5)"}) {
    const Json refused = Call(R"({"op":"submit","dataset":")" + csv_path + R"(",)" +
                              field + "}");
    EXPECT_EQ(refused.GetString("code", ""), "InvalidArgument") << field;
    EXPECT_EQ(registry_.Catalog(), catalog) << field;
  }
  std::remove(csv_path.c_str());

  // The bound itself is accepted, and a zero timeout means no deadline.
  for (const char* timeout : {"1e9", "0"}) {
    bool shutdown = false;
    auto accepted = Json::Parse(protocol_.Handle(
        std::string(R"({"op":"submit","dataset":"fig5","action":"risk","timeout_seconds":)") +
            timeout + "}",
        &shutdown));
    ASSERT_TRUE(accepted.ok());
    ASSERT_TRUE(accepted->GetBool("ok", false)) << accepted->Dump();
    const Json result =
        Call(R"({"op":"result","id":)" + std::to_string(accepted->GetInt("id", 0)) + "}");
    EXPECT_EQ(result.GetString("state", ""), "done") << timeout << ": " << result.Dump();
  }
}

TEST_F(ProtocolTest, ApplyDeltaIsGatedOnV2) {
  const std::string ops = R"("ops":[{"kind":"delete","row":6}])";
  const Json implicit_v1 =
      Call(R"({"op":"apply_delta","dataset":"fig5",)" + ops + "}");
  EXPECT_FALSE(implicit_v1.GetBool("ok", true));
  EXPECT_NE(implicit_v1.GetString("error", "").find("v2"), std::string::npos);
  const Json explicit_v1 =
      Call(R"({"op":"apply_delta","v":1,"dataset":"fig5",)" + ops + "}");
  EXPECT_FALSE(explicit_v1.GetBool("ok", true));
  const Json v2 =
      Call(R"({"op":"apply_delta","v":2,"dataset":"fig5",)" + ops + "}");
  EXPECT_TRUE(v2.GetBool("ok", false)) << v2.Dump();
}

TEST_F(ProtocolTest, ApplyDeltaRoundTripVersionsTheDataset) {
  const Json applied = Call(
      R"({"op":"apply_delta","v":2,"dataset":"fig5","ops":[)"
      R"({"kind":"update","row":0,"values":["099876","Roma","Commerce","1000+","0-30"]},)"
      R"({"kind":"delete","row":6},)"
      R"({"kind":"append","values":["555555","Milano","Construction","0-200","60-90"]},)"
      R"({"kind":"append","values":["666666","NULL_3","Commerce","1000+","0-30"]}]})");
  ASSERT_TRUE(applied.GetBool("ok", false)) << applied.Dump();
  EXPECT_EQ(applied.GetString("dataset", ""), "fig5");
  EXPECT_EQ(applied.GetInt("version", 0), 2);
  EXPECT_EQ(applied.GetInt("rows", 0), 8);
  std::set<std::string> members;
  for (const auto& [key, value] : applied.AsObject()) members.insert(key);
  EXPECT_EQ(members, (std::set<std::string>{"ok", "v", "trace_id", "dataset",
                                            "version", "rows"}));

  // Jobs submitted after the delta run over the post-delta generation.
  const Json submitted =
      Call(R"({"op":"submit","dataset":"fig5","action":"risk"})");
  ASSERT_TRUE(submitted.GetBool("ok", false));
  const Json result = Call(R"({"op":"result","id":)" +
                           std::to_string(submitted.GetInt("id", 0)) + "}");
  ASSERT_TRUE(result.GetBool("ok", false)) << result.Dump();
  EXPECT_EQ(result["risk"]["tuple_risks"].AsArray().size(), 8u);

  const Json again = Call(
      R"({"op":"apply_delta","v":2,"dataset":"fig5","ops":[{"kind":"delete","row":0}]})");
  ASSERT_TRUE(again.GetBool("ok", false));
  EXPECT_EQ(again.GetInt("version", 0), 3) << "versions are monotonic";
  EXPECT_EQ(again.GetInt("rows", 0), 7);
}

TEST_F(ProtocolTest, ApplyDeltaRejectsMalformedBatches) {
  const char* kBad[] = {
      R"({"op":"apply_delta","v":2})",
      R"({"op":"apply_delta","v":2,"dataset":"fig5"})",
      R"({"op":"apply_delta","v":2,"dataset":"fig5","ops":[{"kind":"merge"}]})",
      R"({"op":"apply_delta","v":2,"dataset":"fig5","ops":[{"kind":"delete"}]})",
      R"({"op":"apply_delta","v":2,"dataset":"fig5","ops":[{"kind":"update","row":0}]})",
      R"({"op":"apply_delta","v":2,"dataset":"fig5","ops":[{"kind":"append","values":["too","short"]}]})",
      R"({"op":"apply_delta","v":2,"dataset":"fig5","ops":[{"kind":"append","values":[1,2,3,4,5]}]})",
      R"({"op":"apply_delta","v":2,"dataset":"fig5","ops":[{"kind":"delete","row":99}]})",
  };
  for (const char* line : kBad) {
    const Json response = Call(line);
    EXPECT_FALSE(response.GetBool("ok", true)) << line;
    EXPECT_EQ(response.GetString("code", ""), "InvalidArgument") << line;
  }
  // None of the rejected batches touched the dataset.
  const Json submitted =
      Call(R"({"op":"submit","dataset":"fig5","action":"risk"})");
  const Json result = Call(R"({"op":"result","id":)" +
                           std::to_string(submitted.GetInt("id", 0)) + "}");
  EXPECT_EQ(result["risk"]["tuple_risks"].AsArray().size(), 7u);
}

/// Integer request fields are integers in their field's range, or the
/// request is refused before anything runs: a row of 2^32 once wrapped to
/// row 0, a row of 1.9 was truncated to row 1, and k = 2^32 + 2 was queued as
/// k = 2.
class ProtocolIntegerFieldTest : public ProtocolTest {
 protected:
  ProtocolIntegerFieldTest() {
    const core::MicrodataTable figure5 = core::Figure5Microdata();
    core::MicrodataTable three("three", figure5.attributes());
    for (size_t r = 0; r < 3; ++r) {
      const std::span<const Value> row = figure5.row(r);
      EXPECT_TRUE(three.AddRow(std::vector<Value>(row.begin(), row.end())).ok());
    }
    EXPECT_TRUE(registry_.Register("three", three).ok());
    before_ = Snapshot();
  }

  /// The dataset's version and every cell, as text.
  std::string Snapshot() {
    auto loaded = registry_.Load("three");
    EXPECT_TRUE(loaded.ok());
    if (!loaded.ok()) return "";
    return std::to_string((*loaded)->version) + "\n" + (*loaded)->table->CsvText();
  }

  void ExpectRefused(const std::string& line) {
    const Json response = Call(line);
    EXPECT_FALSE(response.GetBool("ok", true)) << line;
    EXPECT_EQ(response.GetString("code", ""), "InvalidArgument") << line;
    EXPECT_EQ(Snapshot(), before_) << line;
  }

  std::string before_;
};

TEST_F(ProtocolIntegerFieldTest, RowPastUint32IsRefusedNotWrapped) {
  ExpectRefused(
      R"({"op":"apply_delta","v":2,"dataset":"three","ops":[{"kind":"update",)"
      R"("row":4294967296,"values":["099876","Roma","Commerce","1000+","0-30"]}]})");
  ExpectRefused(R"({"op":"apply_delta","v":2,"dataset":"three","ops":[)"
                R"({"kind":"delete","row":1e400}]})");
  ExpectRefused(R"({"op":"apply_delta","v":2,"dataset":"three","ops":[)"
                R"({"kind":"delete","row":-1}]})");
}

TEST_F(ProtocolIntegerFieldTest, FractionalRowIsRefusedNotTruncated) {
  ExpectRefused(
      R"({"op":"apply_delta","v":2,"dataset":"three","ops":[{"kind":"update",)"
      R"("row":1.9,"values":["099876","Roma","Commerce","1000+","0-30"]}]})");
  ExpectRefused(R"({"op":"apply_delta","v":2,"dataset":"three","ops":[)"
                R"({"kind":"delete","row":"1"}]})");
}

TEST_F(ProtocolIntegerFieldTest, KPastIntIsRefusedNotNarrowed) {
  ExpectRefused(R"({"op":"submit","dataset":"three","action":"risk","k":4294967298})");
  // Nothing was queued: the scheduler has issued no job id.
  EXPECT_EQ(Call(R"({"op":"status","id":1})").GetString("code", ""), "NotFound");
  const char* kBad[] = {
      R"({"op":"submit","dataset":"three","k":2.5})",
      R"({"op":"submit","dataset":"three","k":"2"})",
      R"({"op":"submit","dataset":"three","k":1e19})",
      R"({"op":"submit","dataset":"three","posterior_draws":2147483648})",
      R"({"op":"submit","dataset":"three","priority":-2147483649})",
      R"({"op":"submit","dataset":"three","priority":0.5})",
      R"({"op":"submit","dataset":"three","seed":-1})",
      R"({"op":"submit","dataset":"three","seed":9007199254740994})",
      R"({"op":"submit","dataset":"three","seed":1e400})",
  };
  for (const char* line : kBad) ExpectRefused(line);
  EXPECT_EQ(Call(R"({"op":"status","id":1})").GetString("code", ""), "NotFound");
  for (const char* line : {R"({"op":"status","id":1.5})", R"({"op":"result","id":-1})",
                           R"({"op":"cancel","id":1e19})"}) {
    ExpectRefused(line);
  }

  // The extremes of each range are accepted.
  const Json submitted = Call(
      R"({"op":"submit","dataset":"three","action":"risk","k":2,"priority":-2147483648,)"
      R"("posterior_draws":0,"seed":9007199254740992})");
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  EXPECT_EQ(submitted.GetInt("id", 0), 1);
  const Json result = Call(R"({"op":"result","id":1})");
  EXPECT_EQ(result.GetString("state", ""), "done") << result.Dump();
}

/// Serve-layer coherence: a result-cache entry primed pre-delta must never
/// be replayed for a post-delta submit — the new snapshot's generation
/// re-keys it.
TEST(ProtocolDeltaCacheTest, ApplyDeltaNeverServesStaleCachedResults) {
  ResultCache cache;
  DatasetRegistry registry;
  registry.set_result_cache(&cache);
  ASSERT_TRUE(registry.Register("fig5", core::Figure5Microdata()).ok());
  SchedulerOptions options;
  options.result_cache = &cache;
  JobScheduler scheduler(options);
  Protocol protocol(&registry, &scheduler);
  auto call = [&](const std::string& line) {
    bool shutdown = false;
    auto parsed = Json::Parse(protocol.Handle(line, &shutdown));
    EXPECT_TRUE(parsed.ok());
    return parsed.ok() ? *parsed : Json();
  };
  auto run_risk = [&]() {
    const Json submitted =
        call(R"({"op":"submit","dataset":"fig5","action":"risk"})");
    EXPECT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
    return call(R"({"op":"result","id":)" +
                std::to_string(submitted.GetInt("id", 0)) + "}");
  };

  const Json cold = run_risk();
  EXPECT_FALSE(cold.GetBool("cached", true));
  const Json hot = run_risk();
  EXPECT_TRUE(hot.GetBool("cached", false));
  EXPECT_EQ(hot["risk"].Dump(), cold["risk"].Dump());

  // Delete the Torino singleton: the next submit re-keys on the post-delta
  // generation and recomputes instead of replaying the 7-row payload.
  const Json applied = call(
      R"({"op":"apply_delta","v":2,"dataset":"fig5","ops":[{"kind":"delete","row":6}]})");
  ASSERT_TRUE(applied.GetBool("ok", false)) << applied.Dump();
  const Json fresh = run_risk();
  EXPECT_FALSE(fresh.GetBool("cached", true))
      << "stale cache hit after a delta changed the dataset's content";
  EXPECT_EQ(fresh["risk"]["tuple_risks"].AsArray().size(), 6u);
  const Json rehot = run_risk();
  EXPECT_TRUE(rehot.GetBool("cached", false));
  EXPECT_EQ(rehot["risk"].Dump(), fresh["risk"].Dump());
}

/// Two datasets never share a cache entry, whether their weights differ only
/// past the sixth significant digit or their files are byte-identical: the
/// second submit of the same policy misses, and its payload is its own
/// dataset's release, byte for byte, with the audit that names its own path.
TEST(ProtocolDeltaCacheTest, DatasetsDifferingPastSixDigitsNeverShareResults) {
  const auto csv = [](const char* first_weight, const char* second_weight) {
    return std::string("area,sector,weight\nNorth,Bank,") + first_weight +
           "\nNorth,Bank," + second_weight + "\nSouth,Retail,3\n";
  };
  const std::pair<std::string, std::string> kInputs[] = {
      {csv("26284.5678", "1234567.1"), csv("26284.5679", "1234567.2")},
      {csv("26284.5678", "1234567.1"), csv("26284.5678", "1234567.1")},
  };
  for (size_t input = 0; input < std::size(kInputs); ++input) {
    SCOPED_TRACE(input == 0 ? "past six digits" : "byte-identical");
    const std::string stem =
        ::testing::TempDir() + "vadasa_protocol_pair" + std::to_string(input);
    const std::string first = stem + "_a.csv";
    const std::string second = stem + "_b.csv";
    for (const auto& [path, contents] :
         {std::pair{first, kInputs[input].first},
          std::pair{second, kInputs[input].second}}) {
      std::ofstream out(path, std::ios::binary);
      out << contents;
    }
    ResultCache cache;
    DatasetRegistry registry;
    registry.set_result_cache(&cache);
    SchedulerOptions options;
    options.result_cache = &cache;
    JobScheduler scheduler(options);
    Protocol protocol(&registry, &scheduler);
    auto release = [&](const std::string& dataset) {
      bool shutdown = false;
      auto submitted = Json::Parse(protocol.Handle(
          R"({"op":"submit","action":"anonymize","dataset":")" + dataset + "\"}",
          &shutdown));
      EXPECT_TRUE(submitted.ok() && submitted->GetBool("ok", false));
      return protocol.Handle(R"({"op":"result","id":)" +
                                 std::to_string(submitted->GetInt("id", 0)) + "}",
                             &shutdown);
    };

    const std::string cold = release(first);
    const std::string other = release(second);
    auto parsed = Json::Parse(other);
    ASSERT_TRUE(parsed.ok()) << other;
    EXPECT_EQ(parsed->GetString("state", ""), "done") << other;
    EXPECT_FALSE(parsed->GetBool("cached", true))
        << "the second dataset was served the first one's cached release";
    auto direct = api::Session::Open(second, {});
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto response = direct->Anonymize();
    ASSERT_TRUE(response.ok());
    EXPECT_NE(other.find(EncodeResult(*response)), std::string::npos) << other;
    EXPECT_NE((*parsed)["audit"].AsString().find(second), std::string::npos);
    EXPECT_EQ((*parsed)["audit"].AsString().find(first), std::string::npos);
    EXPECT_NE(cold, other);
    if (input == 0) {
      EXPECT_NE((*parsed)["csv"].AsString().find("26284.5679"), std::string::npos);
    }
    std::remove(first.c_str());
    std::remove(second.c_str());
  }
}

/// Two registries serving one cache each publish their own snapshot of one
/// name over different tables. The generations come from one process-wide
/// counter, so neither registry is ever served the other's result.
TEST(ProtocolDeltaCacheTest, RegistriesSharingACacheKeepTheirOwnResults) {
  // The second table is Figure 5 without its Torino singleton (row 6).
  const core::MicrodataTable full = core::Figure5Microdata();
  core::MicrodataTable six(full.name(), full.attributes());
  for (size_t r = 0; r < 6; ++r) {
    const std::span<const Value> row = full.row(r);
    EXPECT_TRUE(six.AddRow(std::vector<Value>(row.begin(), row.end())).ok());
  }
  const core::MicrodataTable tables[] = {full, six};
  ResultCache cache;
  DatasetRegistry registries[2];
  std::vector<std::unique_ptr<JobScheduler>> schedulers;
  std::vector<std::unique_ptr<Protocol>> protocols;
  std::string expected[2];
  for (size_t i = 0; i < 2; ++i) {
    registries[i].set_result_cache(&cache);
    ASSERT_TRUE(registries[i].Register("fig5", tables[i]).ok());
    SchedulerOptions options;
    options.result_cache = &cache;
    schedulers.push_back(std::make_unique<JobScheduler>(options));
    protocols.push_back(std::make_unique<Protocol>(&registries[i], schedulers[i].get()));
    auto session = registries[i].OpenSession("fig5", {});
    ASSERT_TRUE(session.ok());
    auto report = session->Risk(/*quantile=*/-1.0, /*explain=*/false);
    ASSERT_TRUE(report.ok());
    expected[i] = EncodeResult(*report);
  }
  auto risk = [&](size_t i) {
    bool shutdown = false;
    auto submitted = Json::Parse(protocols[i]->Handle(
        R"({"op":"submit","dataset":"fig5","action":"risk"})", &shutdown));
    EXPECT_TRUE(submitted.ok() && submitted->GetBool("ok", false));
    return protocols[i]->Handle(R"({"op":"result","id":)" +
                                    std::to_string(submitted->GetInt("id", 0)) + "}",
                                &shutdown);
  };
  ASSERT_NE(expected[0], expected[1]) << "the two tables must differ in risk";
  // Each registry fills once and then hits its own entry.
  for (const auto& [i, cached] : {std::pair{0, false}, std::pair{1, false},
                                  std::pair{0, true}, std::pair{1, true}}) {
    SCOPED_TRACE("registry " + std::to_string(i));
    const std::string line = risk(i);
    EXPECT_NE(line.find(expected[i]), std::string::npos) << line;
    auto parsed = Json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(parsed->GetBool("cached", !cached), cached) << line;
  }
  EXPECT_EQ(cache.entries(), 2u);
}

TEST_F(ProtocolTest, CancelUnknownJobFails) {
  const Json cancelled = Call(R"({"op":"cancel","id":12345})");
  EXPECT_FALSE(cancelled.GetBool("ok", true));
  EXPECT_EQ(cancelled.GetString("code", ""), "NotFound");
}

TEST_F(ProtocolTest, MetricsExposeServeNamespace) {
  Call(R"({"op":"submit","dataset":"fig5","action":"risk"})");
  const Json metrics = Call(R"({"op":"metrics"})");
  ASSERT_TRUE(metrics.GetBool("ok", false));
  EXPECT_TRUE(metrics["metrics"].Has("serve.submitted"));
  EXPECT_TRUE(metrics["metrics"].Has("serve.admitted"));
  EXPECT_TRUE(metrics["metrics"].Has("serve.queue_depth"));
}

TEST_F(ProtocolTest, ShutdownSetsTheFlag) {
  bool shutdown = false;
  const std::string response = protocol_.Handle(R"({"op":"shutdown"})", &shutdown);
  EXPECT_TRUE(shutdown);
  auto parsed = Json::Parse(response);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->GetBool("ok", false));
}

}  // namespace
}  // namespace vadasa::serve
