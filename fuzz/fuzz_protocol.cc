// Fuzz entry point for the serving protocol: every line of the input goes
// through Protocol::Handle, which must answer each with one line that parses
// as a JSON object carrying a boolean "ok" — and, when "ok" is false, string
// "error" and "code" members. After the input, a ping must still answer ok.
// A violation aborts with its reason.
//
// The target never opens a file the input names: every "dataset" member is
// rewritten to the one registered table or to a path inside an empty
// temporary directory, and "posterior_draws" is clamped so every job ends in
// milliseconds. Before each input the registered table is reset with
// Replace and the metrics registry is zeroed; each input gets its own
// scheduler, which drains its jobs before the next input starts.
//
// Built two ways (see fuzz/CMakeLists.txt):
//   - with -DVADASA_ENABLE_LIBFUZZER=ON under clang, a real libFuzzer binary;
//   - otherwise linked against driver_main.cc, a seeded-loop driver feeding
//     generated requests, mutated requests, and raw bytes.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "core/datagen.h"
#include "obs/metrics.h"
#include "serve/dataset_registry.h"
#include "serve/protocol.h"
#include "serve/quota.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "testing/generators.h"

namespace {

constexpr const char* kDataset = "fuzz";
/// Requests handled per input; the rest of a long input is ignored.
constexpr size_t kMaxLines = 8;
/// Posterior draws per risky row that keep a re-identification job short.
constexpr int64_t kMaxPosteriorDraws = 8;

void Require(bool holds, const char* what, std::string_view input,
             std::string_view response) {
  if (holds) return;
  std::fprintf(stderr, "fuzz_protocol: %s\ninput (%zu bytes):\n%.*s\nresponse:\n%.*s\n",
               what, input.size(), static_cast<int>(input.size()), input.data(),
               static_cast<int>(response.size()), response.data());
  std::abort();
}

vadasa::core::MicrodataTable FuzzTable() {
  return vadasa::core::GenerateInflationGrowth(
      kDataset, 16, 3, vadasa::core::DistributionKind::kUnbalanced, 1);
}

/// The state every input shares: the registry holding the one table, the
/// result cache, and an empty directory for the paths that name no table.
struct Fixture {
  vadasa::serve::ResultCache cache;
  vadasa::serve::DatasetRegistry registry;
  std::string empty_dir;

  Fixture() {
    std::error_code ec;
    const std::filesystem::path base = std::filesystem::temp_directory_path(ec);
    empty_dir = (ec ? std::filesystem::path("/tmp") : base) / "vadasa_fuzz_protocol_empty";
    std::filesystem::create_directories(empty_dir, ec);
    registry.set_result_cache(&cache);
  }

  /// The dataset names an input may reach: the registered table, a missing
  /// file inside the empty directory, and the directory itself.
  std::string Allowed(size_t pick) const {
    switch (pick % 3) {
      case 0:
        return empty_dir + "/missing.csv";
      case 1:
        return empty_dir;
      default:
        return kDataset;
    }
  }

  bool IsAllowed(const std::string& name) const {
    for (size_t pick = 0; pick < 3; ++pick) {
      if (name == Allowed(pick)) return true;
    }
    return false;
  }
};

Fixture& Shared() {
  static Fixture fixture;
  return fixture;
}

/// The line the protocol sees: `line` itself, unless it names a dataset
/// outside the allowed ones or asks for more than kMaxPosteriorDraws draws;
/// then the parsed request with those members rewritten (which respells its
/// numbers canonically).
std::string Sanitize(const Fixture& fixture, const std::string& line) {
  auto parsed = vadasa::Json::Parse(line);
  if (!parsed.ok() || !parsed->is_object()) return line;
  // Only a string names a file; the protocol reads any other value as absent.
  const vadasa::Json& dataset = (*parsed)["dataset"];
  const bool foreign_dataset = dataset.is_string() && !fixture.IsAllowed(dataset.AsString());
  const bool many_draws = (*parsed)["posterior_draws"].AsDouble(0.0) > kMaxPosteriorDraws;
  if (!foreign_dataset && !many_draws) return line;
  vadasa::Json::Object object = parsed->AsObject();
  if (foreign_dataset) {
    object["dataset"] = fixture.Allowed(std::hash<std::string>{}(dataset.AsString()));
  }
  if (many_draws) object["posterior_draws"] = kMaxPosteriorDraws;
  return vadasa::Json(std::move(object)).Dump();
}

/// Checks one response line against the protocol's envelope.
void CheckResponse(const std::string& response, std::string_view input) {
  Require(!response.empty() && response.find('\n') == std::string::npos,
          "the response is not one line", input, response);
  auto parsed = vadasa::Json::Parse(response);
  Require(parsed.ok() && parsed->is_object(), "the response is not a JSON object", input,
          response);
  Require((*parsed)["ok"].is_bool(), "the response has no boolean \"ok\"", input, response);
  if (!(*parsed)["ok"].AsBool()) {
    Require((*parsed)["error"].is_string() && (*parsed)["code"].is_string(),
            "an error response lacks a string \"error\" or \"code\"", input, response);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string input(reinterpret_cast<const char*>(data), size);
  Fixture& fixture = Shared();
  // Each input starts from zeroed metrics, so a long run's histograms stay
  // small and the metrics verbs answer every input alike.
  vadasa::obs::MetricsRegistry::Global().Reset();
  Require(fixture.registry.Replace(kDataset, FuzzTable()).ok(),
          "the table does not register", input, "");
  vadasa::serve::ClientQuota quota(vadasa::serve::QuotaOptions{/*max_in_flight=*/2});
  vadasa::serve::SchedulerOptions options;
  options.workers = 1;
  options.result_cache = &fixture.cache;
  vadasa::serve::JobScheduler scheduler(options);
  vadasa::serve::Protocol protocol(&fixture.registry, &scheduler);

  size_t begin = 0;
  for (size_t lines = 0; lines < kMaxLines && begin <= input.size(); ++lines) {
    size_t end = input.find('\n', begin);
    if (end == std::string::npos) end = input.size();
    bool shutdown = false;
    CheckResponse(protocol.Handle(Sanitize(fixture, input.substr(begin, end - begin)),
                                  &shutdown, &quota),
                  input);
    begin = end + 1;
  }
  bool shutdown = false;
  const std::string pong = protocol.Handle(R"({"op":"ping"})", &shutdown);
  CheckResponse(pong, input);
  Require(vadasa::Json::Parse(pong)->GetBool("ok", false), "a later ping fails", input, pong);
  return 0;
}

namespace {

/// Numbers and non-numbers at the edges of every integer field's range.
const char* const kEdgeValues[] = {
    "0", "1", "2", "3", "-1", "-0", "2.9", "0.5", "2.0", "1e400", "-1e400", "1e-300",
    "9007199254740992", "-9007199254740992", "9007199254740993", "9223372036854775808",
    "-9223372036854775809", "18446744073709551616", "4294967295", "4294967296",
    "2147483647", "2147483648", "-2147483648", "-2147483649", "1e9", "9.223372e9", "1e10",
    "\"5\"", "\"two\"", "null", "true", "[]", "{}"};

std::string Edge(vadasa::Rng* rng) {
  return kEdgeValues[rng->NextBelow(sizeof(kEdgeValues) / sizeof(kEdgeValues[0]))];
}

/// One request's members: each is valid unless it draws an edge value,
/// which it does with odds 1 in `edge_odds` (never when `edge_odds` is 0).
struct Draw {
  vadasa::Rng* rng;
  uint64_t edge_odds;

  bool Chance(uint64_t n) { return rng->NextBelow(n) == 0; }
  bool EdgeTurn() { return edge_odds != 0 && Chance(edge_odds); }
  std::string Pick(const std::vector<std::string>& options) {
    return options[rng->NextBelow(options.size())];
  }
  std::string Number(int64_t lo, int64_t hi) {
    if (EdgeTurn()) return Edge(rng);
    return std::to_string(lo + static_cast<int64_t>(rng->NextBelow(hi - lo + 1)));
  }
  std::string Of(const std::vector<std::string>& valid,
                 const std::vector<std::string>& invalid) {
    return EdgeTurn() ? Pick(invalid) : Pick(valid);
  }
};

std::string Quote(const std::string& s) { return vadasa::Json(s).Dump(); }

std::string DatasetName(Draw* d) {
  const Fixture& fixture = Shared();
  return d->Of({Quote(kDataset)},
               {Quote(fixture.Allowed(0)), Quote(fixture.Allowed(1)),
                Quote("unregistered.csv"), "7", "null"});
}

std::string DeltaOps(Draw* d) {
  static const size_t width = FuzzTable().num_columns();
  std::string ops = "[";
  for (uint64_t n = 1 + d->rng->NextBelow(3); n > 0; --n) {
    const std::string kind = d->Of({"update", "delete", "append"}, {"merge", ""});
    ops += "{\"kind\":" + Quote(kind);
    if (kind != "append" || d->EdgeTurn()) ops += ",\"row\":" + d->Number(0, 17);
    if (kind != "delete" || d->EdgeTurn()) {
      ops += ",\"values\":[";
      const size_t cells = d->EdgeTurn() ? d->rng->NextBelow(2 * width) : width;
      for (size_t c = 0; c < cells; ++c) {
        if (c > 0) ops += ",";
        ops += d->Of({"\"1\"", "\"2\"", "\"0.5\"", "\"NULL_2\"", "\"Roma\""}, {"7", "null"});
      }
      ops += "]";
    }
    ops += "}";
    if (n > 1) ops += ",";
  }
  return ops + "]";
}

/// One generated request line. A later line of an input addresses the jobs
/// its earlier lines submitted (ids start at 1 per input).
std::string Request(vadasa::Rng* rng, bool later) {
  Draw d{rng, rng->NextBelow(2) == 0 ? 0 : 2 + rng->NextBelow(6)};
  const std::string op =
      later ? d.Pick({"status", "result", "result", "cancel", "submit", "apply_delta"})
            : d.Pick({"submit", "submit", "submit", "submit", "submit", "apply_delta",
                      "apply_delta", "ping", "datasets", "status", "metrics", "telemetry",
                      "shutdown", "frobnicate"});
  std::string line = "{\"op\":" + Quote(op);
  if (op == "apply_delta" || d.Chance(3)) line += ",\"v\":" + d.Number(1, 2);
  if (op == "submit") {
    line += ",\"dataset\":" + DatasetName(&d);
    line += ",\"action\":" + d.Of({"\"risk\"", "\"anonymize\""}, {"\"delete\"", "1"});
    line += ",\"measure\":" + d.Of({"\"k-anonymity\"", "\"individual\"", "\"suda\"",
                                     "\"re-identification\""},
                                    {"\"nonsense\"", "2"});
    if (d.Chance(2)) line += ",\"k\":" + d.Number(1, 4);
    if (d.Chance(3)) line += ",\"seed\":" + d.Number(0, 99);
    if (d.Chance(3)) line += ",\"priority\":" + d.Number(-2, 2);
    if (d.Chance(3)) {
      line += ",\"timeout_seconds\":" + d.Of({"0", "5", "1e-6", "1e9"}, {Edge(rng)});
    }
    if (d.Chance(3)) line += ",\"posterior_draws\":" + d.Number(0, 4);
    if (d.Chance(4)) line += ",\"quantile\":" + d.Of({"0.5", "-1"}, {Edge(rng)});
    if (d.Chance(4)) line += ",\"threshold\":" + d.Of({"0.1", "0.5"}, {Edge(rng)});
    for (const char* flag : {"explain", "declarative", "standard_nulls", "single_step"}) {
      if (d.Chance(4)) line += ",\"" + std::string(flag) + "\":" + d.Of({"true"}, {"1"});
    }
  } else if (op == "status" || op == "result" || op == "cancel") {
    if (!d.EdgeTurn()) line += ",\"id\":" + d.Number(1, 2);
  } else if (op == "apply_delta") {
    line += ",\"dataset\":" + DatasetName(&d);
    if (!d.EdgeTurn()) line += ",\"ops\":" + DeltaOps(&d);
  }
  return line + "}";
}

}  // namespace

// The seeded driver rotates generated request sequences, the same sequences
// with a few bytes overwritten, inserted or deleted, and raw noise.
std::string SeededFuzzInput(vadasa::Rng* rng, uint64_t iteration) {
  if (iteration % 4 == 3) return vadasa::testing::RandomBytes(rng);
  std::string input;
  for (uint64_t n = 1 + rng->NextBelow(3); n > 0; --n) {
    input += Request(rng, /*later=*/!input.empty());
    if (n > 1) input += "\n";
  }
  if (iteration % 4 != 2) return input;
  static const char kBytes[] = {'{', '}', '[', ']', ',', ':', '"', '\\', '-',
                                '0', '9', '.', 'e', '\n', ' '};
  for (uint64_t edits = 1 + rng->NextBelow(3); edits > 0 && !input.empty(); --edits) {
    const size_t at = rng->NextBelow(input.size());
    const char byte = kBytes[rng->NextBelow(sizeof(kBytes))];
    switch (rng->NextBelow(3)) {
      case 0:
        input[at] = byte;
        break;
      case 1:
        input.insert(input.begin() + static_cast<std::ptrdiff_t>(at), byte);
        break;
      default:
        input.erase(at, 1);
        break;
    }
  }
  return input;
}
