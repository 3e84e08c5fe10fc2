// Fuzz entry point for the JSON parser every protocol line passes through:
// for any byte string, Json::Parse either fails, or the document it returns
// dumps to text that parses back and dumps to the same bytes. The input's
// bytes, dumped as a string value, also parse back to themselves, so a byte
// that both the writer and the parser would drop cannot hide. Every number
// in the document also goes through the integer accessors the protocol
// decodes request fields with: AsInt must saturate (never cast a double
// outside int64_t), and a number IsIntegerIn accepts must read back exactly.
// A violation aborts with its reason.
//
// Built two ways (see fuzz/CMakeLists.txt):
//   - with -DVADASA_ENABLE_LIBFUZZER=ON under clang, a real libFuzzer binary;
//   - otherwise linked against driver_main.cc, a seeded-loop driver feeding
//     generated documents, mutated documents, and raw bytes.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "common/json.h"
#include "common/random.h"
#include "testing/generators.h"

namespace {

void Require(bool holds, const char* what, std::string_view input) {
  if (holds) return;
  std::fprintf(stderr, "fuzz_json: %s\ninput (%zu bytes):\n%.*s\n", what, input.size(),
               static_cast<int>(input.size()), input.data());
  std::abort();
}

/// Checks the integer accessors on every number of `value`.
void CheckIntegers(const vadasa::Json& value, std::string_view input) {
  if (value.is_array()) {
    for (const vadasa::Json& element : value.AsArray()) CheckIntegers(element, input);
    return;
  }
  if (value.is_object()) {
    for (const auto& [key, element] : value.AsObject()) {
      Require(value.GetInt(key, 0) == element.AsInt(0), "GetInt differs from AsInt",
              input);
      CheckIntegers(element, input);
    }
    return;
  }
  if (!value.is_number()) return;
  const double d = value.AsDouble();
  const int64_t i = value.AsInt(-7);
  constexpr double kTwo63 = 9223372036854775808.0;
  if (std::isnan(d)) {
    Require(i == -7, "AsInt of NaN is not the fallback", input);
  } else if (d >= kTwo63) {
    Require(i == std::numeric_limits<int64_t>::max(), "AsInt does not saturate up", input);
  } else if (d < -kTwo63) {
    Require(i == std::numeric_limits<int64_t>::min(), "AsInt does not saturate down",
            input);
  } else {
    Require(static_cast<double>(i) == std::trunc(d), "AsInt does not truncate", input);
  }
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  if (value.IsIntegerIn(-kTwo53, kTwo53)) {
    Require(static_cast<double>(i) == d, "an accepted integer does not read back", input);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  auto quoted = vadasa::Json::Parse(vadasa::Json(text).Dump());
  Require(quoted.ok() && quoted->is_string() && quoted->AsString() == text,
          "the input as a string value does not come back unchanged", text);
  auto parsed = vadasa::Json::Parse(text);
  if (!parsed.ok()) return 0;
  CheckIntegers(*parsed, text);
  const std::string once = parsed->Dump();
  auto again = vadasa::Json::Parse(once);
  Require(again.ok(), "the dump does not parse back", text);
  Require(again->Dump() == once, "the dump is not stable after one pass", text);
  return 0;
}

// The seeded driver rotates generated documents, the same documents with a
// few bytes overwritten, inserted or deleted, and raw noise.
std::string SeededFuzzInput(vadasa::Rng* rng, uint64_t iteration) {
  if (iteration % 3 == 2) return vadasa::testing::RandomBytes(rng);
  std::string doc = vadasa::testing::RandomJsonDocument(rng);
  if (iteration % 3 == 0 || doc.empty()) return doc;
  static const char kBytes[] = {'{', '}', '[', ']', ',', ':', '"', '\\', '-',
                                '0', '9', '.', 'e', 'E', '+', 'u', ' '};
  for (uint64_t edits = 1 + rng->NextBelow(3); edits > 0 && !doc.empty(); --edits) {
    const size_t at = rng->NextBelow(doc.size());
    const char byte = kBytes[rng->NextBelow(sizeof(kBytes))];
    switch (rng->NextBelow(3)) {
      case 0:
        doc[at] = byte;
        break;
      case 1:
        doc.insert(doc.begin() + static_cast<std::ptrdiff_t>(at), byte);
        break;
      default:
        doc.erase(at, 1);
        break;
    }
  }
  return doc;
}
