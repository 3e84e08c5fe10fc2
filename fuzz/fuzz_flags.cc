// Fuzz entry point for the command line the tools accept: api::FlagParser and
// serve::ParseListenSpec. Each input is split at newlines into an argv for a
// parser with one flag of every kind (bool, string, path, an int and a double
// with ranges); the whole input and every argument also go to
// ParseListenSpec. Whatever the input, nothing crashes, and:
//   - an accepted int or double lies in its range, is not NaN and is spelled
//     without surrounding whitespace, on every occurrence; an accepted path
//     is non-empty;
//   - the positionals are the arguments' own strings, in their order;
//   - an accepted listen spec has a non-empty unix path or a TCP port in
//     0..65535, and ParseListenSpec(spec.ToString()) gives back the same
//     kind, path and port.
// A violation aborts with its reason.
//
// Built two ways (see fuzz/CMakeLists.txt):
//   - with -DVADASA_ENABLE_LIBFUZZER=ON under clang, a real libFuzzer binary;
//   - otherwise linked against driver_main.cc, a seeded-loop driver feeding
//     generated command lines, mutated command lines, and raw bytes.
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "api/flags.h"
#include "common/random.h"
#include "serve/server.h"
#include "testing/generators.h"

namespace {

constexpr long kIntMin = -5;
constexpr long kIntMax = 100;
constexpr double kDoubleMin = -1.0;
constexpr double kDoubleMax = 1.0;

void Require(bool holds, const char* what, std::string_view input) {
  if (holds) return;
  std::fprintf(stderr, "fuzz_flags: %s\ninput (%zu bytes):\n%.*s\n", what, input.size(),
               static_cast<int>(input.size()), input.data());
  std::abort();
}

/// strtol and strtod skip leading whitespace, so the parser must refuse it.
bool Trimmed(const std::string& value) {
  return !value.empty() && std::isspace(static_cast<unsigned char>(value.front())) == 0 &&
         std::isspace(static_cast<unsigned char>(value.back())) == 0;
}

const vadasa::api::FlagParser& Parser() {
  static const vadasa::api::FlagParser parser = [] {
    vadasa::api::FlagParser p;
    p.Bool("verbose", "a bool")
        .String("name", "a string")
        .Path("out", "a path")
        .Int("k", "an int", kIntMin, kIntMax)
        .Double("threshold", "a double", kDoubleMin, kDoubleMax);
    return p;
  }();
  return parser;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  if (text.empty()) return lines;
  size_t begin = 0;
  for (;;) {
    const size_t end = text.find('\n', begin);
    lines.push_back(text.substr(begin, end - begin));
    if (end == std::string::npos) return lines;
    begin = end + 1;
  }
}

void CheckFlags(const std::vector<std::string>& args, std::string_view input) {
  auto parsed = Parser().Parse(args);
  if (!parsed.ok()) return;
  for (const std::string& value : parsed->GetAll("k")) {
    const long k = std::strtol(value.c_str(), nullptr, 10);
    Require(k >= kIntMin && k <= kIntMax, "an accepted int lies outside its range", input);
    Require(Trimmed(value), "an accepted int is padded with whitespace", input);
  }
  for (const std::string& value : parsed->GetAll("threshold")) {
    const double threshold = std::strtod(value.c_str(), nullptr);
    Require(!std::isnan(threshold), "an accepted double is NaN", input);
    Require(threshold >= kDoubleMin && threshold <= kDoubleMax,
            "an accepted double lies outside its range", input);
    Require(Trimmed(value), "an accepted double is padded with whitespace", input);
  }
  for (const std::string& value : parsed->GetAll("out")) {
    Require(!value.empty(), "an accepted path is empty", input);
  }
  // Positionals are a subsequence of the arguments.
  size_t next = 0;
  for (const std::string& positional : parsed->positional()) {
    while (next < args.size() && args[next] != positional) ++next;
    Require(next < args.size(), "the positionals lost their order", input);
    ++next;
  }
}

void CheckListenSpec(const std::string& text, std::string_view input) {
  using vadasa::serve::ListenSpec;
  auto spec = vadasa::serve::ParseListenSpec(text);
  if (!spec.ok()) return;
  if (spec->kind == ListenSpec::Kind::kUnix) {
    Require(!spec->path.empty(), "an accepted unix spec has no path", input);
  } else {
    Require(spec->port >= 0 && spec->port <= 65535, "an accepted port is out of range",
            input);
  }
  auto again = vadasa::serve::ParseListenSpec(spec->ToString());
  Require(again.ok(), "a listen spec's ToString does not parse back", input);
  Require(again->kind == spec->kind && again->path == spec->path &&
              again->port == spec->port,
          "a listen spec does not round-trip through ToString", input);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const std::vector<std::string> args = SplitLines(text);
  CheckFlags(args, text);
  CheckListenSpec(text, text);
  for (const std::string& arg : args) CheckListenSpec(arg, text);
  return 0;
}

// The seeded driver rotates command lines of positionals, bare flags and
// flags with values (both spellings) drawn from values near each range and
// listen specs; the same lines with a few bytes overwritten, inserted or
// deleted; and raw noise.
std::string SeededFuzzInput(vadasa::Rng* rng, uint64_t iteration) {
  if (iteration % 3 == 2) return vadasa::testing::RandomBytes(rng);
  static const char* const kFlags[] = {"--verbose", "--name",  "--out",  "--k",
                                       "--threshold", "--", "--bogus"};
  static const char* const kValues[] = {
      "", "in.csv", "-k", "12", " 12", "\t7", "12 ", "-5", "-6", "100", "101", "+3",
      "0x10", "999999999999999999999", "0.5", " 0.5", "1.0", "1.0000001", "-1",
      "1e-300", "1e400", "nan", "inf", "-inf", "unix:/tmp/v.sock", "unix:",
      "tcp:127.0.0.1:8080", "tcp::0", "tcp:host:65535", "tcp:host:65536", "tcp:a:b:80",
      "tcp:h:0080", "tcp:h:-1", "tcp:h:", "http:h:1"};
  const auto pick = [rng](const auto& list) {
    return std::string(list[rng->NextBelow(std::size(list))]);
  };
  std::string input;
  for (uint64_t n = rng->NextBelow(5); n > 0; --n) {
    if (!input.empty()) input += "\n";
    switch (rng->NextBelow(4)) {
      case 0: input += pick(kValues); break;
      case 1: input += pick(kFlags); break;
      case 2: input += pick(kFlags) + "\n" + pick(kValues); break;
      default: input += pick(kFlags) + "=" + pick(kValues); break;
    }
  }
  if (iteration % 3 == 0 || input.empty()) return input;
  static const char kBytes[] = {'-', '=', ':', '0', '9', '.', 'e', ' ', '\t', '\n', 'x'};
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
