// Fuzz entry point for the Vadalog front end and engine: any byte string is
// lexed and parsed; inputs that parse are chased under tight resource bounds.
// The harness asserts nothing about the outcome — the properties under test
// are "no crash, no sanitizer report, no hang".
//
// Built two ways (see fuzz/CMakeLists.txt):
//   - with -DVADASA_ENABLE_LIBFUZZER=ON under clang, a real libFuzzer binary;
//   - otherwise linked against driver_main.cc, a seeded-loop driver feeding
//     grammar-generated programs, token soup, and raw bytes.
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/random.h"
#include "testing/generators.h"
#include "vadalog/database.h"
#include "vadalog/engine.h"
#include "vadalog/parser.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string source(reinterpret_cast<const char*>(data), size);
  auto program = vadasa::vadalog::Parse(source);
  if (!program.ok()) return 0;

  vadasa::vadalog::EngineOptions options;
  options.max_rounds = 50;        // Keep pathological chases short.
  options.max_facts = 10000;
  options.track_provenance = false;
  vadasa::vadalog::Engine engine(options);
  vadasa::vadalog::Database db;
  (void)engine.Run(*program, &db);
  return 0;
}

// The seeded driver rotates input classes so every run exercises
// grammar-valid programs, near-valid token streams, and raw noise.
std::string SeededFuzzInput(vadasa::Rng* rng, uint64_t iteration) {
  switch (iteration % 3) {
    case 0:
      return vadasa::testing::RandomVadalogProgram(rng);
    case 1:
      return vadasa::testing::RandomTokenSoup(rng);
    default:
      return vadasa::testing::RandomBytes(rng);
  }
}
