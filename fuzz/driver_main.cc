// Fallback driver for the fuzz targets when libFuzzer is unavailable (the
// local toolchain is g++): a deterministic seeded loop that feeds the fuzz
// entry point with the target's own SeededFuzzInput draws — generated
// documents, near-valid noise and raw bytes.
//
//   VADASA_PROP_SEED    master seed (default 1)
//   VADASA_FUZZ_ITERS   iterations (default 1000)
//   argv[1..]           corpus files to replay instead of generating
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/random.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

// Supplied by each target: the input of seeded iteration `iteration`.
std::string SeededFuzzInput(vadasa::Rng* rng, uint64_t iteration);

namespace {

void Feed(const std::string& input) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(input.data()),
                         input.size());
}

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      std::ifstream in(argv[i], std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot read corpus file %s\n", argv[i]);
        return 1;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      Feed(buffer.str());
      std::printf("replayed %s (%zu bytes)\n", argv[i], buffer.str().size());
    }
    return 0;
  }

  const uint64_t seed = EnvU64("VADASA_PROP_SEED", 1);
  const uint64_t iters = EnvU64("VADASA_FUZZ_ITERS", 1000);
  vadasa::Rng rng(seed);
  for (uint64_t i = 0; i < iters; ++i) Feed(SeededFuzzInput(&rng, i));
  std::printf("%s: %llu seeded iterations, seed %llu, no crash\n", argv[0],
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(seed));
  return 0;
}
