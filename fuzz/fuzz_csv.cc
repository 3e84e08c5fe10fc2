// Fuzz entry point for the CSV reader and writer: any byte string is loaded
// by the streaming table loader and by the retired CsvTable path, which must
// agree (the same error, or the same cells); a document that loads must be
// stable after one pass (loading the text writer's output and writing it
// again gives the same bytes). A disagreement aborts with its reason.
//
// Built two ways (see fuzz/CMakeLists.txt):
//   - with -DVADASA_ENABLE_LIBFUZZER=ON under clang, a real libFuzzer binary;
//   - otherwise linked against driver_main.cc, a seeded-loop driver feeding
//     generated CSV documents, mutated documents, and raw bytes.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/random.h"
#include "testing/generators.h"
#include "testing/oracles.h"

namespace {

void Require(const vadasa::Status& status, std::string_view input) {
  if (status.ok()) return;
  std::fprintf(stderr, "fuzz_csv: %s\ninput (%zu bytes):\n%.*s\n",
               status.ToString().c_str(), input.size(),
               static_cast<int>(input.size()), input.data());
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  Require(vadasa::testing::CheckLoadMatchesReference(text), text);
  Require(vadasa::testing::CheckCsvWriteStable(text), text);
  return 0;
}

// The seeded driver rotates generated documents (the csv-stream-matches-
// reference property's generator), the same documents with a few bytes
// overwritten, inserted or deleted, and raw noise.
std::string SeededFuzzInput(vadasa::Rng* rng, uint64_t iteration) {
  if (iteration % 3 == 2) return vadasa::testing::RandomBytes(rng);
  std::string doc = vadasa::testing::RandomCsvDocument(rng);
  if (iteration % 3 == 0 || doc.empty()) return doc;
  static const char kBytes[] = {',', '"', '\n', '\r', ' ', 'a', '0', '.', '-', '\t',
                                '\v', '\f', '+', 'e', 'i', 'n', 'N', '_', '\xE2'};
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
