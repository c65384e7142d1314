// Fuzzes the schema.org extractors over arbitrary tag soup. Both
// streaming extractors parse fully untrusted page bytes (microdata
// attribute walking with balanced-depth capture; JSON-LD string tokens
// with escape decoding), so the invariants here are the safety half of
// the channel's contract:
//   - never crash or read out of bounds on any input;
//   - emitted values are bounded (internal cap) and never empty views
//     into freed storage (they live in the scratch buffers);
//   - scratch reuse is idempotent: a second pass over the same input
//     with the same warm scratch emits the identical value sequence;
//   - JSON-LD payloads never leak into visible text (script exclusion),
//     including unterminated blocks at EOF.

#include <string>
#include <string_view>
#include <vector>

#include "extract/microdata_extractor.h"
#include "html/text_extract.h"
#include "util/function_ref.h"

#include "fuzz_driver.h"

namespace {

// Matches the internal value cap in microdata_extractor.cc (oversized
// values are truncated, never unbounded).
constexpr size_t kValueCap = 4096;

std::vector<std::string> Collect(
    std::string_view page, wsd::MicrodataScratch* scratch,
    void (*extract)(std::string_view, wsd::MicrodataScratch*,
                    wsd::FunctionRef<void(std::string_view)>)) {
  std::vector<std::string> out;
  extract(page, scratch, [&](std::string_view v) {
    WSD_FUZZ_ASSERT(v.size() <= kValueCap);
    out.emplace_back(v);
  });
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view page(reinterpret_cast<const char*>(data), size);

  wsd::MicrodataScratch scratch;
  const auto micro_cold = Collect(page, &scratch, wsd::ExtractMicrodataInto);
  const auto micro_warm = Collect(page, &scratch, wsd::ExtractMicrodataInto);
  WSD_FUZZ_ASSERT(micro_cold == micro_warm);

  const auto ld_cold = Collect(page, &scratch, wsd::ExtractJsonLdInto);
  const auto ld_warm = Collect(page, &scratch, wsd::ExtractJsonLdInto);
  WSD_FUZZ_ASSERT(ld_cold == ld_warm);

  // Script exclusion: whatever the JSON-LD extractor can see is script
  // payload, and script payload must never surface as visible text. A
  // conservative proxy that holds for every input: if the page contains
  // an ld+json open tag, the raw bytes after it up to the next </script
  // (or EOF) must not appear in the visible text.
  const std::string_view open_tag = "<script type=\"application/ld+json\">";
  const size_t open = page.find(open_tag);
  if (open != std::string_view::npos) {
    const size_t body_start = open + open_tag.size();
    size_t body_end = page.find("</script", body_start);
    if (body_end == std::string_view::npos) body_end = page.size();
    const std::string_view body = page.substr(body_start, body_end - body_start);
    if (body.size() >= 16) {  // ignore trivially-matching short bodies
      std::string text;
      wsd::html::ExtractVisibleTextInto(page, &text);
      WSD_FUZZ_ASSERT(text.find(body) == std::string::npos);
    }
  }
  return 0;
}
