// Fuzzes the visible-text scanner — the first thing every scanned page
// goes through, and the single hottest untrusted-input surface in the
// repo. Differential: the zero-allocation kernel path
// (ExtractVisibleTextInto) must agree byte-for-byte with the frozen
// legacy tokenizer pipeline (ExtractVisibleTextLegacy), which PR 3 keeps
// verbatim as the equivalence oracle.

#include <string>
#include <string_view>

#include "html/text_extract.h"
#include "util/simd.h"

#include "fuzz_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view page(reinterpret_cast<const char*>(data), size);

  std::string kernel_out;
  wsd::html::ExtractVisibleTextInto(page, &kernel_out);

  // SIMD dispatch differential: the kernel must produce the same bytes
  // at every dispatch tier this machine can run — forced-scalar through
  // the best vector tier (kernel_out above ran at the ambient tier, so
  // this covers scalar-vs-best in both directions).
  for (const wsd::simd::Tier tier : wsd::simd::AvailableTiers()) {
    const wsd::simd::ScopedTierOverride pinned(tier);
    std::string tier_out;
    wsd::html::ExtractVisibleTextInto(page, &tier_out);
    WSD_FUZZ_ASSERT(tier_out == kernel_out);
  }

  // Kernel vs frozen pre-kernel oracle: any divergence is a real bug in
  // one of them (and historically always the kernel).
  std::string legacy_out = wsd::html::ExtractVisibleTextLegacy(page);
  WSD_FUZZ_ASSERT(kernel_out == legacy_out);

  // Appending contract: Into() appends rather than overwriting. A page
  // that opens with a block boundary may contribute one leading space
  // when the buffer is non-empty (boundary collapsing keys off
  // out->empty(), which means "at page start" under the documented
  // clear-between-pages usage).
  std::string appended = "prefix|";
  wsd::html::ExtractVisibleTextInto(page, &appended);
  WSD_FUZZ_ASSERT(appended == "prefix|" + kernel_out ||
                  appended == "prefix| " + kernel_out);

  // The anchor extractor walks the same tag soup; it must not crash and
  // every href/text must be bounded by the input size (decoded char refs
  // only ever shrink or keep length for our entity set... numeric refs
  // can expand to at most 4 UTF-8 bytes from 4+ source bytes).
  for (const auto& a : wsd::html::ExtractAnchors(page)) {
    WSD_FUZZ_ASSERT(a.href.size() <= size + 4);
    WSD_FUZZ_ASSERT(a.text.size() <= size + 4);
  }
  return 0;
}
