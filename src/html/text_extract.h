#ifndef WSD_HTML_TEXT_EXTRACT_H_
#define WSD_HTML_TEXT_EXTRACT_H_

#include <string>
#include <string_view>
#include <vector>

namespace wsd {
namespace html {

/// An anchor found on a page: its raw href value (char refs decoded) and
/// its link text.
struct AnchorLink {
  std::string href;
  std::string text;
};

/// Extracts the visible text of a page — the concatenated text outside of
/// tags, scripts and styles, with char refs decoded and block boundaries
/// rendered as single spaces. Streams the page through the view tokenizer
/// and decodes char refs directly into *out, with no per-token
/// temporaries. Zero heap allocation once *out's capacity covers the text
/// — the scan kernel calls this with a reused scratch buffer. Appends to
/// *out (callers clear between pages).
void ExtractVisibleTextInto(std::string_view page_html, std::string* out);

/// Extracts every <a href=...> on the page, in document order. This is
/// the homepage-attribute signal ("we looked at the content of href tags
/// of all anchor nodes", paper §3.2).
std::vector<AnchorLink> ExtractAnchors(std::string_view page_html);

/// The pre-kernel implementation of ExtractVisibleTextInto: materializes
/// every token (names, attributes, text) through Tokenizer::Next and
/// concatenates per-token decoded strings. Byte-identical output; kept
/// only as the ablation baseline for ScanPipeline::RunLegacy and
/// bench_micro_scan.
std::string ExtractVisibleTextLegacy(std::string_view page_html);

}  // namespace html
}  // namespace wsd

#endif  // WSD_HTML_TEXT_EXTRACT_H_
