// Extension bench: quality of the Naive Bayes review detector. The paper
// validated its extractors "based on small random samples" and reported
// "high accuracy" (§3.5) without numbers; here the synthetic corpus
// provides exact page-level truth, so we report the full operating curve:
// precision / recall / F1 of the review decision at several log-odds
// thresholds, measured over freshly rendered (held-out) review-web pages.

#include <iostream>

#include "bench_util.h"
#include "corpus/web_cache.h"
#include "extract/review_detector.h"
#include "html/text_extract.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  const wsd::bench::MetricsExport metrics_export(argc, argv, "bench_ext_classifier");
  using namespace wsd;
  const StudyOptions options = bench::Options(argc, argv);
  bench::PrintHeader("Extension: review classifier operating curve",
                     "§3.2 (Naive Bayes review detection), §3.5", options);

  // A held-out review web: different seed from the detector's training.
  SyntheticWeb::Config config;
  config.domain = Domain::kRestaurants;
  config.attr = Attribute::kReviews;
  config.num_entities =
      std::max<uint32_t>(512, options.ScaledEntities() / 4);
  config.seed = options.seed + 1;
  SpreadParams params =
      DefaultSpreadParams(Domain::kRestaurants, Attribute::kReviews);
  params.num_sites = std::max<uint32_t>(
      128, static_cast<uint32_t>(3000 * options.scale));
  config.spread = params;
  auto web = SyntheticWeb::Create(config);
  if (!web.ok()) {
    std::cerr << web.status() << "\n";
    return 1;
  }
  auto detector = ReviewDetector::CreateDefault(options.seed ^ 0xdecafULL);
  if (!detector.ok()) {
    std::cerr << detector.status() << "\n";
    return 1;
  }

  // Score every page once; evaluate all thresholds in one pass.
  const std::vector<double> thresholds = {-8, -4, -2, 0, 2, 4, 8};
  std::vector<uint64_t> tp(thresholds.size(), 0), fp(thresholds.size(), 0),
      fn(thresholds.size(), 0), tn(thresholds.size(), 0);
  uint64_t pages = 0;
  std::string text;
  for (SiteId s = 0; s < web->num_hosts(); ++s) {
    web->GeneratePages(s, [&](const Page& page, const PageTruth& truth) {
      ++pages;
      text.clear();
      html::ExtractVisibleTextInto(page.html, &text);
      const double score = detector->Score(text);
      for (size_t i = 0; i < thresholds.size(); ++i) {
        const bool predicted = score > thresholds[i];
        if (predicted && truth.is_review_page) ++tp[i];
        if (predicted && !truth.is_review_page) ++fp[i];
        if (!predicted && truth.is_review_page) ++fn[i];
        if (!predicted && !truth.is_review_page) ++tn[i];
      }
    });
  }

  TextTable table({"log-odds threshold", "precision", "recall", "F1",
                   "accuracy"});
  double f1_at_zero = 0.0;
  for (size_t i = 0; i < thresholds.size(); ++i) {
    const double precision =
        tp[i] + fp[i] == 0
            ? 0.0
            : static_cast<double>(tp[i]) /
                  static_cast<double>(tp[i] + fp[i]);
    const double recall =
        tp[i] + fn[i] == 0
            ? 0.0
            : static_cast<double>(tp[i]) /
                  static_cast<double>(tp[i] + fn[i]);
    const double f1 = precision + recall == 0
                          ? 0.0
                          : 2 * precision * recall / (precision + recall);
    const double accuracy =
        static_cast<double>(tp[i] + tn[i]) / static_cast<double>(pages);
    if (thresholds[i] == 0) f1_at_zero = f1;
    table.AddRow({FormatF(thresholds[i], 0), FormatPct(precision),
                  FormatPct(recall), FormatPct(f1), FormatPct(accuracy)});
  }
  table.Print(std::cout);
  std::cout << "\n(" << pages << " held-out pages)\n";
  PrintAnchor("detector quality at the default threshold (0)",
              "\"high accuracy\" (§3.5)",
              StrFormat("F1 = %.1f%%", f1_at_zero * 100.0), std::cout);
  return 0;
}
