#ifndef WSD_TEXT_NAIVE_BAYES_H_
#define WSD_TEXT_NAIVE_BAYES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace wsd {
namespace text {

/// A binary multinomial Naive Bayes text classifier with add-one (Laplace)
/// smoothing — the paper's review detector ("used a Naive-Bayes classifier
/// over the textual content to determine if a page has review content",
/// §3.2). Class 1 is the positive ("review") class.
class NaiveBayesClassifier {
 public:
  NaiveBayesClassifier() = default;

  /// Adds one training document with the given label.
  void Train(const std::vector<std::string>& tokens, bool positive);

  /// Finalizes per-token log-probabilities. Must be called after all
  /// Train() calls and before Predict*. Returns an error if either
  /// class has no training documents.
  [[nodiscard]] Status Finalize();

  /// Log-odds log P(positive|doc) - log P(negative|doc) up to the shared
  /// evidence term. Positive => classify as review.
  double PredictLogOdds(const std::vector<std::string>& tokens) const;

  /// View-based scoring for the scan kernel: heterogeneous lookup keeps
  /// the hot path free of per-token string materialization. Summation
  /// order matches PredictLogOdds, so results are bit-identical for the
  /// same token sequence.
  double PredictLogOddsViews(
      const std::vector<std::string_view>& tokens) const;

  bool Predict(const std::vector<std::string>& tokens) const {
    return PredictLogOdds(tokens) > 0.0;
  }

  bool finalized() const { return finalized_; }
  size_t vocabulary_size() const { return vocab_.size(); }
  uint64_t num_documents(bool positive) const {
    return positive ? doc_count_[1] : doc_count_[0];
  }

 private:
  struct TokenStats {
    uint64_t count[2] = {0, 0};  // token occurrences per class
    double log_prob[2] = {0, 0};
  };

  // Transparent hashing so PredictLogOddsViews can probe with
  // string_view keys without constructing std::string temporaries.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, TokenStats, StringHash, std::equal_to<>>
      vocab_;
  uint64_t doc_count_[2] = {0, 0};
  uint64_t token_count_[2] = {0, 0};
  double log_prior_[2] = {0, 0};
  // Smoothed log-probability of a token never seen in training.
  double log_unk_[2] = {0, 0};
  bool finalized_ = false;
};

}  // namespace text
}  // namespace wsd

#endif  // WSD_TEXT_NAIVE_BAYES_H_
