#include "text/naive_bayes.h"

#include <cmath>

namespace wsd {
namespace text {

void NaiveBayesClassifier::Train(const std::vector<std::string>& tokens,
                                 bool positive) {
  const int cls = positive ? 1 : 0;
  ++doc_count_[cls];
  for (const std::string& tok : tokens) {
    ++vocab_[tok].count[cls];
    ++token_count_[cls];
  }
  finalized_ = false;
}

Status NaiveBayesClassifier::Finalize() {
  if (doc_count_[0] == 0 || doc_count_[1] == 0) {
    return Status::FailedPrecondition(
        "NaiveBayes needs training documents in both classes");
  }
  const double total_docs =
      static_cast<double>(doc_count_[0] + doc_count_[1]);
  const double vocab_size = static_cast<double>(vocab_.size());
  for (int cls = 0; cls < 2; ++cls) {
    log_prior_[cls] =
        std::log(static_cast<double>(doc_count_[cls]) / total_docs);
    const double denom =
        static_cast<double>(token_count_[cls]) + vocab_size + 1.0;
    log_unk_[cls] = std::log(1.0 / denom);
    for (auto& [tok, stats] : vocab_) {
      stats.log_prob[cls] =
          std::log((static_cast<double>(stats.count[cls]) + 1.0) / denom);
    }
  }
  finalized_ = true;
  return Status::OK();
}

double NaiveBayesClassifier::PredictLogOdds(
    const std::vector<std::string>& tokens) const {
  double odds = log_prior_[1] - log_prior_[0];
  for (const std::string& tok : tokens) {
    auto it = vocab_.find(tok);
    if (it == vocab_.end()) {
      odds += log_unk_[1] - log_unk_[0];
    } else {
      odds += it->second.log_prob[1] - it->second.log_prob[0];
    }
  }
  return odds;
}

double NaiveBayesClassifier::PredictLogOddsViews(
    const std::vector<std::string_view>& tokens) const {
  double odds = log_prior_[1] - log_prior_[0];
  for (std::string_view tok : tokens) {
    auto it = vocab_.find(tok);
    if (it == vocab_.end()) {
      odds += log_unk_[1] - log_unk_[0];
    } else {
      odds += it->second.log_prob[1] - it->second.log_prob[0];
    }
  }
  return odds;
}

}  // namespace text
}  // namespace wsd
