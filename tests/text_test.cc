#include <gtest/gtest.h>

#include "text/naive_bayes.h"
#include "text/review_lm.h"
#include "text/tokenizer.h"

namespace wsd {
namespace text {
namespace {

TEST(TextTokenizerTest, LowercasesAndSplits) {
  auto tokens = Tokenize("Hello, World! It's GREAT.");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
  EXPECT_EQ(tokens[2], "it's");
  EXPECT_EQ(tokens[3], "great");
}

TEST(TextTokenizerTest, DropsPureDigitRuns) {
  auto tokens = Tokenize("call 4155550134 or room 42b");
  // "4155550134" dropped; "42b" kept (contains a letter).
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "call");
  EXPECT_EQ(tokens[1], "or");
  EXPECT_EQ(tokens[2], "room");
  EXPECT_EQ(tokens[3], "42b");
}

TEST(TextTokenizerTest, StripsOuterApostrophes) {
  auto tokens = Tokenize("'quoted' dogs'");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "quoted");
  EXPECT_EQ(tokens[1], "dogs");
}

TEST(TextTokenizerTest, StopwordRemoval) {
  EXPECT_TRUE(IsStopword("the"));
  EXPECT_TRUE(IsStopword("and"));
  EXPECT_FALSE(IsStopword("delicious"));
  auto tokens = TokenizeForClassification("The food was delicious");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "food");
  EXPECT_EQ(tokens[1], "delicious");
}

TEST(NaiveBayesTest, RequiresBothClasses) {
  NaiveBayesClassifier model;
  model.Train({"good"}, true);
  EXPECT_FALSE(model.Finalize().ok());
}

TEST(NaiveBayesTest, LearnsSimpleSeparation) {
  NaiveBayesClassifier model;
  for (int i = 0; i < 20; ++i) {
    model.Train({"delicious", "food", "great", "service"}, true);
    model.Train({"hours", "directions", "parking", "map"}, false);
  }
  ASSERT_TRUE(model.Finalize().ok());
  EXPECT_TRUE(model.Predict({"delicious", "service"}));
  EXPECT_FALSE(model.Predict({"directions", "map"}));
  EXPECT_GT(model.PredictLogOdds({"delicious"}),
            model.PredictLogOdds({"parking"}));
}

TEST(NaiveBayesTest, UnknownTokensFallBackToPrior) {
  NaiveBayesClassifier model;
  // Equal token mass per class so the unknown-token likelihoods cancel
  // and only the 3:1 document prior decides.
  for (int i = 0; i < 30; ++i) model.Train({"a"}, true);
  for (int i = 0; i < 10; ++i) model.Train({"b", "c", "d"}, false);
  ASSERT_TRUE(model.Finalize().ok());
  EXPECT_TRUE(model.Predict({"zzz", "qqq"}));
}

TEST(ReviewLmTest, GeneratorsProduceNonEmptyDistinctStyles) {
  Rng rng(9);
  const std::string review = GenerateReviewText(rng, "Mario's Grill");
  const std::string boiler = GenerateBoilerplateText(rng, "Mario's Grill");
  EXPECT_FALSE(review.empty());
  EXPECT_FALSE(boiler.empty());
  EXPECT_NE(review, boiler);
}

TEST(ReviewLmTest, TrainedClassifierSeparatesHeldOutDocs) {
  auto model = TrainReviewClassifier(/*seed=*/11);
  ASSERT_TRUE(model.ok());
  // Held-out corpus from a different seed.
  Rng rng(999);
  int correct = 0, total = 0;
  for (const LabeledDoc& doc : MakeTrainingCorpus(rng, 200)) {
    const bool predicted =
        model->Predict(TokenizeForClassification(doc.content));
    correct += predicted == doc.is_review;
    ++total;
  }
  const double accuracy = static_cast<double>(correct) / total;
  EXPECT_GT(accuracy, 0.9) << "held-out accuracy " << accuracy;
}

TEST(ReviewLmTest, DeterministicInSeed) {
  Rng a(4), b(4);
  EXPECT_EQ(GenerateReviewText(a, "X"), GenerateReviewText(b, "X"));
}

}  // namespace
}  // namespace text
}  // namespace wsd
