#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "ml/bagging.hpp"

namespace repro::ml {
namespace {

/// XOR-ish nonlinear dataset: label = (x > .5) xor (y > .5), with noise.
Dataset xor_dataset(int n, double noise, std::uint64_t seed) {
  Dataset data({"x", "y"});
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < n; ++i) {
    const double x = u(rng), y = u(rng);
    int label = (x > 0.5) != (y > 0.5);
    if (u(rng) < noise) label = 1 - label;
    data.add_row(std::vector<double>{x, y}, label);
  }
  return data;
}

TEST(Bagging, EmptyDatasetIsInvalidArgument) {
  const Dataset empty({"x", "y"});
  EXPECT_THROW(BaggingClassifier::train(empty, BaggingOptions::reptree_bagging()),
               std::invalid_argument);
}

TEST(Bagging, DefaultsMirrorWeka) {
  const BaggingOptions rep = BaggingOptions::reptree_bagging();
  EXPECT_EQ(rep.num_trees, 10);
  EXPECT_TRUE(rep.tree.reduced_error_pruning);

  const BaggingOptions rf = BaggingOptions::random_forest(11);
  EXPECT_EQ(rf.num_trees, 100);
  EXPECT_FALSE(rf.tree.reduced_error_pruning);
  // ceil(log2(11)) + 1 = 5.
  EXPECT_EQ(rf.tree.num_random_features, 5);
}

TEST(Bagging, LearnsNonlinearConcept) {
  const Dataset data = xor_dataset(3000, 0.05, 1);
  const auto clf =
      BaggingClassifier::train(data, BaggingOptions::reptree_bagging(2));
  int correct = 0;
  const Dataset probe = xor_dataset(500, 0.0, 99);
  for (int i = 0; i < probe.num_rows(); ++i) {
    correct += (clf.predict(probe.row(i)) == probe.label(i));
  }
  EXPECT_GT(static_cast<double>(correct) / probe.num_rows(), 0.9);
}

TEST(Bagging, SoftVotingIsAverageOfTreeProbabilities) {
  const Dataset data = xor_dataset(500, 0.1, 3);
  BaggingOptions opt = BaggingOptions::reptree_bagging(4);
  opt.num_trees = 5;
  const auto clf = BaggingClassifier::train(data, opt);
  ASSERT_EQ(clf.num_trees(), 5);
  const std::vector<double> x{0.25, 0.75};
  double sum = 0;
  for (int t = 0; t < clf.num_trees(); ++t) {
    sum += clf.tree(t).predict_proba(x);
  }
  EXPECT_NEAR(clf.predict_proba(x), sum / 5.0, 1e-12);
}

TEST(Bagging, ThresholdControlsHardPrediction) {
  const Dataset data = xor_dataset(500, 0.1, 5);
  const auto clf =
      BaggingClassifier::train(data, BaggingOptions::reptree_bagging(6));
  const std::vector<double> x{0.25, 0.75};
  const double p = clf.predict_proba(x);
  EXPECT_EQ(clf.predict(x, p - 0.01), 1);
  EXPECT_EQ(clf.predict(x, p + 0.01), 0);
}

TEST(Bagging, RandomForestMatchesReptreeOnEasyData) {
  const Dataset data = xor_dataset(2000, 0.05, 7);
  const auto rf = BaggingClassifier::train(
      data, BaggingOptions::random_forest(data.num_features(), 8));
  const auto rep =
      BaggingClassifier::train(data, BaggingOptions::reptree_bagging(8));
  const Dataset probe = xor_dataset(400, 0.0, 123);
  int rf_ok = 0, rep_ok = 0;
  for (int i = 0; i < probe.num_rows(); ++i) {
    rf_ok += (rf.predict(probe.row(i)) == probe.label(i));
    rep_ok += (rep.predict(probe.row(i)) == probe.label(i));
  }
  EXPECT_GT(rf_ok, 0.9 * probe.num_rows());
  EXPECT_GT(rep_ok, 0.9 * probe.num_rows());
  // REPTree-bagging uses far fewer nodes than the 100-tree forest - that
  // is the entire point of the paper's Table II.
  EXPECT_LT(rep.total_nodes(), rf.total_nodes() / 4);
}

TEST(Bagging, DeterministicGivenSeed) {
  const Dataset data = xor_dataset(800, 0.1, 9);
  const auto a =
      BaggingClassifier::train(data, BaggingOptions::reptree_bagging(10));
  const auto b =
      BaggingClassifier::train(data, BaggingOptions::reptree_bagging(10));
  std::mt19937_64 probe(11);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x{u(probe), u(probe)};
    EXPECT_DOUBLE_EQ(a.predict_proba(x), b.predict_proba(x));
  }
}

class BaggingSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(BaggingSeedSweep, ProbabilityBoundsHold) {
  const Dataset data =
      xor_dataset(300, 0.2, static_cast<std::uint64_t>(GetParam()));
  const auto clf = BaggingClassifier::train(
      data,
      BaggingOptions::reptree_bagging(static_cast<std::uint64_t>(GetParam())));
  std::mt19937_64 probe(42);
  std::uniform_real_distribution<double> u(-1.0, 2.0);
  for (int i = 0; i < 100; ++i) {
    const double p = clf.predict_proba(std::vector<double>{u(probe), u(probe)});
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaggingSeedSweep, ::testing::Range(1, 7));

}  // namespace
}  // namespace repro::ml
