#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>
#include <random>
#include <string>

#include "common/parallel.hpp"
#include "ml/serialize.hpp"
#include "ml/tree.hpp"

namespace repro::ml {
namespace {

Dataset threshold_dataset(int n, double threshold, double noise,
                          std::uint64_t seed) {
  Dataset data({"x", "junk"});
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < n; ++i) {
    const double x = u(rng), j = u(rng);
    int label = x > threshold ? 1 : 0;
    if (u(rng) < noise) label = 1 - label;
    data.add_row(std::vector<double>{x, j}, label);
  }
  return data;
}

TEST(DecisionTree, LearnsCleanThresholdExactly) {
  const Dataset data = threshold_dataset(1000, 0.6, 0.0, 1);
  std::mt19937_64 rng(2);
  const DecisionTree t = DecisionTree::train(data, TreeOptions{}, rng);
  EXPECT_EQ(t.predict(std::vector<double>{0.1, 0.5}), 0);
  EXPECT_EQ(t.predict(std::vector<double>{0.9, 0.5}), 1);
  // A clean threshold needs exactly one split.
  EXPECT_LE(t.num_leaves(), 3);
}

TEST(DecisionTree, ProbabilitiesAreLeafFrequencies) {
  // 75%/25% mixed labels on constant features: single leaf, p = 0.75.
  Dataset data({"x"});
  for (int i = 0; i < 100; ++i) {
    data.add_row(std::vector<double>{1.0}, i % 4 != 0);
  }
  std::mt19937_64 rng(3);
  const DecisionTree t = DecisionTree::train(data, TreeOptions{}, rng);
  EXPECT_EQ(t.num_nodes(), 1);
  EXPECT_NEAR(t.predict_proba(std::vector<double>{1.0}), 0.75, 1e-12);
}

TEST(DecisionTree, MinLeafRespected) {
  const Dataset data = threshold_dataset(500, 0.5, 0.1, 5);
  TreeOptions opt;
  opt.min_leaf = 50;
  std::mt19937_64 rng(6);
  const DecisionTree t = DecisionTree::train(data, opt, rng);
  // Backfitted counts at each reachable leaf must respect min_leaf.
  std::vector<int> stack{0};
  while (!stack.empty()) {
    const TreeNode& n = t.node(stack.back());
    stack.pop_back();
    if (n.is_leaf()) {
      EXPECT_GE(n.pos + n.neg, 50.0);
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
}

TEST(DecisionTree, MaxDepthRespected) {
  const Dataset data = threshold_dataset(2000, 0.5, 0.3, 7);
  TreeOptions opt;
  opt.max_depth = 3;
  std::mt19937_64 rng(8);
  const DecisionTree t = DecisionTree::train(data, opt, rng);
  EXPECT_LE(t.depth(), 3);
}

TEST(DecisionTree, ReducedErrorPruningShrinksNoisyTree) {
  const Dataset data = threshold_dataset(3000, 0.5, 0.25, 9);
  std::mt19937_64 rng1(10), rng2(10);
  TreeOptions grow;
  grow.reduced_error_pruning = false;
  TreeOptions prune = grow;
  prune.reduced_error_pruning = true;
  const DecisionTree big = DecisionTree::train(data, grow, rng1);
  const DecisionTree small = DecisionTree::train(data, prune, rng2);
  EXPECT_LT(small.num_leaves(), big.num_leaves());
  // Pruned tree still gets the concept right.
  EXPECT_EQ(small.predict(std::vector<double>{0.05, 0.5}), 0);
  EXPECT_EQ(small.predict(std::vector<double>{0.95, 0.5}), 1);
}

TEST(DecisionTree, RandomFeatureSubsetStillLearns) {
  const Dataset data = threshold_dataset(2000, 0.4, 0.05, 11);
  TreeOptions opt;
  opt.num_random_features = 1;
  std::mt19937_64 rng(12);
  const DecisionTree t = DecisionTree::train(data, opt, rng);
  int correct = 0;
  for (int i = 0; i < data.num_rows(); ++i) {
    correct += (t.predict(data.row(i)) == data.label(i));
  }
  EXPECT_GT(static_cast<double>(correct) / data.num_rows(), 0.9);
}

TEST(DecisionTree, DeterministicGivenSeed) {
  const Dataset data = threshold_dataset(1000, 0.5, 0.2, 13);
  TreeOptions opt;
  opt.reduced_error_pruning = true;
  std::mt19937_64 rng1(14), rng2(14);
  const DecisionTree a = DecisionTree::train(data, opt, rng1);
  const DecisionTree b = DecisionTree::train(data, opt, rng2);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  std::mt19937_64 probe(15);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x{u(probe), u(probe)};
    EXPECT_DOUBLE_EQ(a.predict_proba(x), b.predict_proba(x));
  }
}

TEST(DecisionTree, BackfitCountsCoverWholeTrainingSet) {
  const Dataset data = threshold_dataset(777, 0.5, 0.2, 16);
  TreeOptions opt;
  opt.reduced_error_pruning = true;
  std::mt19937_64 rng(17);
  const DecisionTree t = DecisionTree::train(data, opt, rng);
  // Root counts must equal the full dataset (pruning holdout included).
  EXPECT_DOUBLE_EQ(t.node(0).pos + t.node(0).neg, 777.0);
}

class TreeSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(TreeSeedSweep, ProbaAlwaysInUnitInterval) {
  const Dataset data =
      threshold_dataset(400, 0.5, 0.3, static_cast<std::uint64_t>(GetParam()));
  TreeOptions opt;
  opt.reduced_error_pruning = (GetParam() % 2 == 0);
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const DecisionTree t = DecisionTree::train(data, opt, rng);
  std::mt19937_64 probe(1);
  std::uniform_real_distribution<double> u(-0.5, 1.5);
  for (int i = 0; i < 200; ++i) {
    const double p = t.predict_proba(std::vector<double>{u(probe), u(probe)});
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeSeedSweep, ::testing::Range(1, 9));

// Bit pins for tree training on inputs the attack pipeline never feeds
// it. The pipeline's features are integer DBU distances and exact area
// sums, so its result digests cannot catch a split search that mishandles
// tie runs, a constant column, bootstrap duplicates, or a threshold whose
// midpoint rounds onto the lower value. Each case hashes the saved model
// (FNV-1a of ml::save_bagging: every node's feature, threshold bits,
// children and backfitted counts). The expected hashes were recorded from
// the original split search, which copied and sorted each node's values
// afresh; any faster search must reproduce them bit for bit.

/// Three integer-valued columns drawn from {-1..4} (zero stored with
/// either sign) and a noisy label: nearly every scan step is a tie.
Dataset tie_heavy_dataset() {
  Dataset data({"a", "b", "c"});
  std::mt19937_64 rng(21);
  std::uniform_int_distribution<int> v(-1, 4);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 600; ++i) {
    const int a = v(rng), b = v(rng), c = v(rng);
    int label = a + b > 3 ? 1 : 0;
    if (u(rng) < 0.15) label = 1 - label;
    const double a_val = (a == 0 && i % 2 == 1) ? -0.0 : a;
    data.add_row(std::vector<double>{a_val, static_cast<double>(b),
                                     static_cast<double>(c)},
                 label);
  }
  return data;
}

/// A constant column beside an informative real one and a tie-heavy one.
Dataset constant_column_dataset() {
  Dataset data({"const", "x", "k"});
  std::mt19937_64 rng(22);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> k(0, 3);
  for (int i = 0; i < 500; ++i) {
    const double x = u(rng);
    const int kk = k(rng);
    int label = x + 0.1 * kk > 0.6 ? 1 : 0;
    if (u(rng) < 0.2) label = 1 - label;
    data.add_row(std::vector<double>{7.0, x, static_cast<double>(kk)},
                 label);
  }
  return data;
}

/// Column x holds 0.25, 1.0 and 1.0's successor. The midpoint of 1.0
/// and its successor rounds back onto 1.0, so at that boundary the
/// scan position and the predicate x < t disagree: the predicate sends
/// every 1.0 right. Column y is weakly informative.
Dataset nextafter_dataset() {
  const double lo = 1.0, hi = std::nextafter(1.0, INFINITY);
  Dataset data({"x", "y"});
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> y(0, 9);
  for (int i = 0; i < 400; ++i) {
    const int kind = i % 4;
    const double x = kind == 0 ? 0.25 : kind == 1 ? lo : hi;
    const int yy = y(rng);
    int label = kind == 0 ? (yy > 4 ? 1 : 0) : kind == 1 ? 0 : 1;
    if (u(rng) < 0.1) label = 1 - label;
    data.add_row(std::vector<double>{x, static_cast<double>(yy)}, label);
  }
  return data;
}

std::string tree_bytes(const Dataset& data, const TreeOptions& opt,
                       std::uint64_t seed, std::span<const int> rows = {}) {
  std::mt19937_64 rng(seed);
  std::vector<DecisionTree> trees;
  trees.push_back(DecisionTree::train(data, opt, rng, rows));
  return save_bagging(BaggingClassifier::from_trees(std::move(trees)));
}

struct PinCase {
  std::string name;
  std::function<std::string()> model;  ///< trains, returns saved bytes
  std::uint64_t expected;               ///< FNV-1a of the saved bytes
  friend void PrintTo(const PinCase& c, std::ostream* os) { *os << c.name; }
};

std::vector<PinCase> pin_cases() {
  TreeOptions rep;
  rep.reduced_error_pruning = true;
  TreeOptions min_leaf_50;
  min_leaf_50.min_leaf = 50;
  TreeOptions depth_3;
  depth_3.max_depth = 3;
  TreeOptions one_feature;
  one_feature.num_random_features = 1;
  one_feature.min_leaf = 1;
  TreeOptions fine;
  fine.min_leaf = 1;
  return {
      {"ties_grow", [] { return tree_bytes(tie_heavy_dataset(), {}, 31); },
       0xd3460c88ba525d49ULL},
      {"ties_rep", [rep] { return tree_bytes(tie_heavy_dataset(), rep, 32); },
       0xfbf35d57dc0ebdf4ULL},
      {"constant_column",
       [] { return tree_bytes(constant_column_dataset(), {}, 33); },
       0x9ed80c3d14ed4db4ULL},
      {"bootstrap_rows",
       [rep] {
         // A bootstrap multiset: 600 draws with replacement, so many
         // rows repeat and about a third never appear.
         const Dataset data = tie_heavy_dataset();
         std::mt19937_64 draw(34);
         std::uniform_int_distribution<int> pick(0, data.num_rows() - 1);
         std::vector<int> rows(static_cast<std::size_t>(data.num_rows()));
         for (int& r : rows) r = pick(draw);
         return tree_bytes(data, rep, 35, rows);
       },
       0x144e2a1eaf3ce6acULL},
      {"nextafter_midpoint",
       [fine] { return tree_bytes(nextafter_dataset(), fine, 36); },
       0xc3b58f840ca69073ULL},
      {"min_leaf_50",
       [min_leaf_50] {
         return tree_bytes(threshold_dataset(800, 0.5, 0.2, 37), min_leaf_50,
                           38);
       },
       0x8535ec23835447b1ULL},
      {"max_depth_3",
       [depth_3] { return tree_bytes(tie_heavy_dataset(), depth_3, 39); },
       0x0960ee0d731c749cULL},
      {"random_features_1",
       [one_feature] {
         return tree_bytes(tie_heavy_dataset(), one_feature, 40);
       },
       0x1b15b68d47dc5b37ULL},
      {"bagging_reptree",
       [] {
         return save_bagging(BaggingClassifier::train(
             tie_heavy_dataset(), BaggingOptions::reptree_bagging(41)));
       },
       0x8cad377683a74e96ULL},
      {"bagging_nextafter",
       [] {
         return save_bagging(BaggingClassifier::train(
             nextafter_dataset(), BaggingOptions::reptree_bagging(42)));
       },
       0x54015c4968033762ULL},
      {"random_forest",
       [] {
         const Dataset data = constant_column_dataset();
         return save_bagging(BaggingClassifier::train(
             data, BaggingOptions::random_forest(data.num_features(), 43)));
       },
       0x94f31161f28d56c3ULL},
  };
}

class DecisionTreeBits : public ::testing::TestWithParam<PinCase> {};

TEST_P(DecisionTreeBits, MatchesRecordedHash) {
  const std::string bytes = GetParam().model();
  EXPECT_EQ(common::fnv1a64(bytes), GetParam().expected)
      << std::hex << "0x" << common::fnv1a64(bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DecisionTreeBits, ::testing::ValuesIn(pin_cases()),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return info.param.name;
    });

TEST(DecisionTree, MidpointOfSuccessorRoundsOntoLowerValue) {
  // The premise of the nextafter cases.
  const double lo = 1.0, hi = std::nextafter(1.0, INFINITY);
  EXPECT_EQ((lo + hi) / 2.0, lo);
}

}  // namespace
}  // namespace repro::ml
