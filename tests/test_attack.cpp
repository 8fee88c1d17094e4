#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "core/attack.hpp"
#include "test_helpers.hpp"

namespace repro::core {
namespace {

TEST(AttackConfig, NameParsing) {
  const AttackConfig ml9 = config_from_name("ML-9");
  EXPECT_FALSE(ml9.improved);
  EXPECT_EQ(ml9.features, FeatureSet::kF9);
  EXPECT_FALSE(ml9.limit_top_direction);
  EXPECT_FALSE(ml9.use_random_forest);

  const AttackConfig imp7 = config_from_name("Imp-7");
  EXPECT_TRUE(imp7.improved);
  EXPECT_EQ(imp7.features, FeatureSet::kF7);

  const AttackConfig imp11y = config_from_name("Imp-11Y");
  EXPECT_TRUE(imp11y.improved);
  EXPECT_EQ(imp11y.features, FeatureSet::kF11);
  EXPECT_TRUE(imp11y.limit_top_direction);

  const AttackConfig rf = config_from_name("RF:Imp-7");
  EXPECT_TRUE(rf.use_random_forest);
  EXPECT_EQ(rf.features, FeatureSet::kF7);

  EXPECT_THROW(config_from_name("Bogus-9"), std::invalid_argument);
  EXPECT_THROW(config_from_name("Imp-8"), std::invalid_argument);
}

class AttackOnSynthetic : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint64_t s = 1; s <= 3; ++s) {
      challenges_.push_back(testing::make_grid_challenge(150, 100000, 8000,
                                                         s));
    }
    for (const auto& c : challenges_) training_.push_back(&c);
  }
  std::vector<splitmfg::SplitChallenge> challenges_;
  std::vector<const splitmfg::SplitChallenge*> training_;
};

TEST_F(AttackOnSynthetic, LearnsTheMatchStructure) {
  // Train on challenges 1..2, test on 0: matches are always exactly
  // match_dx apart on one row, so the classifier must get near-perfect
  // accuracy at a small LoC.
  const auto target = challenges_[0];
  std::vector<const splitmfg::SplitChallenge*> training{&challenges_[1],
                                                        &challenges_[2]};
  const AttackConfig cfg = config_from_name("ML-9");
  const AttackResult res = AttackEngine::run(target, training, cfg);
  EXPECT_GT(res.accuracy_at_threshold(0.5), 0.95);
  EXPECT_LT(res.mean_loc_at_threshold(0.5), 10.0);
}

TEST_F(AttackOnSynthetic, AccuracyAndLocMonotoneInThreshold) {
  const AttackConfig cfg = config_from_name("Imp-9");
  const AttackResult res = AttackEngine::run(
      challenges_[0],
      std::vector<const splitmfg::SplitChallenge*>{&challenges_[1],
                                                   &challenges_[2]},
      cfg);
  double prev_acc = 2.0, prev_loc = 1e18;
  for (double t = 0.0; t <= 1.0; t += 0.05) {
    const double acc = res.accuracy_at_threshold(t);
    const double loc = res.mean_loc_at_threshold(t);
    EXPECT_LE(acc, prev_acc + 1e-12);
    EXPECT_LE(loc, prev_loc + 1e-12);
    prev_acc = acc;
    prev_loc = loc;
  }
}

TEST_F(AttackOnSynthetic, AlignmentQueriesAreConsistent) {
  const AttackConfig cfg = config_from_name("Imp-11");
  const AttackResult res = AttackEngine::run(
      challenges_[0],
      std::vector<const splitmfg::SplitChallenge*>{&challenges_[1],
                                                   &challenges_[2]},
      cfg);
  // If we can reach accuracy a with mean LoC L, then accuracy at L must be
  // >= a.
  for (double a : {0.5, 0.8, 0.9}) {
    const auto loc = res.mean_loc_for_accuracy(a);
    if (loc) {
      EXPECT_GE(res.accuracy_for_mean_loc(*loc) + 1e-9, a);
    }
  }
  // Unreachable accuracy gives nullopt.
  EXPECT_FALSE(res.mean_loc_for_accuracy(1.01).has_value());
}

TEST_F(AttackOnSynthetic, NeighborhoodCreatesSaturation) {
  // Training matches: half at distance 8000, half at 16000. A percentile
  // of 45% puts the neighbourhood radius at 8000, so a test design whose
  // matches all sit at 16000 saturates at (near) zero accuracy no matter
  // the LoC size - the paper's Table IV dashes.
  AttackConfig cfg = config_from_name("Imp-9");
  cfg.neighborhood_percentile = 0.45;
  const auto far = testing::make_grid_challenge(150, 100000, 16000, 9);
  std::vector<const splitmfg::SplitChallenge*> training{&challenges_[1], &far};
  const AttackResult res = AttackEngine::run(far, training, cfg);
  EXPECT_LT(res.max_accuracy(), 0.2);
}

TEST_F(AttackOnSynthetic, YLimitFiltersCrossRowPairs) {
  AttackConfig cfg = config_from_name("ML-9Y");
  const AttackResult res = AttackEngine::run(
      challenges_[0],
      std::vector<const splitmfg::SplitChallenge*>{&challenges_[1],
                                                   &challenges_[2]},
      cfg);
  // Same-row matches survive the Y filter: accuracy stays high and the
  // number of evaluated candidates shrinks dramatically.
  EXPECT_GT(res.accuracy_at_threshold(0.5), 0.95);
  long evaluated = 0;
  for (const auto& r : res.per_vpin()) evaluated += r.num_evaluated;
  // Without the filter ~n^2/2 pairs are evaluated; with it only same-row.
  EXPECT_LT(evaluated, 300L * 300L / 8);
}

TEST_F(AttackOnSynthetic, TrainedModelPredictPairAgreesWithFilter) {
  const AttackConfig cfg = config_from_name("Imp-9");
  const TrainedModel model = AttackEngine::train(training_, cfg);
  ASSERT_TRUE(model.filter.neighborhood.has_value());
  const auto& a = challenges_[0].vpin(0);
  const auto& b = challenges_[0].vpin(1);  // the true match, 8000 away
  EXPECT_TRUE(model.filter.admits(a, b));
  // A pair far outside the neighbourhood is filtered.
  splitmfg::Vpin far = b;
  far.pos.x = a.pos.x + 90000;
  EXPECT_FALSE(model.filter.admits(a, far));
}

TEST_F(AttackOnSynthetic, TradeoffCurveIsMonotone) {
  const AttackConfig cfg = config_from_name("ML-9");
  const AttackResult res = AttackEngine::run(
      challenges_[0],
      std::vector<const splitmfg::SplitChallenge*>{&challenges_[1],
                                                   &challenges_[2]},
      cfg);
  const auto curve =
      res.tradeoff_curve({0.001, 0.01, 0.05, 0.1, 0.5, 1.0});
  ASSERT_EQ(curve.size(), 6u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].second, curve[i].second + 1e-12)
        << "accuracy must not decrease with a larger LoC budget";
  }
  // With the whole design as LoC, ML-9 reaches (near) perfect accuracy.
  EXPECT_GT(curve.back().second, 0.99);
}

TEST_F(AttackOnSynthetic, TargetSamplingGivesUnbiasedEstimates) {
  AttackConfig full_cfg = config_from_name("ML-9");
  AttackConfig sampled_cfg = full_cfg;
  sampled_cfg.max_test_vpins = 100;
  const std::vector<const splitmfg::SplitChallenge*> training{
      &challenges_[1], &challenges_[2]};
  const AttackResult full = AttackEngine::run(challenges_[0], training,
                                              full_cfg);
  const AttackResult sampled =
      AttackEngine::run(challenges_[0], training, sampled_cfg);
  int tested = 0;
  for (const auto& r : sampled.per_vpin()) tested += r.tested;
  EXPECT_EQ(tested, 100);
  // Estimates close to the full run on this easy, homogeneous geometry.
  EXPECT_NEAR(sampled.accuracy_at_threshold(0.5),
              full.accuracy_at_threshold(0.5), 0.1);
  EXPECT_NEAR(sampled.mean_loc_at_threshold(0.5),
              full.mean_loc_at_threshold(0.5),
              0.5 * full.mean_loc_at_threshold(0.5) + 2.0);
}

TEST_F(AttackOnSynthetic, ResultCarriesTimingAndSizes) {
  const AttackConfig cfg = config_from_name("ML-9");
  const AttackResult res = AttackEngine::run(
      challenges_[0],
      std::vector<const splitmfg::SplitChallenge*>{&challenges_[1],
                                                   &challenges_[2]},
      cfg);
  EXPECT_EQ(res.num_vpins(), challenges_[0].num_vpins());
  EXPECT_GT(res.train_seconds, 0.0);
  EXPECT_GT(res.test_seconds, 0.0);
  EXPECT_EQ(res.split_layer(), 8);
}

// --- pair-once scoring ------------------------------------------------------

class AttackPairOnce : public AttackOnSynthetic {
 protected:
  void TearDown() override {
    common::set_global_threads(0);
    common::obs::set_enabled(false);
    common::obs::reset_metrics();
  }
};

// A test() call that owns the pool predicts each unordered pair once,
// into a store both endpoints read; the same call under ScopedInline
// predicts every pair of each target itself. The two must agree bit for
// bit, with every target tested and with a sampled subset (where only
// pairs of two tested endpoints share a store entry), on pools that cut
// the targets evenly and unevenly.
TEST_F(AttackPairOnce, PooledScoringMatchesInline) {
  const std::vector<const splitmfg::SplitChallenge*> training{
      &challenges_[1], &challenges_[2]};
  for (const char* name : {"ML-9", "Imp-9", "Imp-11Y"}) {
    for (const int max_test : {0, 40}) {
      AttackConfig cfg = config_from_name(name);
      cfg.max_test_vpins = max_test;
      const TrainedModel model = AttackEngine::train(training, cfg);
      for (const int threads : {1, 3, 4}) {
        common::set_global_threads(threads);
        const AttackResult pooled = AttackEngine::test(model, challenges_[0]);
        const AttackResult inlined = [&] {
          const common::ScopedInline guard;
          return AttackEngine::test(model, challenges_[0]);
        }();
        EXPECT_TRUE(testing::same_result(pooled, inlined))
            << name << ", max_test_vpins " << max_test << ", " << threads
            << " threads";
      }
    }
  }
}

TEST_F(AttackPairOnce, PooledScoringPredictsEachPairOnce) {
  const std::vector<const splitmfg::SplitChallenge*> training{
      &challenges_[1], &challenges_[2]};
  const TrainedModel model =
      AttackEngine::train(training, config_from_name("Imp-9"));
  common::obs::set_enabled(true);
  const auto count = [&](bool inline_call) {
    common::obs::reset_metrics();
    std::optional<common::ScopedInline> guard;
    if (inline_call) guard.emplace();
    (void)AttackEngine::test(model, challenges_[0]);
    return std::pair{common::obs::counter("attack.pairs_scored").value(),
                     common::obs::counter("attack.forest_rows").value()};
  };
  common::set_global_threads(4);
  const auto [pairs, rows] = count(false);
  ASSERT_GT(pairs, 0u);
  EXPECT_EQ(rows * 2, pairs) << "each unordered pair through the forest once";
  const auto [inline_pairs, inline_rows] = count(true);
  EXPECT_EQ(inline_pairs, pairs);
  EXPECT_EQ(inline_rows, pairs) << "an inline call predicts every pair";
}

// --- explicit targets and the level-1 gate -----------------------------------

TEST_F(AttackOnSynthetic, ExplicitTargetsAreExactlyTheTestedSet) {
  const TrainedModel model =
      AttackEngine::train(training_, config_from_name("Imp-9"));
  const ml::FlatForest forest = ml::FlatForest::build(model.classifier);
  const splitmfg::SplitChallenge& ch = challenges_[0];
  const std::vector<int> targets{1, 5, 7, 40};
  const AttackResult res = AttackEngine::test(model, forest, ch, targets);
  for (int v = 0; v < ch.num_vpins(); ++v) {
    const bool listed =
        std::find(targets.begin(), targets.end(), v) != targets.end();
    const VpinResult& r = res.per_vpin()[static_cast<std::size_t>(v)];
    EXPECT_EQ(r.tested, listed) << "v-pin " << v;
    EXPECT_EQ(r.num_evaluated > 0, listed) << "v-pin " << v;
  }
  for (const std::vector<int>& bad :
       {std::vector<int>{5, 1}, std::vector<int>{3, 3}, std::vector<int>{-1},
        std::vector<int>{ch.num_vpins()}}) {
    EXPECT_THROW(AttackEngine::test(model, forest, ch, bad),
                 std::invalid_argument);
  }
}

// The gate prunes a pair whose level-1 p is below its threshold, in the
// pair store of a pooled call and in an inline call alike. At threshold 0
// it prunes nothing; above 1 it prunes every pair.
class AttackLevel1Gate : public AttackPairOnce {
 protected:
  void SetUp() override {
    AttackPairOnce::SetUp();
    AttackConfig cfg = config_from_name("Imp-9");
    model_ = AttackEngine::train(training_, cfg);
    cfg.seed = 2;
    level1_ = AttackEngine::train(training_, cfg);
    forest_ = ml::FlatForest::build(model_.classifier);
    level1_forest_ = ml::FlatForest::build(level1_.classifier);
    for (int v = 0; v < challenges_[0].num_vpins(); ++v) all_.push_back(v);
  }
  /// test() on every v-pin of challenge 0, pooled on 3 threads or inline.
  AttackResult gated(const Level1Gate* gate, bool inline_call) {
    common::set_global_threads(3);
    std::optional<common::ScopedInline> guard;
    if (inline_call) guard.emplace();
    return AttackEngine::test(model_, forest_, challenges_[0], all_, gate);
  }
  TrainedModel model_, level1_;
  ml::FlatForest forest_, level1_forest_;
  std::vector<int> all_;
};

TEST_F(AttackLevel1Gate, ThresholdZeroEqualsTheUngatedCall) {
  const Level1Gate gate{level1_forest_, 0.0};
  for (const bool inline_call : {false, true}) {
    EXPECT_TRUE(testing::same_result(gated(nullptr, inline_call),
                                     gated(&gate, inline_call)))
        << (inline_call ? "inline" : "pooled");
  }
}

TEST_F(AttackLevel1Gate, ThresholdAboveOnePrunesEveryPair) {
  const Level1Gate gate{level1_forest_, 1.5};
  for (const bool inline_call : {false, true}) {
    const AttackResult res = gated(&gate, inline_call);
    for (const VpinResult& r : res.per_vpin()) {
      EXPECT_EQ(r.num_evaluated, 0);
      EXPECT_TRUE(r.top.empty());
      EXPECT_EQ(r.p_true, -1.0f);
      EXPECT_EQ(std::count(r.hist.begin(), r.hist.end(), 0u),
                static_cast<std::ptrdiff_t>(r.hist.size()));
    }
  }
}

}  // namespace
}  // namespace repro::core
