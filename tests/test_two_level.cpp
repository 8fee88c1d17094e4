#include <gtest/gtest.h>

#include "core/resilience.hpp"
#include "core/two_level.hpp"
#include "test_helpers.hpp"

namespace repro::core {
namespace {

class TwoLevel : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint64_t s = 1; s <= 3; ++s) {
      challenges_.push_back(
          testing::make_grid_challenge(100, 100000, 8000, s));
    }
  }
  std::vector<splitmfg::SplitChallenge> challenges_;
};

TEST_F(TwoLevel, PrunedLocIsSubsetOfLevel1Loc) {
  std::vector<const splitmfg::SplitChallenge*> training{&challenges_[1],
                                                        &challenges_[2]};
  const AttackConfig cfg = config_from_name("Imp-11");
  const TwoLevelResult res =
      two_level_attack(challenges_[0], training, cfg);

  // Level-2 only re-classifies pairs that level 1 accepted, so at any
  // threshold the pruned LoC cannot exceed the level-1 LoC at 0.5.
  const double l1 = res.level1.mean_loc_at_threshold(0.5);
  const double pruned_all = res.pruned.mean_loc_at_threshold(0.0);
  EXPECT_LE(pruned_all, l1 + 1e-9);

  // Both results cover the same v-pins.
  EXPECT_EQ(res.level1.num_vpins(), challenges_[0].num_vpins());
  EXPECT_EQ(res.pruned.num_vpins(), challenges_[0].num_vpins());
  EXPECT_GT(res.num_l2_train_samples, 0);
  EXPECT_GT(res.total_seconds, 0.0);
}

TEST_F(TwoLevel, AccuracyBoundedByLevel1) {
  std::vector<const splitmfg::SplitChallenge*> training{&challenges_[1],
                                                        &challenges_[2]};
  const AttackConfig cfg = config_from_name("Imp-11");
  const TwoLevelResult res =
      two_level_attack(challenges_[0], training, cfg);
  // A match pruned by level 1 can never reappear: max accuracy of the
  // pruned result <= accuracy of level 1 at its threshold.
  EXPECT_LE(res.pruned.max_accuracy(),
            res.level1.accuracy_at_threshold(0.5) + 1e-9);
}

TEST_F(TwoLevel, Level1MatchesTheEngine) {
  // Level 1 is the LoC attack itself: its result is the engine's, on the
  // same features (distance scale included) and the same top-K.
  std::vector<const splitmfg::SplitChallenge*> training{&challenges_[1],
                                                        &challenges_[2]};
  for (const bool normalize : {false, true}) {
    AttackConfig cfg = config_from_name("Imp-11");
    cfg.normalize_distances = normalize;
    const TwoLevelResult res =
        two_level_attack(challenges_[0], training, cfg);
    const AttackResult engine = AttackEngine::test(
        AttackEngine::train(training, cfg), challenges_[0]);
    EXPECT_TRUE(repro::testing::same_result(res.level1, engine))
        << "normalize_distances " << normalize;
    EXPECT_EQ(result_digest(res.level1), result_digest(engine))
        << "normalize_distances " << normalize;
  }
}

}  // namespace
}  // namespace repro::core
