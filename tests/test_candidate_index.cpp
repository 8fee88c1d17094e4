// The candidate-index equivalence contract: indexed candidate
// enumeration must be *bit-identical* to the brute-force all-pairs scan
// — same admitted sets in the same ascending-id order, hence identical
// AttackResult digests — at every thread count, for every filter shape
// (unrestricted, neighbourhood ball, top-direction track), on both
// synthetic grid challenges and routed synth designs across split layers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/parallel.hpp"
#include "core/attack.hpp"
#include "core/candidate_index.hpp"
#include "core/pipeline.hpp"
#include "core/resilience.hpp"
#include "synth/synth.hpp"
#include "test_helpers.hpp"

namespace repro::core {
namespace {

/// Brute-force admitted-candidate list of `v`, ascending — the reference
/// the index must reproduce exactly.
std::vector<splitmfg::VpinId> brute_candidates(
    const splitmfg::SplitChallenge& ch, splitmfg::VpinId v,
    const PairFilter& f) {
  std::vector<splitmfg::VpinId> out;
  for (splitmfg::VpinId w = 0; w < ch.num_vpins(); ++w) {
    if (w != v && f.admits(ch.vpin(v), ch.vpin(w))) out.push_back(w);
  }
  return out;
}

// --- unit tests on the index structure -------------------------------------

class CandidateIndexQueries : public ::testing::Test {
 protected:
  void SetUp() override {
    ch_ = testing::make_grid_challenge(120, 100000, 8000, 21, 800,
                                       /*same_row=*/false);
  }
  splitmfg::SplitChallenge ch_;
};

TEST_F(CandidateIndexQueries, WithinRadiusMatchesBruteForce) {
  const CandidateIndex index(ch_);
  for (double r : {0.0, 500.0, 8000.0, 25000.0, 1e9}) {
    for (splitmfg::VpinId v : {0, 1, 57, ch_.num_vpins() - 1}) {
      std::vector<splitmfg::VpinId> expected;
      for (splitmfg::VpinId w = 0; w < ch_.num_vpins(); ++w) {
        if (w == v) continue;
        const auto& a = ch_.vpin(v);
        const auto& b = ch_.vpin(w);
        const double d = std::abs(static_cast<double>(a.pos.x - b.pos.x)) +
                         std::abs(static_cast<double>(a.pos.y - b.pos.y));
        if (d <= r) expected.push_back(w);
      }
      EXPECT_EQ(index.within_radius(v, r), expected) << "v=" << v << " r=" << r;
    }
  }
}

TEST_F(CandidateIndexQueries, SameTrackMatchesBruteForce) {
  const CandidateIndex index(ch_);
  for (bool horizontal : {true, false}) {
    for (splitmfg::VpinId v : {0, 33, ch_.num_vpins() - 1}) {
      std::vector<splitmfg::VpinId> expected;
      for (splitmfg::VpinId w = 0; w < ch_.num_vpins(); ++w) {
        if (w == v) continue;
        const bool same = horizontal
                              ? ch_.vpin(w).pos.y == ch_.vpin(v).pos.y
                              : ch_.vpin(w).pos.x == ch_.vpin(v).pos.x;
        if (same) expected.push_back(w);
      }
      EXPECT_EQ(index.same_track(v, horizontal), expected)
          << "v=" << v << " horizontal=" << horizontal;
    }
  }
}

TEST_F(CandidateIndexQueries, CollectMatchesAdmitsForEveryFilterShape) {
  const CandidateIndex index(ch_);
  std::vector<PairFilter> filters(4);
  filters[1].neighborhood = 9000.0;
  filters[2].limit_top_direction = true;
  filters[3].neighborhood = 9000.0;
  filters[3].limit_top_direction = true;
  filters[3].top_metal_horizontal = false;
  for (const PairFilter& f : filters) {
    for (splitmfg::VpinId v = 0; v < ch_.num_vpins(); ++v) {
      std::vector<splitmfg::VpinId> got;
      const std::size_t scanned = index.collect(v, f, got);
      EXPECT_EQ(got, brute_candidates(ch_, v, f));
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
      EXPECT_GE(scanned, got.size());
    }
  }
}

// j is a candidate of i exactly when i is a candidate of j: the pair-once
// scoring of AttackEngine::test reads p(i, j) from row min(i, j) of its
// pair store through cursors that assume it. PairFilter::admits is
// symmetric (legality asks for one driving v-pin, |dx| + |dy| is the same
// double sum either way, a track is shared), and collect() must keep it.
TEST(CandidateIndex, CollectIsSymmetricOnThePresets) {
  const std::vector<synth::SynthDesign> designs =
      synth::generate_benchmark_suite(0.05);
  for (const int layer : {8, 6, 4}) {
    const ChallengeSuite suite = make_suite(designs, layer);
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const splitmfg::SplitChallenge& ch = suite.challenge(i);
      const CandidateIndex index(ch);
      const double radius =
          neighborhood_radius(suite.training_for(i), 0.90);
      for (const char* name : {"ML-9", "Imp-9", "ML-9Y", "Imp-9Y"}) {
        const AttackConfig cfg = config_from_name(name);
        PairFilter f;
        if (cfg.improved) f.neighborhood = radius;
        f.limit_top_direction = cfg.limit_top_direction;
        f.top_metal_horizontal = cfg.top_metal_horizontal;
        std::vector<std::vector<splitmfg::VpinId>> lists(
            static_cast<std::size_t>(ch.num_vpins()));
        for (splitmfg::VpinId v = 0; v < ch.num_vpins(); ++v) {
          index.collect(v, f, lists[static_cast<std::size_t>(v)]);
        }
        std::size_t pairs = 0;
        for (splitmfg::VpinId v = 0; v < ch.num_vpins(); ++v) {
          for (splitmfg::VpinId w : lists[static_cast<std::size_t>(v)]) {
            const auto& back = lists[static_cast<std::size_t>(w)];
            ASSERT_TRUE(std::binary_search(back.begin(), back.end(), v))
                << ch.design_name << " split " << layer << " " << name
                << ": " << w << " is a candidate of " << v
                << " but not the reverse";
            ++pairs;
          }
        }
        EXPECT_GT(pairs, 0u) << ch.design_name << " split " << layer << " "
                             << name;
      }
    }
  }
}

TEST(CandidateIndexEdge, HandlesTinyChallenges) {
  splitmfg::SplitChallenge empty;
  const CandidateIndex none(empty);
  EXPECT_EQ(none.num_vpins(), 0);

  splitmfg::SplitChallenge one;
  splitmfg::Vpin v;
  v.id = 0;
  v.pos = {50, 50};
  one.vpins.push_back(v);
  const CandidateIndex single(one);
  std::vector<splitmfg::VpinId> out;
  PairFilter f;
  f.neighborhood = 10.0;
  EXPECT_EQ(single.collect(0, f, out), 0u);
  EXPECT_TRUE(out.empty());
}

// --- histogram binning boundaries ------------------------------------------

TEST(BinIndex, BoundariesAndNanGuard) {
  constexpr int kBins = 512;
  EXPECT_EQ(detail::bin_index(0.0, kBins), 0);
  EXPECT_EQ(detail::bin_index(1.0 / kBins, kBins), 1);
  EXPECT_EQ(detail::bin_index(0.5, kBins), kBins / 2);
  EXPECT_EQ(detail::bin_index(std::nextafter(1.0, 0.0), kBins), kBins - 1);
  EXPECT_EQ(detail::bin_index(1.0, kBins), kBins - 1);
  // Out-of-range and non-finite probabilities must stay in range instead
  // of invoking UB in the float->int cast (the flush-path guard).
  EXPECT_EQ(detail::bin_index(-0.25, kBins), 0);
  EXPECT_EQ(detail::bin_index(2.0, kBins), kBins - 1);
  EXPECT_EQ(detail::bin_index(std::numeric_limits<double>::infinity(), kBins),
            kBins - 1);
  EXPECT_EQ(detail::bin_index(-std::numeric_limits<double>::infinity(), kBins),
            0);
  EXPECT_EQ(detail::bin_index(std::numeric_limits<double>::quiet_NaN(), kBins),
            0);
}

// --- differential: brute force vs index, 1 and 8 threads -------------------

class DifferentialDigest : public ::testing::Test {
 protected:
  void TearDown() override { common::set_global_threads(0); }

  /// Trains once, then scores with brute-force and indexed enumeration at
  /// 1 and 8 threads; all four digests must be equal.
  void expect_equivalent(const splitmfg::SplitChallenge& target,
                         std::span<const splitmfg::SplitChallenge* const> tr,
                         const AttackConfig& cfg, const char* what) {
    TrainedModel indexed = AttackEngine::train(tr, cfg);
    TrainedModel brute = indexed;
    indexed.config.use_candidate_index = true;
    brute.config.use_candidate_index = false;
    std::uint64_t reference = 0;
    bool first = true;
    for (int threads : {1, 8}) {
      common::set_global_threads(threads);
      for (const TrainedModel* m : {&brute, &indexed}) {
        const std::uint64_t h = result_digest(AttackEngine::test(*m, target));
        if (first) {
          reference = h;
          first = false;
        } else {
          EXPECT_EQ(h, reference)
              << what << ": "
              << (m->config.use_candidate_index ? "indexed" : "brute")
              << " digest diverged at " << threads << " threads";
        }
      }
    }
  }
};

TEST_F(DifferentialDigest, GridChallengesAllFilterShapes) {
  std::vector<splitmfg::SplitChallenge> challenges;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    challenges.push_back(testing::make_grid_challenge(120, 100000, 8000, s));
  }
  const std::vector<const splitmfg::SplitChallenge*> training{&challenges[1],
                                                              &challenges[2]};
  // One config per enumeration strategy: unrestricted scan (ML-9),
  // neighbourhood ball (Imp-9), same-track (Imp-11Y).
  for (const char* name : {"ML-9", "Imp-9", "Imp-11Y"}) {
    expect_equivalent(challenges[0], training, config_from_name(name), name);
  }
}

TEST_F(DifferentialDigest, TargetSampledRunsMatchToo) {
  std::vector<splitmfg::SplitChallenge> challenges;
  for (std::uint64_t s = 5; s <= 7; ++s) {
    challenges.push_back(testing::make_grid_challenge(120, 100000, 8000, s));
  }
  const std::vector<const splitmfg::SplitChallenge*> training{&challenges[1],
                                                              &challenges[2]};
  AttackConfig cfg = config_from_name("Imp-9");
  cfg.max_test_vpins = 50;  // subset of targets, every candidate
  expect_equivalent(challenges[0], training, cfg, "Imp-9 sampled");
}

TEST_F(DifferentialDigest, SynthDesignsAcrossSplitLayers) {
  // Routed designs through the real synthesis/routing stack, cut at every
  // paper split layer the suite benches (8 = top via, 4 = lowest).
  static std::map<int, synth::SynthDesign> designs;
  if (designs.empty()) {
    for (int i : {0, 1}) {
      synth::SynthParams p = synth::preset(i == 0 ? "sb1" : "sb18");
      p.num_cells = 500;
      p.seed = static_cast<std::uint64_t>(i) * 97 + 13;
      p.name = "diff" + std::to_string(i);
      designs.emplace(i, synth::generate(p));
    }
  }
  for (int layer : {4, 6, 8}) {
    std::vector<splitmfg::SplitChallenge> challenges;
    for (auto& [i, d] : designs) {
      challenges.push_back(splitmfg::make_challenge(*d.netlist, d.routes,
                                                    layer));
    }
    const std::vector<const splitmfg::SplitChallenge*> training{
        &challenges[1]};
    const std::string what = "Imp-9 split " + std::to_string(layer);
    expect_equivalent(challenges[0], training, config_from_name("Imp-9"),
                      what.c_str());
  }
}

}  // namespace
}  // namespace repro::core
