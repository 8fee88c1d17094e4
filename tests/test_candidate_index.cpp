// The candidate-index equivalence contract: CandidateIndex::collect must
// yield exactly the ids the brute-force PairFilter::admits scan yields, in
// the same ascending-id order, for every filter shape (unrestricted,
// neighbourhood ball, top-direction track) and through each of its three
// strategies (dense sweep, grid walk, track scan), on synthetic grid
// challenges and on routed synth designs across split layers. The engine
// scores exactly these lists in this order, so list equality is what
// makes its digests independent of the index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <string>

#include "core/attack.hpp"
#include "core/candidate_index.hpp"
#include "core/pipeline.hpp"
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

// --- differential: collect vs the brute-force admits scan -----------------

/// The other v-pins on v's track: what the track scan visits.
std::size_t track_mates(const splitmfg::SplitChallenge& ch, splitmfg::VpinId v,
                        bool horizontal) {
  std::size_t k = 0;
  for (const splitmfg::Vpin& w : ch.vpins) {
    const bool same = horizontal ? w.pos.y == ch.vpin(v).pos.y
                                 : w.pos.x == ch.vpin(v).pos.x;
    k += static_cast<std::size_t>(same && w.id != v);
  }
  return k;
}

/// The index's grid cell edge as CandidateIndex picks it: the longer
/// extent of the v-pin positions over ceil(sqrt(n)) cells.
double cell_edge(const splitmfg::SplitChallenge& ch) {
  geom::Dbu x0 = ch.vpins[0].pos.x, x1 = x0, y0 = ch.vpins[0].pos.y, y1 = y0;
  for (const splitmfg::Vpin& v : ch.vpins) {
    x0 = std::min(x0, v.pos.x);
    x1 = std::max(x1, v.pos.x);
    y0 = std::min(y0, v.pos.y);
    y1 = std::max(y1, v.pos.y);
  }
  const auto extent = std::max<geom::Dbu>({x1 - x0, y1 - y0, 1});
  const auto cells = static_cast<geom::Dbu>(
      std::ceil(std::sqrt(static_cast<double>(ch.num_vpins()))));
  return static_cast<double>((extent + cells - 1) / cells);
}

/// How many of one filter's queries each strategy answered, read off
/// collect's scanned count: the dense sweep visits all n - 1 other
/// v-pins, the grid walk fewer, the track scan exactly v's track mates.
struct Tally {
  int sweep = 0;
  int grid = 0;
  int track = 0;
};

/// Asserts collect == brute_candidates for every v-pin of `ch` under `f`.
Tally check_collect(const splitmfg::SplitChallenge& ch, const PairFilter& f,
                    const std::string& what) {
  const CandidateIndex index(ch);
  const std::size_t others = static_cast<std::size_t>(ch.num_vpins() - 1);
  Tally tally;
  std::vector<splitmfg::VpinId> got;
  for (splitmfg::VpinId v = 0; v < ch.num_vpins(); ++v) {
    got.clear();
    const std::size_t scanned = index.collect(v, f, got);
    EXPECT_EQ(got, brute_candidates(ch, v, f)) << what << " v=" << v;
    if (f.limit_top_direction) {
      EXPECT_EQ(scanned, track_mates(ch, v, f.top_metal_horizontal))
          << what << " v=" << v;
      ++tally.track;
    } else {
      EXPECT_LE(scanned, others) << what << " v=" << v;
      ++(scanned == others ? tally.sweep : tally.grid);
    }
  }
  return tally;
}

/// Checks `challenges` under the filters the attack builds from
/// `training` for ML-9, Imp-9 and Imp-11Y (the last in both track
/// orientations), under balls far wider than any die and under a tight
/// ball (the 10th percentile of the training match distances), and
/// asserts the strategy each one must take. Returns the grid walks the
/// two data-sized balls took.
int check_attack_filters(
    std::span<const splitmfg::SplitChallenge> challenges,
    std::span<const splitmfg::SplitChallenge* const> training,
    const std::string& what) {
  const PairFilter ml9 = pair_filter_for(training, config_from_name("ML-9"));
  const PairFilter imp9 =
      pair_filter_for(training, config_from_name("Imp-9"));
  const PairFilter horizontal =
      pair_filter_for(training, config_from_name("Imp-11Y"));
  PairFilter vertical = horizontal;
  vertical.top_metal_horizontal = !horizontal.top_metal_horizontal;
  PairFilter tight;
  tight.neighborhood = neighborhood_radius(training, 0.10);

  EXPECT_FALSE(ml9.neighborhood.has_value());
  EXPECT_TRUE(imp9.neighborhood.has_value());
  EXPECT_TRUE(horizontal.limit_top_direction);
  int grid_walks = 0;
  for (const splitmfg::SplitChallenge& ch : challenges) {
    const std::string at = what + " " + ch.design_name;
    const int n = ch.num_vpins();
    EXPECT_EQ(check_collect(ch, ml9, at + " ML-9").sweep, n);
    // A query corner 2^32 cell edges away wraps to v's own cell if its
    // cell is narrowed to int before the clamp; the walk would then miss
    // nearly every candidate.
    for (const double r : {1e17, 4294967296.0 * cell_edge(ch)}) {
      PairFilter wide;
      wide.neighborhood = r;
      EXPECT_EQ(check_collect(ch, wide, at + " r=" + std::to_string(r)).sweep,
                n);
    }
    grid_walks += check_collect(ch, imp9, at + " Imp-9").grid;
    grid_walks += check_collect(ch, tight, at + " 10% ball").grid;
    EXPECT_EQ(check_collect(ch, horizontal, at + " Imp-11Y").track, n);
    EXPECT_EQ(check_collect(ch, vertical, at + " Imp-11Y mirrored").track, n);
  }
  return grid_walks;
}

TEST(DifferentialCollect, GridChallenges) {
  std::vector<splitmfg::SplitChallenge> challenges;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    challenges.push_back(testing::make_grid_challenge(120, 100000, 8000, s));
  }
  const std::vector<const splitmfg::SplitChallenge*> training{&challenges[1],
                                                              &challenges[2]};
  // Imp-9's radius is the 8000-DBU match distance on a 100000-DBU die,
  // a ball the grid walk answers.
  EXPECT_GT(check_attack_filters(challenges, training, "grid"), 0);
}

TEST(DifferentialCollect, SynthDesignsAcrossSplitLayers) {
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
    // Imp-9's ball covers most of these small dies (the dense sweep);
    // the tight ball is what walks the grid here.
    EXPECT_GT(check_attack_filters(challenges, training,
                                   "split " + std::to_string(layer)),
              0);
  }
}

}  // namespace
}  // namespace repro::core
