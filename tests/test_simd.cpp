// The SIMD equivalence contract (see src/common/simd.hpp): every kernel
// that dispatches on simd::active() computes the exact same double
// arithmetic at every level, so outputs are *bit-identical* across
// scalar / AVX2 — per kernel (FlatForest batch traversal,
// CandidateIndex scans) and end-to-end (AttackResult digests across
// levels, thread counts, and split layers). scripts/check_simd.sh runs
// this file under every forced REPRO_SIMD value on top.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/attack.hpp"
#include "core/candidate_index.hpp"
#include "core/resilience.hpp"
#include "ml/bagging.hpp"
#include "synth/synth.hpp"
#include "test_helpers.hpp"

namespace repro {
namespace {

namespace simd = common::simd;

/// Forces a dispatch level for one scope. set_level clamps to what the
/// CPU supports, so the tests also pass (trivially, by comparing a level
/// against itself) on machines without AVX2.
class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level l) : prev_(simd::active()) {
    simd::set_level(l);
  }
  ~ScopedLevel() { simd::set_level(prev_); }

 private:
  simd::Level prev_;
};

const simd::Level kAllLevels[] = {simd::Level::kScalar, simd::Level::kAvx2};

// --- dispatch shim ---------------------------------------------------------

TEST(SimdShim, ParseLevelRecognizesNamesAndFallsBackToAuto) {
  EXPECT_EQ(simd::parse_level("scalar"), simd::Level::kScalar);
  EXPECT_EQ(simd::parse_level("avx2"), simd::Level::kAvx2);
  EXPECT_FALSE(simd::parse_level("sse2").has_value());
  EXPECT_FALSE(simd::parse_level("auto").has_value());
  EXPECT_FALSE(simd::parse_level("").has_value());
  EXPECT_FALSE(simd::parse_level("avx512").has_value());
}

TEST(SimdShim, SetLevelClampsToSupportedAndRoundTrips) {
  const simd::Level prev = simd::active();
  simd::set_level(simd::Level::kScalar);
  EXPECT_EQ(simd::active(), simd::Level::kScalar);
  simd::set_level(simd::Level::kAvx2);
  EXPECT_LE(simd::active(), simd::max_supported());
  simd::set_level(prev);
  EXPECT_EQ(simd::active(), prev);
}

#if defined(REPRO_SIMD_X86)
TEST(SimdShim, Compress8TableLeftPacksEveryMask) {
  const auto& table = simd::compress8_table();
  for (int m = 0; m < 256; ++m) {
    int k = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if (m & (1 << lane)) {
        EXPECT_EQ(table[m][k], static_cast<std::uint32_t>(lane))
            << "mask " << m << " slot " << k;
        ++k;
      }
    }
    EXPECT_EQ(k, __builtin_popcount(static_cast<unsigned>(m)));
    for (; k < 8; ++k) EXPECT_EQ(table[m][k], 0u);
  }
}
#endif

// --- FlatForest batch kernels ----------------------------------------------

ml::Dataset xor_dataset(int n, std::uint64_t seed) {
  ml::Dataset data({"x", "y", "z"});
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < n; ++i) {
    const double x = u(rng), y = u(rng), z = u(rng);
    data.add_row(std::vector<double>{x, y, z}, (x > 0.5) != (y > 0.5));
  }
  return data;
}

/// A checkerboard of 8 x 8 x 4 cells: no shallow tree separates it, so
/// the trees grow deep, as the forests of low split layers do.
ml::Dataset checkerboard_dataset(int n, std::uint64_t seed) {
  ml::Dataset data({"x", "y", "z"});
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < n; ++i) {
    const double x = u(rng), y = u(rng), z = u(rng);
    const int cell = static_cast<int>(8 * x) + static_cast<int>(8 * y) +
                     static_cast<int>(4 * z);
    data.add_row(std::vector<double>{x, y, z}, cell % 2 == 1);
  }
  return data;
}

class FlatForestKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    ml::BaggingOptions opt = ml::BaggingOptions::reptree_bagging(7);
    opt.num_trees = 12;
    forest_ = ml::FlatForest::build(
        ml::BaggingClassifier::train(xor_dataset(600, 11), opt));
    ASSERT_FALSE(forest_.empty());
  }

  /// Random row batch; a sprinkle of NaNs exercises the "unordered
  /// compares go right" contract shared by every kernel.
  std::vector<double> rows(int n, std::uint64_t seed,
                           bool with_nan = false) const {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(-0.2, 1.2);
    std::vector<double> r(static_cast<std::size_t>(n) * 3);
    for (double& x : r) x = u(rng);
    if (with_nan) {
      for (std::size_t i = 5; i < r.size(); i += 17) {
        r[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
    return r;
  }

  ml::FlatForest forest_;
};

TEST_F(FlatForestKernels, AllKernelsBitIdenticalOnDoubleRows) {
  using BK = ml::FlatForest::BatchKernel;
  ml::BaggingOptions opt = ml::BaggingOptions::reptree_bagging(7);
  opt.num_trees = 12;
  const ml::BaggingClassifier deep_model =
      ml::BaggingClassifier::train(checkerboard_dataset(6000, 13), opt);
  ml::FlatForest deep = ml::FlatForest::build(deep_model);
  // The AVX2 frontier partitions a segment only while it holds kBlock
  // rows or more. On the deep forest, a 1024-row batch still has such
  // segments below level 5, so its vector path runs that deep.
  {
    const std::vector<double> batch = rows(1024, 100 + 1024);
    const ml::DecisionTree& tree = deep_model.tree(0);
    std::map<int, int> at_level6;  // internal node -> rows reaching it
    for (int i = 0; i < 1024; ++i) {
      const double* x = batch.data() + 3 * i;
      int node = 0, level = 0;
      for (; level < 6 && !tree.node(node).is_leaf(); ++level) {
        const ml::TreeNode& nd = tree.node(node);
        node = x[nd.feature] < nd.threshold ? nd.left : nd.right;
      }
      if (level == 6 && !tree.node(node).is_leaf()) ++at_level6[node];
    }
    int widest = 0;
    for (const auto& [node, count] : at_level6) {
      widest = std::max(widest, count);
    }
    ASSERT_GE(widest, ml::FlatForest::kBlock);
  }
  for (const ml::FlatForest* forest : {&forest_, &deep}) {
    for (const int n :
         {1, 3, 7, 8, 9, 64, 129, 255, 256, 257, 1023, 1024}) {
      for (const bool with_nan : {false, true}) {
        const std::vector<double> batch = rows(n, 100 + n, with_nan);
        std::vector<double> ref(static_cast<std::size_t>(n));
        std::vector<double> got(static_cast<std::size_t>(n), -1.0);
        forest->predict_batch_kernel(BK::kScalar, batch.data(), n, 3,
                                     ref.data());
        forest->predict_batch_kernel(BK::kAvx2, batch.data(), n, 3,
                                     got.data());
        EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                                 ref.size() * sizeof(double)))
            << "n=" << n << " nan=" << with_nan
            << " deep=" << (forest == &deep);
      }
    }
  }
}

TEST_F(FlatForestKernels, DispatchedBatchMatchesPerRowWalk) {
  const int n = 50;
  const std::vector<double> batch = rows(n, 4242);
  for (const simd::Level level : kAllLevels) {
    ScopedLevel scoped(level);
    std::vector<double> got(static_cast<std::size_t>(n));
    forest_.predict_batch(batch.data(), n, 3, got.data());
    for (int i = 0; i < n; ++i) {
      const double want = forest_.predict_proba(
          std::span<const double>(batch.data() + 3 * i, 3));
      EXPECT_EQ(want, got[i]) << "level " << simd::to_string(level)
                              << " row " << i;
    }
  }
}

// --- CandidateIndex scan kernels -------------------------------------------

class IndexScanLevels : public ::testing::Test {
 protected:
  void SetUp() override {
    ch_ = testing::make_grid_challenge(150, 100000, 8000, 31, 800,
                                       /*same_row=*/false);
  }

  /// collect() across all of {unrestricted, ball, track x, track y} x
  /// {with, without} neighbourhood, at one dispatch level.
  std::vector<std::vector<splitmfg::VpinId>> collect_all_shapes(
      simd::Level level) const {
    ScopedLevel scoped(level);
    const core::CandidateIndex index(ch_);
    std::vector<core::PairFilter> filters;
    filters.push_back({});  // unrestricted
    filters.push_back({.neighborhood = 9000.0});
    filters.push_back({.neighborhood = 1e12});  // dense-sweep fallback
    filters.push_back({.neighborhood = std::nullopt,
                       .limit_top_direction = true});
    filters.push_back({.neighborhood = std::nullopt,
                       .limit_top_direction = true,
                       .top_metal_horizontal = false});
    filters.push_back({.neighborhood = 9000.0, .limit_top_direction = true});
    std::vector<std::vector<splitmfg::VpinId>> results;
    for (const core::PairFilter& f : filters) {
      for (splitmfg::VpinId v = 0; v < ch_.num_vpins(); v += 7) {
        std::vector<splitmfg::VpinId> out;
        index.collect(v, f, out);
        results.push_back(std::move(out));
      }
    }
    return results;
  }

  splitmfg::SplitChallenge ch_;
};

TEST_F(IndexScanLevels, CollectIdenticalAcrossLevels) {
  const auto ref = collect_all_shapes(simd::Level::kScalar);
  const auto got = collect_all_shapes(simd::Level::kAvx2);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], got[i]) << "query " << i;
  }
}

// --- end-to-end digests ----------------------------------------------------

TEST(SimdAttackDigest, IdenticalAcrossLevelsThreadsAndSplitLayers) {
  // Routed designs cut at the paper's split layers; the full attack
  // (train features + sampling through the index, FlatForest batch
  // scoring) must digest identically at every (level, threads) point.
  static std::map<int, synth::SynthDesign> designs;
  if (designs.empty()) {
    for (int i : {0, 1}) {
      synth::SynthParams p = synth::preset(i == 0 ? "sb1" : "sb18");
      p.num_cells = 300;
      p.seed = static_cast<std::uint64_t>(i) * 83 + 7;
      p.name = "simd" + std::to_string(i);
      designs.emplace(i, synth::generate(p));
    }
  }
  for (const int layer : {4, 6, 8}) {
    std::vector<splitmfg::SplitChallenge> challenges;
    for (auto& [i, d] : designs) {
      challenges.push_back(
          splitmfg::make_challenge(*d.netlist, d.routes, layer));
    }
    const std::vector<const splitmfg::SplitChallenge*> training{
        &challenges[1]};
    // Imp-9 exercises ball + dense sweeps; Imp-11Y the track scan.
    for (const char* name : {"Imp-9", "Imp-11Y"}) {
      const core::AttackConfig cfg = core::config_from_name(name);
      std::uint64_t want = 0;
      bool have_want = false;
      for (const simd::Level level : kAllLevels) {
        ScopedLevel scoped(level);
        const core::TrainedModel model =
            core::AttackEngine::train(training, cfg);
        for (const int threads : {1, 8}) {
          common::set_global_threads(threads);
          const std::uint64_t h = core::result_digest(
              core::AttackEngine::test(model, challenges[0]));
          if (!have_want) {
            want = h;
            have_want = true;
          }
          EXPECT_EQ(want, h)
              << name << " layer " << layer << " level "
              << simd::to_string(level) << " threads " << threads;
        }
        common::set_global_threads(1);
      }
    }
  }
}

}  // namespace
}  // namespace repro
