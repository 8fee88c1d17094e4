// The digest oracle for every configuration the paper reports. Each row
// runs one computation of Tables I-VI on the five preset designs at suite
// scale 0.05 (seed 1) and compares its digest with the value recorded
// from the code before the top-K selection and result_digest rewrites.
// DifferentialDigest.* and AttackThreadInvariance.* compare two paths of
// the current code with each other; these rows pin the values themselves,
// so a change to code both paths share still shows.
//
// A pinned value changes only with a CHANGES.md line that names the row
// and the reason. Re-recording a value to make this test pass is not a
// reason.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/prior_work.hpp"
#include "common/binio.hpp"
#include "common/parallel.hpp"
#include "core/obfuscation.hpp"
#include "core/pipeline.hpp"
#include "core/proximity.hpp"
#include "core/two_level.hpp"
#include "test_helpers.hpp"

namespace repro::core {
namespace {

constexpr double kScale = 0.05;

/// The five presets at kScale, generated once per process.
const std::vector<synth::SynthDesign>& designs() {
  static const std::vector<synth::SynthDesign> d =
      synth::generate_benchmark_suite(kScale);
  return d;
}

const ChallengeSuite& suite(int layer) {
  static std::map<int, std::unique_ptr<ChallengeSuite>> cache;
  auto& slot = cache[layer];
  if (!slot) {
    slot = std::make_unique<ChallengeSuite>(make_suite(designs(), layer));
  }
  return *slot;
}

/// combine_digests over the folds' result digests; every fold's digest
/// must also equal the byte-wise definition.
std::uint64_t loo_digest(const ChallengeSuite& s, const AttackConfig& cfg) {
  std::vector<std::uint64_t> folds;
  for (const AttackResult& r : s.run_all(cfg)) {
    folds.push_back(result_digest(r));
    EXPECT_EQ(folds.back(), repro::testing::reference_result_digest(r))
        << r.design();
  }
  return combine_digests(folds);
}

std::uint64_t loo(const char* name, int layer) {
  return loo_digest(suite(layer), config_from_name(name));
}

/// Table III: both results of two-level pruning for every fold.
std::uint64_t two_level(int layer) {
  const ChallengeSuite& s = suite(layer);
  std::vector<std::uint64_t> digests;
  for (std::size_t t = 0; t < s.size(); ++t) {
    const TwoLevelResult res = two_level_attack(
        s.challenge(t), s.training_for(t), config_from_name("Imp-11"));
    digests.push_back(result_digest(res.level1));
    digests.push_back(result_digest(res.pruned));
  }
  return combine_digests(digests);
}

/// Table V: the validation-chosen fraction, the validation curve and the
/// target's PA success rate for every fold, hashed by bit pattern.
std::uint64_t pa_validation(const char* name, int layer) {
  const ChallengeSuite& s = suite(layer);
  AttackConfig cfg = config_from_name(name);
  cfg.max_test_vpins = 150;  // as bench::capped does, to bound the cost
  common::BinaryWriter w;
  for (std::size_t t = 0; t < s.size(); ++t) {
    const auto training = s.training_for(t);
    const AttackResult res = AttackEngine::run(s.challenge(t), training, cfg);
    const PAOutcome pa =
        validated_proximity_attack(res, s.challenge(t), training, cfg);
    w.f64(pa.best_fraction);
    for (const auto& [fraction, success] : pa.validation_curve) {
      w.f64(fraction);
      w.f64(success);
    }
    w.f64(pa.success_rate);
  }
  return common::fnv1a64(w.buffer());
}

/// Table I: the prior-work baseline's sweep for every fold, by bit
/// pattern.
std::uint64_t prior_work(int layer) {
  const ChallengeSuite& s = suite(layer);
  const std::vector<double> lambdas = {0.25, 0.5, 1.0, 2.0};
  common::BinaryWriter w;
  for (std::size_t t = 0; t < s.size(); ++t) {
    const baseline::BaselineEval e =
        baseline::PriorWorkBaseline::train(s.training_for(t))
            .evaluate(s.challenge(t), lambdas);
    for (double v : e.mean_loc) w.f64(v);
    for (double v : e.accuracy) w.f64(v);
    w.f64(e.pa_success);
  }
  return common::fnv1a64(w.buffer());
}

/// Table VI: the suite with 1% y-noise on every design, seeded as
/// bench/table6_obfuscation_pa seeds it.
std::uint64_t obfuscated(int layer) {
  std::vector<splitmfg::SplitChallenge> noisy;
  const ChallengeSuite& s = suite(layer);
  for (std::size_t i = 0; i < s.size(); ++i) {
    noisy.push_back(add_y_noise(s.challenge(i), 0.01, 1000 + 31 * i));
  }
  return loo_digest(ChallengeSuite(std::move(noisy)),
                    config_from_name("Imp-11"));
}

struct PinRow {
  std::string name;
  std::function<std::uint64_t()> digest;
  std::uint64_t expected;
  friend void PrintTo(const PinRow& r, std::ostream* os) { *os << r.name; }
};

std::vector<PinRow> pin_rows() {
  const auto with = [](const char* name, int layer, auto edit) {
    return [=] {
      AttackConfig cfg = config_from_name(name);
      edit(cfg);
      return loo_digest(suite(layer), cfg);
    };
  };
  return {
      // Tables I and IV: the four configurations at the three layers.
      {"ML9_split8", [] { return loo("ML-9", 8); }, 0xe766b1c01f649202ULL},
      {"Imp9_split8", [] { return loo("Imp-9", 8); }, 0xc80b1624dee221d3ULL},
      {"Imp7_split8", [] { return loo("Imp-7", 8); }, 0xcb4eaa3f3a266ed1ULL},
      {"Imp11_split8", [] { return loo("Imp-11", 8); }, 0x3d051d543bfc9cadULL},
      {"ML9_split6", [] { return loo("ML-9", 6); }, 0xa2722265f860d491ULL},
      {"Imp9_split6", [] { return loo("Imp-9", 6); }, 0x018856419d321494ULL},
      {"Imp7_split6", [] { return loo("Imp-7", 6); }, 0xcc0be5b000d33295ULL},
      {"Imp11_split6", [] { return loo("Imp-11", 6); }, 0x13cbe0dd9cb7f6e2ULL},
      {"ML9_split4", [] { return loo("ML-9", 4); }, 0x6c7517862682bb0aULL},
      {"Imp9_split4", [] { return loo("Imp-9", 4); }, 0x9f6918cb8d1eb372ULL},
      {"Imp7_split4", [] { return loo("Imp-7", 4); }, 0x9edc7fba362f984fULL},
      {"Imp11_split4", [] { return loo("Imp-11", 4); }, 0x98c0bbd1343eac59ULL},
      // Table IV: the Y variants at the top via layer.
      {"ML9Y_split8", [] { return loo("ML-9Y", 8); }, 0x1a86dda941b40572ULL},
      {"Imp9Y_split8", [] { return loo("Imp-9Y", 8); }, 0x0d955929669257d9ULL},
      {"Imp7Y_split8", [] { return loo("Imp-7Y", 8); }, 0x066fa8b53fd159b0ULL},
      {"Imp11Y_split8", [] { return loo("Imp-11Y", 8); },
       0xa1b136dd388d91f4ULL},
      // Table II: 100 random trees; target sampling bounds the scoring.
      {"RF_Imp7_split8",
       with("RF:Imp-7", 8, [](AttackConfig& c) { c.max_test_vpins = 100; }),
       0x7a409f53d63c4e97ULL},
      {"RF_Imp7_split6",
       with("RF:Imp-7", 6, [](AttackConfig& c) { c.max_test_vpins = 100; }),
       0x0ec7169da785350aULL},
      // Distance normalization, and the target-sampled path on its own.
      {"Imp9_normalized_split6",
       with("Imp-9", 6, [](AttackConfig& c) { c.normalize_distances = true; }),
       0x4d29851b08609a85ULL},
      {"Imp9_sampled64_split4",
       with("Imp-9", 4, [](AttackConfig& c) { c.max_test_vpins = 64; }),
       0x072e5b86552df877ULL},
      {"PriorWork_split8", [] { return prior_work(8); }, 0x85aba42feea469a8ULL},
      {"PriorWork_split6", [] { return prior_work(6); }, 0xdf2957c48109c887ULL},
      {"PriorWork_split4", [] { return prior_work(4); }, 0x0c3714de2e47f61dULL},
      {"TwoLevel_Imp11_split8", [] { return two_level(8); },
       0x1fb1e6480187928bULL},
      {"TwoLevel_Imp11_split6", [] { return two_level(6); },
       0xabca01db0c4e9268ULL},
      {"PaValidation_Imp9_split8", [] { return pa_validation("Imp-9", 8); },
       0x8f11a86265c5e48dULL},
      {"PaValidation_Imp11_split6",
       [] { return pa_validation("Imp-11", 6); }, 0xd48eeb4eebdd3fcbULL},
      {"PaValidation_Imp7_split4", [] { return pa_validation("Imp-7", 4); },
       0x8eacb7023e1086d4ULL},
      {"Obfuscated1pct_Imp11_split6", [] { return obfuscated(6); },
       0xd8584c78086a9409ULL},
  };
}

class OraclePins : public ::testing::TestWithParam<PinRow> {};

TEST_P(OraclePins, MatchesRecordedDigest) {
  const std::uint64_t got = GetParam().digest();
  EXPECT_EQ(common::hex64(got), common::hex64(GetParam().expected));
}

INSTANTIATE_TEST_SUITE_P(
    Rows, OraclePins, ::testing::ValuesIn(pin_rows()),
    [](const ::testing::TestParamInfo<PinRow>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace repro::core
