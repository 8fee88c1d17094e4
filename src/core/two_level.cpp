#include "core/two_level.hpp"

#include <numeric>
#include <random>

#include "common/clock.hpp"

namespace repro::core {

TwoLevelResult two_level_attack(
    const splitmfg::SplitChallenge& target,
    std::span<const splitmfg::SplitChallenge* const> training,
    const AttackConfig& config, double level1_threshold) {
  const double t0 = common::steady_seconds();
  std::mt19937_64 rng(config.seed * 40503 + 11);

  // Level 1.
  const TrainedModel l1 = AttackEngine::train(training, config);
  const ml::FlatForest f1 = ml::FlatForest::build(l1.classifier);

  // Generate the Level-2 training set from the Level-1 LoCs of the
  // *training* designs (never the target).
  const std::vector<int>& idx = l1.feat_idx;
  std::vector<std::string> names;
  for (int i : idx) {
    names.push_back(feature_names()[static_cast<std::size_t>(i)]);
  }
  ml::Dataset l2_data(std::move(names));

  // Every feature row uses the level-1 model's distance scale, as the
  // engine does: the level-2 model trains and scores on the same rows.
  for (const splitmfg::SplitChallenge* ch : training) {
    const AttackResult res = AttackEngine::test(l1, f1, *ch);
    const double scale = l1.scale_for(*ch);
    for (int v = 0; v < ch->num_vpins(); ++v) {
      const splitmfg::Vpin& vp = ch->vpin(v);
      // Positives: every admissible matching pair, once.
      for (splitmfg::VpinId m : vp.matches) {
        if (m <= vp.id) continue;
        const splitmfg::Vpin& w = ch->vpin(m);
        if (!l1.filter.admits(vp, w)) continue;
        l2_data.add_row(project(pair_features(vp, w, scale), idx), 1);
      }
      // One hard negative drawn from the Level-1 LoC.
      const VpinResult& r = res.per_vpin()[static_cast<std::size_t>(v)];
      std::vector<splitmfg::VpinId> loc_negatives;
      for (const Candidate& c : r.top) {
        if (c.p < level1_threshold) break;  // top is sorted by p desc
        if (!ch->is_match(v, c.id)) loc_negatives.push_back(c.id);
      }
      if (!loc_negatives.empty()) {
        std::uniform_int_distribution<std::size_t> pick(
            0, loc_negatives.size() - 1);
        const splitmfg::Vpin& w = ch->vpin(loc_negatives[pick(rng)]);
        l2_data.add_row(project(pair_features(vp, w, scale), idx), 0);
      }
    }
  }

  // Level 2 keeps level 1's configuration, filter and features; only its
  // trees differ. On the target it scores just the pairs level 1 admits
  // at the threshold (the gate); every other pair is pruned.
  TrainedModel l2;
  l2.config = l1.config;
  l2.feat_idx = l1.feat_idx;
  l2.filter = l1.filter;
  l2.classifier = ml::BaggingClassifier::train(
      l2_data,
      ensemble_options(config, l2_data.num_features(), config.seed + 2));
  std::vector<int> all(static_cast<std::size_t>(target.num_vpins()));
  std::iota(all.begin(), all.end(), 0);
  const Level1Gate gate{f1, level1_threshold};
  TwoLevelResult out{
      AttackEngine::test(l1, f1, target, all),
      AttackEngine::test(l2, ml::FlatForest::build(l2.classifier), target,
                         all, &gate),
      level1_threshold, l2_data.num_rows(), 0};
  out.total_seconds = common::steady_seconds() - t0;
  return out;
}

}  // namespace repro::core
