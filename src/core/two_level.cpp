#include "core/two_level.hpp"

#include <algorithm>
#include <random>

#include "common/clock.hpp"
#include "core/candidate_index.hpp"

namespace repro::core {

TwoLevelResult two_level_attack(
    const splitmfg::SplitChallenge& target,
    std::span<const splitmfg::SplitChallenge* const> training,
    const AttackConfig& config, double level1_threshold) {
  const double t0 = common::steady_seconds();
  std::mt19937_64 rng(config.seed * 40503 + 11);

  // Level 1.
  const TrainedModel l1 = AttackEngine::train(training, config);

  // Generate the Level-2 training set from the Level-1 LoCs of the
  // *training* designs (never the target).
  const std::vector<int> idx = feature_indices(config.features);
  std::vector<std::string> names;
  for (int i : idx) {
    names.push_back(feature_names()[static_cast<std::size_t>(i)]);
  }
  ml::Dataset l2_data(std::move(names));

  // Every feature row uses the level-1 model's distance scale, as the
  // engine does: the level-2 model trains and scores on the same rows.
  for (const splitmfg::SplitChallenge* ch : training) {
    const AttackResult res = AttackEngine::test(l1, *ch);
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

  const ml::BaggingOptions bopt =
      config.use_random_forest
          ? ml::BaggingOptions::random_forest(l2_data.num_features(),
                                              config.seed + 2)
          : ml::BaggingOptions::reptree_bagging(config.seed + 2);
  const ml::BaggingClassifier l2 = ml::BaggingClassifier::train(l2_data, bopt);

  // Test the target with both levels in one pass.
  TwoLevelResult out{
      AttackResult(target.design_name, target.split_layer, config.hist_bins),
      AttackResult(target.design_name, target.split_layer, config.hist_bins),
      level1_threshold, l2_data.num_rows(), 0};

  auto init_result = [&](AttackResult& r) {
    auto& pv = r.mutable_per_vpin();
    pv.resize(static_cast<std::size_t>(target.num_vpins()));
    for (std::size_t i = 0; i < pv.size(); ++i) {
      pv[i].has_match = !target.vpins[i].matches.empty();
      pv[i].hist.assign(static_cast<std::size_t>(config.hist_bins), 0);
    }
  };
  init_result(out.level1);
  init_result(out.pruned);

  const auto bin_of = [&](double p) {
    return detail::bin_index(p, config.hist_bins);
  };
  const auto record = [&](AttackResult& res, int self, int other, double p,
                          float d, bool matched) {
    VpinResult& r = res.mutable_per_vpin()[static_cast<std::size_t>(self)];
    ++r.num_evaluated;
    ++r.hist[static_cast<std::size_t>(bin_of(p))];
    r.top.push_back({static_cast<splitmfg::VpinId>(other),
                     static_cast<float>(p), d});  // selected later
    if (matched && p > r.p_true) {
      r.p_true = static_cast<float>(p);
      r.d_true = d;
    }
  };

  // Candidate pairs come from the spatial index (each unordered admitted
  // pair once, via the ascending-id contract: only j > i is kept).
  const int n = target.num_vpins();
  const double scale = l1.scale_for(target);
  const CandidateIndex index(target);
  std::vector<double> x(idx.size());
  std::vector<splitmfg::VpinId> cand;
  for (int i = 0; i < n; ++i) {
    const splitmfg::Vpin& vi = target.vpin(i);
    cand.clear();
    index.collect(i, l1.filter, cand);
    for (splitmfg::VpinId j : cand) {
      if (j <= i) continue;  // unordered pairs once
      const splitmfg::Vpin& vj = target.vpin(j);
      const auto full = pair_features(vi, vj, scale);
      for (std::size_t k = 0; k < idx.size(); ++k) {
        x[k] = full[static_cast<std::size_t>(idx[k])];
      }
      const double p1 = l1.classifier.predict_proba(x);
      const float d = detail::candidate_distance(vi, vj);
      const bool matched = target.is_match(i, j);
      record(out.level1, i, j, p1, d, matched);
      record(out.level1, j, i, p1, d, matched);
      if (p1 >= level1_threshold) {
        const double p2 = l2.predict_proba(x);
        record(out.pruned, i, j, p2, d, matched);
        record(out.pruned, j, i, p2, d, matched);
      }
    }
  }

  for (AttackResult* res : {&out.level1, &out.pruned}) {
    for (VpinResult& r : res->mutable_per_vpin()) {
      r.top = detail::select_top(r.top, config.top_k);
    }
    res->finalize();
  }

  out.total_seconds = common::steady_seconds() - t0;
  return out;
}

}  // namespace repro::core
