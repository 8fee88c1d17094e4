#include "core/proximity.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "common/clock.hpp"

namespace repro::core {

namespace {

/// The PA-LoC size for a fraction of a design's n v-pins: at least one.
int pa_loc_size(double fraction, int n) {
  return std::max(1, static_cast<int>(std::lround(fraction * n)));
}

/// Picks the PA answer from the first `k` entries of a candidate list
/// sorted by descending p: minimum distance, ties by higher p, then lowest
/// id. Returns kInvalidVpin on an empty list.
splitmfg::VpinId pa_pick(const std::vector<Candidate>& top, int k) {
  splitmfg::VpinId best = splitmfg::kInvalidVpin;
  float bd = 0, bp = 0;
  const int limit = std::min<int>(k, static_cast<int>(top.size()));
  for (int i = 0; i < limit; ++i) {
    const Candidate& c = top[static_cast<std::size_t>(i)];
    const bool better =
        best == splitmfg::kInvalidVpin || c.d < bd ||
        (c.d == bd && (c.p > bp || (c.p == bp && c.id < best)));
    if (better) {
      best = c.id;
      bd = c.d;
      bp = c.p;
    }
  }
  return best;
}

/// Same, with the PA-LoC defined by a probability threshold.
splitmfg::VpinId pa_pick_threshold(const std::vector<Candidate>& top,
                                   double threshold) {
  int k = 0;
  while (k < static_cast<int>(top.size()) &&
         top[static_cast<std::size_t>(k)].p >= threshold) {
    ++k;
  }
  return pa_pick(top, k);
}

}  // namespace

double pa_success_rate(const AttackResult& result,
                       const splitmfg::SplitChallenge& challenge,
                       double fraction) {
  const int n = challenge.num_vpins();
  const int k = pa_loc_size(fraction, n);
  int total = 0, good = 0;
  for (int v = 0; v < n; ++v) {
    const VpinResult& r = result.per_vpin()[static_cast<std::size_t>(v)];
    if (!r.tested || !r.has_match) continue;
    ++total;
    const splitmfg::VpinId pick = pa_pick(r.top, k);
    if (pick != splitmfg::kInvalidVpin && challenge.is_match(v, pick)) {
      ++good;
    }
  }
  return total > 0 ? static_cast<double>(good) / total : 0.0;
}

double pa_success_rate_at_threshold(const AttackResult& result,
                                    const splitmfg::SplitChallenge& challenge,
                                    double threshold) {
  const int n = challenge.num_vpins();
  int total = 0, good = 0;
  for (int v = 0; v < n; ++v) {
    const VpinResult& r = result.per_vpin()[static_cast<std::size_t>(v)];
    if (!r.tested || !r.has_match) continue;
    ++total;
    const splitmfg::VpinId pick = pa_pick_threshold(r.top, threshold);
    if (pick != splitmfg::kInvalidVpin && challenge.is_match(v, pick)) {
      ++good;
    }
  }
  return total > 0 ? static_cast<double>(good) / total : 0.0;
}

PAOutcome validated_proximity_attack(
    const AttackResult& target_result, const splitmfg::SplitChallenge& target,
    std::span<const splitmfg::SplitChallenge* const> training,
    const AttackConfig& config, const PAOptions& opt) {
  PAOutcome out;
  const double t0 = common::steady_seconds();
  std::mt19937_64 rng(opt.seed * 31 + config.seed);

  // 80/20 v-pin masks per training challenge (concatenated, as
  // SamplingOptions expects).
  std::vector<std::uint8_t> mask;
  std::vector<std::size_t> offsets;
  for (const splitmfg::SplitChallenge* ch : training) {
    offsets.push_back(mask.size());
    std::bernoulli_distribution select(opt.train_fraction);
    for (int v = 0; v < ch->num_vpins(); ++v) mask.push_back(select(rng));
  }

  // Validation model: same configuration, trained on the selected 80%.
  // Its top-K is the largest PA-LoC any fraction reads on any training
  // design, so every pa_pick below reads a prefix of a full ranking.
  TrainedModel vmodel;
  vmodel.config = config;
  vmodel.feat_idx = feature_indices(config.features);
  vmodel.filter = pair_filter_for(training, config);
  const double max_fraction =
      *std::max_element(opt.fractions.begin(), opt.fractions.end());
  vmodel.config.top_k = 1;
  for (const splitmfg::SplitChallenge* ch : training) {
    vmodel.config.top_k = std::max(
        vmodel.config.top_k, pa_loc_size(max_fraction, ch->num_vpins()));
  }
  {
    SamplingOptions sopt;
    sopt.filter = vmodel.filter;
    sopt.seed = config.seed * 2000003 + 29;
    sopt.vpin_mask = mask;
    sopt.normalize_distances = config.normalize_distances;
    const ml::Dataset data =
        make_training_set(training, config.features, sopt);
    vmodel.classifier = ml::BaggingClassifier::train(
        data, ensemble_options(config, data.num_features(), config.seed + 1));
  }
  const ml::FlatForest forest = ml::FlatForest::build(vmodel.classifier);

  // Run PA on the held-out 20% of each training challenge for every
  // candidate fraction.
  std::vector<double> success(opt.fractions.size(), 0.0);
  int num_benchmarks = 0;
  for (std::size_t ci = 0; ci < training.size(); ++ci) {
    const splitmfg::SplitChallenge& ch = *training[ci];
    const std::size_t off = offsets[ci];
    const int n = ch.num_vpins();
    // Held-out v-pins eligible for validation PA, capped for scalability.
    std::vector<int> held_out;
    for (int v = 0; v < n; ++v) {
      if (mask[off + static_cast<std::size_t>(v)]) continue;  // training side
      if (ch.vpin(v).matches.empty()) continue;
      held_out.push_back(v);
    }
    if (held_out.empty()) continue;
    if (opt.max_validation_vpins > 0 &&
        static_cast<int>(held_out.size()) > opt.max_validation_vpins) {
      std::shuffle(held_out.begin(), held_out.end(), rng);
      held_out.resize(static_cast<std::size_t>(opt.max_validation_vpins));
      std::sort(held_out.begin(), held_out.end());
    }
    const AttackResult res = AttackEngine::test(vmodel, forest, ch, held_out);
    std::vector<int> good(opt.fractions.size(), 0);
    for (int v : held_out) {
      const std::vector<Candidate>& top =
          res.per_vpin()[static_cast<std::size_t>(v)].top;
      for (std::size_t fi = 0; fi < opt.fractions.size(); ++fi) {
        const splitmfg::VpinId pick =
            pa_pick(top, pa_loc_size(opt.fractions[fi], n));
        if (pick != splitmfg::kInvalidVpin && ch.is_match(v, pick)) {
          ++good[fi];
        }
      }
    }
    ++num_benchmarks;
    const auto total = static_cast<double>(held_out.size());
    for (std::size_t fi = 0; fi < opt.fractions.size(); ++fi) {
      success[fi] += good[fi] / total;
    }
  }

  std::size_t best_fi = 0;
  for (std::size_t fi = 0; fi < opt.fractions.size(); ++fi) {
    const double s = num_benchmarks ? success[fi] / num_benchmarks : 0.0;
    out.validation_curve.emplace_back(opt.fractions[fi], s);
    if (s > out.validation_curve[best_fi].second) best_fi = fi;
  }
  out.best_fraction = opt.fractions[best_fi];
  out.validation_seconds = common::steady_seconds() - t0;
  out.success_rate = pa_success_rate(target_result, target, out.best_fraction);
  return out;
}

}  // namespace repro::core
