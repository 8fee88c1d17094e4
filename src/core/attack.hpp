// The machine-learning attack engine (paper SSIII).
//
// A model configuration (ML-9 / Imp-9 / Imp-7 / Imp-11, optional Y suffix,
// optional RandomForest base classifier) is trained on the challenges of
// the N-1 training designs and tested on the held-out design. Testing
// evaluates every admissible unordered v-pin pair, records the soft-voting
// probability p(v, v') per pair, and aggregates per target v-pin:
//   * a histogram of p over its candidates (for LoC-size control, SSIII-F),
//   * the probability/distance of its true match (for accuracy),
//   * a bounded top-K candidate list (for the proximity attack, SSIII-H).
// AttackEngine::test is the one scorer: two-level pruning (SSIII-E) and
// PA validation (SSIII-H) score their pairs through it too.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.hpp"
#include "core/sampling.hpp"
#include "ml/bagging.hpp"

namespace repro::core {

struct AttackConfig {
  std::string name = "Imp-9";
  FeatureSet features = FeatureSet::kF9;
  /// Imp variants: restrict training samples and tested pairs to the
  /// neighbourhood (SSIII-D).
  bool improved = true;
  double neighborhood_percentile = 0.90;
  /// Y variants: zero distance in the top-metal routing direction
  /// (SSIII-G; only meaningful at the highest via layer).
  bool limit_top_direction = false;
  bool top_metal_horizontal = true;
  /// Swap the Bagging(REPTree) classifier for Weka-style RandomForest
  /// (the authors' earlier configuration [18], Table II).
  bool use_random_forest = false;

  /// Extension (not in the paper): scale all distance/wirelength features
  /// by 1/(die width + die height) so that models transfer across designs
  /// of different sizes (cf. the normalized axes of Fig. 4).
  bool normalize_distances = false;

  int hist_bins = 512;
  int top_k = 512;
  /// If > 0 and the design has more v-pins than this, testing evaluates a
  /// random subset of *target* v-pins against all candidates. Per-target
  /// LoC statistics stay exact; averages over targets are unbiased
  /// estimates of the full run. 0 = evaluate every v-pin (paper-exact).
  int max_test_vpins = 0;
  /// If > 0, the balanced training set is randomly subsampled to at most
  /// this many rows before training (tens of thousands of balanced samples
  /// saturate an 11-feature tree ensemble). 0 = use everything.
  int max_train_samples = 0;
  /// Enumerate test candidates through the spatial CandidateIndex
  /// (output-sensitive, the default) instead of the brute-force all-pairs
  /// scan. Results are bit-identical either way — the flag exists for the
  /// differential equivalence test and for benchmarking the index.
  bool use_candidate_index = true;
  /// If > 0, caps the ensemble at this many trees (the first rung of the
  /// budget degradation ladder, core/resilience.hpp). 0 = the preset's
  /// default count (10 for bagged REPTrees, 100 for RandomForest).
  int max_trees = 0;
  std::uint64_t seed = 1;
};

/// Parses configuration names used throughout the paper: "ML-9", "Imp-9",
/// "Imp-7", "Imp-11", with optional "Y" suffix ("Imp-11Y") and optional
/// "RF:" prefix for the RandomForest base classifier ("RF:Imp-7").
AttackConfig config_from_name(std::string_view name, std::uint64_t seed = 1);

/// One candidate of a target v-pin.
struct Candidate {
  splitmfg::VpinId id = splitmfg::kInvalidVpin;
  float p = 0;  ///< soft-voting probability
  float d = 0;  ///< ManhattanVpin distance
};

namespace detail {

/// Histogram bin of probability p under `bins` equal-width bins over
/// [0, 1]: floor(p * bins), with p <= 0 in the first bin and p >= 1 in the
/// last. NaN lands in bin 0 — a defensive guard (the ensemble averages
/// finite leaf probabilities, so it cannot produce NaN itself), because
/// casting NaN to int is undefined behaviour and would otherwise corrupt
/// an arbitrary bin. Shared by AttackEngine's scoring loop and
/// AttackResult's threshold queries.
inline int bin_index(double p, int bins) {
  if (std::isnan(p) || p <= 0.0) return 0;
  if (p >= 1.0) return bins - 1;
  return static_cast<int>(p * bins);
}

/// A candidate's distance: |dx| + |dy| between the two v-pins in raw
/// DBU, whatever the feature scaling (the proximity attack reasons about
/// physical distance).
inline float candidate_distance(const splitmfg::Vpin& a,
                                const splitmfg::Vpin& b) {
  return static_cast<float>(std::abs(static_cast<double>(a.pos.x - b.pos.x)) +
                            std::abs(static_cast<double>(a.pos.y - b.pos.y)));
}

/// The display order's (p desc, d asc) part as one integer:
/// ~bits(p) in the high word, bits(d) in the low word. For floats that
/// are finite with a clear sign bit, the bit pattern orders like the
/// value, so the key orders like the two fields. Scoring only produces
/// such values: d = |dx| + |dy|, and p averages leaf frequencies of
/// counts that load_bagging checks are finite, >= 0 and not -0.0.
inline std::uint64_t display_key(const Candidate& c) {
  return (std::uint64_t{~std::bit_cast<std::uint32_t>(c.p)} << 32) |
         std::bit_cast<std::uint32_t>(c.d);
}

/// Strict total "display order" on candidates: higher p first, ties by
/// nearer distance, then lower id. Every ranked candidate list (the
/// engine's top-K) is in this order, and the top-K set is its first K
/// members, so the set (not just its final sorting) is independent of
/// evaluation order — the property that makes parallel and serial
/// scoring bit-identical.
inline bool candidate_before(const Candidate& a, const Candidate& b) {
  const std::uint64_t ka = display_key(a), kb = display_key(b);
  if (ka != kb) return ka < kb;
  return a.id < b.id;
}

/// The first `k` candidates of `scored` in display order, sorted, in a
/// vector of exactly that size; k <= 0 keeps nothing. All of `scored`
/// goes through a stable LSD radix sort on (key, id), 8 bits per digit,
/// in buffers the calling thread reuses; `scored` is left as it was.
std::vector<Candidate> select_top(std::span<const Candidate> scored, int k);

}  // namespace detail

/// Per-target-v-pin test outcome.
struct VpinResult {
  bool tested = true;       ///< false if not among the call's targets
  bool has_match = false;   ///< ground truth exists
  float p_true = -1.0f;     ///< max p over evaluated true matches (-1: none)
  float d_true = 0;
  int num_evaluated = 0;
  std::vector<std::uint32_t> hist;  ///< candidate count per p bin
  std::vector<Candidate> top;       ///< up to top_k candidates, desc by p
};

/// A trained model, reusable across test designs (and by the two-level
/// pruning / PA validation procedures).
struct TrainedModel {
  AttackConfig config;
  std::vector<int> feat_idx;
  PairFilter filter;
  ml::BaggingClassifier classifier;
  int num_train_samples = 0;
  double train_seconds = 0;   ///< sample_seconds + fit_seconds
  double sample_seconds = 0;  ///< pair sampling / training-set assembly
  /// Time spent growing the trees: train()'s wall time for the fit. A
  /// LOO run grows every fold's trees in one region, interleaved, so a
  /// fold reports the sum of its own trees' times: what its fit took
  /// alone on one thread, and what sums over folds (runtime columns,
  /// `train_seconds_sum`) add up.
  double fit_seconds = 0;

  /// The feature scale to use for a given challenge under this model's
  /// configuration.
  double scale_for(const splitmfg::SplitChallenge& ch) const;
};

/// A configuration's pair filter: the neighbourhood radius over the
/// training designs' true matches (Imp variants) and the top-direction
/// limit (Y variants).
PairFilter pair_filter_for(
    std::span<const splitmfg::SplitChallenge* const> training,
    const AttackConfig& config);

/// A configuration's ensemble, seeded with `seed`: Weka-style
/// RandomForest over `num_features` features, or Bagging(REPTree).
ml::BaggingOptions ensemble_options(const AttackConfig& config,
                                    int num_features, std::uint64_t seed);

/// Two-level pruning's level-1 gate (SSIII-E). A pair whose level-1
/// probability is below `threshold` is pruned: the scoring forest never
/// sees it, and it enters neither the histogram, num_evaluated, p_true
/// nor the top-K.
struct Level1Gate {
  const ml::FlatForest& forest;  ///< the level-1 model's ensemble
  double threshold = 0.5;
};

/// AttackEngine::train up to the fit: the model's filter and feature
/// indices, the training set it will be fit to, and the ensemble
/// options. The LOO schedule (core/cross_validation) plans every fold
/// first, then grows the trees of all folds in one parallel region.
struct TrainingPlan {
  TrainedModel model;  ///< all but classifier, fit_seconds, train_seconds
  ml::Dataset data;
  ml::BaggingOptions options;
};

/// The aggregated result of testing one design.
class AttackResult {
 public:
  AttackResult(std::string design, int split_layer, int hist_bins);

  const std::string& design() const { return design_; }
  int split_layer() const { return split_layer_; }
  int num_vpins() const { return static_cast<int>(per_vpin_.size()); }
  const std::vector<VpinResult>& per_vpin() const { return per_vpin_; }
  std::vector<VpinResult>& mutable_per_vpin() { return per_vpin_; }

  double test_seconds = 0;
  double train_seconds = 0;
  /// True if scoring was cut short by a CancelToken: some targets were
  /// never evaluated, so the aggregates are partial. Interrupted results
  /// must not be checkpointed (which targets ran is timing-dependent).
  bool interrupted = false;

  /// Finalizes aggregate statistics; must be called after per_vpin_ is
  /// filled (AttackEngine does this).
  void finalize();

  /// Classification accuracy at probability threshold t: fraction of
  /// v-pins (with ground truth) whose true match is in the LoC.
  double accuracy_at_threshold(double t) const;
  /// Mean LoC size at threshold t.
  double mean_loc_at_threshold(double t) const;
  /// Mean LoC size needed to reach `accuracy` (smallest over thresholds);
  /// nullopt if the accuracy is unreachable (saturation, Table IV dashes).
  std::optional<double> mean_loc_for_accuracy(double accuracy) const;
  /// Accuracy when the mean LoC size is (at most) `mean_loc`.
  double accuracy_for_mean_loc(double mean_loc) const;
  /// (LoC fraction, accuracy) curve over the given fractions (Fig. 9).
  std::vector<std::pair<double, double>> tradeoff_curve(
      const std::vector<double>& fractions) const;
  /// Maximum reachable accuracy (threshold -> 0); < 1 when the
  /// neighbourhood excludes some true matches (the saturation plateau).
  double max_accuracy() const { return accuracy_at_threshold(0.0); }

  int hist_bins() const { return hist_bins_; }

 private:
  int bin_of(double p) const;

  std::string design_;
  int split_layer_ = 0;
  int hist_bins_ = 0;
  std::vector<VpinResult> per_vpin_;
  // Aggregates (built by finalize()).
  std::vector<double> agg_suffix_;       ///< mean LoC at bin threshold b
  std::vector<double> acc_suffix_;       ///< accuracy at bin threshold b
  int num_with_match_ = 0;
};

class AttackEngine {
 public:
  /// Trains a model on the given challenges (leave-one-out callers pass the
  /// N-1 training designs): plan_training, then the ensemble fit.
  static TrainedModel train(
      std::span<const splitmfg::SplitChallenge* const> training,
      const AttackConfig& config);

  /// The serial part of train: neighbourhood radius, pair sampling and
  /// the max_train_samples subsample (the "train.features" span).
  static TrainingPlan plan_training(
      std::span<const splitmfg::SplitChallenge* const> training,
      const AttackConfig& config);

  /// Tests a trained model on one challenge. With a cancel token the
  /// scoring loop is cooperative: cancellation stops it between targets
  /// and marks the result `interrupted` (partial, not checkpointable).
  ///
  /// A call that owns the pool (not inside a parallel region, not under
  /// common::ScopedInline) scores each admissible unordered pair once,
  /// in two phases over static cuts of the pool: every tested pair is
  /// predicted once into a per-call store, which each target then reads.
  /// A call that runs inline predicts every pair of its own targets.
  /// Results are bit-identical either way; only the attack.forest_rows
  /// count differs.
  static AttackResult test(const TrainedModel& model,
                           const splitmfg::SplitChallenge& challenge,
                           const common::CancelToken* cancel = nullptr);

  /// Same, scoring through a caller-provided flattened ensemble (which
  /// must be FlatForest::build(model.classifier)). The overload above
  /// rebuilds the forest per call — fine for batch runs, wasted work for
  /// a server answering repeat requests from a warm model cache.
  ///
  /// Both overloads test every v-pin, or max_test_vpins of them drawn
  /// from the "attack.test.targets" seed stream, through the one below.
  static AttackResult test(const TrainedModel& model,
                           const ml::FlatForest& forest,
                           const splitmfg::SplitChallenge& challenge,
                           const common::CancelToken* cancel = nullptr);

  /// Same, on explicit targets: strictly ascending v-pin ids of
  /// `challenge` (std::invalid_argument otherwise). Exactly they are
  /// tested; each is scored against all of its candidates. `forest`
  /// scores the pairs; with a gate, only those the gate passes.
  static AttackResult test(const TrainedModel& model,
                           const ml::FlatForest& forest,
                           const splitmfg::SplitChallenge& challenge,
                           std::span<const int> targets,
                           const Level1Gate* gate = nullptr,
                           const common::CancelToken* cancel = nullptr);

  /// Convenience: train + test.
  static AttackResult run(
      const splitmfg::SplitChallenge& test_challenge,
      std::span<const splitmfg::SplitChallenge* const> training,
      const AttackConfig& config);
};

}  // namespace repro::core
