#include "core/resilience.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "ml/serialize.hpp"

namespace repro::core {

using common::BinaryReader;
using common::BinaryWriter;
using common::Status;
using common::StatusOr;

namespace {

/// FNV-1a over the bytes of a BinaryWriter buffer (the serialized fields
/// are already fixed-width little-endian, so the hash is
/// platform-independent).
std::uint64_t fnv_over(const std::string& bytes) {
  return common::fnv1a64(std::string_view(bytes));
}

/// Serializes the result-affecting AttackConfig fields (everything but
/// the display name; timings do not live in the config). Shared by
/// attack_run_key and save_model so the two can never drift apart.
void put_config(BinaryWriter& w, const AttackConfig& c) {
  w.str(c.name);
  w.i32(static_cast<std::int32_t>(c.features));
  w.u8(c.improved ? 1 : 0);
  w.f64(c.neighborhood_percentile);
  w.u8(c.limit_top_direction ? 1 : 0);
  w.u8(c.top_metal_horizontal ? 1 : 0);
  w.u8(c.use_random_forest ? 1 : 0);
  w.u8(c.normalize_distances ? 1 : 0);
  w.i32(c.hist_bins);
  w.i32(c.top_k);
  w.i32(c.max_test_vpins);
  w.i32(c.max_train_samples);
  w.u8(c.use_candidate_index ? 1 : 0);
  w.i32(c.max_trees);
  w.u64(c.seed);
}

bool get_config(BinaryReader& r, AttackConfig& c) {
  std::int32_t features = 0;
  std::uint8_t improved = 0, limit_top = 0, top_horiz = 0, rf = 0, norm = 0,
               use_index = 0;
  r.str(c.name);
  r.i32(features);
  r.u8(improved);
  r.f64(c.neighborhood_percentile);
  r.u8(limit_top);
  r.u8(top_horiz);
  r.u8(rf);
  r.u8(norm);
  r.i32(c.hist_bins);
  r.i32(c.top_k);
  r.i32(c.max_test_vpins);
  r.i32(c.max_train_samples);
  r.u8(use_index);
  r.i32(c.max_trees);
  r.u64(c.seed);
  if (!r.ok()) return false;
  c.features = static_cast<FeatureSet>(features);
  c.improved = improved != 0;
  c.limit_top_direction = limit_top != 0;
  c.top_metal_horizontal = top_horiz != 0;
  c.use_random_forest = rf != 0;
  c.normalize_distances = norm != 0;
  c.use_candidate_index = use_index != 0;
  return true;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// kFnvPrime^i mod 2^64 for i < 256.
constexpr auto kPrimePowers = [] {
  std::array<std::uint64_t, 256> pw{};
  pw[0] = 1;
  for (std::size_t i = 1; i < pw.size(); ++i) pw[i] = pw[i - 1] * kFnvPrime;
  return pw;
}();

/// kFnvPrime^z mod 2^64: a table entry for the low 8 bits of z, square
/// and multiply for the rest, so O(log z) multiplies for any z.
std::uint64_t prime_power(std::uint64_t z) {
  std::uint64_t out = kPrimePowers[z & 0xff];
  std::uint64_t base = kPrimePowers[255] * kFnvPrime;  // kFnvPrime^256
  for (z >>= 8; z != 0; z >>= 1) {
    if (z & 1) out *= base;
    base *= base;
  }
  return out;
}

/// FNV-1a over 8-byte little-endian fields, at the cost of their
/// non-zero bytes. A zero byte leaves the xor step a no-op and only
/// multiplies the hash by the prime, and those multiplies commute with
/// each other, so zero bytes are counted and applied as one multiply by
/// prime^count before the next non-zero byte. A value then costs one
/// multiply per byte up to its highest non-zero byte, and a run of zero
/// fields costs one multiply in all.
class ResultHasher {
 public:
  void mix(std::uint64_t v) {
    if (v == 0) {
      zeros_ += 8;
      return;
    }
    if (zeros_ != 0) {
      h_ *= prime_power(zeros_);
      zeros_ = 0;
    }
    const int bytes = (71 - std::countl_zero(v)) / 8;  // up to the top one
    for (int b = 0; b < bytes; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= kFnvPrime;
    }
    zeros_ = static_cast<std::uint64_t>(8 - bytes);
  }

  std::uint64_t finish() const { return h_ * prime_power(zeros_); }

 private:
  std::uint64_t h_ = kFnvOffset;
  std::uint64_t zeros_ = 0;  ///< zero bytes mixed but not yet multiplied in
};

}  // namespace

std::uint64_t result_digest(const AttackResult& res) {
  ResultHasher h;
  h.mix(static_cast<std::uint64_t>(res.num_vpins()));
  for (const VpinResult& r : res.per_vpin()) {
    h.mix(static_cast<std::uint64_t>(r.num_evaluated));
    h.mix(std::bit_cast<std::uint32_t>(r.p_true));
    h.mix(std::bit_cast<std::uint32_t>(r.d_true));
    for (std::uint32_t c : r.hist) h.mix(c);
    for (const Candidate& c : r.top) {
      h.mix(static_cast<std::uint64_t>(c.id));
      h.mix(std::bit_cast<std::uint32_t>(c.p));
      h.mix(std::bit_cast<std::uint32_t>(c.d));
    }
  }
  return h.finish();
}

std::uint64_t combine_digests(std::span<const std::uint64_t> digests) {
  BinaryWriter w;
  for (std::uint64_t d : digests) w.u64(d);
  return fnv_over(w.buffer());
}

std::uint64_t attack_run_key(
    std::span<const splitmfg::SplitChallenge> challenges,
    const AttackConfig& config) {
  BinaryWriter w;
  put_config(w, config);
  w.u64(challenges.size());
  for (const splitmfg::SplitChallenge& ch : challenges) {
    w.str(ch.design_name);
    w.i32(ch.split_layer);
    w.i32(ch.num_vpins());
  }
  return fnv_over(w.buffer());
}

std::string save_result(const AttackResult& res) {
  BinaryWriter w;
  w.str(res.design());
  w.i32(res.split_layer());
  w.i32(res.hist_bins());
  w.f64(res.train_seconds);
  w.f64(res.test_seconds);
  w.u64(res.per_vpin().size());
  for (const VpinResult& r : res.per_vpin()) {
    w.u8(r.tested ? 1 : 0);
    w.u8(r.has_match ? 1 : 0);
    w.f32(r.p_true);
    w.f32(r.d_true);
    w.i32(r.num_evaluated);
    w.u64(r.hist.size());
    for (std::uint32_t c : r.hist) w.u32(c);
    w.u64(r.top.size());
    for (const Candidate& c : r.top) {
      w.i32(c.id);
      w.f32(c.p);
      w.f32(c.d);
    }
  }
  return common::seal_artifact(kResultMagic, kResultVersion, w.take());
}

StatusOr<AttackResult> load_result(const std::string& raw) {
  StatusOr<std::string> payload =
      common::open_artifact(raw, kResultMagic, kResultVersion);
  if (!payload.ok()) return payload.status();

  BinaryReader r(*payload);
  std::string design;
  std::int32_t split_layer = 0, hist_bins = 0;
  double train_seconds = 0, test_seconds = 0;
  std::uint64_t num_vpins = 0;
  r.str(design);
  r.i32(split_layer);
  r.i32(hist_bins);
  r.f64(train_seconds);
  r.f64(test_seconds);
  r.u64(num_vpins);
  if (!r.ok() || hist_bins <= 0 || num_vpins > r.remaining()) {
    return Status::DataLoss("result artifact: malformed header");
  }

  AttackResult res(std::move(design), split_layer, hist_bins);
  auto& per_vpin = res.mutable_per_vpin();
  per_vpin.resize(num_vpins);
  for (VpinResult& v : per_vpin) {
    std::uint8_t tested = 0, has_match = 0;
    std::uint64_t hist_size = 0, top_size = 0;
    r.u8(tested);
    r.u8(has_match);
    r.f32(v.p_true);
    r.f32(v.d_true);
    r.i32(v.num_evaluated);
    r.u64(hist_size);
    if (!r.ok() ||
        hist_size != static_cast<std::uint64_t>(hist_bins)) {
      return Status::DataLoss("result artifact: bad histogram size");
    }
    v.tested = tested != 0;
    v.has_match = has_match != 0;
    v.hist.resize(hist_size);
    for (std::uint32_t& c : v.hist) r.u32(c);
    r.u64(top_size);
    if (!r.ok() || top_size > r.remaining()) {
      return Status::DataLoss("result artifact: bad candidate count");
    }
    v.top.resize(top_size);
    for (Candidate& c : v.top) {
      r.i32(c.id);
      r.f32(c.p);
      r.f32(c.d);
    }
  }
  if (!r.ok()) return r.status();
  if (r.remaining() != 0) {
    return Status::DataLoss("result artifact: trailing bytes after payload");
  }
  res.train_seconds = train_seconds;
  res.test_seconds = test_seconds;
  // finalize() derives the aggregate curves from per_vpin alone, so the
  // reloaded result answers every threshold query exactly as the
  // original did.
  res.finalize();
  return res;
}

std::string save_model(const TrainedModel& model) {
  BinaryWriter w;
  put_config(w, model.config);
  w.u64(model.feat_idx.size());
  for (int f : model.feat_idx) w.i32(f);
  w.u8(model.filter.neighborhood.has_value() ? 1 : 0);
  w.f64(model.filter.neighborhood.value_or(0.0));
  w.u8(model.filter.limit_top_direction ? 1 : 0);
  w.u8(model.filter.top_metal_horizontal ? 1 : 0);
  w.i32(model.num_train_samples);
  w.f64(model.train_seconds);
  w.f64(model.sample_seconds);
  w.f64(model.fit_seconds);
  w.str(ml::save_bagging(model.classifier));
  return common::seal_artifact(kModelMagic, kModelVersion, w.take());
}

StatusOr<TrainedModel> load_model(const std::string& raw) {
  StatusOr<std::string> payload =
      common::open_artifact(raw, kModelMagic, kModelVersion);
  if (!payload.ok()) return payload.status();

  BinaryReader r(*payload);
  TrainedModel model;
  if (!get_config(r, model.config)) {
    return Status::DataLoss("model artifact: malformed config");
  }
  std::uint64_t num_feat = 0;
  r.u64(num_feat);
  if (!r.ok() || num_feat > r.remaining()) {
    return Status::DataLoss("model artifact: implausible feature count");
  }
  model.feat_idx.resize(num_feat);
  for (int& f : model.feat_idx) r.i32(f);
  std::uint8_t has_nbhd = 0, limit_top = 0, top_horiz = 0;
  double nbhd = 0;
  r.u8(has_nbhd);
  r.f64(nbhd);
  r.u8(limit_top);
  r.u8(top_horiz);
  r.i32(model.num_train_samples);
  r.f64(model.train_seconds);
  r.f64(model.sample_seconds);
  r.f64(model.fit_seconds);
  std::string classifier_raw;
  r.str(classifier_raw);
  if (!r.ok()) return r.status();
  if (r.remaining() != 0) {
    return Status::DataLoss("model artifact: trailing bytes after payload");
  }
  // The CRC vouches for the bytes, not for what scoring does with them:
  // every index, size and radius the engine uses unchecked must be sane.
  if (model.config.hist_bins < 1) {
    return Status::DataLoss("model artifact: no histogram bins");
  }
  if (model.config.top_k < 0) {
    return Status::DataLoss("model artifact: negative top-K");
  }
  for (const int f : model.feat_idx) {
    if (f < 0 || f >= kNumFeatures) {
      return Status::DataLoss("model artifact: feature index out of range");
    }
  }
  if (has_nbhd && !(std::isfinite(nbhd) && nbhd >= 0)) {
    return Status::DataLoss("model artifact: bad neighbourhood radius");
  }
  if (has_nbhd) model.filter.neighborhood = nbhd;
  model.filter.limit_top_direction = limit_top != 0;
  model.filter.top_metal_horizontal = top_horiz != 0;
  StatusOr<ml::BaggingClassifier> clf = ml::load_bagging(classifier_raw);
  if (!clf.ok()) return clf.status();
  const int row_width = static_cast<int>(model.feat_idx.size());
  for (int t = 0; t < clf->num_trees(); ++t) {
    const ml::DecisionTree& tree = clf->tree(t);
    for (int i = 0; i < tree.num_nodes(); ++i) {
      if (tree.node(i).feature >= row_width) {
        return Status::DataLoss("model artifact: split on a missing feature");
      }
    }
  }
  model.classifier = std::move(*clf);
  return model;
}

bool apply_scoring_degradation(AttackConfig& config,
                               common::BudgetPressure pressure,
                               std::int64_t fold) {
  constexpr int kDegradedTargets = 256;
  if (pressure != common::BudgetPressure::kHard) return false;
  if (config.max_test_vpins != 0 &&
      config.max_test_vpins <= kDegradedTargets) {
    return false;
  }
  config.max_test_vpins = kDegradedTargets;
  common::obs::record_degradation(
      "sample_targets",
      "budget hard: at most " + std::to_string(kDegradedTargets) +
          " targets scored per design",
      fold);
  return true;
}

bool apply_degradation(AttackConfig& config, common::BudgetPressure pressure,
                       std::int64_t fold) {
  using common::BudgetPressure;
  if (pressure == BudgetPressure::kNone ||
      pressure == BudgetPressure::kExceeded) {
    return false;
  }
  bool changed = false;
  constexpr int kDegradedTrees = 5;
  constexpr double kDegradedPercentile = 0.75;
  if (config.max_trees == 0 || config.max_trees > kDegradedTrees) {
    config.max_trees = kDegradedTrees;
    common::obs::record_degradation(
        "fewer_trees",
        "budget " + std::string(common::to_string(pressure)) +
            ": ensemble capped at " + std::to_string(kDegradedTrees) +
            " trees",
        fold);
    changed = true;
  }
  if (pressure >= BudgetPressure::kHard) {
    changed |= apply_scoring_degradation(config, pressure, fold);
    if (config.improved &&
        config.neighborhood_percentile > kDegradedPercentile) {
      config.neighborhood_percentile = kDegradedPercentile;
      common::obs::record_degradation(
          "shrink_radius",
          "budget hard: neighbourhood percentile shrunk to " +
              std::to_string(kDegradedPercentile),
          fold);
      changed = true;
    }
  }
  return changed;
}

}  // namespace repro::core
