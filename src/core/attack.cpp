#include "core/attack.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <random>
#include <stdexcept>

#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "core/candidate_index.hpp"

namespace repro::core {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

namespace detail {

namespace {

constexpr std::uint32_t kSignBit = 0x80000000u;

/// A candidate as the radix sort moves it: its display_key, and its id
/// with the sign bit flipped, so that unsigned order on `id` is signed
/// order on the VpinId. p and d come back out of the key.
struct RankRecord {
  std::uint64_t key;
  std::uint32_t id;
};

/// Sorts `scored`'s records by (key, id), least significant 8-bit digit
/// first: the id's four digits, then the key's eight. Each pass is a
/// stable counting scatter from one buffer to the other. The id digits
/// run only when the ids are not already ascending: without them,
/// records of equal key keep their input order. One pass over the input
/// builds the records and counts every digit, and a digit on which all
/// records agree is skipped. Needs n >= 1; returns the buffer that holds
/// the result, valid until the thread's next call.
const RankRecord* radix_sort(std::span<const Candidate> scored) {
  constexpr int kKeyDigits = 8, kIdDigits = 4;
  // thread_local, like frontier_avx2's scratch: each pool worker reuses
  // its own warm buffers across the lists it ranks.
  static thread_local std::vector<RankRecord> buf_a, buf_b;
  const std::size_t n = scored.size();
  // The engine, two-level pruning and PA validation all list candidates
  // in ascending id.
  const bool by_id = !std::is_sorted(
      scored.begin(), scored.end(),
      [](const Candidate& a, const Candidate& b) { return a.id < b.id; });
  if (buf_a.size() < n) {
    buf_a.resize(n);
    buf_b.resize(n);
  }
  std::array<std::array<std::uint32_t, 256>, kKeyDigits + kIdDigits> count{};
  for (std::size_t i = 0; i < n; ++i) {
    const RankRecord r{display_key(scored[i]),
                       std::bit_cast<std::uint32_t>(scored[i].id) ^ kSignBit};
    buf_a[i] = r;
    for (int b = 0; b < kKeyDigits; ++b) ++count[b][(r.key >> (8 * b)) & 0xFF];
    if (by_id) {
      for (int b = 0; b < kIdDigits; ++b) {
        ++count[kKeyDigits + b][(r.id >> (8 * b)) & 0xFF];
      }
    }
  }
  RankRecord* src = buf_a.data();
  RankRecord* dst = buf_b.data();
  const auto pass = [&](std::array<std::uint32_t, 256>& next, auto digit) {
    if (next[digit(src[0])] == n) return;  // every record agrees
    std::uint32_t sum = 0;
    for (std::uint32_t& slot : next) {
      const std::uint32_t c = slot;
      slot = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < n; ++i) dst[next[digit(src[i])]++] = src[i];
    std::swap(src, dst);
  };
  if (by_id) {
    for (int b = 0; b < kIdDigits; ++b) {
      pass(count[kKeyDigits + b],
           [sh = 8 * b](const RankRecord& r) { return (r.id >> sh) & 0xFF; });
    }
  }
  for (int b = 0; b < kKeyDigits; ++b) {
    pass(count[b], [sh = 8 * b](const RankRecord& r) {
      return static_cast<std::uint32_t>(r.key >> sh) & 0xFF;
    });
  }
  return src;
}

}  // namespace

std::vector<Candidate> select_top(std::span<const Candidate> scored, int k) {
  const std::size_t keep =
      std::min(scored.size(), static_cast<std::size_t>(std::max(0, k)));
  if (keep == 0) return {};
  // All n are sorted, and the first `keep` kept.
  const RankRecord* sorted = radix_sort(scored);
  std::vector<Candidate> top(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    const RankRecord& r = sorted[i];
    top[i] = Candidate{
        std::bit_cast<splitmfg::VpinId>(r.id ^ kSignBit),
        std::bit_cast<float>(~static_cast<std::uint32_t>(r.key >> 32)),
        std::bit_cast<float>(static_cast<std::uint32_t>(r.key))};
  }
  return top;
}

}  // namespace detail

AttackConfig config_from_name(std::string_view name, std::uint64_t seed) {
  AttackConfig c;
  c.name = std::string(name);
  c.seed = seed;
  std::string_view rest = name;
  if (rest.rfind("RF:", 0) == 0) {
    c.use_random_forest = true;
    rest.remove_prefix(3);
  }
  if (!rest.empty() && rest.back() == 'Y') {
    c.limit_top_direction = true;
    rest.remove_suffix(1);
  }
  if (rest.rfind("ML-", 0) == 0) {
    c.improved = false;
    rest.remove_prefix(3);
  } else if (rest.rfind("Imp-", 0) == 0) {
    c.improved = true;
    rest.remove_prefix(4);
  } else {
    throw std::invalid_argument("unknown attack config: " + c.name);
  }
  if (rest == "7") {
    c.features = FeatureSet::kF7;
  } else if (rest == "9") {
    c.features = FeatureSet::kF9;
  } else if (rest == "11") {
    c.features = FeatureSet::kF11;
  } else {
    throw std::invalid_argument("unknown feature count in config: " + c.name);
  }
  return c;
}

std::optional<double> TrainedModel::predict_pair(const splitmfg::Vpin& a,
                                                 const splitmfg::Vpin& b,
                                                 double distance_scale) const {
  if (!filter.admits(a, b)) return std::nullopt;
  const auto full = pair_features(a, b, distance_scale);
  const std::vector<double> x = project(full, feat_idx);
  return classifier.predict_proba(x);
}

double TrainedModel::scale_for(const splitmfg::SplitChallenge& ch) const {
  if (!config.normalize_distances) return 1.0;
  const auto denom = static_cast<double>(ch.die.width() + ch.die.height());
  return denom > 0 ? 1.0 / denom : 1.0;
}

TrainedModel AttackEngine::train(
    std::span<const splitmfg::SplitChallenge* const> training,
    const AttackConfig& config) {
  OBS_SPAN("train");
  common::obs::set_phase("train");
  TrainedModel model;
  model.config = config;
  model.feat_idx = feature_indices(config.features);

  model.filter = PairFilter{};
  if (config.improved) {
    model.filter.neighborhood =
        neighborhood_radius(training, config.neighborhood_percentile);
  }
  model.filter.limit_top_direction = config.limit_top_direction;
  model.filter.top_metal_horizontal = config.top_metal_horizontal;

  const double t0 = now_seconds();
  ml::Dataset data;
  {
    OBS_SPAN("train.features");
    SamplingOptions sopt;
    sopt.filter = model.filter;
    sopt.seed = config.seed * 1000003 + 17;
    sopt.normalize_distances = config.normalize_distances;
    data = make_training_set(training, config.features, sopt);
    if (config.max_train_samples > 0 &&
        data.num_rows() > config.max_train_samples) {
      ml::Dataset sub(std::vector<std::string>(
          data.feature_names().begin(), data.feature_names().end()));
      std::vector<int> rows(static_cast<std::size_t>(data.num_rows()));
      for (int r = 0; r < data.num_rows(); ++r) {
        rows[static_cast<std::size_t>(r)] = r;
      }
      std::mt19937_64 rng(config.seed * 31337 + 5);
      std::shuffle(rows.begin(), rows.end(), rng);
      rows.resize(static_cast<std::size_t>(config.max_train_samples));
      for (int r : rows) sub.add_row(data.row(r), data.label(r));
      data = std::move(sub);
    }
  }
  model.num_train_samples = data.num_rows();
  OBS_COUNT("attack.train_samples", data.num_rows());
  const double t_sampled = now_seconds();
  model.sample_seconds = t_sampled - t0;

  {
    OBS_SPAN("train.fit");
    ml::BaggingOptions bopt =
        config.use_random_forest
            ? ml::BaggingOptions::random_forest(data.num_features(),
                                                config.seed)
            : ml::BaggingOptions::reptree_bagging(config.seed);
    if (config.max_trees > 0 && bopt.num_trees > config.max_trees) {
      // Budget degradation rung 1: a prefix of the ensemble. Tree i still
      // draws its seed from derive_seed(seed, i), so the capped ensemble
      // is exactly the first max_trees trees of the full one.
      bopt.num_trees = config.max_trees;
    }
    model.classifier = ml::BaggingClassifier::train(data, bopt);
  }
  model.fit_seconds = now_seconds() - t_sampled;
  model.train_seconds = model.sample_seconds + model.fit_seconds;
  return model;
}

AttackResult AttackEngine::test(const TrainedModel& model,
                                const splitmfg::SplitChallenge& challenge,
                                const common::CancelToken* cancel) {
  return test(model, ml::FlatForest::build(model.classifier), challenge,
              cancel);
}

AttackResult AttackEngine::test(const TrainedModel& model,
                                const ml::FlatForest& forest,
                                const splitmfg::SplitChallenge& challenge,
                                const common::CancelToken* cancel) {
  OBS_SPAN("test.score");
  common::obs::set_phase("score");
  const double t0 = now_seconds();
  AttackResult result(challenge.design_name, challenge.split_layer,
                      model.config.hist_bins);
  auto& per_vpin = result.mutable_per_vpin();
  per_vpin.resize(static_cast<std::size_t>(challenge.num_vpins()));
  for (std::size_t i = 0; i < per_vpin.size(); ++i) {
    per_vpin[i].has_match =
        !challenge.vpins[i].matches.empty();
    per_vpin[i].hist.assign(
        static_cast<std::size_t>(model.config.hist_bins), 0);
  }

  const int bins = model.config.hist_bins;
  const auto bin_of = [bins](double p) { return detail::bin_index(p, bins); };

  const int n = challenge.num_vpins();
  const double scale = model.scale_for(challenge);

  const bool sample_targets =
      model.config.max_test_vpins > 0 && n > model.config.max_test_vpins;
  if (sample_targets) {
    // Evaluate a random subset of targets against every candidate.
    // Per-target results stay exact; aggregate metrics become unbiased
    // estimates over the sampled targets.
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    // Target sampling draws from its own named seed stream: ad-hoc
    // `seed * prime + c` derivations collide across nearby seeds and with
    // the per-tree streams of bagging (common::derive_seed), which this
    // helper is built on.
    std::mt19937_64 rng(
        common::derive_stream(model.config.seed, "attack.test.targets"));
    std::shuffle(order.begin(), order.end(), rng);
    order.resize(static_cast<std::size_t>(model.config.max_test_vpins));
    for (auto& r : per_vpin) r.tested = false;
    for (int t : order) per_vpin[static_cast<std::size_t>(t)].tested = true;
  }
  std::vector<int> targets;
  targets.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (per_vpin[static_cast<std::size_t>(i)].tested) targets.push_back(i);
  }

  // Scoring is data-parallel per target: each worker evaluates one
  // target's candidate list into that target's VpinResult only (own
  // histogram, own top-K), so workers never share mutable state.
  // Candidate probabilities come from the flattened ensemble in batches
  // of up to kBatch rows: a split-8 target's ~370 candidates and a
  // split-4 target's ~800 go through one predict_batch call. The AVX2
  // frontier partitions a segment only while it holds kBlock rows, so a
  // wide batch keeps it vectorized deep into ~15-level split-4 trees,
  // where a 256-row one finishes row by row after ~5 levels.
  // predict_batch gives the same output at every batch size.
  //
  // Each admissible pair is scored once per *tested* endpoint. Operand
  // order is canonicalized by v-pin index before feature extraction, so
  // both evaluations produce bit-identical p even for the features whose
  // floating-point sums are not associative (TotalArea).
  const int nfeat = static_cast<int>(model.feat_idx.size());
  constexpr int kBatch = 1024;

  // Candidate enumeration is output-sensitive by default: the spatial
  // index yields exactly the admitted candidates of each target, in the
  // same ascending-id order the brute-force scan produces, so the two
  // paths are digest-identical (tests/test_candidate_index.cpp).
  std::optional<CandidateIndex> index;
  if (model.config.use_candidate_index) index.emplace(challenge);
  std::vector<std::size_t> scanned(targets.size(), 0);

  // One set of buffers per pool worker, reused across the targets that
  // worker scores. Workers index them by current_worker_id(), which is
  // stable and unique per pool thread; threads outside the pool report
  // 0, and each of them makes its own call, so there is no sharing.
  struct PendingCandidate {
    splitmfg::VpinId id;
    float d;
    bool matched;
  };
  struct Scratch {
    std::vector<double> rows;
    std::vector<PendingCandidate> pending;
    std::vector<double> probs;
    std::vector<splitmfg::VpinId> cand;
    std::vector<Candidate> scored;  ///< every candidate of the target
  };
  std::vector<Scratch> arenas(
      static_cast<std::size_t>(common::global_pool().num_threads()));

  common::parallel_for(
      static_cast<std::int64_t>(targets.size()), [&](std::int64_t ti) {
        const int self = targets[static_cast<std::size_t>(ti)];
        VpinResult& r = per_vpin[static_cast<std::size_t>(self)];
        const splitmfg::Vpin& vi = challenge.vpin(self);
        Scratch& s =
            arenas[static_cast<std::size_t>(common::current_worker_id())];
        s.rows.reserve(static_cast<std::size_t>(kBatch * nfeat));
        s.pending.reserve(kBatch);
        s.probs.resize(kBatch);
        s.scored.clear();

        const auto flush = [&] {
          const int m = static_cast<int>(s.pending.size());
          forest.predict_batch(s.rows.data(), m, nfeat, s.probs.data());
          for (int k = 0; k < m; ++k) {
            const PendingCandidate& c = s.pending[static_cast<std::size_t>(k)];
            const double p = s.probs[static_cast<std::size_t>(k)];
            ++r.num_evaluated;
            ++r.hist[static_cast<std::size_t>(bin_of(p))];
            s.scored.push_back({c.id, static_cast<float>(p), c.d});
            if (c.matched && p > r.p_true) {
              r.p_true = static_cast<float>(p);
              r.d_true = c.d;
            }
          }
          s.rows.clear();
          s.pending.clear();
        };

        const auto enqueue = [&](int j) {
          const splitmfg::Vpin& vj = challenge.vpin(j);
          const splitmfg::Vpin& a = self < j ? vi : vj;
          const splitmfg::Vpin& b = self < j ? vj : vi;
          const auto full = pair_features(a, b, scale);
          for (int k = 0; k < nfeat; ++k) {
            s.rows.push_back(
                full[static_cast<std::size_t>(model.feat_idx[k])]);
          }
          s.pending.push_back({static_cast<splitmfg::VpinId>(j),
                               detail::candidate_distance(vi, vj),
                               challenge.is_match(self, j)});
          if (static_cast<int>(s.pending.size()) == kBatch) flush();
        };

        if (index) {
          s.cand.clear();
          scanned[static_cast<std::size_t>(ti)] =
              index->collect(self, model.filter, s.cand);
          for (splitmfg::VpinId j : s.cand) enqueue(j);
        } else {
          for (int j = 0; j < n; ++j) {
            if (j == self) continue;
            const splitmfg::Vpin& vj = challenge.vpin(j);
            const splitmfg::Vpin& a = self < j ? vi : vj;
            const splitmfg::Vpin& b = self < j ? vj : vi;
            if (!model.filter.admits(a, b)) continue;
            enqueue(j);
          }
        }
        flush();

        // The first top_k candidates in display order, sorted, at their
        // exact size.
        r.top = detail::select_top(s.scored, model.config.top_k);
        // Live progress for the cross-process telemetry heartbeat: a
        // commutative per-target bump, so the total stays thread-count
        // invariant while a running shard's count advances in real time
        // (the batch counters below only move once per test()).
        OBS_COUNT("attack.targets_done", 1);
      },
      cancel);
  result.interrupted = cancel && cancel->cancelled();

  // Metric updates happen once per test (not per pair), on the calling
  // thread, in index order — deterministic at any thread count and free
  // for the scoring loop.
  if (common::obs::enabled()) {
    std::uint64_t pairs = 0;
    for (const VpinResult& r : per_vpin) {
      pairs += static_cast<std::uint64_t>(r.num_evaluated);
    }
    OBS_COUNT("attack.pairs_scored", pairs);
    OBS_COUNT("attack.targets_scored", targets.size());
    OBS_COUNT("attack.vpins_seen", n);
    if (index) {
      // Output-sensitivity of the index: candidates_yielded is what the
      // model scored, candidates_scanned what the grid/track buckets
      // visited to find them (the gap is the residual filter work).
      std::uint64_t visited = 0;
      for (std::size_t s : scanned) visited += s;
      OBS_COUNT("index.candidates_yielded", pairs);
      OBS_COUNT("index.candidates_scanned", visited);
    } else if (!targets.empty()) {
      // Brute-force path: everything enumerated beyond the admitted
      // candidates was rejected by PairFilter::admits.
      const std::uint64_t enumerated =
          static_cast<std::uint64_t>(targets.size()) *
          static_cast<std::uint64_t>(n > 0 ? n - 1 : 0);
      OBS_COUNT("attack.pairs_rejected", enumerated - pairs);
    }
    static constexpr double kPEdges[] = {0.1, 0.2, 0.3, 0.4, 0.5,
                                         0.6, 0.7, 0.8, 0.9};
    auto& p_true_hist = common::obs::histogram("attack.p_true", kPEdges);
    for (const VpinResult& r : per_vpin) {
      if (r.tested && r.has_match && r.p_true >= 0) {
        p_true_hist.observe(r.p_true);
      }
    }
  }

  result.finalize();
  result.train_seconds = model.train_seconds;
  result.test_seconds = now_seconds() - t0;
  return result;
}

AttackResult AttackEngine::run(
    const splitmfg::SplitChallenge& test_challenge,
    std::span<const splitmfg::SplitChallenge* const> training,
    const AttackConfig& config) {
  const TrainedModel model = train(training, config);
  return test(model, test_challenge);
}

AttackResult::AttackResult(std::string design, int split_layer, int hist_bins)
    : design_(std::move(design)),
      split_layer_(split_layer),
      hist_bins_(hist_bins) {}

int AttackResult::bin_of(double p) const {
  return detail::bin_index(p, hist_bins_);
}

void AttackResult::finalize() {
  // Aggregate candidate histogram and true-match bins over the tested
  // targets (all v-pins unless max_test_vpins sampling was active).
  std::vector<double> agg(static_cast<std::size_t>(hist_bins_), 0.0);
  std::vector<int> true_bins(static_cast<std::size_t>(hist_bins_), 0);
  num_with_match_ = 0;
  std::size_t num_tested = 0;
  for (const VpinResult& r : per_vpin_) {
    if (!r.tested) continue;
    ++num_tested;
    for (int b = 0; b < hist_bins_; ++b) {
      agg[static_cast<std::size_t>(b)] += r.hist[static_cast<std::size_t>(b)];
    }
    if (r.has_match) {
      ++num_with_match_;
      if (r.p_true >= 0) {
        ++true_bins[static_cast<std::size_t>(bin_of(r.p_true))];
      }
    }
  }
  const double n = std::max<std::size_t>(1, num_tested);
  agg_suffix_.assign(static_cast<std::size_t>(hist_bins_) + 1, 0.0);
  acc_suffix_.assign(static_cast<std::size_t>(hist_bins_) + 1, 0.0);
  const double nm = std::max(1, num_with_match_);
  for (int b = hist_bins_ - 1; b >= 0; --b) {
    agg_suffix_[static_cast<std::size_t>(b)] =
        agg_suffix_[static_cast<std::size_t>(b) + 1] +
        agg[static_cast<std::size_t>(b)] / n;
    acc_suffix_[static_cast<std::size_t>(b)] =
        acc_suffix_[static_cast<std::size_t>(b) + 1] +
        true_bins[static_cast<std::size_t>(b)] / nm;
  }
}

double AttackResult::accuracy_at_threshold(double t) const {
  return acc_suffix_[static_cast<std::size_t>(bin_of(t))];
}

double AttackResult::mean_loc_at_threshold(double t) const {
  return agg_suffix_[static_cast<std::size_t>(bin_of(t))];
}

std::optional<double> AttackResult::mean_loc_for_accuracy(
    double accuracy) const {
  // acc_suffix_ is non-increasing in the bin index; find the highest bin
  // (smallest LoC) still reaching the accuracy.
  for (int b = hist_bins_ - 1; b >= 0; --b) {
    if (acc_suffix_[static_cast<std::size_t>(b)] >= accuracy) {
      return agg_suffix_[static_cast<std::size_t>(b)];
    }
  }
  return std::nullopt;
}

double AttackResult::accuracy_for_mean_loc(double mean_loc) const {
  // agg_suffix_ is non-increasing in the bin index; find the smallest bin
  // (largest LoC) still within the budget.
  for (int b = 0; b < hist_bins_; ++b) {
    if (agg_suffix_[static_cast<std::size_t>(b)] <= mean_loc) {
      return acc_suffix_[static_cast<std::size_t>(b)];
    }
  }
  return 0.0;
}

std::vector<std::pair<double, double>> AttackResult::tradeoff_curve(
    const std::vector<double>& fractions) const {
  std::vector<std::pair<double, double>> out;
  const double n = std::max<std::size_t>(1, per_vpin_.size());
  for (double f : fractions) {
    out.emplace_back(f, accuracy_for_mean_loc(f * n));
  }
  return out;
}

}  // namespace repro::core
