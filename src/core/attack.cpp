#include "core/attack.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <stdexcept>

#include "common/clock.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "core/candidate_index.hpp"

namespace repro::core {

namespace {

// Candidate probabilities come from the flattened ensemble in batches of
// up to kBatch rows: a split-8 target's ~370 candidates and a split-4
// target's ~800 go through one predict_batch call. The AVX2 frontier
// partitions a segment only while it holds kBlock rows, so a wide batch
// keeps it vectorized deep into ~15-level split-4 trees, where a
// 256-row one finishes row by row after ~5 levels. predict_batch gives
// the same output at every batch size.
constexpr int kBatch = 1024;

/// The p of a pair the level-1 gate pruned. A forest's p is never
/// negative (load_bagging keeps every leaf count >= 0), so no scored
/// pair is mistaken for a pruned one.
constexpr double kPruned = -1.0;

/// The scoring loop's buffers. thread_local, like select_top's and
/// frontier_avx2's: each pool worker or server handler thread reuses its
/// own warm buffers across the targets and the calls it scores.
struct ScoreScratch {
  std::vector<splitmfg::VpinId> cand;  ///< a target's candidates, ascending
  std::vector<double> p;               ///< their p, in the same order
  std::vector<double> rows;            ///< feature rows awaiting predict
  std::vector<std::uint32_t> pending;  ///< per row: partner (phase 1), cand index
  std::vector<double> probs = std::vector<double>(kBatch);  ///< predictions
  std::vector<std::uint32_t> passed;   ///< gated batch: rows the gate passed
  std::vector<double> passed_p = std::vector<double>(kBatch);  ///< their p
  std::vector<Candidate> scored;       ///< every candidate of the target
  std::vector<std::uint64_t> cursor;   ///< per store row: next entry to read
};

ScoreScratch& score_scratch() {
  static thread_local ScoreScratch s;
  return s;
}

/// Cuts [0, weight.size()) into `parts` contiguous ranges of near-equal
/// cost, where index i costs weight[i] + 1 (its candidates, plus the
/// collection every target pays): range w starts at the first index whose
/// prefix cost reaches w / parts of the total. A pure function of its
/// arguments, so the schedule is static.
std::vector<std::size_t> balanced_cuts(std::span<const std::uint32_t> weight,
                                       int parts) {
  std::uint64_t total = 0;
  for (std::uint32_t x : weight) total += x + 1;
  std::vector<std::size_t> cuts(static_cast<std::size_t>(parts) + 1,
                                weight.size());
  cuts[0] = 0;
  std::uint64_t prefix = 0;
  std::size_t i = 0;
  for (int w = 1; w < parts; ++w) {
    const std::uint64_t goal = total * static_cast<std::uint64_t>(w);
    while (i < weight.size() &&
           prefix * static_cast<std::uint64_t>(parts) < goal) {
      prefix += weight[i++] + 1;
    }
    cuts[static_cast<std::size_t>(w)] = i;
  }
  return cuts;
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
  // The engine lists candidates in ascending id.
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

double TrainedModel::scale_for(const splitmfg::SplitChallenge& ch) const {
  if (!config.normalize_distances) return 1.0;
  const auto denom = static_cast<double>(ch.die.width() + ch.die.height());
  return denom > 0 ? 1.0 / denom : 1.0;
}

PairFilter pair_filter_for(
    std::span<const splitmfg::SplitChallenge* const> training,
    const AttackConfig& config) {
  PairFilter filter;
  if (config.improved) {
    filter.neighborhood =
        neighborhood_radius(training, config.neighborhood_percentile);
  }
  filter.limit_top_direction = config.limit_top_direction;
  filter.top_metal_horizontal = config.top_metal_horizontal;
  return filter;
}

ml::BaggingOptions ensemble_options(const AttackConfig& config,
                                    int num_features, std::uint64_t seed) {
  return config.use_random_forest
             ? ml::BaggingOptions::random_forest(num_features, seed)
             : ml::BaggingOptions::reptree_bagging(seed);
}

TrainingPlan AttackEngine::plan_training(
    std::span<const splitmfg::SplitChallenge* const> training,
    const AttackConfig& config) {
  OBS_SPAN("train.features");
  TrainingPlan plan;
  TrainedModel& model = plan.model;
  model.config = config;
  model.feat_idx = feature_indices(config.features);
  model.filter = pair_filter_for(training, config);

  const double t0 = common::steady_seconds();
  SamplingOptions sopt;
  sopt.filter = model.filter;
  sopt.seed = config.seed * 1000003 + 17;
  sopt.normalize_distances = config.normalize_distances;
  ml::Dataset& data = plan.data;
  data = make_training_set(training, config.features, sopt);
  if (config.max_train_samples > 0 &&
      data.num_rows() > config.max_train_samples) {
    ml::Dataset sub(std::vector<std::string>(data.feature_names().begin(),
                                             data.feature_names().end()));
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
  model.num_train_samples = data.num_rows();
  OBS_COUNT("attack.train_samples", data.num_rows());
  model.sample_seconds = common::steady_seconds() - t0;

  plan.options = ensemble_options(config, data.num_features(), config.seed);
  if (config.max_trees > 0 && plan.options.num_trees > config.max_trees) {
    // Budget degradation rung 1: a prefix of the ensemble. Tree i still
    // draws its seed from derive_seed(seed, i), so the capped ensemble
    // is exactly the first max_trees trees of the full one.
    plan.options.num_trees = config.max_trees;
  }
  return plan;
}

TrainedModel AttackEngine::train(
    std::span<const splitmfg::SplitChallenge* const> training,
    const AttackConfig& config) {
  OBS_SPAN("train");
  common::obs::set_phase("train");
  TrainingPlan plan = plan_training(training, config);
  TrainedModel& model = plan.model;
  const double t0 = common::steady_seconds();
  {
    OBS_SPAN("train.fit");
    model.classifier = ml::BaggingClassifier::train(plan.data, plan.options);
  }
  model.fit_seconds = common::steady_seconds() - t0;
  model.train_seconds = model.sample_seconds + model.fit_seconds;
  return std::move(model);
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
  const int n = challenge.num_vpins();
  std::vector<int> targets(static_cast<std::size_t>(n));
  std::iota(targets.begin(), targets.end(), 0);
  if (model.config.max_test_vpins > 0 && n > model.config.max_test_vpins) {
    // Evaluate a random subset of targets against every candidate.
    // Per-target results stay exact; aggregate metrics become unbiased
    // estimates over the sampled targets.
    // Target sampling draws from its own named seed stream: ad-hoc
    // `seed * prime + c` derivations collide across nearby seeds and with
    // the per-tree streams of bagging (common::derive_seed), which this
    // helper is built on.
    std::mt19937_64 rng(
        common::derive_stream(model.config.seed, "attack.test.targets"));
    std::shuffle(targets.begin(), targets.end(), rng);
    targets.resize(static_cast<std::size_t>(model.config.max_test_vpins));
    std::sort(targets.begin(), targets.end());
  }
  return test(model, forest, challenge, targets, nullptr, cancel);
}

AttackResult AttackEngine::test(const TrainedModel& model,
                                const ml::FlatForest& forest,
                                const splitmfg::SplitChallenge& challenge,
                                std::span<const int> targets,
                                const Level1Gate* gate,
                                const common::CancelToken* cancel) {
  OBS_SPAN("test.score");
  common::obs::set_phase("score");
  const double t0 = common::steady_seconds();
  const int n = challenge.num_vpins();
  std::vector<std::uint8_t> tested(static_cast<std::size_t>(n), 0);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    if (targets[t] < 0 || targets[t] >= n ||
        (t > 0 && targets[t] <= targets[t - 1])) {
      throw std::invalid_argument(
          "AttackEngine::test: targets must be strictly ascending v-pin ids");
    }
    tested[static_cast<std::size_t>(targets[t])] = 1;
  }
  const std::size_t nt = targets.size();

  AttackResult result(challenge.design_name, challenge.split_layer,
                      model.config.hist_bins);
  auto& per_vpin = result.mutable_per_vpin();
  per_vpin.resize(static_cast<std::size_t>(n));
  // The 512-bin histograms are most of a result's bytes (2 KB a v-pin).
  // The pool allocates and zeroes them, one contiguous cut per thread,
  // as it later fills them: allocated by the calling thread alone, every
  // fold's result landed in one malloc arena while the memory the pool
  // threads had freed stayed in theirs (loo-train's rss_peak_mb +32%).
  common::parallel_for(
      static_cast<std::int64_t>(per_vpin.size()), [&](std::int64_t i) {
        VpinResult& r = per_vpin[static_cast<std::size_t>(i)];
        r.tested = tested[static_cast<std::size_t>(i)] != 0;
        r.has_match = !challenge.vpin(static_cast<int>(i)).matches.empty();
        r.hist.assign(static_cast<std::size_t>(model.config.hist_bins), 0);
      });

  const int bins = model.config.hist_bins;
  const auto bin_of = [bins](double p) { return detail::bin_index(p, bins); };
  const double scale = model.scale_for(challenge);

  // Candidate enumeration is output-sensitive by default: the spatial
  // index yields exactly the admitted candidates of each target, in the
  // same ascending-id order the brute-force scan produces, so the two
  // paths are digest-identical (tests/test_candidate_index.cpp).
  std::optional<CandidateIndex> index;
  if (model.config.use_candidate_index) index.emplace(challenge);
  const auto collect = [&](int self, std::vector<splitmfg::VpinId>& out) {
    out.clear();
    if (index) return index->collect(self, model.filter, out);
    for (int j = 0; j < n; ++j) {
      if (j != self && model.filter.admits(challenge.vpin(std::min(self, j)),
                                           challenge.vpin(std::max(self, j)))) {
        out.push_back(j);
      }
    }
    return std::size_t{0};
  };
  // Operand order is canonicalized by v-pin index before feature
  // extraction, so a pair's p is bit-identical whichever endpoint asks,
  // even for the features whose floating-point sums are not associative
  // (TotalArea).
  const int nfeat = static_cast<int>(model.feat_idx.size());
  const auto push_row = [&](std::vector<double>& rows, int a, int b) {
    const auto full = pair_features(challenge.vpin(std::min(a, b)),
                                    challenge.vpin(std::max(a, b)), scale);
    for (int k = 0; k < nfeat; ++k) {
      rows.push_back(full[static_cast<std::size_t>(model.feat_idx[k])]);
    }
  };
  // s.probs[q] = p of s.rows' row q, for the first k rows. Under a gate
  // the gate's forest scores every row first; the rows it passes are
  // packed to the front and scored by `forest` alone, the others get
  // kPruned.
  const auto predict = [&](ScoreScratch& s, int k) {
    if (!gate) {
      forest.predict_batch(s.rows.data(), k, nfeat, s.probs.data());
      return;
    }
    gate->forest.predict_batch(s.rows.data(), k, nfeat, s.probs.data());
    s.passed.clear();
    for (int q = 0; q < k; ++q) {
      double& p1 = s.probs[static_cast<std::size_t>(q)];
      if (p1 >= gate->threshold) {
        std::memmove(s.rows.data() + s.passed.size() * nfeat,
                     s.rows.data() + static_cast<std::size_t>(q) * nfeat,
                     sizeof(double) * static_cast<std::size_t>(nfeat));
        s.passed.push_back(static_cast<std::uint32_t>(q));
      } else {
        p1 = kPruned;
      }
    }
    const int m = static_cast<int>(s.passed.size());
    forest.predict_batch(s.rows.data(), m, nfeat, s.passed_p.data());
    for (int i = 0; i < m; ++i) {
      s.probs[s.passed[static_cast<std::size_t>(i)]] =
          s.passed_p[static_cast<std::size_t>(i)];
    }
  };

  // Who scores a pair. A call that owns the pool scores each admissible
  // unordered pair once: phase 1 predicts, for every target i, its
  // tested candidates j > i into row i of a pair store; phase 2 walks
  // each target's candidates and reads those p back. A call that runs
  // inline (inside a parallel region, or a server handler under
  // ScopedInline) has no pool to share a store with, so each target
  // predicts all of its own pairs in phase 2. Phase 2 sees the same
  // float and histogram bin for every pair either way, and the double
  // wherever p_true reads it, so the two are bit-identical.
  const bool pair_once = !common::in_parallel_region();
  const int parts = pair_once ? common::global_pool().num_threads() : 1;
  std::vector<std::size_t> scanned(nt, 0);
  std::vector<std::uint64_t> forest_rows(nt, 0);

  // Row i of the store holds p(i, j) for i's tested candidates j > i, in
  // ascending j, as the float the top-K keeps (kPruned if the gate pruned
  // the pair); rows are addressed by v-pin id (untested rows are empty).
  // The histogram bin and the p_true test read the double p. A float
  // stands for the doubles strictly between its neighbours, the adjacent
  // bit patterns, and bin_index is monotone, so the float gives the
  // double's bin unless its neighbours straddle a bin edge. Those pairs, and matched pairs (in either
  // direction, so the reader's own is_match always finds its entry),
  // keep the double in `exact` as well, sorted by (i, j).
  // first[t * parts + w] counts the entries of target t's row whose j
  // lies before phase-2 part w: part w's cursor into that row starts
  // there.
  struct ExactP {
    std::uint64_t key;
    double p;
  };
  const auto pair_key = [](int a, int b) {
    return static_cast<std::uint64_t>(std::min(a, b)) << 32 |
           static_cast<std::uint32_t>(std::max(a, b));
  };
  const auto on_bin_edge = [&](float f) {
    const auto u = std::bit_cast<std::uint32_t>(f);
    return std::isnan(f) || bin_of(std::bit_cast<float>(u - 1)) !=
                                bin_of(std::bit_cast<float>(u + 1));
  };
  std::vector<std::uint64_t> row_start;
  std::vector<float> store;
  std::vector<ExactP> exact;
  std::vector<std::uint32_t> first;
  std::vector<std::size_t> cut2{0, nt};
  if (pair_once) {
    OBS_SPAN("test.score.pairs");
    std::vector<std::uint32_t> num_cand(nt), num_upper(nt);
    common::parallel_for(
        static_cast<std::int64_t>(nt),
        [&](std::int64_t ti) {
          ScoreScratch& s = score_scratch();
          const int self = targets[static_cast<std::size_t>(ti)];
          scanned[static_cast<std::size_t>(ti)] = collect(self, s.cand);
          std::uint32_t upper = 0;
          for (splitmfg::VpinId j : s.cand) {
            upper += j > self && tested[static_cast<std::size_t>(j)];
          }
          num_cand[static_cast<std::size_t>(ti)] =
              static_cast<std::uint32_t>(s.cand.size());
          num_upper[static_cast<std::size_t>(ti)] = upper;
        },
        cancel);
    row_start.assign(static_cast<std::size_t>(n) + 1, 0);
    for (std::size_t ti = 0; ti < nt; ++ti) {
      row_start[static_cast<std::size_t>(targets[ti]) + 1] = num_upper[ti];
    }
    for (int i = 0; i < n; ++i) {
      row_start[static_cast<std::size_t>(i) + 1] +=
          row_start[static_cast<std::size_t>(i)];
    }
    store.resize(row_start.back());
    const std::vector<std::size_t> cut1 = balanced_cuts(num_upper, parts);
    cut2 = balanced_cuts(num_cand, parts);
    std::vector<int> part_lo(static_cast<std::size_t>(parts));
    for (int w = 0; w < parts; ++w) {
      const std::size_t c = cut2[static_cast<std::size_t>(w)];
      part_lo[static_cast<std::size_t>(w)] = c < nt ? targets[c] : n;
    }
    first.resize(nt * static_cast<std::size_t>(parts));

    std::vector<std::vector<ExactP>> exact_parts(
        static_cast<std::size_t>(parts));
    common::parallel_for(parts, [&](std::int64_t w) {
      ScoreScratch& s = score_scratch();
      std::vector<ExactP>& exact_w = exact_parts[static_cast<std::size_t>(w)];
      for (std::size_t ti = cut1[static_cast<std::size_t>(w)];
           ti < cut1[static_cast<std::size_t>(w) + 1]; ++ti) {
        if (cancel && cancel->cancelled()) return;
        const int self = targets[ti];
        collect(self, s.cand);
        float* row = store.data() + row_start[static_cast<std::size_t>(self)];
        std::uint32_t* row_first = first.data() + ti * parts;
        std::uint32_t entries = 0;
        const auto flush = [&] {
          const int k = static_cast<int>(s.pending.size());
          predict(s, k);
          for (int q = 0; q < k; ++q) {
            const double p = s.probs[static_cast<std::size_t>(q)];
            const int j = static_cast<int>(s.pending[static_cast<std::size_t>(q)]);
            const float f = static_cast<float>(p);
            *row++ = f;
            if (on_bin_edge(f) || challenge.is_match(self, j) ||
                challenge.is_match(j, self)) {
              exact_w.push_back({pair_key(self, j), p});
            }
          }
          s.rows.clear();
          s.pending.clear();
        };
        int part = 0;
        s.rows.clear();
        s.pending.clear();
        for (splitmfg::VpinId j : s.cand) {
          if (j <= self || !tested[static_cast<std::size_t>(j)]) continue;
          while (part < parts && j >= part_lo[static_cast<std::size_t>(part)]) {
            row_first[part++] = entries;
          }
          ++entries;
          push_row(s.rows, self, j);
          s.pending.push_back(static_cast<std::uint32_t>(j));
          if (static_cast<int>(s.pending.size()) == kBatch) flush();
        }
        while (part < parts) row_first[part++] = entries;
        if (!s.pending.empty()) flush();
        forest_rows[ti] = entries;
      }
    });
    // Parts cover ascending targets, so their lists concatenate sorted.
    for (const std::vector<ExactP>& part : exact_parts) {
      exact.insert(exact.end(), part.begin(), part.end());
    }
  }
  const auto exact_p = [&](int a, int b) {
    const std::uint64_t key = pair_key(a, b);
    const auto it = std::lower_bound(
        exact.begin(), exact.end(), key,
        [](const ExactP& e, std::uint64_t k) { return e.key < k; });
    assert(it != exact.end() && it->key == key);
    return it->p;
  };

  // Phase 2, per target: its candidates in ascending id, each p read
  // from the store or predicted here, then the histogram, p_true and the
  // top-K fed in that order, exactly as one serial pass would.
  const auto score_target = [&](ScoreScratch& s, std::size_t ti) {
    const int self = targets[ti];
    VpinResult& r = per_vpin[static_cast<std::size_t>(self)];
    const splitmfg::Vpin& vi = challenge.vpin(self);
    const std::size_t found = collect(self, s.cand);
    if (!pair_once) scanned[ti] = found;
    const std::size_t m = s.cand.size();
    s.p.resize(m);
    s.rows.clear();
    s.pending.clear();
    std::uint64_t own = pair_once ? row_start[static_cast<std::size_t>(self)]
                                  : 0;
    const auto flush = [&] {
      const int k = static_cast<int>(s.pending.size());
      predict(s, k);
      for (int q = 0; q < k; ++q) {
        s.p[s.pending[static_cast<std::size_t>(q)]] =
            s.probs[static_cast<std::size_t>(q)];
      }
      forest_rows[ti] += static_cast<std::uint64_t>(k);
      s.rows.clear();
      s.pending.clear();
    };
    for (std::size_t c = 0; c < m; ++c) {
      const splitmfg::VpinId j = s.cand[c];
      if (pair_once && tested[static_cast<std::size_t>(j)]) {
        const float f =
            store[j > self ? own++ : s.cursor[static_cast<std::size_t>(j)]++];
        s.p[c] = on_bin_edge(f) || challenge.is_match(self, j)
                     ? exact_p(self, j)
                     : f;
        continue;
      }
      push_row(s.rows, self, j);
      s.pending.push_back(static_cast<std::uint32_t>(c));
      if (static_cast<int>(s.pending.size()) == kBatch) flush();
    }
    if (!s.pending.empty()) flush();

    s.scored.clear();
    for (std::size_t c = 0; c < m; ++c) {
      const splitmfg::VpinId j = s.cand[c];
      const double p = s.p[c];
      if (p < 0) continue;  // kPruned
      const float d = detail::candidate_distance(vi, challenge.vpin(j));
      ++r.hist[static_cast<std::size_t>(bin_of(p))];
      s.scored.push_back({j, static_cast<float>(p), d});
      if (p > r.p_true && challenge.is_match(self, j)) {
        r.p_true = static_cast<float>(p);
        r.d_true = d;
      }
    }
    r.num_evaluated = static_cast<int>(s.scored.size());
    // The first top_k candidates in display order, sorted, at their
    // exact size.
    r.top = detail::select_top(s.scored, model.config.top_k);
    // Live progress for the cross-process telemetry heartbeat: a
    // commutative per-target bump, so the total stays thread-count
    // invariant while a running shard's count advances in real time
    // (the batch counters below only move once per test()).
    OBS_COUNT("attack.targets_done", 1);
  };

  // A cancelled phase 1 leaves rows unwritten, so phase 2 must not start.
  if (!(cancel && cancel->cancelled())) {
    OBS_SPAN("test.score.targets");
    common::parallel_for(parts, [&](std::int64_t w) {
      ScoreScratch& s = score_scratch();
      if (pair_once) {
        // Every entry of row j belongs to one target k > j, and targets
        // read their entries in ascending k, so one cursor per row,
        // started at this part's first entry, walks it in order.
        s.cursor.resize(static_cast<std::size_t>(n));
        for (std::size_t t = 0; t < nt; ++t) {
          const auto j = static_cast<std::size_t>(targets[t]);
          s.cursor[j] =
              row_start[j] + first[t * parts + static_cast<std::size_t>(w)];
        }
      }
      for (std::size_t ti = cut2[static_cast<std::size_t>(w)];
           ti < cut2[static_cast<std::size_t>(w) + 1]; ++ti) {
        if (cancel && cancel->cancelled()) return;
        score_target(s, ti);
      }
    });
  }
  result.interrupted = cancel && cancel->cancelled();

  // Metric updates happen once per test (not per pair), on the calling
  // thread, in index order — deterministic at any thread count and free
  // for the scoring loop.
  if (common::obs::enabled()) {
    std::uint64_t pairs = 0;
    for (const VpinResult& r : per_vpin) {
      pairs += static_cast<std::uint64_t>(r.num_evaluated);
    }
    std::uint64_t rows = 0;
    for (std::uint64_t k : forest_rows) rows += k;
    OBS_COUNT("attack.pairs_scored", pairs);
    // Rows sent through the forest: half of pairs_scored when every
    // target is tested and the call owns the pool, all of them inline.
    OBS_COUNT("attack.forest_rows", rows);
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
  result.test_seconds = common::steady_seconds() - t0;
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
