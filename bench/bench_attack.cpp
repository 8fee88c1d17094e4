// End-to-end attack performance harness (not a paper table).
//
// Runs the leave-one-out attack over the generated suite at a sweep of
// thread counts, checks that every run is bit-identical (the parallel
// layer's contract), and emits BENCH_attack.json so the perf trajectory
// of the repo is machine-readable PR over PR:
//
//   {
//     "bench": "attack", "suite_scale": ..., "threads_available": ...,
//     "runs": [{"threads": 1, "train_seconds_sum": ...,
//               "score_seconds_sum": ..., "train_seconds_wall": ...,
//               "score_seconds_wall": ..., "total_seconds": ...,
//               "speedup_vs_1t": ..., "digest": "...",
//               "pairs_scored": ..., "trees_grown": ...}, ...],
//     "outputs_identical": true, "metrics_identical": true,
//     "amdahl": {"usable_cpus": ..., "serial_fraction_estimates": [...],
//                "fit_tree_span_spread_1t": ..., ...},
//     "simd_kernel_speedup": ..., "simd_kernels": {...},
//     "obs_overhead": {...}, "metrics": {...}
//   }
//
// threads_available reports usable_cpus() — the scheduler affinity mask,
// not hardware_concurrency() — and every sweep point above it carries
// "oversubscribed": true: those points timeshare cores, so their
// speedup_vs_1t measures scheduling overhead, not scaling. The "amdahl"
// block estimates the serial fraction from each non-oversubscribed
// multi-thread point via s = (n*Tn/T1 - 1)/(n - 1).
//
// total_seconds is the wall clock of the whole LOO run and the basis of
// speedup_vs_1t. The *_seconds_sum fields add up per-fold phase times;
// folds overlap when they run concurrently, so the sums can exceed the
// wall clock (and *grow* with thread count) — they measure aggregate
// work, not elapsed time. The *_seconds_wall fields are the elapsed
// wall clock actually covered by each phase: the union of that phase's
// span intervals across all workers, which is what an Amdahl breakdown
// needs (train_wall + score_wall <= total, and each shrinks as threads
// are added).
//
// The sweep runs with observability enabled: each run's span set is
// captured (the last run's trace is written next to the JSON, wall-clock
// timestamps, loadable in chrome://tracing), the metric registry is
// checked for identity across thread counts, and one extra run with
// observability disabled quantifies the instrumentation overhead
// ("obs_overhead" block).
//
// Scale with REPRO_SCALE or `--suite-scale N` (the flag overrides the
// env var, handy for scaled sweeps from one shell); output paths via the
// positional args (default BENCH_attack.json / BENCH_attack_trace.json
// in the working directory).
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "common/obs.hpp"
#include "common/telemetry.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/candidate_index.hpp"
#include "core/sampling.hpp"
#include "ml/bagging.hpp"

namespace {

using namespace repro;

/// FNV-1a over the complete observable result: rankings, histograms,
/// per-target stats. Any cross-thread-count divergence flips the digest.
std::uint64_t digest_results(const std::vector<core::AttackResult>& results) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_float = [&](float f) {
    std::uint32_t bits;
    static_assert(sizeof bits == sizeof f);
    __builtin_memcpy(&bits, &f, sizeof bits);
    mix(bits);
  };
  for (const core::AttackResult& res : results) {
    mix(static_cast<std::uint64_t>(res.num_vpins()));
    for (const core::VpinResult& r : res.per_vpin()) {
      mix(static_cast<std::uint64_t>(r.num_evaluated));
      mix_float(r.p_true);
      mix_float(r.d_true);
      for (std::uint32_t c : r.hist) mix(c);
      for (const core::Candidate& c : r.top) {
        mix(c.id);
        mix_float(c.p);
        mix_float(c.d);
      }
    }
  }
  return h;
}

/// Elapsed wall clock covered by spans named `name`: the union of their
/// [begin_s, end_s] intervals, so concurrently-running folds are not
/// double-counted the way the per-fold sums are.
double span_wall_seconds(const std::vector<common::obs::SpanEvent>& spans,
                         std::string_view name) {
  std::vector<std::pair<double, double>> iv;
  for (const common::obs::SpanEvent& s : spans) {
    if (s.name == name && s.end_s > s.begin_s) {
      iv.emplace_back(s.begin_s, s.end_s);
    }
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0;
  double cur_begin = 0, cur_end = -1;
  for (const auto& [b, e] : iv) {
    if (b > cur_end) {
      if (cur_end > cur_begin) covered += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_begin) covered += cur_end - cur_begin;
  return covered;
}

struct Run {
  int threads = 1;
  bool oversubscribed = false;  ///< threads > usable_cpus(): timesharing
  double train_seconds = 0;
  double score_seconds = 0;
  double train_wall = 0;  ///< interval union of "train" spans
  double score_wall = 0;  ///< interval union of "test.score" spans
  double total_seconds = 0;
  std::uint64_t digest = 0;
  std::uint64_t pairs_scored = 0;
  std::uint64_t trees_grown = 0;
  std::string metrics_json;  ///< registry snapshot; timing-free
};

/// (max - min) / mean duration across same-named spans: the per-chunk
/// spread the Amdahl breakdown needs. 0 when fewer than two spans.
double span_spread(const std::vector<common::obs::SpanEvent>& spans,
                   std::string_view name) {
  double lo = std::numeric_limits<double>::infinity(), hi = 0, sum = 0;
  int count = 0;
  for (const common::obs::SpanEvent& s : spans) {
    if (s.name != name || s.end_s <= s.begin_s) continue;
    const double d = s.end_s - s.begin_s;
    lo = std::min(lo, d);
    hi = std::max(hi, d);
    sum += d;
    ++count;
  }
  if (count < 2 || sum <= 0) return 0.0;
  return (hi - lo) / (sum / count);
}

/// Amdahl serial-fraction estimate from T(n) = T1*(s + (1-s)/n):
/// s = (n*Tn/T1 - 1)/(n - 1), clamped to [0, 1]. Meaningless when the
/// n-thread point was oversubscribed (Tn then measures timesharing).
double serial_fraction(double t1, double tn, int n) {
  if (t1 <= 0 || tn <= 0 || n < 2) return 1.0;
  const double s = (n * tn / t1 - 1.0) / (n - 1.0);
  return std::clamp(s, 0.0, 1.0);
}

// --- FlatForest SIMD kernel micro-bench ------------------------------------

const char* kernel_name(ml::FlatForest::BatchKernel k) {
  switch (k) {
    case ml::FlatForest::BatchKernel::kScalar: return "scalar";
    case ml::FlatForest::BatchKernel::kAvx2: return "avx2";
  }
  return "unknown";
}

struct SimdKernelRow {
  const char* kernel = "";
  double double_ns_per_row = 0;
  bool outputs_identical = false;  ///< bitwise vs the scalar reference
};

struct SimdKernelBench {
  int batch = 0;
  int num_features = 0;
  int trees = 0;
  long nodes = 0;
  std::vector<SimdKernelRow> rows;
  double speedup = 0;  ///< scalar / dispatched level, double rows
};

/// Times predict_batch_kernel per kernel on one scoring-chunk-sized batch
/// (min over reps) and checks every kernel against the scalar reference
/// bit for bit. The headline
/// simd_kernel_speedup is scalar vs what simd::active() dispatches to.
SimdKernelBench bench_simd_kernels() {
  using BK = ml::FlatForest::BatchKernel;
  SimdKernelBench bench;
  bench.batch = 1024;
  bench.num_features = 11;

  // Same shape as the attack's ensembles: 10 REPTrees over 11 features.
  ml::Dataset data([] {
    std::vector<std::string> names;
    for (int f = 0; f < 11; ++f) names.push_back("f" + std::to_string(f));
    return names;
  }());
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> row(11);
  for (int r = 0; r < 6000; ++r) {
    for (double& x : row) x = u(rng);
    data.add_row(row, (row[0] + row[1] * row[2] > 0.8 + 0.1 * u(rng)) ? 1 : 0);
  }
  const ml::FlatForest forest = ml::FlatForest::build(
      ml::BaggingClassifier::train(data, ml::BaggingOptions::reptree_bagging()));
  bench.trees = forest.num_trees();
  bench.nodes = forest.num_nodes();

  const int n = bench.batch;
  std::vector<double> drows(static_cast<std::size_t>(n) * 11);
  for (double& x : drows) x = u(rng);
  std::vector<double> ref(static_cast<std::size_t>(n));
  forest.predict_batch_kernel(BK::kScalar, drows.data(), n, 11, ref.data());

  // Min over many short windows rather than few long ones: interference
  // on shared machines arrives in bursts, and a sub-millisecond window
  // has a far better chance of landing entirely between them. The min is
  // the estimate of the quiet-machine rate either way.
  constexpr int kReps = 25;
  constexpr int kIters = 4;
  const auto time_kernel = [&](BK k) {
    std::vector<double> out(static_cast<std::size_t>(n));
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      bench::WallTimer timer;
      for (int it = 0; it < kIters; ++it) {
        forest.predict_batch_kernel(k, drows.data(), n, 11, out.data());
      }
      best = std::min(best, timer.elapsed_seconds());
    }
    return std::pair(best / kIters / n * 1e9, std::move(out));
  };

  double scalar_ns = 0, active_ns = 0;
  const BK active_kernel =
      ml::FlatForest::kernel_for(common::simd::active());
  for (const BK k : {BK::kScalar, BK::kAvx2}) {
    SimdKernelRow r;
    r.kernel = kernel_name(k);
    auto [dns, dout] = time_kernel(k);
    r.double_ns_per_row = dns;
    r.outputs_identical =
        std::memcmp(ref.data(), dout.data(), ref.size() * sizeof(double)) == 0;
    if (k == BK::kScalar) scalar_ns = dns;
    if (k == active_kernel) active_ns = dns;
    bench.rows.push_back(r);
  }
  bench.speedup = active_ns > 0 ? scalar_ns / active_ns : 1.0;
  return bench;
}

struct IndexBench {
  int split_layer = 0;
  double radius = 0;            ///< Imp-style neighborhood cut (DBU)
  std::uint64_t candidates = 0; ///< admitted (v, w) pairs, both strategies
  double brute_seconds = 0;
  double indexed_seconds = 0;   ///< includes per-challenge index build
  double speedup = 0;
  bool counts_identical = false;
};

/// Times candidate enumeration over every challenge of one split layer:
/// the brute-force all-pairs admits() sweep vs CandidateIndex build +
/// collect(). Both must admit the same number of pairs — the differential
/// test proves the stronger per-pair identity; here we only need a
/// tripwire plus the wall clocks. Min-of-reps so machine noise cancels.
IndexBench bench_candidate_generation(int split_layer, double percentile) {
  const core::ChallengeSuite& s = bench::challenges(split_layer);
  std::vector<const splitmfg::SplitChallenge*> all;
  for (std::size_t i = 0; i < s.size(); ++i) all.push_back(&s.challenge(i));

  IndexBench b;
  b.split_layer = split_layer;
  core::PairFilter filter;
  filter.neighborhood = core::neighborhood_radius(
      std::span<const splitmfg::SplitChallenge* const>(all), percentile);
  b.radius = *filter.neighborhood;

  constexpr int kReps = 3;
  double brute_best = std::numeric_limits<double>::infinity();
  double indexed_best = std::numeric_limits<double>::infinity();
  std::uint64_t brute_count = 0, indexed_count = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      std::uint64_t count = 0;
      bench::WallTimer timer;
      for (const splitmfg::SplitChallenge* ch : all) {
        const int n = ch->num_vpins();
        for (int v = 0; v < n; ++v) {
          for (int w = 0; w < n; ++w) {
            if (w != v && filter.admits(ch->vpin(v), ch->vpin(w))) ++count;
          }
        }
      }
      brute_best = std::min(brute_best, timer.elapsed_seconds());
      brute_count = count;
    }
    {
      std::uint64_t count = 0;
      bench::WallTimer timer;
      std::vector<splitmfg::VpinId> cand;
      for (const splitmfg::SplitChallenge* ch : all) {
        const core::CandidateIndex index(*ch);
        for (int v = 0; v < ch->num_vpins(); ++v) {
          cand.clear();
          index.collect(v, filter, cand);
          count += cand.size();
        }
      }
      indexed_best = std::min(indexed_best, timer.elapsed_seconds());
      indexed_count = count;
    }
  }
  b.candidates = indexed_count;
  b.brute_seconds = brute_best;
  b.indexed_seconds = indexed_best;
  b.speedup = indexed_best > 0 ? brute_best / indexed_best : 1.0;
  b.counts_identical = brute_count == indexed_count;
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  // `--suite-scale N` overrides REPRO_SCALE (must happen before the suite
  // cache is primed); positional args stay the two output paths.
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--suite-scale" && i + 1 < argc) {
      setenv("REPRO_SCALE", argv[++i], 1);
      continue;
    }
    positional.emplace_back(arg);
  }
  const std::string out_path =
      !positional.empty() ? positional[0] : "BENCH_attack.json";
  const std::string trace_path =
      positional.size() > 1 ? positional[1] : "BENCH_attack_trace.json";
  const int split_layer = 8;
  const core::AttackConfig cfg = bench::capped("Imp-9", 200);

  // Generate the suite before timing anything (cached per process).
  const core::ChallengeSuite& suite = bench::challenges(split_layer);
  common::obs::set_enabled(true);

  bench::print_title("attack scaling harness (config " + cfg.name +
                     ", split " + std::to_string(split_layer) + ", scale " +
                     bench::num(repro::synth::scale_from_env(), 2) + ")");
  std::printf("%8s %13s %13s %12s %12s %10s %9s  %s\n", "threads",
              "train sum (s)", "score sum (s)", "train w (s)", "score w (s)",
              "total (s)", "speedup", "digest");

  std::vector<int> counts{1, 2, 4, 8};
  // Affinity-aware: cores this process may actually run on, not the
  // machine's. Sweep points above this are annotated as oversubscribed —
  // they timeshare cores, so their speedup_vs_1t measures scheduling
  // overhead, not scaling.
  const int available = repro::common::usable_cpus();
  std::vector<Run> runs;
  bool identical = true;
  bool metrics_identical = true;
  std::string trace;
  double fit_tree_spread_1t = 0;  ///< sampled train.fit_tree spans
  double fold_spread_1t = 0;      ///< loo.fold spans
  for (int threads : counts) {
    common::set_global_threads(threads);
    common::obs::reset_metrics();
    common::obs::clear_trace();
    Run run;
    run.threads = threads;
    run.oversubscribed = threads > available;
    bench::WallTimer wall;
    const std::vector<core::AttackResult> results = suite.run_all(cfg);
    run.total_seconds = wall.elapsed_seconds();
    for (const core::AttackResult& r : results) {
      run.train_seconds += r.train_seconds;
      run.score_seconds += r.test_seconds;
    }
    {
      const auto spans = common::obs::snapshot_spans();
      run.train_wall = span_wall_seconds(spans, "train");
      run.score_wall = span_wall_seconds(spans, "test.score");
      if (threads == 1) {
        fit_tree_spread_1t = span_spread(spans, "train.fit_tree");
        fold_spread_1t = span_spread(spans, "loo.fold");
      }
    }
    run.digest = digest_results(results);
    run.pairs_scored = common::obs::counter("attack.pairs_scored").value();
    run.trees_grown = common::obs::counter("ml.trees_grown").value();
    // Counters and histograms are commutative, so the whole registry
    // snapshot must match the 1-thread run's exactly.
    run.metrics_json = common::obs::metrics_json();
    if (!runs.empty()) {
      if (run.digest != runs[0].digest) identical = false;
      if (run.metrics_json != runs[0].metrics_json) metrics_identical = false;
    }
    trace = common::obs::trace_json();  // keep the last (widest) run's trace
    runs.push_back(run);
    const double speedup = runs[0].total_seconds > 0
                               ? runs[0].total_seconds / run.total_seconds
                               : 1.0;
    std::printf("%8d %13.3f %13.3f %12.3f %12.3f %10.3f %8.2fx  %016" PRIx64
                "%s\n",
                threads, run.train_seconds, run.score_seconds, run.train_wall,
                run.score_wall, run.total_seconds, speedup, run.digest,
                run.oversubscribed ? "  (oversubscribed)" : "");
  }
  if (available < counts.back()) {
    std::printf("note: only %d usable CPU%s (affinity mask); sweep points "
                "above that timeshare cores\n",
                available, available == 1 ? "" : "s");
  }

  // Overhead check: the same run at the widest thread count with
  // instrumentation off vs on, alternated and min-taken so machine noise
  // mostly cancels. Enabled wall time should be within a few percent.
  double disabled_seconds = std::numeric_limits<double>::infinity();
  double enabled_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    common::obs::set_enabled(false);
    bench::WallTimer off_wall;
    (void)suite.run_all(cfg);
    disabled_seconds = std::min(disabled_seconds, off_wall.elapsed_seconds());
    common::obs::set_enabled(true);
    common::obs::reset_metrics();
    common::obs::clear_trace();
    bench::WallTimer on_wall;
    (void)suite.run_all(cfg);
    enabled_seconds = std::min(enabled_seconds, on_wall.elapsed_seconds());
  }
  common::obs::set_enabled(false);
  const double overhead_frac =
      disabled_seconds > 0 ? enabled_seconds / disabled_seconds - 1.0 : 0.0;
  std::printf("obs overhead @ %d threads: %.3fs on vs %.3fs off (%+.2f%%)\n",
              counts.back(), enabled_seconds, disabled_seconds,
              100 * overhead_frac);

  // Telemetry overhead: the same run with the campaign heartbeat thread
  // appending to telemetry.jsonl at a worker-realistic interval vs no
  // heartbeat at all, obs enabled in both so only the telemetry cost is
  // isolated. Same alternate-and-min discipline as above.
  const std::string telemetry_path = out_path + ".telemetry.jsonl";
  const double heartbeat_interval_s = 0.1;
  double hb_off_seconds = std::numeric_limits<double>::infinity();
  double hb_on_seconds = std::numeric_limits<double>::infinity();
  std::uint64_t hb_records = 0;
  for (int rep = 0; rep < 2; ++rep) {
    common::obs::set_enabled(true);
    common::obs::reset_metrics();
    common::obs::clear_trace();
    bench::WallTimer off_wall;
    (void)suite.run_all(cfg);
    hb_off_seconds = std::min(hb_off_seconds, off_wall.elapsed_seconds());

    common::obs::reset_metrics();
    common::obs::clear_trace();
    common::obs::Heartbeat::Options hb_opt;
    hb_opt.path = telemetry_path;
    hb_opt.interval_s = heartbeat_interval_s;
    auto hb = common::obs::Heartbeat::start(hb_opt);
    bench::WallTimer on_wall;
    (void)suite.run_all(cfg);
    hb_on_seconds = std::min(hb_on_seconds, on_wall.elapsed_seconds());
    if (hb.ok()) {
      (*hb)->stop();
      hb_records += (*hb)->records_written();
    }
  }
  common::obs::set_enabled(false);
  std::remove(telemetry_path.c_str());
  const double telemetry_frac =
      hb_off_seconds > 0 ? hb_on_seconds / hb_off_seconds - 1.0 : 0.0;
  std::printf(
      "telemetry overhead @ %d threads (%.1fs heartbeat): %.3fs on vs "
      "%.3fs off (%+.2f%%, %" PRIu64 " records)\n",
      counts.back(), heartbeat_interval_s, hb_on_seconds, hb_off_seconds,
      100 * telemetry_frac, hb_records);
  common::set_global_threads(0);  // restore the REPRO_THREADS / auto default

  // Candidate-generation micro-bench: brute all-pairs admits() vs the
  // spatial index, per split layer (lower layer => more v-pins => bigger
  // win). The headline candidate_index_speedup is the lowest layer's.
  std::printf("\ncandidate generation: brute all-pairs vs spatial index\n");
  std::printf("%8s %12s %12s %14s %14s %10s\n", "split", "radius", "pairs",
              "brute (s)", "indexed (s)", "speedup");
  std::vector<IndexBench> index_benches;
  bool counts_ok = true;
  for (int layer : {6, 8}) {
    const IndexBench b =
        bench_candidate_generation(layer, cfg.neighborhood_percentile);
    counts_ok = counts_ok && b.counts_identical;
    std::printf("%8d %12.0f %12" PRIu64 " %14.4f %14.4f %9.2fx%s\n",
                b.split_layer, b.radius, b.candidates, b.brute_seconds,
                b.indexed_seconds, b.speedup,
                b.counts_identical ? "" : "  COUNT MISMATCH (BUG)");
    index_benches.push_back(b);
  }
  const double index_speedup = index_benches.front().speedup;

  // FlatForest batch-kernel micro-bench: what the SIMD dispatch buys on
  // one scoring-chunk-sized batch, per kernel.
  std::printf("\nflat-forest batch kernels (%d rows, dispatch level %s)\n",
              1024, common::simd::to_string(common::simd::active()));
  std::printf("%8s %16s %10s\n", "kernel", "double ns/row", "bitwise");
  const SimdKernelBench simd_bench = bench_simd_kernels();
  for (const SimdKernelRow& r : simd_bench.rows) {
    std::printf("%8s %16.2f %10s\n", r.kernel, r.double_ns_per_row,
                r.outputs_identical ? "yes" : "NO (BUG)");
  }
  std::printf("simd kernel speedup (scalar vs dispatched): %.2fx\n",
              simd_bench.speedup);
  bool simd_outputs_ok = true;
  for (const SimdKernelRow& r : simd_bench.rows) {
    simd_outputs_ok = simd_outputs_ok && r.outputs_identical;
  }

  std::vector<std::string> run_json;
  for (const Run& r : runs) {
    char digest[24];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, r.digest);
    run_json.push_back(
        bench::JsonObject()
            .field("threads", r.threads)
            .field("train_seconds_sum", r.train_seconds)
            .field("score_seconds_sum", r.score_seconds)
            .field("train_seconds_wall", r.train_wall)
            .field("score_seconds_wall", r.score_wall)
            .field("total_seconds", r.total_seconds)
            .field("speedup_vs_1t", runs[0].total_seconds > 0
                                        ? runs[0].total_seconds /
                                              r.total_seconds
                                        : 1.0)
            .field("oversubscribed", r.oversubscribed)
            .field("digest", std::string(digest))
            .field("pairs_scored", static_cast<unsigned long>(r.pairs_scored))
            .field("trees_grown", static_cast<unsigned long>(r.trees_grown))
            .str());
  }
  const std::string overhead_json =
      bench::JsonObject()
          .field("threads", counts.back())
          .field("enabled_seconds", enabled_seconds)
          .field("disabled_seconds", disabled_seconds)
          .field("overhead_frac", overhead_frac)
          .str();
  const std::string telemetry_overhead_json =
      bench::JsonObject()
          .field("threads", counts.back())
          .field("heartbeat_interval_s", heartbeat_interval_s)
          .field("enabled_seconds", hb_on_seconds)
          .field("disabled_seconds", hb_off_seconds)
          .field("overhead_frac", telemetry_frac)
          .field("records_written", static_cast<unsigned long>(hb_records))
          .str();

  // Amdahl breakdown: per-sweep-point serial-fraction estimates (only
  // meaningful where the point was not oversubscribed), the 1-thread
  // per-phase wall split, and per-chunk span spreads at 1 thread.
  std::vector<std::string> amdahl_points;
  for (const Run& r : runs) {
    if (r.threads < 2) continue;
    amdahl_points.push_back(
        bench::JsonObject()
            .field("threads", r.threads)
            .field("serial_fraction",
                   serial_fraction(runs[0].total_seconds, r.total_seconds,
                                   r.threads))
            .field("oversubscribed", r.oversubscribed)
            .str());
  }
  const double t1 = runs[0].total_seconds;
  const std::string amdahl_json =
      bench::JsonObject()
          .field("usable_cpus", available)
          .field("valid", available >= 2)
          .field_raw("serial_fraction_estimates",
                     bench::json_array(amdahl_points))
          .field("train_wall_frac_1t", t1 > 0 ? runs[0].train_wall / t1 : 0.0)
          .field("score_wall_frac_1t", t1 > 0 ? runs[0].score_wall / t1 : 0.0)
          .field("fit_tree_span_spread_1t", fit_tree_spread_1t)
          .field("fold_span_spread_1t", fold_spread_1t)
          .str();

  std::vector<std::string> simd_rows_json;
  for (const SimdKernelRow& r : simd_bench.rows) {
    simd_rows_json.push_back(bench::JsonObject()
                                 .field("kernel", std::string(r.kernel))
                                 .field("double_ns_per_row",
                                        r.double_ns_per_row)
                                 .field("outputs_identical",
                                        r.outputs_identical)
                                 .str());
  }
  const std::string simd_json =
      bench::JsonObject()
          .field("batch", simd_bench.batch)
          .field("num_features", simd_bench.num_features)
          .field("trees", simd_bench.trees)
          .field("nodes", static_cast<long>(simd_bench.nodes))
          .field("active_level", std::string(common::simd::to_string(
                                     common::simd::active())))
          .field_raw("per_kernel", bench::json_array(simd_rows_json))
          .field("outputs_identical", simd_outputs_ok)
          .field("speedup", simd_bench.speedup)
          .str();
  std::vector<std::string> index_json;
  for (const IndexBench& b : index_benches) {
    index_json.push_back(
        bench::JsonObject()
            .field("split_layer", b.split_layer)
            .field("neighborhood_radius", b.radius)
            .field("candidates", static_cast<unsigned long>(b.candidates))
            .field("brute_seconds", b.brute_seconds)
            .field("indexed_seconds", b.indexed_seconds)
            .field("speedup", b.speedup)
            .field("counts_identical", b.counts_identical)
            .str());
  }
  const std::string json =
      bench::JsonObject()
          .field("bench", std::string("attack"))
          .field("config", cfg.name)
          .field("split_layer", split_layer)
          .field("suite_scale", repro::synth::scale_from_env())
          .field("designs", static_cast<long>(suite.size()))
          .field("threads_available", available)
          .field_raw("runs", bench::json_array(run_json))
          .field("outputs_identical", identical && simd_outputs_ok)
          .field("metrics_identical", metrics_identical)
          .field_raw("amdahl", amdahl_json)
          .field("simd_kernel_speedup", simd_bench.speedup)
          .field_raw("simd_kernels", simd_json)
          .field("candidate_index_speedup", index_speedup)
          .field_raw("candidate_index", bench::json_array(index_json))
          .field_raw("obs_overhead", overhead_json)
          .field_raw("telemetry_overhead", telemetry_overhead_json)
          .field_raw("metrics", runs.back().metrics_json)
          .str();
  if (!bench::write_json_file(out_path, json)) return 1;
  if (!bench::write_json_file(trace_path, trace)) return 1;
  std::printf("outputs identical across thread counts: %s\n",
              identical ? "yes" : "NO (BUG)");
  std::printf("metrics identical across thread counts: %s\n",
              metrics_identical ? "yes" : "NO (BUG)");
  std::printf("wrote %s and %s\n", out_path.c_str(), trace_path.c_str());
  return identical && metrics_identical && counts_ok && simd_outputs_ok ? 0
                                                                        : 1;
}
