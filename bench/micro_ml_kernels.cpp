// Google-benchmark microbenches of the attack's hot kernels: pair-feature
// extraction, single-tree and bagged inference (pointer-walk vs flattened
// SoA layout, single-row vs batch), tree training with and without
// reduced-error pruning, the RandomForest baseline, and serial-vs-parallel
// candidate scoring on the thread pool. These back the paper's
// scalability discussion (SSIII-D, Table II) at the kernel level.
//
// Row counts honor REPRO_SCALE (same env as the table benches).
#include <benchmark/benchmark.h>

#include <random>

#include "common/parallel.hpp"
#include "core/features.hpp"
#include "ml/bagging.hpp"
#include "ml/serialize.hpp"
#include "synth/synth.hpp"

namespace {

using namespace repro;

/// A row count multiplied by the REPRO_SCALE suite scale.
int scaled(int n) {
  return std::max(64, static_cast<int>(n * synth::scale_from_env()));
}

ml::Dataset synthetic_dataset(int rows, int features, std::uint64_t seed) {
  std::vector<std::string> names;
  for (int f = 0; f < features; ++f) names.push_back("f" + std::to_string(f));
  ml::Dataset data(std::move(names));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> row(static_cast<std::size_t>(features));
  for (int r = 0; r < rows; ++r) {
    for (double& x : row) x = u(rng);
    // Noisy nonlinear label so trees have something to learn.
    const int label = (row[0] + row[1] * row[2] > 0.8 + 0.1 * u(rng)) ? 1 : 0;
    data.add_row(row, label);
  }
  return data;
}

splitmfg::Vpin make_vpin(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<geom::Dbu> c(0, 100000);
  splitmfg::Vpin v;
  v.pos = {c(rng), c(rng)};
  v.pin_loc = {c(rng), c(rng)};
  v.wirelength = static_cast<double>(c(rng));
  v.in_area = static_cast<double>(c(rng));
  v.out_area = 0;
  v.pc = 1.0;
  v.rc = 2.0;
  return v;
}

void BM_PairFeatures(benchmark::State& state) {
  const auto a = make_vpin(1), b = make_vpin(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pair_features(a, b));
  }
}
BENCHMARK(BM_PairFeatures);

void BM_TreeTrain(benchmark::State& state) {
  const auto data = synthetic_dataset(static_cast<int>(state.range(0)), 11, 7);
  ml::TreeOptions opt;
  opt.reduced_error_pruning = state.range(1) != 0;
  for (auto _ : state) {
    std::mt19937_64 rng(1);
    benchmark::DoNotOptimize(ml::DecisionTree::train(data, opt, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeTrain)->Args({2000, 0})->Args({2000, 1})->Args({20000, 1});

void BM_BaggingTrain(benchmark::State& state) {
  const auto data = synthetic_dataset(static_cast<int>(state.range(0)), 11, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ml::BaggingClassifier::train(data, ml::BaggingOptions::reptree_bagging()));
  }
}
BENCHMARK(BM_BaggingTrain)->Arg(2000)->Arg(10000);

void BM_RandomForestTrain(benchmark::State& state) {
  const auto data = synthetic_dataset(static_cast<int>(state.range(0)), 11, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::BaggingClassifier::train(
        data, ml::BaggingOptions::random_forest(data.num_features())));
  }
}
BENCHMARK(BM_RandomForestTrain)->Arg(2000);

void BM_BaggingInference(benchmark::State& state) {
  const auto data = synthetic_dataset(20000, 11, 7);
  const auto clf = ml::BaggingClassifier::train(
      data, ml::BaggingOptions::reptree_bagging());
  std::vector<double> x(11, 0.4);
  for (auto _ : state) {
    x[0] = (x[0] + 0.37) - static_cast<int>(x[0] + 0.37);  // vary input
    benchmark::DoNotOptimize(clf.predict_proba(x));
  }
}
BENCHMARK(BM_BaggingInference);

// --- pointer-walk vs flattened-SoA inference ------------------------------

ml::FlatForest trained_flat_forest() {
  const auto data = synthetic_dataset(20000, 11, 7);
  return ml::FlatForest::build(ml::BaggingClassifier::train(
      data, ml::BaggingOptions::reptree_bagging()));
}

void BM_FlatForestInference(benchmark::State& state) {
  const ml::FlatForest forest = trained_flat_forest();
  std::vector<double> x(11, 0.4);
  for (auto _ : state) {
    x[0] = (x[0] + 0.37) - static_cast<int>(x[0] + 0.37);  // vary input
    benchmark::DoNotOptimize(forest.predict_proba(x));
  }
}
BENCHMARK(BM_FlatForestInference);

/// Random feature rows shaped like scored candidates.
std::vector<double> candidate_rows(int n, int features, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> rows(static_cast<std::size_t>(n) * features);
  for (double& v : rows) v = u(rng);
  return rows;
}

void BM_FlatForestBatch(benchmark::State& state) {
  const ml::FlatForest forest = trained_flat_forest();
  const int n = static_cast<int>(state.range(0));
  const auto rows = candidate_rows(n, 11, 21);
  std::vector<double> out(static_cast<std::size_t>(n));
  for (auto _ : state) {
    forest.predict_batch(rows.data(), n, 11, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatForestBatch)->Arg(256)->Arg(4096);

// Kernel-by-kernel batch traversal: the reference per-row walk (0) vs
// the AVX2 frontier partition (1), across the batch sizes the attack
// actually issues (1 = predict_proba-style, 8 = one vector, 64 = small
// target, 1024 = scoring-chunk scale). Both kernels return bit-identical
// outputs (tests/test_simd.cpp); these measure what that costs or buys
// per shape. On a machine without AVX2 kernel 1 falls back to the
// reference walk, so cross-machine comparisons should check
// simd::max_supported() first.
void BM_FlatForestBatchKernel(benchmark::State& state) {
  const ml::FlatForest forest = trained_flat_forest();
  const auto kernel =
      static_cast<ml::FlatForest::BatchKernel>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const auto rows = candidate_rows(n, 11, 21);
  std::vector<double> out(static_cast<std::size_t>(n));
  for (auto _ : state) {
    forest.predict_batch_kernel(kernel, rows.data(), n, 11, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatForestBatchKernel)
    ->ArgNames({"kernel", "batch"})
    ->ArgsProduct({{0, 1}, {1, 8, 64, 1024}});

// --- model checkpoint serialization ---------------------------------------
// The per-fold cost the checkpoint layer adds to a LOO campaign: sealing a
// trained ensemble into its CRC32 envelope and parsing it back. Bounds how
// much --checkpoint-dir can slow an uninterrupted run.

void BM_EnsembleSave(benchmark::State& state) {
  const auto data = synthetic_dataset(scaled(20000), 11, 7);
  const auto clf = ml::BaggingClassifier::train(
      data, ml::BaggingOptions::reptree_bagging());
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string raw = ml::save_bagging(clf);
    bytes = raw.size();
    benchmark::DoNotOptimize(raw.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EnsembleSave);

void BM_EnsembleLoad(benchmark::State& state) {
  const auto data = synthetic_dataset(scaled(20000), 11, 7);
  const std::string raw = ml::save_bagging(ml::BaggingClassifier::train(
      data, ml::BaggingOptions::reptree_bagging()));
  for (auto _ : state) {
    auto clf = ml::load_bagging(raw);
    benchmark::DoNotOptimize(clf);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(raw.size()));
}
BENCHMARK(BM_EnsembleLoad);

// --- serial vs parallel candidate scoring ---------------------------------
// The shape of AttackEngine::test's hot loop: a pool of candidate rows is
// scored in batches, partitioned per target across the pool. range(0) is
// the thread count (1 = serial baseline), rows scale with REPRO_SCALE.

void BM_ParallelScoring(benchmark::State& state) {
  const ml::FlatForest forest = trained_flat_forest();
  const int threads = static_cast<int>(state.range(0));
  const int num_targets = 64;
  const int per_target = scaled(2048);
  const auto rows =
      candidate_rows(num_targets * per_target, 11, 33);
  common::ThreadPool pool(threads);
  std::vector<double> out(rows.size() / 11);
  for (auto _ : state) {
    pool.parallel_for(num_targets, [&](std::int64_t t) {
      const std::size_t row0 = static_cast<std::size_t>(t) * per_target;
      forest.predict_batch(rows.data() + row0 * 11, per_target, 11,
                           out.data() + row0);
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * num_targets * per_target);
}
BENCHMARK(BM_ParallelScoring)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_ParallelBaggingTrain(benchmark::State& state) {
  const auto data = synthetic_dataset(scaled(10000), 11, 7);
  const int threads = static_cast<int>(state.range(0));
  common::set_global_threads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::BaggingClassifier::train(
        data, ml::BaggingOptions::reptree_bagging()));
  }
  common::set_global_threads(0);
}
BENCHMARK(BM_ParallelBaggingTrain)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
