// The parallel execution layer and its determinism contract.
//
// Two kinds of tests live here:
//   * primitives — ThreadPool / parallel_for / derive_seed behave as
//     documented (full coverage, exception propagation, nesting);
//   * thread invariance — the attack stack produces bit-identical
//     models, rankings, and CSV output at 1, 2, and 8 threads, which is
//     the load-bearing guarantee behind REPRO_THREADS.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "common/parallel.hpp"
#include "core/cross_validation.hpp"
#include "core/proximity.hpp"
#include "core/resilience.hpp"
#include "core/two_level.hpp"
#include "ml/bagging.hpp"
#include "test_helpers.hpp"

namespace repro {
namespace {

// --- primitives -----------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  for (const std::int64_t n : {0, 1, 2, 3, 7, 64, 1000}) {
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    pool.parallel_for(n, [&](std::int64_t i) {
      ++hits[static_cast<std::size_t>(i)];
    });
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1) << "index " << i;
    }
  }
}

TEST(ParallelFor, GrainCoversEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  for (const std::int64_t n : {0, 1, 5, 8, 50, 1000}) {
    for (const std::int64_t grain : {1, 4, 8, 100, 10000}) {
      std::vector<int> hits(static_cast<std::size_t>(n), 0);
      pool.parallel_for(
          n, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; },
          nullptr, grain);
      for (std::int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1)
            << "index " << i << " n " << n << " grain " << grain;
      }
    }
  }
}

TEST(ParallelFor, GrainLimitsConcurrentChunks) {
  // n / grain = 3 chunks for 50 indices at grain 16: at most 3 distinct
  // workers may participate even though the pool has 8.
  common::ThreadPool pool(8);
  std::atomic<int> max_seen{0};
  std::atomic<int> running{0};
  pool.parallel_for(
      50,
      [&](std::int64_t) {
        const int now = running.fetch_add(1) + 1;
        int prev = max_seen.load();
        while (now > prev && !max_seen.compare_exchange_weak(prev, now)) {
        }
        running.fetch_sub(1);
      },
      nullptr, /*grain=*/16);
  EXPECT_LE(max_seen.load(), 3);
}

TEST(UsableCpus, PositiveAndNoLargerThanHardware) {
  const int n = common::usable_cpus();
  EXPECT_GE(n, 1);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_LE(n, static_cast<int>(hw));
  }
}

TEST(ParallelFor, SingleThreadPoolRunsInline) {
  common::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::int64_t sum = 0;
  pool.parallel_for(100, [&](std::int64_t i) { sum += i; });  // no races
  EXPECT_EQ(sum, 4950);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  common::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::int64_t i) {
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelFor, NestedCallsRunInline) {
  common::ThreadPool pool(4);
  std::vector<std::int64_t> inner_sum(8, 0);
  pool.parallel_for(8, [&](std::int64_t i) {
    // Nested region: must not deadlock, must still cover its range.
    pool.parallel_for(10, [&](std::int64_t j) {
      inner_sum[static_cast<std::size_t>(i)] += j;
    });
  });
  for (std::int64_t s : inner_sum) EXPECT_EQ(s, 45);
}

TEST(ScopedInline, ForcesInlineExecutionOnTheHoldingThread) {
  // Server handler threads hold one of these so N handlers can enter
  // the (single-caller) pool concurrently. Under the guard a region
  // must run entirely on the calling thread...
  common::ThreadPool pool(4);
  {
    common::ScopedInline guard;
    const std::thread::id me = std::this_thread::get_id();
    std::int64_t sum = 0;  // no atomics needed if truly inline
    pool.parallel_for(100, [&](std::int64_t i) {
      EXPECT_EQ(std::this_thread::get_id(), me);
      sum += i;
    });
    EXPECT_EQ(sum, 4950);
  }
  // ...and once the guard is gone the pool fans out again.
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ScopedInline, NestsAndRestoresOnDestruction) {
  common::ThreadPool pool(4);
  const std::thread::id me = std::this_thread::get_id();
  common::ScopedInline outer;
  {
    common::ScopedInline inner;  // redundant, must be harmless
    pool.parallel_for(10, [&](std::int64_t) {
      EXPECT_EQ(std::this_thread::get_id(), me);
    });
  }
  // The inner guard's destruction must not cancel the outer one.
  pool.parallel_for(10, [&](std::int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), me);
  });
}

TEST(ScopedInline, ManyGuardedThreadsShareThePoolSafely) {
  // The actual server shape: concurrent guarded callers, each running
  // its own serial region, none touching the pool's job state.
  common::ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 8; ++t) {
    callers.emplace_back([&] {
      common::ScopedInline guard;
      std::int64_t local = 0;
      pool.parallel_for(100, [&](std::int64_t i) { local += i; });
      total += local;
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), 8 * 4950);
}

TEST(ParallelFor, ReusableAcrossManyJobs) {
  common::ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(round % 7, [&](std::int64_t) { ++count; });
    EXPECT_EQ(count.load(), round % 7);
  }
}

// --- cooperative cancellation ---------------------------------------------

TEST(ParallelFor, CancelledBeforeStartRunsNoBodies) {
  common::ThreadPool pool(4);
  common::CancelToken cancel;
  cancel.request_cancel("pre-set");
  std::atomic<int> count{0};
  pool.parallel_for(
      1000, [&](std::int64_t) { ++count; }, &cancel);
  EXPECT_EQ(count.load(), 0) << "workers must poll before their first index";
}

TEST(ParallelFor, SingleThreadCancelStopsAfterTheCancellingIndex) {
  // With one thread the schedule is the identity order, so cancelling
  // from index 10 must run exactly indices 0..10: the cancelling body
  // finishes (per-index atomicity), nothing after it starts.
  common::ThreadPool pool(1);
  common::CancelToken cancel;
  std::vector<int> ran(100, 0);
  pool.parallel_for(
      100,
      [&](std::int64_t i) {
        ran[static_cast<std::size_t>(i)] = 1;
        if (i == 10) cancel.request_cancel("enough");
      },
      &cancel);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ran[static_cast<std::size_t>(i)], i <= 10 ? 1 : 0)
        << "index " << i;
  }
  EXPECT_EQ(cancel.reason(), "enough");
}

TEST(ParallelFor, CancelMidRegionIsPerIndexAtomic) {
  // Which indices run before the token is observed is timing-dependent,
  // but every output slot must be either fully written or untouched —
  // never half a body. Each body writes two correlated fields; a torn
  // slot would break the invariant.
  common::ThreadPool pool(8);
  common::CancelToken cancel;
  struct Slot {
    std::int64_t a = -1;
    std::int64_t b = -1;
  };
  const std::int64_t n = 10000;
  std::vector<Slot> out(static_cast<std::size_t>(n));
  pool.parallel_for(
      n,
      [&](std::int64_t i) {
        out[static_cast<std::size_t>(i)].a = i;
        out[static_cast<std::size_t>(i)].b = 2 * i;
        if (i % 97 == 0) cancel.request_cancel();
      },
      &cancel);
  std::int64_t ran = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const Slot& s = out[static_cast<std::size_t>(i)];
    const bool untouched = s.a == -1 && s.b == -1;
    const bool complete = s.a == i && s.b == 2 * i;
    EXPECT_TRUE(untouched || complete) << "torn slot at " << i;
    ran += complete ? 1 : 0;
  }
  EXPECT_TRUE(cancel.cancelled());
  EXPECT_LT(ran, n) << "cancellation should have skipped some indices";
  // Static chunking: within each worker's contiguous chunk the executed
  // indices form a prefix (a worker never skips ahead).
  const auto chunk = [&](int w) -> std::pair<std::int64_t, std::int64_t> {
    const int threads = pool.num_threads();
    const std::int64_t lo = n * w / threads;
    const std::int64_t hi = n * (w + 1) / threads;
    return {lo, hi};
  };
  for (int w = 0; w < pool.num_threads(); ++w) {
    const auto [lo, hi] = chunk(w);
    bool seen_gap = false;
    for (std::int64_t i = lo; i < hi; ++i) {
      const bool complete = out[static_cast<std::size_t>(i)].a == i;
      if (!complete) seen_gap = true;
      EXPECT_FALSE(seen_gap && complete)
          << "worker " << w << " resumed after stopping at index " << i;
    }
  }
}

TEST(ParallelMap, CancelledSlotsStayDefaultConstructed) {
  common::set_global_threads(1);
  common::CancelToken cancel;
  const auto out = common::parallel_map<std::int64_t>(
      50,
      [&](std::int64_t i) {
        if (i == 7) cancel.request_cancel();
        return i + 1;  // never 0, so 0 marks a skipped slot
      },
      &cancel);
  common::set_global_threads(0);
  ASSERT_EQ(out.size(), 50u);
  for (std::int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i <= 7 ? i + 1 : 0)
        << "index " << i;
  }
}

TEST(ParallelFor, TokenResetReArmsTheRegion) {
  common::ThreadPool pool(2);
  common::CancelToken cancel;
  cancel.request_cancel("first run");
  std::atomic<int> count{0};
  pool.parallel_for(
      100, [&](std::int64_t) { ++count; }, &cancel);
  EXPECT_EQ(count.load(), 0);
  cancel.reset();
  EXPECT_FALSE(cancel.cancelled());
  EXPECT_TRUE(cancel.reason().empty());
  pool.parallel_for(
      100, [&](std::int64_t) { ++count; }, &cancel);
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelMap, ProducesOrderedResults) {
  common::set_global_threads(4);
  const auto out = common::parallel_map<std::int64_t>(
      100, [](std::int64_t i) { return i * i; });
  common::set_global_threads(0);
  ASSERT_EQ(out.size(), 100u);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(DeriveSeed, DeterministicAndWellSpread) {
  EXPECT_EQ(common::derive_seed(1, 0), common::derive_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (std::uint64_t index = 0; index < 64; ++index) {
      seen.insert(common::derive_seed(seed, index));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 64u) << "derived seeds must not collide";
}

TEST(DeriveSeed, NamedStreamsAreStableAndDisjoint) {
  // Stable across calls (they seed reproducible RNGs)...
  EXPECT_EQ(common::derive_stream(1, "attack.test.targets"),
            common::derive_stream(1, "attack.test.targets"));
  // ...distinct per name and per seed...
  EXPECT_NE(common::derive_stream(1, "attack.test.targets"),
            common::derive_stream(1, "sampling.negatives"));
  EXPECT_NE(common::derive_stream(1, "attack.test.targets"),
            common::derive_stream(2, "attack.test.targets"));
  // ...and disjoint from the numbered per-task streams (per-tree,
  // per-fold) for all small indices — the aliasing that the old
  // `seed * 7927 + 3` derivation could not rule out.
  std::set<std::uint64_t> numbered;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (std::uint64_t index = 0; index < 256; ++index) {
      numbered.insert(common::derive_seed(seed, index));
    }
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const char* name : {"attack.test.targets", "sampling.negatives"}) {
      EXPECT_FALSE(numbered.count(common::derive_stream(seed, name)))
          << "named stream aliases a numbered stream";
    }
  }
}

TEST(GlobalPool, ResizableAndAtLeastOneThread) {
  common::set_global_threads(2);
  EXPECT_EQ(common::global_pool().num_threads(), 2);
  common::set_global_threads(0);  // auto
  EXPECT_GE(common::global_pool().num_threads(), 1);
  EXPECT_GE(common::configured_threads(), 1);
}

// --- thread invariance ----------------------------------------------------

/// Runs fn at each thread count and checks all return values are equal
/// (operator== supplied by the caller via a comparison lambda).
template <class T, class Fn, class Eq>
void expect_thread_invariant(Fn&& fn, Eq&& eq, const char* what) {
  common::set_global_threads(1);
  const T baseline = fn();
  for (const int threads : {2, 8}) {
    common::set_global_threads(threads);
    const T other = fn();
    EXPECT_TRUE(eq(baseline, other))
        << what << " differs between 1 and " << threads << " threads";
  }
  common::set_global_threads(0);
}

bool same_model(const ml::BaggingClassifier& a,
                const ml::BaggingClassifier& b) {
  if (a.num_trees() != b.num_trees()) return false;
  for (int t = 0; t < a.num_trees(); ++t) {
    const ml::DecisionTree& ta = a.tree(t);
    const ml::DecisionTree& tb = b.tree(t);
    if (ta.num_nodes() != tb.num_nodes()) return false;
    for (int i = 0; i < ta.num_nodes(); ++i) {
      const ml::TreeNode& na = ta.node(i);
      const ml::TreeNode& nb = tb.node(i);
      if (na.feature != nb.feature || na.left != nb.left ||
          na.right != nb.right ||
          std::memcmp(&na.threshold, &nb.threshold, sizeof na.threshold) !=
              0 ||
          std::memcmp(&na.pos, &nb.pos, sizeof na.pos) != 0 ||
          std::memcmp(&na.neg, &nb.neg, sizeof na.neg) != 0) {
        return false;
      }
    }
  }
  return true;
}

ml::Dataset invariance_dataset() {
  ml::Dataset data({"x", "y", "z"});
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 1200; ++i) {
    const double x = u(rng), y = u(rng), z = u(rng);
    data.add_row(std::vector<double>{x, y, z},
                 (x + y * z > 0.75 + 0.1 * u(rng)) ? 1 : 0);
  }
  return data;
}

TEST(ThreadInvariance, BaggingModelsAreBitIdentical) {
  const ml::Dataset data = invariance_dataset();
  expect_thread_invariant<ml::BaggingClassifier>(
      [&] {
        return ml::BaggingClassifier::train(
            data, ml::BaggingOptions::reptree_bagging(5));
      },
      same_model, "bagged REPTree model");
  expect_thread_invariant<ml::BaggingClassifier>(
      [&] {
        return ml::BaggingClassifier::train(
            data, ml::BaggingOptions::random_forest(3, 5));
      },
      same_model, "random forest model");
}

TEST(FlatForest, MatchesPointerWalkBitForBit) {
  // BaggingClassifier::predict_proba walks the DecisionTree nodes and
  // shares no code with FlatForest, so it is an independent reference for
  // every batch kernel. Batch sizes straddle the AVX2 kernel's routing
  // (n < kBlock walks row by row) and its masked tail; NaN features must
  // go right in every path.
  const ml::Dataset data = invariance_dataset();
  const auto clf = ml::BaggingClassifier::train(
      data, ml::BaggingOptions::reptree_bagging(5));
  const ml::FlatForest flat = ml::FlatForest::build(clf);
  EXPECT_EQ(flat.num_trees(), clf.num_trees());
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> u(-0.5, 1.5);
  for (const int n : {1, 7, 8, 9, 129, 500}) {
    for (const bool with_nan : {false, true}) {
      std::vector<double> rows;
      std::vector<double> expected;
      for (int i = 0; i < n; ++i) {
        std::vector<double> x{u(rng), u(rng), u(rng)};
        if (with_nan && i % 2 == 0) {
          x[static_cast<std::size_t>(i % 3)] =
              std::numeric_limits<double>::quiet_NaN();
        }
        const double p_tree = clf.predict_proba(x);
        const double p_flat = flat.predict_proba(x);
        ASSERT_EQ(std::memcmp(&p_tree, &p_flat, sizeof p_tree), 0)
            << "row " << i << ": " << p_tree << " vs " << p_flat;
        rows.insert(rows.end(), x.begin(), x.end());
        expected.push_back(p_tree);
      }
      std::vector<double> batch(expected.size());
      flat.predict_batch(rows.data(), n, 3, batch.data());
      EXPECT_EQ(std::memcmp(batch.data(), expected.data(),
                            expected.size() * sizeof(double)),
                0)
          << "n=" << n << " nan=" << with_nan;
    }
  }
}

TEST(FlatForest, EmptyForestPredictsHalf) {
  const ml::FlatForest flat;
  EXPECT_TRUE(flat.empty());
  const std::vector<double> x{0.1, 0.2};
  EXPECT_DOUBLE_EQ(flat.predict_proba(x), 0.5);
  double out[2] = {0, 0};
  flat.predict_batch(x.data(), 2, 1, out);
  EXPECT_DOUBLE_EQ(out[0], 0.5);
  EXPECT_DOUBLE_EQ(out[1], 0.5);
}

// --- top-K selection ------------------------------------------------------

TEST(TopK, TopKSetIsInsertionOrderIndependent) {
  // Many candidates with deliberately colliding p values: the kept set
  // must be the first K under (p desc, d asc, id asc) no matter the
  // scoring order — the property the parallel scorer relies on.
  std::vector<core::Candidate> all;
  for (int i = 0; i < 200; ++i) {
    core::Candidate c;
    c.id = static_cast<splitmfg::VpinId>(i);
    c.p = 0.25f * static_cast<float>(i % 4);  // only 4 distinct p values
    c.d = static_cast<float>(i % 8);          // and 8 distinct distances
    all.push_back(c);
  }
  std::vector<core::Candidate> expected = all;
  std::sort(expected.begin(), expected.end(), core::detail::candidate_before);
  const int k = 16;
  expected.resize(k);

  std::mt19937_64 rng(7);
  for (int round = 0; round < 20; ++round) {
    std::shuffle(all.begin(), all.end(), rng);
    std::vector<core::Candidate> scored = all;
    const std::vector<core::Candidate> top =
        core::detail::select_top(scored, k);
    ASSERT_EQ(top.size(), expected.size());
    EXPECT_EQ(top.capacity(), top.size()) << "round " << round;
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(top[static_cast<std::size_t>(i)].id,
                expected[static_cast<std::size_t>(i)].id)
          << "round " << round << " rank " << i;
    }
  }
}

TEST(TopK, KeepsEverythingBelowCapacity) {
  std::vector<core::Candidate> scored;
  for (int i = 0; i < 5; ++i) {
    scored.push_back(
        core::Candidate{static_cast<splitmfg::VpinId>(i), 0.5f, 1.0f});
  }
  EXPECT_EQ(core::detail::select_top(scored, 8).size(), 5u);
  // A non-positive K keeps nothing; it never means "keep everything".
  EXPECT_TRUE(core::detail::select_top(scored, 0).empty());
  EXPECT_TRUE(core::detail::select_top(scored, -1).empty());
}

/// The display order spelled field by field: the reference the packed
/// key of candidate_before must reproduce.
bool fieldwise_before(const core::Candidate& a, const core::Candidate& b) {
  if (a.p != b.p) return a.p > b.p;
  if (a.d != b.d) return a.d < b.d;
  return a.id < b.id;
}

TEST(TopK, PackedKeyOrdersLikeTheFieldwiseComparison) {
  // p as the forest makes it: the mean of ten leaf probabilities
  // pos / (pos + neg) over small counts, so p values tie often and 0 and
  // 1 occur. Distances tie too; ids are distinct.
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<int> count(0, 2);
  std::uniform_int_distribution<int> dist(0, 40);
  std::vector<core::Candidate> all;
  for (int i = 0; i < 4000; ++i) {
    double sum = 0;
    const bool extreme = i % 50 == 0;  // all-pure leaves: p of 0 or 1
    for (int t = 0; t < 10; ++t) {
      const double pos = extreme ? (i % 100 == 0 ? 0 : 3) : count(rng);
      const double neg = extreme ? (i % 100 == 0 ? 4 : 0) : count(rng);
      sum += pos + neg > 0 ? pos / (pos + neg) : 0.5;
    }
    all.push_back(core::Candidate{static_cast<splitmfg::VpinId>(i),
                                  static_cast<float>(sum / 10),
                                  static_cast<float>(800 * dist(rng))});
  }
  std::shuffle(all.begin(), all.end(), rng);
  std::vector<core::Candidate> by_key = all, by_field = all;
  std::sort(by_key.begin(), by_key.end(), core::detail::candidate_before);
  std::sort(by_field.begin(), by_field.end(), fieldwise_before);
  ASSERT_EQ(by_key.size(), by_field.size());
  for (std::size_t i = 0; i < by_key.size(); ++i) {
    ASSERT_EQ(by_key[i].id, by_field[i].id) << "rank " << i;
  }
  // The select step on the same input keeps the field-wise first 512.
  std::vector<core::Candidate> scored = all;
  const std::vector<core::Candidate> top =
      core::detail::select_top(scored, 512);
  ASSERT_EQ(top.size(), 512u);
  for (std::size_t i = 0; i < top.size(); ++i) {
    ASSERT_EQ(top[i].id, by_field[i].id) << "rank " << i;
  }
  // The inputs did exercise the ties and both ends of [0, 1].
  EXPECT_EQ(by_key.front().p, 1.0f);
  EXPECT_EQ(by_key.back().p, 0.0f);
  std::set<float> distinct_p;
  for (const core::Candidate& c : all) distinct_p.insert(c.p);
  EXPECT_LT(distinct_p.size(), all.size() / 4);
}

/// The reference for select_top's radix kernel, by comparison:
/// nth_element picks the first k in display order, then only those are
/// sorted.
std::vector<core::Candidate> comparison_top(std::vector<core::Candidate> all,
                                            int k) {
  const std::size_t keep =
      std::min(all.size(), static_cast<std::size_t>(std::max(0, k)));
  const auto mid = all.begin() + static_cast<std::ptrdiff_t>(keep);
  std::nth_element(all.begin(), mid, all.end(), core::detail::candidate_before);
  std::sort(all.begin(), mid, core::detail::candidate_before);
  all.resize(keep);
  return all;
}

TEST(TopK, RadixMatchesTheComparisonSort) {
  enum class Keys { kAllEqual, kLeafMeans, kTiedP, kTiedD, kRandomBits };
  enum class Ids { kAscending, kDescending, kShuffled };
  std::mt19937_64 rng(23);
  std::uniform_int_distribution<int> count(0, 2);
  std::uniform_int_distribution<int> dist(0, 40);
  const auto leaf_mean = [&] {
    double sum = 0;
    for (int t = 0; t < 10; ++t) {
      const double pos = count(rng), neg = count(rng);
      sum += pos + neg > 0 ? pos / (pos + neg) : 0.5;
    }
    return static_cast<float>(sum / 10);
  };
  const auto bits = [&] { return static_cast<std::uint32_t>(rng()); };
  const auto make = [&](int n, Keys keys, Ids ids) {
    // Distinct ids spread over all of int32, negatives included, so every
    // id digit and the sign of the id matter.
    std::set<splitmfg::VpinId> distinct;
    while (static_cast<int>(distinct.size()) < n) {
      distinct.insert(std::bit_cast<splitmfg::VpinId>(bits()));
    }
    std::vector<splitmfg::VpinId> id(distinct.begin(), distinct.end());
    if (ids == Ids::kDescending) std::reverse(id.begin(), id.end());
    if (ids == Ids::kShuffled) std::shuffle(id.begin(), id.end(), rng);
    std::vector<core::Candidate> all(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      core::Candidate& c = all[static_cast<std::size_t>(i)];
      c.id = id[static_cast<std::size_t>(i)];
      switch (keys) {
        case Keys::kAllEqual:
          c.p = 0.5f;
          c.d = 1600.0f;
          break;
        case Keys::kLeafMeans:
          c.p = leaf_mean();
          c.d = static_cast<float>(800 * dist(rng));
          break;
        case Keys::kTiedP:  // p from four values, d in every mantissa bit
          c.p = 0.25f * static_cast<float>(bits() % 4);
          c.d = std::bit_cast<float>(0x40000000u | (bits() & 0x7FFFFFu));
          break;
        case Keys::kTiedD:  // distinct p, d from three values
          c.p = std::bit_cast<float>(0x3E000000u | (bits() & 0xFFFFFu));
          c.d = static_cast<float>(800 * (i % 3));
          break;
        case Keys::kRandomBits:  // NaN, negative and -0.0 among them
          c.p = std::bit_cast<float>(bits());
          c.d = std::bit_cast<float>(bits());
          break;
      }
    }
    return all;
  };

  std::vector<int> sizes;
  for (int n = 0; n <= 130; ++n) sizes.push_back(n);
  for (int n : {373, 802, 5000}) sizes.push_back(n);
  for (const int n : sizes) {
    for (const Keys keys : {Keys::kAllEqual, Keys::kLeafMeans, Keys::kTiedP,
                            Keys::kTiedD, Keys::kRandomBits}) {
      for (const Ids ids : {Ids::kAscending, Ids::kDescending,
                            Ids::kShuffled}) {
        const std::vector<core::Candidate> all = make(n, keys, ids);
        for (const int k : {-1, 0, 1, n - 1, n, n + 1, 512}) {
          const std::vector<core::Candidate> want = comparison_top(all, k);
          const std::vector<core::Candidate> got =
              core::detail::select_top(all, k);
          ASSERT_EQ(got.size(), want.size())
              << "n " << n << " k " << k << " keys "
              << static_cast<int>(keys) << " ids " << static_cast<int>(ids);
          EXPECT_EQ(got.capacity(), got.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(0, std::memcmp(&got[i], &want[i], sizeof got[i]))
                << "n " << n << " k " << k << " keys "
                << static_cast<int>(keys) << " ids "
                << static_cast<int>(ids) << " rank " << i;
          }
        }
      }
    }
  }
}

// --- attack-level invariance ----------------------------------------------

/// The LoC CSV exactly as tools/split_attack writes it.
std::string loc_csv(const splitmfg::SplitChallenge& ch,
                    const core::AttackResult& res, double threshold) {
  std::ostringstream os;
  os << "vpin,x,y,candidate,probability,distance\n";
  for (int v = 0; v < ch.num_vpins(); ++v) {
    const auto& r = res.per_vpin()[static_cast<std::size_t>(v)];
    for (const core::Candidate& c : r.top) {
      if (c.p < threshold) break;
      os << v << ',' << ch.vpin(v).pos.x << ',' << ch.vpin(v).pos.y << ','
         << c.id << ',' << c.p << ',' << c.d << '\n';
    }
  }
  return os.str();
}

using repro::testing::same_result;

class AttackThreadInvariance : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint64_t s = 1; s <= 3; ++s) {
      challenges_.push_back(
          repro::testing::make_grid_challenge(80, 100000, 8000, s));
    }
  }
  void TearDown() override { common::set_global_threads(0); }
  std::vector<splitmfg::SplitChallenge> challenges_;
};

TEST_F(AttackThreadInvariance, RankingsHistogramsAndCsvMatch) {
  const std::vector<const splitmfg::SplitChallenge*> training{
      &challenges_[1], &challenges_[2]};
  const core::AttackConfig cfg = core::config_from_name("Imp-9");
  common::set_global_threads(1);
  const core::AttackResult baseline =
      core::AttackEngine::run(challenges_[0], training, cfg);
  const std::string baseline_csv = loc_csv(challenges_[0], baseline, 0.4);
  for (const int threads : {2, 8}) {
    common::set_global_threads(threads);
    const core::AttackResult other =
        core::AttackEngine::run(challenges_[0], training, cfg);
    EXPECT_TRUE(same_result(baseline, other))
        << "attack result differs at " << threads << " threads";
    EXPECT_EQ(baseline_csv, loc_csv(challenges_[0], other, 0.4))
        << "LoC CSV differs at " << threads << " threads";
  }
}

TEST_F(AttackThreadInvariance, TargetSampledRunsMatchToo) {
  const std::vector<const splitmfg::SplitChallenge*> training{
      &challenges_[1], &challenges_[2]};
  core::AttackConfig cfg = core::config_from_name("ML-9");
  cfg.max_test_vpins = 40;  // exercises the sampled-target path
  expect_thread_invariant<core::AttackResult>(
      [&] { return core::AttackEngine::run(challenges_[0], training, cfg); },
      same_result, "sampled attack result");
}

// Two-level pruning and PA validation score through the engine's pool:
// both two-level digests and the PA outcome (fraction, curve and rate,
// by bit pattern) match at every pool size and inline.
TEST_F(AttackThreadInvariance, TwoLevelAndPaValidationMatch) {
  const std::vector<const splitmfg::SplitChallenge*> training{
      &challenges_[1], &challenges_[2]};
  const core::AttackConfig cfg = core::config_from_name("Imp-11");
  const auto run = [&] {
    const core::TwoLevelResult two =
        core::two_level_attack(challenges_[0], training, cfg);
    const core::AttackResult res =
        core::AttackEngine::run(challenges_[0], training, cfg);
    const core::PAOutcome pa = core::validated_proximity_attack(
        res, challenges_[0], training, cfg);
    common::BinaryWriter w;
    w.u64(core::result_digest(two.level1));
    w.u64(core::result_digest(two.pruned));
    w.f64(pa.best_fraction);
    for (const auto& [fraction, success] : pa.validation_curve) {
      w.f64(fraction);
      w.f64(success);
    }
    w.f64(pa.success_rate);
    return w.buffer();
  };
  common::set_global_threads(1);
  const std::string baseline = run();
  for (const int threads : {3, 4}) {
    common::set_global_threads(threads);
    EXPECT_EQ(run(), baseline) << "differs at " << threads << " threads";
  }
  const common::ScopedInline guard;
  EXPECT_EQ(run(), baseline) << "differs under ScopedInline";
}

TEST_F(AttackThreadInvariance, LeaveOneOutSuiteMatches) {
  core::AttackConfig cfg = core::config_from_name("Imp-9");
  const core::ChallengeSuite suite(challenges_);
  common::set_global_threads(1);
  const std::vector<core::AttackResult> baseline = suite.run_all(cfg);
  // 4 is the pool size the benchmark runs its LOO on; 3 gives cuts of
  // unequal length over the (fold, tree) units and the targets.
  for (const int threads : {2, 3, 4, 8}) {
    common::set_global_threads(threads);
    const std::vector<core::AttackResult> other = suite.run_all(cfg);
    ASSERT_EQ(baseline.size(), other.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_TRUE(same_result(baseline[i], other[i]))
          << "fold " << i << " differs at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace repro
