#include "ml/bagging.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>

#include "common/obs.hpp"
#include "common/parallel.hpp"

namespace repro::ml {

namespace {

/// Per-tree spans are sampled 1-in-8: with hundreds of trees, recording
/// every fit_tree span dominated the obs ring buffer and its snapshot
/// cost, while the Amdahl breakdown in bench_attack only needs enough
/// samples to estimate the per-chunk spread. The ensemble-level span
/// ("train.fit_ensemble", or the LOO's "train.fit") still covers the
/// full wall time.
constexpr std::int64_t kSpanSampleMask = 7;

/// Bootstrap resampling has nothing to draw from in an empty dataset.
void check_trainable(const Dataset& data) {
  if (data.num_rows() <= 0) {
    throw std::invalid_argument(
        "bagging: cannot train on an empty dataset (0 rows; bootstrap "
        "resampling has nothing to draw from)");
  }
}

}  // namespace

BaggingClassifier BaggingClassifier::train(const Dataset& data,
                                           const BaggingOptions& opt) {
  check_trainable(data);
  OBS_SPAN("train.fit_ensemble");
  const int num_trees = std::max(0, opt.num_trees);
  std::vector<DecisionTree> trees(static_cast<std::size_t>(num_trees));
  // The ensemble's only sort: every feature's row order, computed once
  // and shared read-only by all trees (see Presort).
  const Presort order(data);
  // One scratch arena per pool worker, reused across the trees that
  // worker grows: the bootstrap sample vector and the tree builder's
  // grow/prune/list buffers are allocated once and recycled, instead of
  // num_trees times each. Workers index arenas by current_worker_id(),
  // which is stable and unique per pool thread, so there is no sharing.
  std::vector<TreeScratch> arenas(
      static_cast<std::size_t>(common::global_pool().num_threads()));
  common::parallel_for(
      num_trees,
      [&](std::int64_t t) {
        trees[static_cast<std::size_t>(t)] = BaggingClassifier::train_tree(
            data, order, opt, static_cast<int>(t),
            arenas[static_cast<std::size_t>(common::current_worker_id())]);
      },
      /*cancel=*/nullptr, BaggingClassifier::kTreeGrain);
  return BaggingClassifier::from_grown_trees(std::move(trees));
}

DecisionTree BaggingClassifier::train_tree(const Dataset& data,
                                           const Presort& order,
                                           const BaggingOptions& opt, int t,
                                           TreeScratch& scratch) {
  check_trainable(data);
  std::optional<common::obs::SpanGuard> span;
  if ((t & kSpanSampleMask) == 0) span.emplace("train.fit_tree", t);
  // Tree t owns an RNG derived from (seed, t): both the bootstrap
  // resample and the tree growth draw only from it, making the ensemble
  // independent of execution order (and of thread count).
  std::mt19937_64 rng(
      common::derive_seed(opt.seed, static_cast<std::uint64_t>(t)));
  const int n = data.num_rows();
  std::uniform_int_distribution<int> pick(0, n - 1);
  std::vector<int>& sample = scratch.sample;
  sample.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) sample[static_cast<std::size_t>(i)] = pick(rng);
  DecisionTree tree =
      DecisionTree::train(data, order, opt.tree, rng, sample, scratch);
  // Per-tree bump for live telemetry progress (ml.trees_grown only moves
  // once per ensemble); commutative, so the total is still thread-count
  // invariant.
  OBS_COUNT("ml.trees_done", 1);
  return tree;
}

BaggingClassifier BaggingClassifier::from_grown_trees(
    std::vector<DecisionTree> trees) {
  BaggingClassifier clf = from_trees(std::move(trees));
  OBS_COUNT("ml.trees_grown", clf.num_trees());
  OBS_COUNT("ml.tree_nodes", clf.total_nodes());
  return clf;
}

BaggingOptions BaggingOptions::random_forest(int num_features,
                                             std::uint64_t seed) {
  BaggingOptions o;
  o.num_trees = 100;
  o.tree.reduced_error_pruning = false;
  o.tree.min_leaf = 1;
  o.tree.num_random_features =
      static_cast<int>(std::ceil(std::log2(std::max(2, num_features)))) + 1;
  o.seed = seed;
  return o;
}

double BaggingClassifier::predict_proba(std::span<const double> x) const {
  if (trees_.empty()) return 0.5;
  double sum = 0;
  for (const DecisionTree& t : trees_) sum += t.predict_proba(x);
  return sum / static_cast<double>(trees_.size());
}

long BaggingClassifier::total_nodes() const {
  long total = 0;
  for (const DecisionTree& t : trees_) total += t.num_nodes();
  return total;
}

FlatForest FlatForest::build(const BaggingClassifier& clf) {
  FlatForest f;
  int total = 0;
  for (int t = 0; t < clf.num_trees(); ++t) total += clf.tree(t).num_nodes();
  f.feature_.reserve(static_cast<std::size_t>(total));
  f.threshold_.reserve(static_cast<std::size_t>(total));
  f.left_.reserve(static_cast<std::size_t>(total));
  f.right_.reserve(static_cast<std::size_t>(total));
  f.leaf_p_.reserve(static_cast<std::size_t>(total));
  for (int t = 0; t < clf.num_trees(); ++t) {
    const DecisionTree& tree = clf.tree(t);
    const std::int32_t base = static_cast<std::int32_t>(f.feature_.size());
    f.roots_.push_back(base);
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const TreeNode& n = tree.node(i);
      f.feature_.push_back(n.feature);
      f.threshold_.push_back(n.threshold);
      f.left_.push_back(n.is_leaf() ? -1 : base + n.left);
      f.right_.push_back(n.is_leaf() ? -1 : base + n.right);
      const double count = n.pos + n.neg;
      f.leaf_p_.push_back(count > 0 ? n.pos / count : 0.5);
    }
  }
  // BFS-packed mirror for the frontier kernel. Renumber each tree
  // breadth-first so a split's children are adjacent (right = left + 1),
  // which lets the partition step derive both child segments from one
  // stored child id.
  f.packed_.reserve(static_cast<std::size_t>(total));
  f.packed_leafp_.reserve(static_cast<std::size_t>(total));
  std::vector<std::int32_t> order;
  std::vector<std::int32_t> newid;
  for (int t = 0; t < clf.num_trees(); ++t) {
    const DecisionTree& tree = clf.tree(t);
    const std::int32_t base = static_cast<std::int32_t>(f.packed_.size());
    f.packed_roots_.push_back(base);
    order.assign(1, 0);
    newid.assign(static_cast<std::size_t>(tree.num_nodes()), -1);
    newid[0] = 0;
    for (std::size_t q = 0; q < order.size(); ++q) {
      const TreeNode& n = tree.node(order[q]);
      if (!n.is_leaf()) {
        newid[static_cast<std::size_t>(n.left)] =
            static_cast<std::int32_t>(order.size());
        order.push_back(n.left);
        newid[static_cast<std::size_t>(n.right)] =
            static_cast<std::int32_t>(order.size());
        order.push_back(n.right);
      }
    }
    for (std::size_t q = 0; q < order.size(); ++q) {
      const TreeNode& n = tree.node(order[q]);
      PackedNode p;
      if (n.is_leaf()) {
        p.thr = 0.0;
        p.feat = -1;
        p.left = -1;
      } else {
        p.thr = n.threshold;
        p.feat = n.feature;
        p.left = base + newid[static_cast<std::size_t>(n.left)];
      }
      f.packed_.push_back(p);
      const double count = n.pos + n.neg;
      f.packed_leafp_.push_back(count > 0 ? n.pos / count : 0.5);
    }
  }
  return f;
}

double FlatForest::predict_proba(std::span<const double> x) const {
  if (roots_.empty()) return 0.5;
  double p = 0;
  batch_walk(x.data(), 1, static_cast<int>(x.size()), &p);
  return p;
}

void FlatForest::batch_walk(const double* rows, int n, int num_features,
                            double* out) const {
  for (int i = 0; i < n; ++i) {
    const double* x = rows + static_cast<std::size_t>(i) * num_features;
    double sum = 0;
    for (const std::int32_t root : roots_) {
      std::int32_t node = root;
      std::int32_t feat = feature_[static_cast<std::size_t>(node)];
      while (feat >= 0) {
        node = x[feat] < threshold_[static_cast<std::size_t>(node)]
                   ? left_[static_cast<std::size_t>(node)]
                   : right_[static_cast<std::size_t>(node)];
        feat = feature_[static_cast<std::size_t>(node)];
      }
      sum += leaf_p_[static_cast<std::size_t>(node)];
    }
    out[i] = sum / static_cast<double>(roots_.size());
  }
}

#if defined(REPRO_SIMD_X86)

// inline: folded into frontier_avx2, whose hot loops then share one
// layout (see the loop alignment note in CMakeLists.txt). With this walk
// called out of line the AVX2 kernel measured ~1.4x slower.
inline void FlatForest::walk_out(const double* rows, int num_features,
                                 std::int32_t node,
                                 const std::uint32_t* row_ids,
                                 std::int32_t count, double* out) const {
  const PackedNode* nd = packed_.data();
  for (std::int32_t j = 0; j < count; ++j) {
    const std::uint32_t r = row_ids[j];
    const double* x = rows + static_cast<std::size_t>(r) * num_features;
    std::int32_t a = node;
    std::int32_t f = nd[a].feat;
    while (f >= 0) {
      a = nd[a].left + (x[f] < nd[a].thr ? 0 : 1);
      f = nd[a].feat;
    }
    out[r] += packed_leafp_[static_cast<std::size_t>(a)];
  }
}

namespace {

/// Row-index segment of the frontier: the rows currently sitting at
/// `node` live at cur[start .. start + len).
struct FrontierSeg {
  std::int32_t node, start, len;
};

/// lane_masks()[k] has all bits set in lanes < k — the
/// maskload/maskstore masks for a partial vector of k rows.
const std::int32_t (&lane_masks())[9][8] {
  static const struct Table {
    std::int32_t m[9][8];
    Table() {
      for (int k = 0; k <= 8; ++k) {
        for (int b = 0; b < 8; ++b) m[k][b] = b < k ? -1 : 0;
      }
    }
  } table;
  return table.m;
}

}  // namespace

// GCC's gather intrinsics expand through _mm256_undefined_pd /
// _mm256_undefined_si256, whose deliberately-uninitialized temporaries
// trip -W(maybe-)uninitialized; the lanes are fully overwritten
// (all-ones mask), so the warnings are noise.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

// Frontier partition. The per-row scalar walk spends most of its cycles
// on branch mispredicts — split outcomes on scored candidates are close
// to 50/50, so every level of every tree is a coin-flip branch. Instead
// of predicting, partition: the whole batch descends one tree level by
// level as row-index segments, and each node splits its segment
// branch-free with a vector compare + LUT compress. Left-goers pack
// upward from the bottom of the next-level buffer and right-goers pack
// downward from the top (each reservation padded by one vector so a
// full-width compress store's junk lanes land in the pad, never in the
// neighbouring reservation), so both children get contiguous segments
// without a copy. Node data is loaded once per node and broadcast,
// 8 row features are fetched per gather, and segments narrower than one
// vector fall out of the machinery into walk_out. Reordering rows within
// a segment is output-invariant: a row's leaf — and therefore the one
// probability added into out[row] for this tree — depends only on the
// row's own features, and tree order is preserved by the outer loop, so
// out[] sees the exact accumulation order of the reference walk.
__attribute__((target("avx2")))
void FlatForest::frontier_avx2(const double* rows, int n, int num_features,
                               double* out) const {
  if (n < kBlock) {
    // Too narrow to partition; the reference walk is fastest here and
    // bit-identical by contract.
    batch_walk(rows, n, num_features, out);
    return;
  }
  std::fill_n(out, n, 0.0);
  const std::size_t num_trees = packed_roots_.size();
  const auto& lut = common::simd::compress8_table();
  const auto& lanes = lane_masks();
  const PackedNode* nodes = packed_.data();
  // Capacity 3n + slack: per level the bottom (left) region holds at
  // most n rows, and the top (right) region holds at most n rows plus a
  // kBlock pad per split segment — and there are at most n / kBlock of
  // those, since walk_out absorbs anything narrower. thread_local so the
  // hot scoring loop reuses warm buffers instead of paying allocations
  // per batch (each worker has its own set); ident is the read-only row
  // list for the root level, so trees after the first skip the iota.
  static thread_local std::vector<std::uint32_t> cur, nxt, ident;
  static thread_local std::vector<FrontierSeg> scur, snxt;
  const std::size_t cap = 3u * static_cast<std::size_t>(n) + 4 * kBlock;
  if (cur.size() < cap) {
    cur.resize(cap);
    nxt.resize(cap);
  }
  if (ident.size() < static_cast<std::size_t>(n)) {
    ident.resize(static_cast<std::size_t>(n));
    std::iota(ident.begin(), ident.end(), 0u);
  }
  for (std::size_t t = 0; t < num_trees; ++t) {
    const std::uint32_t* lvl = ident.data();
    scur.assign(1, FrontierSeg{packed_roots_[t], 0, n});
    while (!scur.empty()) {
      snxt.clear();
      std::int32_t lbase = 0;
      std::int32_t rbase = static_cast<std::int32_t>(cap);
      for (const FrontierSeg& s : scur) {
        const PackedNode nd = nodes[s.node];
        const std::uint32_t* src = lvl + s.start;
        if (nd.feat < 0) {  // whole segment reached a leaf
          const double p = packed_leafp_[static_cast<std::size_t>(s.node)];
          for (std::int32_t j = 0; j < s.len; ++j) out[src[j]] += p;
          continue;
        }
        std::uint32_t* dst = nxt.data() + lbase;
        const std::int32_t rres = rbase - s.len - kBlock;
        std::uint32_t* rts = nxt.data() + rres;
        rbase = rres;
        std::int32_t nl = 0, nr = 0;
        std::int32_t j = 0;
        const __m256d thr = _mm256_set1_pd(nd.thr);
        const __m128i fofs = _mm_set1_epi32(nd.feat);
        const __m128i nfv = _mm_set1_epi32(num_features);
        for (; j + kBlock <= s.len; j += kBlock) {
          const __m256i r8 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(src + j));
          // x[feat] of each row via gather at index row * nf + feat;
          // the compare below is the same double < as the reference walk
          // (_CMP_LT_OQ: NaN goes right).
          const __m128i rlo = _mm256_castsi256_si128(r8);
          const __m128i rhi = _mm256_extracti128_si256(r8, 1);
          const __m128i ilo = _mm_add_epi32(_mm_mullo_epi32(rlo, nfv), fofs);
          const __m128i ihi = _mm_add_epi32(_mm_mullo_epi32(rhi, nfv), fofs);
          const __m256d xlo = _mm256_i32gather_pd(rows, ilo, 8);
          const __m256d xhi = _mm256_i32gather_pd(rows, ihi, 8);
          const int mlo =
              _mm256_movemask_pd(_mm256_cmp_pd(xlo, thr, _CMP_LT_OQ));
          const int mhi =
              _mm256_movemask_pd(_mm256_cmp_pd(xhi, thr, _CMP_LT_OQ));
          const int m = mlo | (mhi << 4);
          const int cl = __builtin_popcount(m);
          // lut[m] lists the set lanes of m ascending: permute packs the
          // left-going rows to the front; lut of the complement packs
          // the right-going rows likewise.
          const __m256i lefts = _mm256_permutevar8x32_epi32(
              r8,
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lut[m])));
          const __m256i rights = _mm256_permutevar8x32_epi32(
              r8, _mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(lut[255 - m])));
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + nl), lefts);
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(rts + nr), rights);
          nl += cl;
          nr += kBlock - cl;
        }
        if (const std::int32_t rem = s.len - j; rem > 0) {
          // Masked tail: load only the live lanes, confine the compare
          // mask to them, and store back with lane-count masks.
          const __m256i r8 = _mm256_maskload_epi32(
              reinterpret_cast<const int*>(src + j),
              _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(lanes[rem])));
          const __m128i rlo = _mm256_castsi256_si128(r8);
          const __m128i rhi = _mm256_extracti128_si256(r8, 1);
          const __m128i ilo = _mm_add_epi32(_mm_mullo_epi32(rlo, nfv), fofs);
          const __m128i ihi = _mm_add_epi32(_mm_mullo_epi32(rhi, nfv), fofs);
          const __m256d xlo = _mm256_i32gather_pd(rows, ilo, 8);
          const __m256d xhi = _mm256_i32gather_pd(rows, ihi, 8);
          const int mlo =
              _mm256_movemask_pd(_mm256_cmp_pd(xlo, thr, _CMP_LT_OQ));
          const int mhi =
              _mm256_movemask_pd(_mm256_cmp_pd(xhi, thr, _CMP_LT_OQ));
          const int live_mask = (1 << rem) - 1;
          const int m = (mlo | (mhi << 4)) & live_mask;
          const int cl = __builtin_popcount(m);
          const __m256i lefts = _mm256_permutevar8x32_epi32(
              r8,
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lut[m])));
          const __m256i rights = _mm256_permutevar8x32_epi32(
              r8, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                      lut[(~m) & live_mask])));
          _mm256_maskstore_epi32(
              reinterpret_cast<int*>(dst + nl),
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes[cl])),
              lefts);
          _mm256_maskstore_epi32(
              reinterpret_cast<int*>(rts + nr),
              _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(lanes[rem - cl])),
              rights);
          nl += cl;
          nr += rem - cl;
        }
        if (nl >= kBlock) {
          snxt.push_back(FrontierSeg{nd.left, lbase, nl});
        } else if (nl > 0) {
          walk_out(rows, num_features, nd.left, dst, nl, out);
        }
        if (nr >= kBlock) {
          snxt.push_back(FrontierSeg{nd.left + 1, rres, nr});
        } else if (nr > 0) {
          walk_out(rows, num_features, nd.left + 1, rts, nr, out);
        }
        lbase += nl;
      }
      cur.swap(nxt);
      lvl = cur.data();
      scur.swap(snxt);
    }
  }
  for (int i = 0; i < n; ++i) out[i] /= static_cast<double>(num_trees);
}

#pragma GCC diagnostic pop

#endif  // REPRO_SIMD_X86

FlatForest::BatchKernel FlatForest::kernel_for(common::simd::Level level) {
  return level == common::simd::Level::kAvx2 ? BatchKernel::kAvx2
                                             : BatchKernel::kScalar;
}

void FlatForest::predict_batch_kernel(BatchKernel kernel, const double* rows,
                                      int n, int num_features,
                                      double* out) const {
  if (roots_.empty()) {
    for (int i = 0; i < n; ++i) out[i] = 0.5;
    return;
  }
#if defined(REPRO_SIMD_X86)
  if (kernel == BatchKernel::kAvx2 &&
      common::simd::max_supported() == common::simd::Level::kAvx2) {
    frontier_avx2(rows, n, num_features, out);
    return;
  }
#endif
  batch_walk(rows, n, num_features, out);
}

void FlatForest::predict_batch(const double* rows, int n, int num_features,
                               double* out) const {
  predict_batch_kernel(kernel_for(common::simd::active()), rows, n,
                       num_features, out);
}

}  // namespace repro::ml
