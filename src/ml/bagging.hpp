// Bagging meta-classifier with soft voting (paper Eqs. (1)-(3)).
//
// Each base tree is trained on a bootstrap resample of the training set.
// At inference, tree i contributes p_i = P_i/(P_i+N_i) from the counts of
// training samples in the reached leaf, and the ensemble output is the
// average p = sum(p_i)/n. The binary answer applies a threshold t (0.5 by
// default); the paper's LoC-size control generalizes t, which callers do by
// using predict_proba directly.
//
// Two factory presets mirror Weka defaults:
//   * bagged REPTrees (10 trees)      - the paper's fast configuration
//   * RandomForest (100 RandomTrees)  - the baseline from the authors' own
//                                       earlier work [18]
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.hpp"
#include "ml/tree.hpp"

namespace repro::ml {

struct BaggingOptions {
  int num_trees = 10;
  TreeOptions tree{.min_leaf = 2,
                   .max_depth = -1,
                   .num_random_features = 0,
                   .reduced_error_pruning = true,
                   .num_folds = 3};
  std::uint64_t seed = 1;

  /// Weka-default Bagging of 10 REPTrees.
  static BaggingOptions reptree_bagging(std::uint64_t seed = 1) {
    BaggingOptions o;
    o.seed = seed;
    return o;
  }
  /// Weka-default RandomForest: 100 unpruned RandomTrees considering
  /// ceil(log2(F)) + 1 random features per split.
  static BaggingOptions random_forest(int num_features,
                                      std::uint64_t seed = 1);
};

class BaggingClassifier {
 public:
  /// Trains the ensemble. Trees are independent: tree i draws its
  /// bootstrap sample and grows from an RNG seeded with
  /// common::derive_seed(opt.seed, i), so the model is a pure function of
  /// (data, opt) and bit-identical at any thread count. Training runs on
  /// the global thread pool (REPRO_THREADS / set_global_threads).
  ///
  /// Throws std::invalid_argument on an empty dataset: bootstrap
  /// resampling has nothing to draw from.
  static BaggingClassifier train(const Dataset& data,
                                 const BaggingOptions& opt);

  /// Grows tree t of the ensemble train(data, opt) builds. Its bootstrap
  /// resample and its growth both draw from derive_seed(opt.seed, t), so
  /// trees may be grown in any order, on any thread: train() is the
  /// parallel loop over t, and the LOO schedule (core/cross_validation)
  /// grows the trees of every fold in one region through this function.
  /// `order` must be Presort(data); `scratch` is the calling worker's.
  /// Throws std::invalid_argument on an empty dataset, as train() does.
  static DecisionTree train_tree(const Dataset& data, const Presort& order,
                                 const BaggingOptions& opt, int t,
                                 TreeScratch& scratch);

  /// Minimum trees per chunk of a parallel region over trees. A 50-tree
  /// ensemble sliced into 8 cold chunks pays more in worker wakeup and
  /// cache warmup than the spread buys; requiring a few trees per chunk
  /// keeps the per-chunk fixed costs amortized. Purely a scheduling knob:
  /// the model is bit-identical for any grain.
  static constexpr std::int64_t kTreeGrain = 4;

  /// The ensemble of trees train_tree grew, t = 0, 1, ...: from_trees,
  /// plus the ml.trees_grown and ml.tree_nodes counts of a trained model.
  static BaggingClassifier from_grown_trees(std::vector<DecisionTree> trees);

  /// Rebuilds an ensemble from stored trees (model deserialization;
  /// see ml/serialize.hpp).
  static BaggingClassifier from_trees(std::vector<DecisionTree> trees) {
    BaggingClassifier clf;
    clf.trees_ = std::move(trees);
    return clf;
  }

  /// Soft-voting probability p(x) (Eq. (3)).
  double predict_proba(std::span<const double> x) const;
  /// Hard answer at threshold t (Eq. (2)).
  int predict(std::span<const double> x, double t = 0.5) const {
    return predict_proba(x) >= t ? 1 : 0;
  }

  int num_trees() const { return static_cast<int>(trees_.size()); }
  const DecisionTree& tree(int i) const {
    return trees_[static_cast<std::size_t>(i)];
  }
  /// Total node count across trees (model-size metric).
  long total_nodes() const;

 private:
  std::vector<DecisionTree> trees_;
};

/// A trained ensemble flattened for batch inference.
///
/// All trees' nodes live in contiguous structure-of-arrays storage
/// (feature index, threshold, child offsets, leaf probability), child
/// indices rebased to the global node array. Compared with walking
/// DecisionTree nodes (56-byte AoS records whose pos/neg counts are dead
/// weight at inference), the flat layout touches ~3x fewer cache lines
/// per traversal and needs no per-tree indirection.
///
/// predict_proba / predict_batch reproduce
/// BaggingClassifier::predict_proba bit-for-bit: leaf probabilities are
/// precomputed with the same pos/(pos+neg) expression and summed in the
/// same tree order.
///
/// Two kernels sit behind the dispatch, one per common::simd level:
///
///  * kScalar — the reference walk: one row at a time through every
///    tree over the SoA arrays. Also serves predict_proba (a batch of
///    one) and batches narrower than one AVX2 vector.
///  * kAvx2 — frontier partition, tree-major: the whole batch descends
///    one tree level by level as row-index segments, one segment per
///    reached node, over a BFS-packed mirror of the nodes (16-byte
///    records, right child = left + 1). Each node's threshold and
///    feature are loaded once per *node* (not once per row), the segment
///    is split left/right with a vector compare + compress-store, and
///    segments narrower than one vector walk out to their leaves row by
///    row. On random rows the per-row walk is branch-mispredict-bound
///    (every split is ~50/50), which partitioning sidesteps entirely.
///
/// Both layouts earn their keep: the scalar walk over the BFS-packed
/// records measured ~25% slower than over the SoA arrays, so the
/// reference walk keeps its own layout (DESIGN.md, section 8.2).
///
/// Both kernels accumulate each out[i]'s leaf probabilities in tree
/// order and divide once at the end — the exact same double compares
/// (NaN goes right) and the same summation order — so outputs are
/// bit-identical at every dispatch level (common::simd::active()); the
/// kernels differ only in how the work is scheduled, never in arithmetic.
class FlatForest {
 public:
  /// Batch-traversal kernels, selectable for benches and differential
  /// tests; predict_batch dispatches on common::simd::active().
  enum class BatchKernel {
    kScalar,  ///< reference one-row-at-a-time walk
    kAvx2,    ///< frontier partition with AVX2 compress-stores
  };
  /// Rows per AVX2 vector; narrower batches and segments walk row by row.
  static constexpr int kBlock = 8;

  FlatForest() = default;
  static FlatForest build(const BaggingClassifier& clf);

  bool empty() const { return roots_.empty(); }
  int num_trees() const { return static_cast<int>(roots_.size()); }
  int num_nodes() const { return static_cast<int>(feature_.size()); }

  /// Identical to BaggingClassifier::predict_proba on the source model.
  double predict_proba(std::span<const double> x) const;

  /// Scores n rows of `num_features` doubles each (row-major, contiguous);
  /// out[i] = predict_proba(row i). The hot path of candidate scoring.
  /// Dispatches to the kernel of common::simd::active().
  void predict_batch(const double* rows, int n, int num_features,
                     double* out) const;

  /// predict_batch through one specific kernel. kAvx2 on a build or CPU
  /// without AVX2 runs kScalar (same outputs by contract).
  void predict_batch_kernel(BatchKernel kernel, const double* rows, int n,
                            int num_features, double* out) const;

  /// The kernel predict_batch uses at a given dispatch level.
  static BatchKernel kernel_for(common::simd::Level level);

 private:
  void batch_walk(const double* rows, int n, int num_features,
                  double* out) const;
#if defined(REPRO_SIMD_X86)
  /// Finishes `count` rows of the frontier kernel one by one: walks each
  /// from `node` to its leaf and adds the leaf probability into out[row].
  void walk_out(const double* rows, int num_features, std::int32_t node,
                const std::uint32_t* row_ids, std::int32_t count,
                double* out) const;
  void frontier_avx2(const double* rows, int n, int num_features,
                     double* out) const;
#endif

  // SoA node storage; index i of each array describes global node i.
  std::vector<std::int32_t> feature_;    ///< -1 for leaves
  std::vector<double> threshold_;
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  std::vector<double> leaf_p_;           ///< pos/(pos+neg), 0.5 if empty
  std::vector<std::int32_t> roots_;      ///< root node id per tree

  // BFS-packed mirror for the frontier kernel: one 16-byte record per
  // node, numbered breadth-first so siblings are adjacent and the right
  // child is implicitly left + 1.
  struct alignas(16) PackedNode {
    double thr;
    std::int32_t feat;  ///< -1 for leaves
    std::int32_t left;  ///< BFS id of the left child; right is left + 1
  };
  std::vector<PackedNode> packed_;
  std::vector<double> packed_leafp_;       ///< leaf_p_ in BFS numbering
  std::vector<std::int32_t> packed_roots_; ///< BFS root id per tree
};

}  // namespace repro::ml
