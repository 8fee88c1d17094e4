// Decision-tree learners.
//
// Two base classifiers, mirroring the Weka models the paper uses:
//   * RandomTree - randomized tree: at each node only a random subset of
//     features is considered; grown to purity, no pruning. The base
//     classifier of RandomForest.
//   * REPTree  - entropy-split tree with Reduced Error Pruning: the training
//     set is split into a grow set and a prune set (1/num_folds held out,
//     Weka default 3 folds); after growing, subtrees whose removal does not
//     hurt prune-set error are collapsed. Smaller and better-generalizing,
//     which is exactly why the paper swaps it in for scalability.
//
// Leaves store (positive, negative) training counts backfitted from the
// full training set, so predict_proba() returns P/(P+N) exactly as Eq. (1)
// of the paper requires for soft voting.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace repro::ml {

struct TreeOptions {
  int min_leaf = 2;       ///< minimum samples per leaf (Weka minNum)
  int max_depth = -1;     ///< -1: unlimited
  /// 0: consider every feature at each split (REPTree behaviour);
  /// k > 0: consider k random features (RandomTree behaviour).
  int num_random_features = 0;
  bool reduced_error_pruning = false;
  int num_folds = 3;      ///< prune set = 1/num_folds of the rows
};

struct TreeNode {
  int feature = -1;        ///< -1 for leaves
  double threshold = 0.0;  ///< go left if x[feature] < threshold
  int left = -1;
  int right = -1;
  double pos = 0;          ///< backfitted positive training count
  double neg = 0;          ///< backfitted negative training count

  bool is_leaf() const { return feature < 0; }
};

/// Every feature's row ids in ascending order of value: the attribute
/// lists of the presorted split search (SLIQ; Weka's REPTree grows the
/// same way). Sorting is the only O(n log n) step of tree growth, so it
/// happens once per dataset — once per ensemble in BaggingClassifier::
/// train — and the result is read-only afterwards, shared by every tree
/// and every worker thread.
class Presort {
 public:
  explicit Presort(const Dataset& data);

  /// Row ids of the dataset ascending by the value of feature f (NaN
  /// last; equal values in unspecified order).
  std::span<const int> feature(int f) const {
    return {ids_.data() + static_cast<std::size_t>(f) * rows_, rows_};
  }

 private:
  std::size_t rows_;
  std::vector<int> ids_;  // feature f at [f * rows_, (f + 1) * rows_)
};

/// Reusable training scratch. Growing one tree needs a handful of
/// temporary vectors (row ids, grow/prune partitions, the grow set's
/// per-feature sorted lists, candidate feature lists); allocating them
/// fresh per tree made the allocator the contention point of parallel
/// ensemble training. A TreeScratch owns all of them and is reused
/// across trees; ensemble trainers keep one instance per worker thread
/// (bagging.cpp), so the hot loop allocates only when a tree outgrows
/// every previous tree on that worker. Contents are fully overwritten on
/// every use — reuse cannot leak state between trees, and results are
/// bit-identical with or without a shared scratch.
///
/// `lists` holds one list per feature, each |grow| row ids long and laid
/// out back to back: feature f's list at [f * |grow|, (f + 1) * |grow|).
/// A node owns the same range [lo, hi) of every list, sorted by that
/// list's feature; splitting the node stably partitions every list's
/// range into its children's, so no node ever sorts.
struct TreeScratch {
  std::vector<int> rows;        ///< the tree's training row ids
  std::vector<int> grow;        ///< grow partition (REP holds out prune)
  std::vector<int> prune;       ///< held-out prune rows
  std::vector<int> feats;       ///< candidate features of the current node
  std::vector<int> feat_pool;   ///< all feature ids, for random subsets
  std::vector<int> lists;       ///< per-feature sorted grow-row ids
  std::vector<int> spill;       ///< right-going ids while partitioning
  std::vector<int> count;       ///< multiplicity of each dataset row in grow
  std::vector<std::uint8_t> goes_left;  ///< per dataset row: side of split
  std::vector<long> prune_pos;  ///< per-node prune-set class counts
  std::vector<long> prune_neg;
  std::vector<int> sample;      ///< bootstrap resample ids (bagging)
};

class DecisionTree {
 public:
  /// Trains a tree on the given rows of `data` (all rows if `rows` empty;
  /// repeated ids count once per occurrence, as in a bootstrap sample).
  static DecisionTree train(const Dataset& data, const TreeOptions& opt,
                            std::mt19937_64& rng,
                            std::span<const int> rows = {});

  /// train with a caller-provided presort of `data` and scratch buffers
  /// (see Presort, TreeScratch); the result is bit-identical to the
  /// overload above, which builds both itself.
  static DecisionTree train(const Dataset& data, const Presort& order,
                            const TreeOptions& opt, std::mt19937_64& rng,
                            std::span<const int> rows, TreeScratch& scratch);

  /// Rebuilds a tree from stored nodes (model deserialization). The
  /// caller vouches that child indices are in range and the node at
  /// index 0 is the root; ml::load_bagging validates both before
  /// calling.
  static DecisionTree from_nodes(std::vector<TreeNode> nodes) {
    DecisionTree t;
    t.nodes_ = std::move(nodes);
    return t;
  }

  /// P(positive) = pos/(pos+neg) of the reached leaf (Eq. (1)).
  double predict_proba(std::span<const double> x) const;
  /// Hard 0/1 prediction at the 0.5 threshold.
  int predict(std::span<const double> x) const {
    return predict_proba(x) >= 0.5 ? 1 : 0;
  }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_leaves() const;
  int depth() const;
  const TreeNode& node(int i) const {
    return nodes_[static_cast<std::size_t>(i)];
  }

 private:
  int leaf_of(std::span<const double> x) const;

  friend class TreeBuilder;
  std::vector<TreeNode> nodes_;  // nodes_[0] is the root
};

}  // namespace repro::ml
