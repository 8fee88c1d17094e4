#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace repro::ml {

namespace {

double entropy(double pos, double neg) {
  const double n = pos + neg;
  if (n <= 0) return 0.0;
  double h = 0.0;
  if (pos > 0) h -= (pos / n) * std::log2(pos / n);
  if (neg > 0) h -= (neg / n) * std::log2(neg / n);
  return h;
}

}  // namespace

Presort::Presort(const Dataset& data)
    : rows_(static_cast<std::size_t>(data.num_rows())),
      ids_(rows_ * static_cast<std::size_t>(data.num_features())) {
  std::vector<std::pair<double, int>> col(rows_);
  for (int f = 0; f < data.num_features(); ++f) {
    for (int r = 0; r < data.num_rows(); ++r) {
      col[static_cast<std::size_t>(r)] = {data.at(r, f), r};
    }
    // NaN sorts last, so the order stays strict-weak on any input.
    std::sort(col.begin(), col.end(), [](const auto& a, const auto& b) {
      return a.first < b.first ||
             (std::isnan(b.first) && !std::isnan(a.first));
    });
    int* out = ids_.data() + static_cast<std::size_t>(f) * rows_;
    for (std::size_t i = 0; i < rows_; ++i) out[i] = col[i].second;
  }
}

// Presorted split search. Every node's split search meets the same
// distinct-value boundaries, in the same ascending order and with the same
// integer-valued class counts, as sorting the node's (value, label) pairs
// afresh would: tie order is invisible because a split only falls between
// distinct values, and the boundary values themselves are equal. So every
// gain, tie-break, threshold and RNG draw — and therefore the model — is
// bit-identical to a per-node sort, at a fraction of the cost.
class TreeBuilder {
 public:
  TreeBuilder(const Dataset& data, const Presort& order,
              const TreeOptions& opt, std::mt19937_64& rng,
              TreeScratch& scratch)
      : data_(data), order_(order), opt_(opt), rng_(rng), s_(scratch) {}

  DecisionTree build(std::span<const int> rows_in) {
    std::vector<int>& rows = s_.rows;
    if (rows_in.empty()) {
      rows.resize(static_cast<std::size_t>(data_.num_rows()));
      std::iota(rows.begin(), rows.end(), 0);
    } else {
      rows.assign(rows_in.begin(), rows_in.end());
    }

    DecisionTree tree;
    std::vector<int>& grow = s_.grow;
    std::vector<int>& prune = s_.prune;
    grow.assign(rows.begin(), rows.end());
    prune.clear();
    if (opt_.reduced_error_pruning && opt_.num_folds >= 2 &&
        static_cast<int>(rows.size()) >= 2 * opt_.num_folds) {
      std::shuffle(grow.begin(), grow.end(), rng_);
      const std::size_t n_prune = grow.size() / static_cast<std::size_t>(opt_.num_folds);
      prune.assign(grow.end() - static_cast<std::ptrdiff_t>(n_prune), grow.end());
      grow.resize(grow.size() - n_prune);
    }

    // The grow set's sorted lists, from one counting pass over the
    // presort: each feature's rows in presorted order, every bootstrap
    // duplicate repeated in place.
    std::vector<int>& count = s_.count;
    count.assign(static_cast<std::size_t>(data_.num_rows()), 0);
    double pos = 0, neg = 0;
    for (int r : grow) {
      ++count[static_cast<std::size_t>(r)];
      (data_.label(r) ? pos : neg) += 1;
    }
    grow_size_ = grow.size();
    s_.lists.resize(grow_size_ * static_cast<std::size_t>(data_.num_features()));
    for (int f = 0; f < data_.num_features(); ++f) {
      int* out = list(f);
      for (int r : order_.feature(f)) {
        for (int k = count[static_cast<std::size_t>(r)]; k > 0; --k) *out++ = r;
      }
    }
    s_.spill.resize(grow_size_);
    s_.goes_left.resize(static_cast<std::size_t>(data_.num_rows()));

    nodes_ = &tree.nodes_;
    build_node(0, static_cast<int>(grow_size_), 0, pos, neg);

    if (!prune.empty()) {
      // Route prune rows; collect per-node prune class counts.
      s_.prune_pos.assign(tree.nodes_.size(), 0);
      s_.prune_neg.assign(tree.nodes_.size(), 0);
      for (int r : prune) route_prune(tree, 0, r);
      do_prune(tree, 0);
    }

    // Backfit counts from the complete training set (grow + prune).
    for (TreeNode& n : tree.nodes_) {
      n.pos = 0;
      n.neg = 0;
    }
    for (int r : rows) backfit(tree, 0, r);

    nodes_ = nullptr;
    return tree;
  }

 private:
  int* list(int f) {
    return s_.lists.data() + static_cast<std::size_t>(f) * grow_size_;
  }

  /// Builds the subtree for entries [lo, hi) of every feature list, which
  /// hold `pos` positive and `neg` negative rows, and returns its node id.
  int build_node(int lo, int hi, int depth, double pos, double neg) {
    const int id = static_cast<int>(nodes_->size());
    nodes_->push_back(TreeNode{});
    (*nodes_)[static_cast<std::size_t>(id)].pos = pos;
    (*nodes_)[static_cast<std::size_t>(id)].neg = neg;

    const int n = hi - lo;
    const bool depth_ok = (opt_.max_depth < 0 || depth < opt_.max_depth);
    if (pos == 0 || neg == 0 || n < 2 * opt_.min_leaf || !depth_ok) {
      return id;  // leaf
    }

    // Candidate features. The scratch buffers are safe to share down
    // the recursion: a node is completely done with feats, goes_left and
    // spill before it recurses into its children.
    std::vector<int>& feats = s_.feats;
    if (opt_.num_random_features > 0 &&
        opt_.num_random_features < data_.num_features()) {
      std::vector<int>& all = s_.feat_pool;
      all.resize(static_cast<std::size_t>(data_.num_features()));
      std::iota(all.begin(), all.end(), 0);
      std::shuffle(all.begin(), all.end(), rng_);
      feats.assign(all.begin(), all.begin() + opt_.num_random_features);
    } else {
      feats.resize(static_cast<std::size_t>(data_.num_features()));
      std::iota(feats.begin(), feats.end(), 0);
    }

    const double parent_h = entropy(pos, neg);
    int best_f = -1;
    double best_t = 0, best_gain = 1e-9;

    for (int f : feats) {
      const int* ids = list(f) + lo;  // ascending by feature f
      double lp = 0, ln = 0;
      double next = data_.at(ids[0], f);
      for (int i = 0; i + 1 < n; ++i) {
        const double v = next;
        next = data_.at(ids[i + 1], f);
        (data_.label(ids[i]) ? lp : ln) += 1;
        if (v == next) continue;  // can only split between distinct values
        const int nl = i + 1, nr = n - nl;
        if (nl < opt_.min_leaf || nr < opt_.min_leaf) continue;
        const double rp = pos - lp, rn = neg - ln;
        const double gain = parent_h - (nl * entropy(lp, ln) +
                                        nr * entropy(rp, rn)) / n;
        if (gain > best_gain) {
          best_gain = gain;
          best_f = f;
          best_t = (v + next) / 2.0;
        }
      }
    }

    if (best_f < 0) return id;  // no useful split

    // Each row's side comes from the predicate x < t, never from the scan
    // position: the midpoint of two adjacent doubles can round onto the
    // lower one, which then goes right. All copies of a bootstrap row
    // share one flag.
    std::uint8_t* goes_left = s_.goes_left.data();
    const int* best_ids = list(best_f);
    int mid = lo;
    double lpos = 0, lneg = 0;
    for (int i = lo; i < hi; ++i) {
      const int r = best_ids[i];
      goes_left[r] = data_.at(r, best_f) < best_t;
      if (goes_left[r]) {
        ++mid;
        (data_.label(r) ? lpos : lneg) += 1;
      }
    }
    if (mid == lo || mid == hi) return id;  // numerically degenerate

    // Stable partition of every feature's list: the left rows keep their
    // order in [lo, mid), the right rows theirs in [mid, hi), so both
    // children's lists stay sorted.
    int* spill = s_.spill.data();
    for (int f = 0; f < data_.num_features(); ++f) {
      int* ids = list(f);
      int w = lo, k = 0;
      for (int i = lo; i < hi; ++i) {
        const int r = ids[i];
        const int l = goes_left[r];
        ids[w] = r;  // w <= i: never overwrites an unread entry
        spill[k] = r;
        w += l;
        k += 1 - l;
      }
      std::copy(spill, spill + k, ids + w);
    }

    (*nodes_)[static_cast<std::size_t>(id)].feature = best_f;
    (*nodes_)[static_cast<std::size_t>(id)].threshold = best_t;
    const int left = build_node(lo, mid, depth + 1, lpos, lneg);
    (*nodes_)[static_cast<std::size_t>(id)].left = left;
    const int right = build_node(mid, hi, depth + 1, pos - lpos, neg - lneg);
    (*nodes_)[static_cast<std::size_t>(id)].right = right;
    return id;
  }

  void route_prune(const DecisionTree& tree, int node, int row) {
    const TreeNode& n = tree.nodes_[static_cast<std::size_t>(node)];
    (data_.label(row) ? s_.prune_pos
                      : s_.prune_neg)[static_cast<std::size_t>(node)] += 1;
    if (n.is_leaf()) return;
    const int next =
        data_.at(row, n.feature) < n.threshold ? n.left : n.right;
    route_prune(tree, next, row);
  }

  /// Returns the prune-set error of the (possibly collapsed) subtree.
  long do_prune(DecisionTree& tree, int node) {
    TreeNode& n = tree.nodes_[static_cast<std::size_t>(node)];
    // Error if this node were a leaf predicting its grow-majority class.
    const int pred = n.pos >= n.neg ? 1 : 0;
    const long leaf_err = pred ? s_.prune_neg[static_cast<std::size_t>(node)]
                               : s_.prune_pos[static_cast<std::size_t>(node)];
    if (n.is_leaf()) return leaf_err;
    const long subtree_err =
        do_prune(tree, n.left) + do_prune(tree, n.right);
    if (leaf_err <= subtree_err) {
      n.feature = -1;  // collapse; children become unreachable
      n.left = n.right = -1;
      return leaf_err;
    }
    return subtree_err;
  }

  void backfit(DecisionTree& tree, int node, int row) {
    TreeNode& n = tree.nodes_[static_cast<std::size_t>(node)];
    (data_.label(row) ? n.pos : n.neg) += 1;
    if (n.is_leaf()) return;
    backfit(tree, data_.at(row, n.feature) < n.threshold ? n.left : n.right,
            row);
  }

  const Dataset& data_;
  const Presort& order_;
  const TreeOptions& opt_;
  std::mt19937_64& rng_;
  TreeScratch& s_;
  std::vector<TreeNode>* nodes_ = nullptr;
  std::size_t grow_size_ = 0;  // length of each feature list
};

DecisionTree DecisionTree::train(const Dataset& data, const TreeOptions& opt,
                                 std::mt19937_64& rng,
                                 std::span<const int> rows) {
  const Presort order(data);
  TreeScratch scratch;
  return train(data, order, opt, rng, rows, scratch);
}

DecisionTree DecisionTree::train(const Dataset& data, const Presort& order,
                                 const TreeOptions& opt, std::mt19937_64& rng,
                                 std::span<const int> rows,
                                 TreeScratch& scratch) {
  TreeBuilder b(data, order, opt, rng, scratch);
  return b.build(rows);
}

int DecisionTree::leaf_of(std::span<const double> x) const {
  int node = 0;
  while (!nodes_[static_cast<std::size_t>(node)].is_leaf()) {
    const TreeNode& n = nodes_[static_cast<std::size_t>(node)];
    node = x[static_cast<std::size_t>(n.feature)] < n.threshold ? n.left
                                                                : n.right;
  }
  return node;
}

double DecisionTree::predict_proba(std::span<const double> x) const {
  const TreeNode& n = nodes_[static_cast<std::size_t>(leaf_of(x))];
  const double total = n.pos + n.neg;
  return total > 0 ? n.pos / total : 0.5;
}

int DecisionTree::num_leaves() const {
  // Count leaves reachable from the root (pruned-away nodes excluded).
  int count = 0;
  std::vector<int> stack{0};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[static_cast<std::size_t>(id)];
    if (n.is_leaf()) {
      ++count;
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  return count;
}

int DecisionTree::depth() const {
  struct Item {
    int id, d;
  };
  int best = 0;
  std::vector<Item> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [id, d] = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[static_cast<std::size_t>(id)];
    best = std::max(best, d);
    if (!n.is_leaf()) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return best;
}

}  // namespace repro::ml
