#include "ml/serialize.hpp"

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/binio.hpp"

namespace repro::ml {

using common::BinaryReader;
using common::BinaryWriter;
using common::Status;
using common::StatusOr;

std::string save_bagging(const BaggingClassifier& clf) {
  BinaryWriter w;
  w.u32(static_cast<std::uint32_t>(clf.num_trees()));
  for (int t = 0; t < clf.num_trees(); ++t) {
    const DecisionTree& tree = clf.tree(t);
    w.u32(static_cast<std::uint32_t>(tree.num_nodes()));
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const TreeNode& n = tree.node(i);
      w.i32(n.feature);
      w.f64(n.threshold);
      w.i32(n.left);
      w.i32(n.right);
      w.f64(n.pos);
      w.f64(n.neg);
    }
  }
  return common::seal_artifact(kBaggingMagic, kBaggingVersion, w.take());
}

StatusOr<BaggingClassifier> load_bagging(const std::string& raw) {
  StatusOr<std::string> payload =
      common::open_artifact(raw, kBaggingMagic, kBaggingVersion);
  if (!payload.ok()) return payload.status();

  BinaryReader r(*payload);
  std::uint32_t num_trees = 0;
  r.u32(num_trees);
  // A tree has >= 1 node and a node costs 32 bytes, so any count that
  // could not fit in the remaining payload is corruption, not data.
  if (!r.ok() || num_trees > r.remaining()) {
    return Status::DataLoss("model artifact: implausible tree count");
  }

  std::vector<DecisionTree> trees;
  trees.reserve(num_trees);
  for (std::uint32_t t = 0; t < num_trees; ++t) {
    std::uint32_t num_nodes = 0;
    r.u32(num_nodes);
    if (!r.ok() || num_nodes == 0 || num_nodes > r.remaining()) {
      return Status::DataLoss("model artifact: implausible node count");
    }
    std::vector<TreeNode> nodes(num_nodes);
    for (std::uint32_t i = 0; i < num_nodes; ++i) {
      TreeNode& n = nodes[i];
      r.i32(n.feature);
      r.f64(n.threshold);
      r.i32(n.left);
      r.i32(n.right);
      r.f64(n.pos);
      r.f64(n.neg);
    }
    if (!r.ok()) return r.status();
    // Structural validation: the tree walker indexes nodes_ unchecked,
    // so a CRC-valid but malformed artifact must be rejected here.
    // Children must also lie after their parent (the trainer appends a
    // node before its children): ids then rise along every walk, so each
    // walk reaches a leaf.
    //
    // Class counts become leaf probabilities pos / (pos + neg), which
    // scoring needs finite, >= 0 and not -0.0 (the candidate display
    // order compares p by bit pattern). Trained counts start at +0.0 and
    // add 1.0, so they always pass.
    const auto count_ok = [](double c) {
      return std::isfinite(c) && !std::signbit(c);
    };
    const int limit = static_cast<int>(num_nodes);
    for (int i = 0; i < limit; ++i) {
      const TreeNode& n = nodes[static_cast<std::size_t>(i)];
      if (!count_ok(n.pos) || !count_ok(n.neg)) {
        return Status::DataLoss("model artifact: bad class count");
      }
      if (n.is_leaf()) continue;
      if (n.left <= i || n.left >= limit || n.right <= i || n.right >= limit) {
        return Status::DataLoss("model artifact: child index out of range");
      }
    }
    trees.push_back(DecisionTree::from_nodes(std::move(nodes)));
  }
  if (r.remaining() != 0) {
    return Status::DataLoss("model artifact: trailing bytes after payload");
  }
  return BaggingClassifier::from_trees(std::move(trees));
}

}  // namespace repro::ml
