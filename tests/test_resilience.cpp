// Checkpoint/resume for attack campaigns: model and result artifacts
// round-trip bit-exact, the run key isolates configurations, resumed
// leave-one-out runs — whole, or one fold at a time — reproduce
// uninterrupted digests at any thread count, corrupt checkpoints fall
// back to recompute, and the budget degradation ladder takes its rungs
// in order while recording events.
#include "core/resilience.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "core/cross_validation.hpp"
#include "ml/serialize.hpp"
#include "test_helpers.hpp"

namespace repro {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void clobber(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
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

using repro::testing::same_result;

ml::Dataset tiny_dataset() {
  ml::Dataset data({"a", "b"});
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 400; ++i) {
    const double a = u(rng), b = u(rng);
    data.add_row(std::vector<double>{a, b}, (a + b > 1.0) ? 1 : 0);
  }
  return data;
}

// --- model serialization --------------------------------------------------

TEST(MlSerialize, EnsembleRoundTripsBitExact) {
  const ml::Dataset data = tiny_dataset();
  const auto clf = ml::BaggingClassifier::train(
      data, ml::BaggingOptions::reptree_bagging(7));
  const std::string raw = ml::save_bagging(clf);
  auto back = ml::load_bagging(raw);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(same_model(clf, *back));
}

TEST(MlSerialize, EmptyEnsembleRoundTrips) {
  const auto clf = ml::BaggingClassifier::from_trees({});
  auto back = ml::load_bagging(ml::save_bagging(clf));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_trees(), 0);
}

TEST(MlSerialize, CorruptionAndTruncationAreDataLoss) {
  const ml::Dataset data = tiny_dataset();
  const std::string raw = ml::save_bagging(ml::BaggingClassifier::train(
      data, ml::BaggingOptions::reptree_bagging(3)));
  for (std::size_t i = 0; i < raw.size(); i += 7) {
    std::string bad = raw;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_FALSE(ml::load_bagging(bad).ok()) << "flip at " << i;
  }
  for (std::size_t frac = 1; frac < 8; ++frac) {
    EXPECT_FALSE(ml::load_bagging(raw.substr(0, raw.size() * frac / 8)).ok())
        << "truncation at " << frac << "/8";
  }
  EXPECT_FALSE(ml::load_bagging(raw + "x").ok()) << "trailing bytes";
}

TEST(MlSerialize, ChildAtOrBeforeItsParentIsDataLoss) {
  // In range, but a walk from the root would never reach a leaf.
  const ml::Dataset data = tiny_dataset();
  const auto clf = ml::BaggingClassifier::train(
      data, ml::BaggingOptions::reptree_bagging(1));
  std::vector<ml::TreeNode> nodes;
  for (int i = 0; i < clf.tree(0).num_nodes(); ++i) {
    nodes.push_back(clf.tree(0).node(i));
  }
  ASSERT_FALSE(nodes[0].is_leaf());
  for (const bool left : {true, false}) {
    std::vector<ml::TreeNode> looped = nodes;
    (left ? looped[0].left : looped[0].right) = 0;
    std::vector<ml::DecisionTree> trees;
    trees.push_back(ml::DecisionTree::from_nodes(std::move(looped)));
    const auto back = ml::load_bagging(
        ml::save_bagging(ml::BaggingClassifier::from_trees(std::move(trees))));
    EXPECT_EQ(back.status().code(), common::StatusCode::kDataLoss)
        << (left ? "left" : "right");
  }
}

TEST(MlSerialize, NegativeOrNonFiniteLeafCountIsDataLoss) {
  // Leaf counts become p = pos / (pos + neg): -1 / 2 scores p = -1, +inf
  // scores NaN, and -0.0 scores -0.0, which the display order's packed
  // key would rank apart from +0.0.
  const ml::Dataset data = tiny_dataset();
  const auto clf = ml::BaggingClassifier::train(
      data, ml::BaggingOptions::reptree_bagging(1));
  std::vector<ml::TreeNode> nodes;
  for (int i = 0; i < clf.tree(0).num_nodes(); ++i) {
    nodes.push_back(clf.tree(0).node(i));
  }
  const auto leaf = std::find_if(nodes.begin(), nodes.end(),
                                 [](const ml::TreeNode& n) {
                                   return n.is_leaf();
                                 }) -
                    nodes.begin();
  struct Mutant {
    const char* what;
    double ml::TreeNode::*field;
    double value;
  };
  const Mutant mutants[] = {
      {"pos -1", &ml::TreeNode::pos, -1.0},
      {"neg NaN", &ml::TreeNode::neg, std::nan("")},
      {"pos +inf", &ml::TreeNode::pos, HUGE_VAL},
      {"pos -0.0", &ml::TreeNode::pos, -0.0},
  };
  for (const Mutant& m : mutants) {
    std::vector<ml::TreeNode> bad = nodes;
    bad[static_cast<std::size_t>(leaf)].*m.field = m.value;
    std::vector<ml::DecisionTree> trees;
    trees.push_back(ml::DecisionTree::from_nodes(std::move(bad)));
    const auto back = ml::load_bagging(
        ml::save_bagging(ml::BaggingClassifier::from_trees(std::move(trees))));
    EXPECT_EQ(back.status().code(), common::StatusCode::kDataLoss) << m.what;
  }
}

// --- attack artifacts -----------------------------------------------------

class ResilienceAttack : public ::testing::Test {
 protected:
  void SetUp() override {
    common::obs::clear_degradation();
    for (std::uint64_t s = 1; s <= 3; ++s) {
      challenges_.push_back(
          repro::testing::make_grid_challenge(50, 100000, 8000, s));
    }
    cfg_ = core::config_from_name("Imp-9");
  }
  void TearDown() override {
    common::set_global_threads(0);
    common::obs::clear_degradation();
  }

  std::vector<const splitmfg::SplitChallenge*> training_for_0() const {
    return {&challenges_[1], &challenges_[2]};
  }

  std::vector<splitmfg::SplitChallenge> challenges_;
  core::AttackConfig cfg_;
};

TEST_F(ResilienceAttack, TrainedModelRoundTripsBitExact) {
  const core::TrainedModel model =
      core::AttackEngine::train(training_for_0(), cfg_);
  auto back = core::load_model(core::save_model(model));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->config.name, model.config.name);
  EXPECT_EQ(back->config.seed, model.config.seed);
  EXPECT_EQ(back->feat_idx, model.feat_idx);
  EXPECT_EQ(back->filter.neighborhood, model.filter.neighborhood);
  EXPECT_EQ(back->num_train_samples, model.num_train_samples);
  EXPECT_TRUE(same_model(model.classifier, back->classifier));

  // The loaded model must *score* identically, not just look identical.
  const core::AttackResult from_orig =
      core::AttackEngine::test(model, challenges_[0]);
  const core::AttackResult from_loaded =
      core::AttackEngine::test(*back, challenges_[0]);
  EXPECT_TRUE(same_result(from_orig, from_loaded));
  EXPECT_EQ(core::result_digest(from_orig), core::result_digest(from_loaded));
}

TEST_F(ResilienceAttack, LoadModelRejectsWhatScoringWouldMisuse) {
  const core::TrainedModel model =
      core::AttackEngine::train(training_for_0(), cfg_);
  ASSERT_TRUE(core::load_model(core::save_model(model)).ok());
  ASSERT_TRUE(model.filter.neighborhood.has_value());
  const ml::DecisionTree& tree0 = model.classifier.tree(0);
  ASSERT_FALSE(tree0.node(0).is_leaf());

  // A copy of `model` whose tree 0 root is edited by `edit`.
  const auto with_root = [&](auto edit) {
    std::vector<ml::TreeNode> nodes;
    for (int i = 0; i < tree0.num_nodes(); ++i) nodes.push_back(tree0.node(i));
    edit(nodes[0]);
    std::vector<ml::DecisionTree> trees;
    trees.push_back(ml::DecisionTree::from_nodes(std::move(nodes)));
    for (int t = 1; t < model.classifier.num_trees(); ++t) {
      trees.push_back(model.classifier.tree(t));
    }
    core::TrainedModel m = model;
    m.classifier = ml::BaggingClassifier::from_trees(std::move(trees));
    return m;
  };
  const int num_feat = static_cast<int>(model.feat_idx.size());
  struct Mutant {
    const char* rule;
    core::TrainedModel model;
  };
  std::vector<Mutant> mutants;
  for (const int f : {-1, static_cast<int>(core::kNumFeatures)}) {
    mutants.push_back({"feat_idx entry outside the 11 features", model});
    mutants.back().model.feat_idx[0] = f;
  }
  mutants.push_back({"root splits on a feature past feat_idx",
                     with_root([&](ml::TreeNode& n) { n.feature = num_feat; })});
  mutants.push_back({"root is its own child",
                     with_root([](ml::TreeNode& n) { n.right = 0; })});
  mutants.push_back({"zero histogram bins", model});
  mutants.back().model.config.hist_bins = 0;
  mutants.push_back({"negative top-K", model});
  mutants.back().model.config.top_k = -1;
  for (const double r : {std::nan(""), -1.0, HUGE_VAL}) {
    mutants.push_back({"neighbourhood radius not finite and >= 0", model});
    mutants.back().model.filter.neighborhood = r;
  }
  for (const Mutant& m : mutants) {
    EXPECT_EQ(core::load_model(core::save_model(m.model)).status().code(),
              common::StatusCode::kDataLoss)
        << m.rule;
  }
}

TEST_F(ResilienceAttack, ResultRoundTripsBitExactWithEqualDigest) {
  const core::TrainedModel model =
      core::AttackEngine::train(training_for_0(), cfg_);
  const core::AttackResult res =
      core::AttackEngine::test(model, challenges_[0]);
  const std::string raw = core::save_result(res);
  auto back = core::load_result(raw);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(same_result(res, *back));
  EXPECT_EQ(core::result_digest(res), core::result_digest(*back));
  EXPECT_EQ(back->design(), res.design());
  EXPECT_EQ(back->split_layer(), res.split_layer());

  // Every third byte flipped: the envelope CRC or the structural checks
  // must reject all of them.
  for (std::size_t i = 0; i < raw.size(); i += 3) {
    std::string bad = raw;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    EXPECT_FALSE(core::load_result(bad).ok()) << "flip at " << i;
  }
}

// The run key names checkpoints, server stores and campaign directories,
// so a format change must be deliberate: this value was recorded before
// AttackConfig lost its candidate-index switch, whose byte put_config
// still writes as a constant.
TEST_F(ResilienceAttack, RunKeyIsPinned) {
  EXPECT_EQ(core::attack_run_key(challenges_, cfg_), 0x4dddf298b27f6401ULL);
}

TEST_F(ResilienceAttack, RunKeySeparatesConfigsAndInputs) {
  const std::uint64_t base = core::attack_run_key(challenges_, cfg_);
  EXPECT_EQ(base, core::attack_run_key(challenges_, cfg_)) << "must be stable";

  core::AttackConfig other = cfg_;
  other.seed = 99;
  EXPECT_NE(base, core::attack_run_key(challenges_, other));
  other = cfg_;
  other.hist_bins = 64;
  EXPECT_NE(base, core::attack_run_key(challenges_, other));
  other = cfg_;
  other.max_trees = 5;  // a degraded config is a *different* computation
  EXPECT_NE(base, core::attack_run_key(challenges_, other));

  auto fewer = challenges_;
  fewer.pop_back();
  EXPECT_NE(base, core::attack_run_key(fewer, cfg_));
  auto renamed = challenges_;
  renamed[0].design_name = "someone_else";
  EXPECT_NE(base, core::attack_run_key(renamed, cfg_));
}

// --- result digest ----------------------------------------------------------

TEST(ResultDigest, MatchesTheByteWiseDefinition) {
  // Real results: every fold of a leave-one-out run.
  std::vector<splitmfg::SplitChallenge> challenges;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    challenges.push_back(
        repro::testing::make_grid_challenge(50, 100000, 8000, s));
  }
  const core::ChallengeSuite suite(challenges);
  for (const core::AttackResult& r :
       suite.run_all(core::config_from_name("Imp-9"))) {
    EXPECT_EQ(core::result_digest(r),
              repro::testing::reference_result_digest(r))
        << r.design();
  }

  // Synthetic results: every byte-length class of a count, every special
  // float bit pattern, an id of -1, and zero runs both shorter and far
  // longer than one field.
  const std::uint32_t counts[] = {0,        1,          255,
                                  256,      65535,      65536,
                                  16777215, 16777216,   0xffffffffu};
  const float floats[] = {0.0f,
                          -0.0f,
                          HUGE_VALF,
                          -HUGE_VALF,
                          std::nanf(""),
                          -std::nanf(""),
                          std::numeric_limits<float>::denorm_min(),
                          0.5f,
                          -1.0f};
  const splitmfg::VpinId ids[] = {-1, 0, 1, 255, 256, 70000};
  for (const int bins : {1, 7, 512, 5000}) {
    core::AttackResult res("synthetic", 8, bins);
    auto& pv = res.mutable_per_vpin();
    std::mt19937_64 rng(static_cast<std::uint64_t>(bins));
    std::uniform_int_distribution<int> pick(0, 8);
    const auto bins_of = [bins](auto fill) {
      std::vector<std::uint32_t> h(static_cast<std::size_t>(bins));
      for (std::size_t b = 0; b < h.size(); ++b) h[b] = fill(b);
      return h;
    };
    const auto top_of = [&](std::size_t size) {
      std::vector<core::Candidate> top(size);
      for (std::size_t i = 0; i < size; ++i) {
        top[i] = {ids[i % std::size(ids)], floats[i % std::size(floats)],
                  floats[(i / std::size(floats)) % std::size(floats)]};
      }
      return top;
    };
    for (int v = 0; v < 12; ++v) {
      core::VpinResult r;
      r.num_evaluated = v == 1 ? -1 : v == 2 ? 0x7fffffff : v * 37;
      r.p_true = floats[static_cast<std::size_t>(v) % std::size(floats)];
      r.d_true = floats[static_cast<std::size_t>(v + 3) % std::size(floats)];
      switch (v % 4) {
        case 0:  // all zero, the common case of an untested v-pin
          r.hist = bins_of([](std::size_t) { return 0u; });
          break;
        case 1:  // zero-free
          r.hist = bins_of([&](std::size_t b) {
            return counts[1 + b % (std::size(counts) - 1)];
          });
          break;
        case 2:  // alternating zero and non-zero
          r.hist = bins_of([&](std::size_t b) {
            return b % 2 ? counts[1 + b % (std::size(counts) - 1)] : 0u;
          });
          break;
        default:  // random counts at the byte boundaries
          r.hist = bins_of([&](std::size_t) {
            return counts[static_cast<std::size_t>(pick(rng))];
          });
      }
      r.top = top_of(v % 3 == 0 ? 0 : v % 3 == 1 ? 512 : 37);
      pv.push_back(std::move(r));
    }
    EXPECT_EQ(core::result_digest(res),
              repro::testing::reference_result_digest(res))
        << bins << " bins";
  }
  const core::AttackResult empty("empty", 8, 512);
  EXPECT_EQ(core::result_digest(empty),
            repro::testing::reference_result_digest(empty));
}

// --- degradation ladder ---------------------------------------------------

TEST(Degradation, TakesRungsInOrderAndRecordsEvents) {
  common::obs::clear_degradation();
  core::AttackConfig cfg = core::config_from_name("Imp-9");

  core::AttackConfig none = cfg;
  EXPECT_FALSE(
      core::apply_degradation(none, common::BudgetPressure::kNone));
  EXPECT_EQ(none.max_trees, 0);
  EXPECT_TRUE(common::obs::degradation_events().empty());

  // Exceeded is a stop, not a shed: the caller flushes and exits.
  core::AttackConfig exceeded = cfg;
  EXPECT_FALSE(
      core::apply_degradation(exceeded, common::BudgetPressure::kExceeded));
  EXPECT_EQ(exceeded.max_trees, 0);

  core::AttackConfig soft = cfg;
  EXPECT_TRUE(core::apply_degradation(soft, common::BudgetPressure::kSoft, 2));
  EXPECT_EQ(soft.max_trees, 5);
  EXPECT_EQ(soft.max_test_vpins, cfg.max_test_vpins) << "soft stops at rung 1";
  auto events = common::obs::degradation_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].step, "fewer_trees");
  EXPECT_EQ(events[0].fold, 2);

  common::obs::clear_degradation();
  core::AttackConfig hard = cfg;
  EXPECT_TRUE(core::apply_degradation(hard, common::BudgetPressure::kHard, 4));
  EXPECT_EQ(hard.max_trees, 5);
  EXPECT_EQ(hard.max_test_vpins, 256);
  EXPECT_DOUBLE_EQ(hard.neighborhood_percentile, 0.75);
  events = common::obs::degradation_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].step, "fewer_trees");
  EXPECT_EQ(events[1].step, "sample_targets");
  EXPECT_EQ(events[2].step, "shrink_radius");

  // Re-applying to an already-degraded config takes no further rungs.
  common::obs::clear_degradation();
  EXPECT_FALSE(core::apply_degradation(hard, common::BudgetPressure::kHard));
  EXPECT_TRUE(common::obs::degradation_events().empty());
  common::obs::clear_degradation();
}

TEST(Degradation, CappedEnsembleIsAPrefixOfTheFullOne) {
  // max_trees works by truncating the tree count, and tree i derives its
  // seed from (seed, i) alone — so the degraded ensemble is exactly the
  // first 5 trees of the full one, which keeps degraded results
  // deterministic and explains what accuracy was traded away.
  ml::Dataset data({"a", "b"});
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 400; ++i) {
    const double a = u(rng), b = u(rng);
    data.add_row(std::vector<double>{a, b}, (a + b > 1.0) ? 1 : 0);
  }
  ml::BaggingOptions full_opt = ml::BaggingOptions::reptree_bagging();
  full_opt.num_trees = 10;
  ml::BaggingOptions capped_opt = full_opt;
  capped_opt.num_trees = 5;
  const auto full = ml::BaggingClassifier::train(data, full_opt);
  const auto capped = ml::BaggingClassifier::train(data, capped_opt);
  ASSERT_EQ(capped.num_trees(), 5);
  std::vector<ml::DecisionTree> prefix;
  for (int t = 0; t < 5; ++t) {
    const ml::DecisionTree& tree = full.tree(t);
    std::vector<ml::TreeNode> nodes;
    for (int i = 0; i < tree.num_nodes(); ++i) nodes.push_back(tree.node(i));
    prefix.push_back(ml::DecisionTree::from_nodes(std::move(nodes)));
  }
  EXPECT_TRUE(
      same_model(capped, ml::BaggingClassifier::from_trees(std::move(prefix))));
}

// --- checkpointed leave-one-out: the kill-and-resume differential ---------

TEST_F(ResilienceAttack, ResumedRunsAreBitIdenticalAcrossThreadCounts) {
  // Uninterrupted baseline at 1 thread.
  const core::ChallengeSuite suite(challenges_);
  common::set_global_threads(1);
  const std::vector<core::AttackResult> baseline = suite.run_all(cfg_);
  std::vector<std::uint64_t> baseline_digests;
  for (const auto& r : baseline) {
    baseline_digests.push_back(core::result_digest(r));
  }

  // Full checkpointed run at 8 threads.
  const std::string dir = fresh_dir("resume_diff");
  const std::uint64_t key = core::attack_run_key(challenges_, cfg_);
  common::DiagnosticSink sink;
  {
    auto ckpt = common::CheckpointManager::open(dir, key, sink);
    ASSERT_TRUE(ckpt.ok());
    core::RunControl rc;
    rc.checkpoint = &*ckpt;
    rc.sink = &sink;
    common::set_global_threads(8);
    auto folds = suite.run_all_checkpointed(cfg_, rc);
    ASSERT_EQ(folds.size(), baseline.size());
    for (std::size_t i = 0; i < folds.size(); ++i) {
      ASSERT_TRUE(folds[i].has_value()) << "fold " << i;
      EXPECT_EQ(core::result_digest(*folds[i]), baseline_digests[i])
          << "checkpointed fold " << i << " diverged at 8 threads";
      EXPECT_TRUE(ckpt->has(core::ChallengeSuite::fold_result_name(
          static_cast<std::int64_t>(i))));
    }
  }

  // Simulated crash: fold 1's result never made it to disk. Resume at 1
  // thread — fold 1 is recomputed, folds 0 and 2 are loaded — and the
  // mixed run must be indistinguishable from the uninterrupted one.
  {
    common::DiagnosticSink resume_sink;
    auto ckpt = common::CheckpointManager::open(dir, key, resume_sink);
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt->remove(core::ChallengeSuite::fold_result_name(1)).ok());
    core::RunControl rc;
    rc.checkpoint = &*ckpt;
    rc.sink = &resume_sink;
    common::set_global_threads(1);
    auto folds = suite.run_all_checkpointed(cfg_, rc);
    for (std::size_t i = 0; i < folds.size(); ++i) {
      ASSERT_TRUE(folds[i].has_value()) << "fold " << i;
      EXPECT_TRUE(same_result(baseline[i], *folds[i]))
          << "resumed fold " << i << " is not bit-identical";
      EXPECT_EQ(core::result_digest(*folds[i]), baseline_digests[i]);
    }
  }

  // Bit-rotted checkpoint: fold 0's artifact fails its CRC on resume.
  // The run must diagnose, recompute, and still match the baseline.
  {
    const std::string fold0 =
        dir + "/" + core::ChallengeSuite::fold_result_name(0);
    std::string bytes;
    {
      auto raw = common::read_file(fold0);
      ASSERT_TRUE(raw.ok());
      bytes = *raw;
    }
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x7);
    clobber(fold0, bytes);

    common::DiagnosticSink resume_sink;
    auto ckpt = common::CheckpointManager::open(dir, key, resume_sink);
    ASSERT_TRUE(ckpt.ok());
    core::RunControl rc;
    rc.checkpoint = &*ckpt;
    rc.sink = &resume_sink;
    common::set_global_threads(2);
    auto folds = suite.run_all_checkpointed(cfg_, rc);
    bool diagnosed = false;
    for (const auto& d : resume_sink.diagnostics()) {
      if (d.code == "checkpoint.corrupt_artifact") diagnosed = true;
    }
    EXPECT_TRUE(diagnosed) << "corrupt artifact must be reported, not hidden";
    for (std::size_t i = 0; i < folds.size(); ++i) {
      ASSERT_TRUE(folds[i].has_value()) << "fold " << i;
      EXPECT_EQ(core::result_digest(*folds[i]), baseline_digests[i])
          << "fold " << i << " after corrupt-checkpoint fallback";
    }
  }
}

// --- one fold: the entry point of --fold workers and single-victim mode --

TEST_F(ResilienceAttack, OneFoldMatchesTheSuiteAndResumesFromEitherArtifact) {
  const core::ChallengeSuite suite(challenges_);
  common::set_global_threads(2);
  constexpr std::int64_t k = 1;
  const std::uint64_t want = core::result_digest(suite.run_all(cfg_)[k]);
  const std::string model_name = core::ChallengeSuite::fold_model_name(k);
  const std::string result_name = core::ChallengeSuite::fold_result_name(k);

  const std::string dir = fresh_dir("one_fold");
  const std::uint64_t key = core::attack_run_key(challenges_, cfg_);
  common::DiagnosticSink sink;
  auto ckpt = common::CheckpointManager::open(dir, key, sink);
  ASSERT_TRUE(ckpt.ok());
  core::RunControl rc;
  rc.checkpoint = &*ckpt;
  rc.sink = &sink;

  // (a) Computed: run_all's result, and the model trained with the
  // requested config.
  const core::FoldRun fresh = suite.run_fold_checkpointed(cfg_, rc, k);
  ASSERT_TRUE(fresh.result.has_value());
  ASSERT_TRUE(fresh.model.has_value());
  EXPECT_EQ(core::result_digest(*fresh.result), want);
  EXPECT_EQ(fresh.model->config.name, cfg_.name);
  EXPECT_EQ(core::attack_run_key(challenges_, fresh.model->config), key);
  EXPECT_TRUE(ckpt->has(result_name));
  EXPECT_FALSE(ckpt->has(model_name)) << "the result supersedes the model";

  // (c) Resumed from fold_k.result: nothing was trained, so no model.
  const core::FoldRun from_result = suite.run_fold_checkpointed(cfg_, rc, k);
  ASSERT_TRUE(from_result.result.has_value());
  EXPECT_FALSE(from_result.model.has_value());
  EXPECT_EQ(core::result_digest(*from_result.result), want);

  // (b) Resumed from fold_k.model — a crash between training and
  // scoring. The model comes back too: the saved one (timings
  // round-trip by bit pattern), not a retrained one.
  ASSERT_TRUE(ckpt->remove(result_name).ok());
  ASSERT_TRUE(ckpt->write(model_name, core::save_model(*fresh.model)).ok());
  const core::FoldRun from_model = suite.run_fold_checkpointed(cfg_, rc, k);
  ASSERT_TRUE(from_model.result.has_value());
  ASSERT_TRUE(from_model.model.has_value());
  EXPECT_EQ(core::result_digest(*from_model.result), want);
  EXPECT_EQ(from_model.model->train_seconds, fresh.model->train_seconds);
  EXPECT_FALSE(ckpt->has(model_name));

  // (d) A bit-rotted fold_k.result is diagnosed and recomputed.
  const std::string path = dir + "/" + result_name;
  auto bytes = common::read_file(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x7;
  clobber(path, *bytes);
  common::DiagnosticSink corrupt_sink;
  rc.sink = &corrupt_sink;
  const core::FoldRun healed = suite.run_fold_checkpointed(cfg_, rc, k);
  bool diagnosed = false;
  for (const auto& d : corrupt_sink.diagnostics()) {
    if (d.code == "checkpoint.corrupt_artifact") diagnosed = true;
  }
  EXPECT_TRUE(diagnosed) << "corrupt artifact must be reported, not hidden";
  ASSERT_TRUE(healed.result.has_value());
  EXPECT_TRUE(healed.model.has_value()) << "recomputed, so trained";
  EXPECT_EQ(core::result_digest(*healed.result), want);
}

TEST_F(ResilienceAttack, OneFoldConsultsTheBudgetOnlyWhenItComputes) {
  const core::ChallengeSuite suite(challenges_);
  common::set_global_threads(2);
  constexpr std::int64_t k = 0;
  const std::string dir = fresh_dir("one_fold_budget");
  common::DiagnosticSink sink;
  auto ckpt = common::CheckpointManager::open(
      dir, core::attack_run_key(challenges_, cfg_), sink);
  ASSERT_TRUE(ckpt.ok());
  core::RunControl rc;
  rc.checkpoint = &*ckpt;
  rc.sink = &sink;
  const core::FoldRun done = suite.run_fold_checkpointed(cfg_, rc, k);
  ASSERT_TRUE(done.result.has_value());

  common::CancelToken cancel;
  common::Budget budget(1e-12, 0);  // a deadline no fold can meet
  rc.cancel = &cancel;
  rc.budget = &budget;
  // A finished fold answers from its checkpoint, at full fidelity: no
  // stop, no degradation event.
  const core::FoldRun resumed = suite.run_fold_checkpointed(cfg_, rc, k);
  ASSERT_TRUE(resumed.result.has_value());
  EXPECT_EQ(core::result_digest(*resumed.result),
            core::result_digest(*done.result));
  EXPECT_FALSE(cancel.cancelled());
  EXPECT_TRUE(common::obs::degradation_events().empty());

  // (e) A fold that would have to compute stops instead.
  ASSERT_TRUE(
      ckpt->remove(core::ChallengeSuite::fold_result_name(k)).ok());
  const core::FoldRun stopped = suite.run_fold_checkpointed(cfg_, rc, k);
  EXPECT_FALSE(stopped.result.has_value());
  EXPECT_TRUE(cancel.cancelled());
  EXPECT_EQ(cancel.reason(), "budget exhausted");
}

TEST_F(ResilienceAttack, CancelledRunCheckpointsNothingAndResumesClean) {
  const core::ChallengeSuite suite(challenges_);
  const std::string dir = fresh_dir("resume_cancel");
  const std::uint64_t key = core::attack_run_key(challenges_, cfg_);
  common::DiagnosticSink sink;
  auto ckpt = common::CheckpointManager::open(dir, key, sink);
  ASSERT_TRUE(ckpt.ok());

  common::CancelToken cancel;
  cancel.request_cancel("test-induced stop");
  core::RunControl rc;
  rc.checkpoint = &*ckpt;
  rc.cancel = &cancel;
  rc.sink = &sink;
  common::set_global_threads(4);
  auto folds = suite.run_all_checkpointed(cfg_, rc);
  for (const auto& f : folds) {
    EXPECT_FALSE(f.has_value()) << "a cancelled run must not emit results";
  }
  EXPECT_TRUE(ckpt->names().empty())
      << "a cancelled run must not checkpoint partial state";

  // Resume with a fresh token: completes and matches the plain path.
  cancel.reset();
  common::set_global_threads(1);
  const std::vector<core::AttackResult> baseline = suite.run_all(cfg_);
  auto resumed = suite.run_all_checkpointed(cfg_, rc);
  ASSERT_EQ(resumed.size(), baseline.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    ASSERT_TRUE(resumed[i].has_value());
    EXPECT_TRUE(same_result(baseline[i], *resumed[i]));
  }
}

TEST_F(ResilienceAttack, ExhaustedBudgetStopsFoldsAndRequestsCancel) {
  const core::ChallengeSuite suite(challenges_);
  common::CancelToken cancel;
  common::Budget budget(1e-12, 0);  // a deadline no fold can meet
  ASSERT_FALSE(budget.unlimited());
  EXPECT_EQ(budget.pressure(), common::BudgetPressure::kExceeded);

  core::RunControl rc;
  rc.cancel = &cancel;
  rc.budget = &budget;
  common::set_global_threads(2);
  auto folds = suite.run_all_checkpointed(cfg_, rc);
  for (const auto& f : folds) {
    EXPECT_FALSE(f.has_value()) << "no fold should run past a spent budget";
  }
  EXPECT_TRUE(cancel.cancelled());
  EXPECT_EQ(cancel.reason(), "budget exhausted");
}

/// A budget whose pressure the test scripts, read by read.
class ScriptedBudget : public common::Budget {
 public:
  explicit ScriptedBudget(std::function<common::BudgetPressure()> script)
      : common::Budget(0, 0), script_(std::move(script)) {}
  common::BudgetPressure pressure() const override { return script_(); }

 private:
  std::function<common::BudgetPressure()> script_;
};

// A LOO run chooses the rungs that shape its models once, at the start,
// and reads the budget again before each fold's scoring. Pressure that
// turns hard once fold 0's result is committed samples the targets of
// the later folds, whose trees are already grown, instead of dropping
// them.
TEST_F(ResilienceAttack, PressureTurningHardMidRunDegradesLaterFolds) {
  std::vector<splitmfg::SplitChallenge> big;  // 300 v-pins, above 256
  for (std::uint64_t s = 1; s <= 3; ++s) {
    big.push_back(repro::testing::make_grid_challenge(150, 100000, 8000, s));
  }
  const core::ChallengeSuite suite(big);
  common::set_global_threads(2);
  const std::vector<core::AttackResult> full = suite.run_all(cfg_);
  core::AttackConfig sampled = cfg_;
  sampled.max_test_vpins = 256;
  const std::vector<core::AttackResult> degraded = suite.run_all(sampled);

  const std::string dir = fresh_dir("mid_run_budget");
  common::DiagnosticSink sink;
  auto ckpt = common::CheckpointManager::open(
      dir, core::attack_run_key(big, cfg_), sink);
  ASSERT_TRUE(ckpt.ok());
  ScriptedBudget budget([&] {
    return ckpt->has(core::ChallengeSuite::fold_result_name(0))
               ? common::BudgetPressure::kHard
               : common::BudgetPressure::kNone;
  });
  common::CancelToken cancel;
  core::RunControl rc;
  rc.checkpoint = &*ckpt;
  rc.cancel = &cancel;
  rc.budget = &budget;
  rc.sink = &sink;
  const auto folds = suite.run_all_checkpointed(cfg_, rc);
  EXPECT_FALSE(cancel.cancelled());
  ASSERT_EQ(folds.size(), big.size());
  for (const auto& f : folds) {
    ASSERT_TRUE(f.has_value()) << "a degraded fold is kept, not dropped";
  }
  EXPECT_TRUE(same_result(*folds[0], full[0]));
  for (std::size_t i = 1; i < folds.size(); ++i) {
    EXPECT_FALSE(same_result(full[i], degraded[i])) << "sampling shows";
    EXPECT_TRUE(same_result(*folds[i], degraded[i])) << "fold " << i;
  }
  const auto events = common::obs::degradation_events();
  ASSERT_EQ(events.size(), folds.size() - 1);
  for (std::size_t e = 0; e < events.size(); ++e) {
    EXPECT_EQ(events[e].step, "sample_targets");
    EXPECT_EQ(events[e].fold, static_cast<std::int64_t>(e + 1));
  }
}

}  // namespace
}  // namespace repro
