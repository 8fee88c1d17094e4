// Leave-one-out cross validation over a suite of challenges (paper
// SSIII-C): to test design i, designs j != i are the training set.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/attack.hpp"
#include "core/resilience.hpp"

namespace repro::core {

/// What one fold run produced. `result` is nullopt when the fold did not
/// complete (cancelled / budget exhausted). `model` is the fold's model
/// when this call trained it or resumed it from the checkpoint — its
/// config is the one the fold trained with, degradation included — and
/// nullopt when the result itself was resumed.
struct FoldRun {
  std::optional<AttackResult> result;
  std::optional<TrainedModel> model;
};

class ChallengeSuite {
 public:
  explicit ChallengeSuite(std::vector<splitmfg::SplitChallenge> challenges)
      : challenges_(std::move(challenges)) {}

  std::size_t size() const { return challenges_.size(); }
  const splitmfg::SplitChallenge& challenge(std::size_t i) const {
    return challenges_[i];
  }
  const std::vector<splitmfg::SplitChallenge>& challenges() const {
    return challenges_;
  }

  /// Pointers to the N-1 challenges used to attack `target`.
  std::vector<const splitmfg::SplitChallenge*> training_for(
      std::size_t target) const;

  /// Runs the attack with leave-one-out CV; result i tests challenge i.
  std::vector<AttackResult> run_all(const AttackConfig& config) const;

  /// run_all with resilience services: completed folds are checkpointed
  /// (model once trained, result when scored) and loaded instead of
  /// recomputed on resume; cancellation and budget pressure are honoured
  /// between stages and between folds (see compute_folds). Slot i is
  /// nullopt when fold i was not completed (cancelled / budget
  /// exhausted). Because every fold is a pure function of (challenges,
  /// config, i) and the artifacts round-trip by bit pattern, a resumed
  /// run's results are bit-identical to an uninterrupted run's at any
  /// thread count.
  std::vector<std::optional<AttackResult>> run_all_checkpointed(
      const AttackConfig& config, const RunControl& rc) const;

  /// One fold of the above: a campaign shard worker owns exactly fold
  /// `fold` and its own checkpoint directory, and single-victim
  /// split_attack is fold 0. Same resume / recompute / cancellation
  /// semantics as run_all_checkpointed restricted to that fold, and the
  /// same artifact names, so either checkpoint resumes the other. The
  /// budget is consulted only when the fold computes.
  FoldRun run_fold_checkpointed(const AttackConfig& config,
                                const RunControl& rc, std::int64_t fold) const;

  /// Checkpoint artifact names for fold i.
  static std::string fold_result_name(std::int64_t i);
  static std::string fold_model_name(std::int64_t i);

 private:
  /// Completed result of fold i from the checkpoint, if present and
  /// valid; corrupt artifacts are dropped (diagnostic to `sink`) so the
  /// caller recomputes.
  std::optional<AttackResult> load_fold_result(const RunControl& rc,
                                               common::DiagnosticSink& sink,
                                               std::int64_t i) const;

  /// Trained-but-unscored model of fold i from the checkpoint, if any.
  std::optional<TrainedModel> load_fold_model(const RunControl& rc,
                                              common::DiagnosticSink& sink,
                                              std::int64_t i) const;

  /// Computes `folds` (ascending; runs[k] is fold folds[k], entering
  /// with its model when one was resumed) in three stages, each on the
  /// whole pool:
  ///   1. sample and presort the training set of every fold to train;
  ///   2. grow the trees of all those folds in one flat static region of
  ///      (fold, tree) units, then commit the models in fold order;
  ///   3. score the folds one after another, committing each result.
  /// Only one fold's pair store (AttackEngine::test) exists at a time.
  /// Budget pressure is read at the start, after stage 1, and before
  /// each fold's scoring. The first reading picks every fold's model
  /// rungs (fewer trees, shrunk radius); the one before a fold's scoring
  /// can still sample its targets. kExceeded at any reading stops the
  /// run. A fold left without a result was cancelled or stopped. Models
  /// are dropped once scored unless `keep_models`.
  void compute_folds(const AttackConfig& config, const RunControl& rc,
                     std::span<const std::int64_t> folds,
                     std::span<FoldRun> runs, bool keep_models) const;

  std::vector<splitmfg::SplitChallenge> challenges_;
};

}  // namespace repro::core
