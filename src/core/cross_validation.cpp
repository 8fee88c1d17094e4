#include "core/cross_validation.hpp"

#include <optional>
#include <string>
#include <utility>

#include "common/obs.hpp"
#include "common/parallel.hpp"

namespace repro::core {

std::vector<const splitmfg::SplitChallenge*> ChallengeSuite::training_for(
    std::size_t target) const {
  std::vector<const splitmfg::SplitChallenge*> out;
  for (std::size_t i = 0; i < challenges_.size(); ++i) {
    if (i != target) out.push_back(&challenges_[i]);
  }
  return out;
}

std::string ChallengeSuite::fold_result_name(std::int64_t i) {
  return "fold_" + std::to_string(i) + ".result";
}

std::string ChallengeSuite::fold_model_name(std::int64_t i) {
  return "fold_" + std::to_string(i) + ".model";
}

std::vector<AttackResult> ChallengeSuite::run_all(
    const AttackConfig& config) const {
  // The plain path is the checkpointed one with every service absent:
  // no artifacts, no cancellation, no budget — the fold bodies execute
  // exactly as before.
  const RunControl rc;
  auto folds = run_all_checkpointed(config, rc);
  std::vector<AttackResult> out;
  out.reserve(folds.size());
  for (auto& f : folds) out.push_back(std::move(*f));
  return out;
}

std::optional<AttackResult> ChallengeSuite::load_fold_result(
    const RunControl& rc, common::DiagnosticSink& sink,
    std::int64_t i) const {
  if (!rc.checkpoint) return std::nullopt;
  const std::string rname = fold_result_name(i);
  if (!rc.checkpoint->has(rname)) return std::nullopt;
  auto raw = rc.checkpoint->read(rname, sink);
  if (!raw.ok()) return std::nullopt;
  auto res = load_result(*raw);
  if (res.ok()) {
    OBS_COUNT("resume.folds_loaded", 1);
    OBS_COUNT("loo.folds_done", 1);
    return std::move(*res);
  }
  sink.warning("checkpoint.corrupt_artifact", 0,
               rname + ": " + res.status().to_string() + "; recomputing fold");
  (void)rc.checkpoint->remove(rname);
  return std::nullopt;
}

std::optional<TrainedModel> ChallengeSuite::load_fold_model(
    const RunControl& rc, common::DiagnosticSink& sink,
    std::int64_t i) const {
  if (!rc.checkpoint) return std::nullopt;
  const std::string mname = fold_model_name(i);
  if (!rc.checkpoint->has(mname)) return std::nullopt;
  auto raw = rc.checkpoint->read(mname, sink);
  if (!raw.ok()) return std::nullopt;
  auto m = load_model(*raw);
  if (m.ok()) {
    OBS_COUNT("resume.models_loaded", 1);
    return std::move(*m);
  }
  sink.warning("checkpoint.corrupt_artifact", 0,
               mname + ": " + m.status().to_string() +
                   "; retraining fold model");
  (void)rc.checkpoint->remove(mname);
  return std::nullopt;
}

FoldRun ChallengeSuite::compute_fold(const AttackConfig& config,
                                     const RunControl& rc, std::int64_t i,
                                     std::optional<TrainedModel> model) const {
  const std::size_t s = static_cast<std::size_t>(i);
  OBS_SPAN_ARG("loo.fold", i);
  OBS_COUNT("loo.folds", 1);
  FoldRun run{std::nullopt, std::move(model)};

  // Budget boundary: before this fold commits to hours of work, either
  // stop (exceeded) or shed accuracy down the ladder.
  const common::BudgetPressure pressure = rc.pressure();
  if (pressure == common::BudgetPressure::kExceeded) {
    if (rc.cancel) rc.cancel->request_cancel("budget exhausted");
    return run;
  }
  AttackConfig fold_config = config;
  apply_degradation(fold_config, pressure, i);

  if (!run.model) {
    if (rc.cancelled()) return run;
    run.model = AttackEngine::train(training_for(s), fold_config);
    if (rc.checkpoint && !rc.cancelled()) {
      (void)rc.checkpoint->write(fold_model_name(i), save_model(*run.model));
    }
  }
  if (rc.cancelled()) return run;
  AttackResult res =
      AttackEngine::test(*run.model, challenges_[s], rc.cancel);
  // A cancelled scoring loop produced a timing-dependent subset of
  // targets; keeping it (or checkpointing it) would poison the
  // resume-determinism guarantee.
  if (res.interrupted) return run;
  if (rc.checkpoint) {
    (void)rc.checkpoint->write(fold_result_name(i), save_result(res));
    (void)rc.checkpoint->remove(fold_model_name(i));
  }
  // Completion counter for telemetry: exactly one bump per finished fold
  // whether computed here or loaded by load_fold_result, so the total is
  // identical between fresh and resumed runs.
  OBS_COUNT("loo.folds_done", 1);
  run.result = std::move(res);
  return run;
}

std::vector<std::optional<AttackResult>> ChallengeSuite::run_all_checkpointed(
    const AttackConfig& config, const RunControl& rc) const {
  const std::int64_t n = static_cast<std::int64_t>(challenges_.size());
  std::vector<std::optional<AttackResult>> out(static_cast<std::size_t>(n));
  common::DiagnosticSink local_sink;
  common::DiagnosticSink& sink = rc.sink ? *rc.sink : local_sink;

  // Resume phase (serial): pull completed fold results, then any trained
  // models of folds that crashed between training and scoring. Corrupt
  // artifacts surface as "checkpoint.corrupt_artifact" diagnostics (from
  // CheckpointManager::read or the envelope parsers below) and fall back
  // to recomputation — a bad checkpoint can cost time, never correctness.
  std::vector<std::optional<TrainedModel>> models(
      static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    out[s] = load_fold_result(rc, sink, i);
    if (!out[s]) models[s] = load_fold_model(rc, sink, i);
  }

  // Compute phase: the missing folds, concurrently. Fold i only touches
  // slot i (and its own checkpoint artifacts), and CheckpointManager
  // writes are thread-safe. Nested parallel regions (tree training,
  // target scoring) execute inline on the fold's worker.
  auto fresh = common::parallel_map<std::optional<AttackResult>>(
      n,
      [&](std::int64_t i) -> std::optional<AttackResult> {
        const std::size_t s = static_cast<std::size_t>(i);
        if (out[s]) return std::nullopt;  // loaded from checkpoint
        // The model dies here, inside the region: only results are kept.
        return compute_fold(config, rc, i, std::move(models[s])).result;
      },
      rc.cancel);

  for (std::int64_t i = 0; i < n; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    if (!out[s] && fresh[s]) out[s] = std::move(fresh[s]);
  }
  return out;
}

FoldRun ChallengeSuite::run_fold_checkpointed(const AttackConfig& config,
                                              const RunControl& rc,
                                              std::int64_t fold) const {
  if (fold < 0 || fold >= static_cast<std::int64_t>(challenges_.size())) {
    return {};
  }
  common::DiagnosticSink local_sink;
  common::DiagnosticSink& sink = rc.sink ? *rc.sink : local_sink;
  if (auto done = load_fold_result(rc, sink, fold)) {
    return {std::move(done), std::nullopt};
  }
  return compute_fold(config, rc, fold, load_fold_model(rc, sink, fold));
}

}  // namespace repro::core
