#include "core/cross_validation.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/clock.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"

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

void ChallengeSuite::compute_folds(const AttackConfig& config,
                                   const RunControl& rc,
                                   std::span<const std::int64_t> folds,
                                   std::span<FoldRun> runs,
                                   bool keep_models) const {
  // The budget boundary, read at the start, at each stage boundary and
  // before each fold's scoring: an exhausted budget stops the run.
  const auto exceeded = [&](common::BudgetPressure pressure) {
    if (pressure != common::BudgetPressure::kExceeded) return false;
    if (rc.cancel) rc.cancel->request_cancel("budget exhausted");
    return true;
  };

  // The rungs that shape a model (fewer trees, a shrunk radius) are
  // chosen once, from the pressure at the start, for every fold to
  // train. Folds resumed with a model score with that model's config.
  OBS_COUNT("loo.folds", folds.size());
  const common::BudgetPressure pressure = rc.pressure();
  if (exceeded(pressure) || rc.cancelled()) return;
  std::vector<std::size_t> fresh;
  std::vector<AttackConfig> configs(folds.size(), config);
  for (std::size_t k = 0; k < folds.size(); ++k) {
    apply_degradation(configs[k], pressure, folds[k]);
    if (!runs[k].model) fresh.push_back(k);
  }

  if (!fresh.empty()) {
    OBS_SPAN("train");
    common::obs::set_phase("train");
    // Stage 1: sample each fold's training set and presort it.
    struct Fit {
      TrainingPlan plan;
      std::optional<ml::Presort> order;
      std::vector<ml::DecisionTree> trees;
      std::vector<double> tree_seconds;
    };
    std::vector<Fit> fits(fresh.size());
    common::parallel_for(
        static_cast<std::int64_t>(fresh.size()),
        [&](std::int64_t q) {
          Fit& f = fits[static_cast<std::size_t>(q)];
          const std::size_t k = fresh[static_cast<std::size_t>(q)];
          f.plan = AttackEngine::plan_training(
              training_for(static_cast<std::size_t>(folds[k])), configs[k]);
          f.order.emplace(f.plan.data);
          const auto trees =
              static_cast<std::size_t>(std::max(0, f.plan.options.num_trees));
          f.trees.resize(trees);
          f.tree_seconds.resize(trees);
        },
        rc.cancel);
    if (rc.cancelled() || exceeded(rc.pressure())) return;

    // Stage 2: one flat static region over the (fold, tree) units of
    // every fold. Tree seeds depend on (fold seed, tree) only, so the
    // ensembles equal what each fold's own train() would grow.
    std::vector<std::int64_t> unit_start{0};
    for (const Fit& f : fits) {
      unit_start.push_back(unit_start.back() +
                           static_cast<std::int64_t>(f.trees.size()));
    }
    {
      OBS_SPAN("train.fit");
      std::vector<ml::TreeScratch> arenas(
          static_cast<std::size_t>(common::global_pool().num_threads()));
      common::parallel_for(
          unit_start.back(),
          [&](std::int64_t u) {
            const auto q = static_cast<std::size_t>(
                std::upper_bound(unit_start.begin(), unit_start.end(), u) -
                unit_start.begin() - 1);
            Fit& f = fits[q];
            const auto t = static_cast<std::size_t>(u - unit_start[q]);
            const double t0 = common::steady_seconds();
            f.trees[t] = ml::BaggingClassifier::train_tree(
                f.plan.data, *f.order, f.plan.options, static_cast<int>(t),
                arenas[static_cast<std::size_t>(common::current_worker_id())]);
            f.tree_seconds[t] = common::steady_seconds() - t0;
          },
          rc.cancel, ml::BaggingClassifier::kTreeGrain);
    }
    if (rc.cancelled()) return;

    // The models, in fold order; the training sets die here.
    for (std::size_t q = 0; q < fits.size(); ++q) {
      FoldRun& run = runs[fresh[q]];
      run.model = std::move(fits[q].plan.model);
      TrainedModel& model = *run.model;
      model.classifier =
          ml::BaggingClassifier::from_grown_trees(std::move(fits[q].trees));
      // The fold's trees ran interleaved with other folds' trees, so its
      // fit time is the sum of its own trees' times.
      for (double sec : fits[q].tree_seconds) model.fit_seconds += sec;
      model.train_seconds = model.sample_seconds + model.fit_seconds;
      fits[q] = Fit{};
      if (rc.checkpoint) {
        (void)rc.checkpoint->write(fold_model_name(folds[fresh[q]]),
                                   save_model(model));
      }
    }
  }

  // Stage 3: each fold in order, scored on the whole pool. Its trees are
  // grown, so of the ladder only the scoring rung is left: pressure that
  // has turned hard since the start samples this fold's targets.
  for (std::size_t k = 0; k < folds.size(); ++k) {
    if (rc.cancelled()) return;
    const common::BudgetPressure now = rc.pressure();
    if (exceeded(now)) return;
    const std::int64_t i = folds[k];
    FoldRun& run = runs[k];
    apply_scoring_degradation(run.model->config, now, i);
    OBS_SPAN_ARG("loo.fold", i);
    AttackResult res = AttackEngine::test(
        *run.model, challenges_[static_cast<std::size_t>(i)], rc.cancel);
    // A cancelled scoring loop produced a timing-dependent subset of
    // targets; keeping it (or checkpointing it) would poison the
    // resume-determinism guarantee.
    if (res.interrupted) return;
    if (rc.checkpoint) {
      (void)rc.checkpoint->write(fold_result_name(i), save_result(res));
      (void)rc.checkpoint->remove(fold_model_name(i));
    }
    // Completion counter for telemetry: exactly one bump per finished
    // fold whether computed here or loaded by load_fold_result, so the
    // total is identical between fresh and resumed runs.
    OBS_COUNT("loo.folds_done", 1);
    run.result = std::move(res);
    if (!keep_models) run.model.reset();
  }
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
  std::vector<std::int64_t> todo;
  std::vector<FoldRun> runs;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    out[s] = load_fold_result(rc, sink, i);
    if (out[s]) continue;
    todo.push_back(i);
    runs.push_back({std::nullopt, load_fold_model(rc, sink, i)});
  }

  compute_folds(config, rc, todo, runs, /*keep_models=*/false);
  for (std::size_t k = 0; k < todo.size(); ++k) {
    out[static_cast<std::size_t>(todo[k])] = std::move(runs[k].result);
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
  FoldRun run{std::nullopt, load_fold_model(rc, sink, fold)};
  compute_folds(config, rc, {&fold, 1}, {&run, 1}, /*keep_models=*/true);
  return run;
}

}  // namespace repro::core
