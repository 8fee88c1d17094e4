// Crash-safe, budget-bounded attack campaigns (checkpoint/resume glue).
//
// This module ties the common-layer primitives (checkpoint directory,
// cancel token, budget) to the attack engine's types:
//
//   * Binary serialization of TrainedModel and AttackResult as sealed
//     binio artifacts. Doubles/floats round-trip by bit pattern, so a
//     fold result loaded from a checkpoint is bit-identical to the one
//     that was saved — which is what lets a resumed run produce exactly
//     the digest of an uninterrupted one.
//   * result_digest: the FNV-1a fingerprint over the complete observable
//     result (per-target rankings, histograms, stats) used by the
//     thread-invariance and kill-and-resume differential tests. Timing
//     fields are deliberately excluded: they are the only part of an
//     AttackResult that is not a pure function of the inputs.
//   * attack_run_key: fingerprint of (config, inputs) scoping a
//     checkpoint directory. Artifacts recorded under a different key
//     are some other computation's and must not be resumed from.
//   * RunControl: the bundle of optional resilience services threaded
//     through long campaigns (LOO cross-validation, the attack tool).
//   * The degradation ladder: what accuracy to shed, in which order,
//     when the budget comes under pressure. Every concession is
//     recorded as an obs degradation event so a degraded run can never
//     masquerade as a full-fidelity one.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/diagnostics.hpp"
#include "common/status.hpp"
#include "core/attack.hpp"

namespace repro::core {

/// Optional resilience services for a long campaign. All pointers may be
/// null: a default RunControl degrades to the plain uncheckpointed path.
struct RunControl {
  common::CheckpointManager* checkpoint = nullptr;
  common::CancelToken* cancel = nullptr;
  common::Budget* budget = nullptr;
  common::DiagnosticSink* sink = nullptr;

  bool cancelled() const { return cancel && cancel->cancelled(); }
  common::BudgetPressure pressure() const {
    return budget ? budget->pressure() : common::BudgetPressure::kNone;
  }
};

/// Artifact identities ("CRES" results, "CMDL" models).
inline constexpr std::uint32_t kResultMagic = 0x43524553u;
inline constexpr std::uint32_t kResultVersion = 1;
inline constexpr std::uint32_t kModelMagic = 0x434D444Cu;
inline constexpr std::uint32_t kModelVersion = 1;

/// FNV-1a fingerprint of the observable result (num_vpins, per-target
/// num_evaluated / p_true / d_true / histogram / top-K with float bit
/// patterns). Excludes the timing fields. Equal digests mean bit-equal
/// attack output.
std::uint64_t result_digest(const AttackResult& res);

/// FNV-1a over the little-endian concatenation of digests, in order: a
/// LOO run's digest over its fold digests, and a campaign's over its
/// layer digests. Shard merges and single-process runs use this one
/// combination, so their digests are directly comparable.
std::uint64_t combine_digests(std::span<const std::uint64_t> digests);

/// Fingerprint of the computation a checkpoint belongs to: every
/// result-affecting AttackConfig field plus, per challenge, the design
/// name, split layer, and v-pin count.
std::uint64_t attack_run_key(
    std::span<const splitmfg::SplitChallenge> challenges,
    const AttackConfig& config);

/// AttackResult <-> sealed artifact. load_result returns kDataLoss on
/// envelope or structural corruption; a loaded result has finalize()
/// already applied (finalize is a pure function of the per-target data,
/// so recomputing it reproduces the saved aggregates exactly).
std::string save_result(const AttackResult& res);
common::StatusOr<AttackResult> load_result(const std::string& raw);

/// TrainedModel <-> sealed artifact (config, feature indices, pair
/// filter, the full ensemble, sample counts and timings). load_model
/// returns kDataLoss for anything scoring would misuse: a feature index
/// outside the 11 features, a tree split on a feature the model does not
/// project, fewer than one histogram bin, or a negative or non-finite
/// neighbourhood radius.
std::string save_model(const TrainedModel& model);
common::StatusOr<TrainedModel> load_model(const std::string& raw);

/// The degradation ladder. Mutates `config` in place according to the
/// pressure level and records one obs degradation event per rung taken:
///   soft: rung 1 — cap the ensemble at 5 trees ("fewer_trees");
///   hard: rungs 2+3 — sample at most 256 targets per design
///         ("sample_targets") and shrink the neighbourhood percentile to
///         0.75 ("shrink_radius").
/// kExceeded is not handled here: the caller stops and flushes instead
/// of degrading further. Returns true if any rung changed the config.
bool apply_degradation(AttackConfig& config, common::BudgetPressure pressure,
                       std::int64_t fold = -1);

/// Rung 2 alone ("sample_targets", under hard pressure only): the one
/// rung left to a fold whose model is already trained. Records its event
/// and returns true if it changed the config.
bool apply_scoring_degradation(AttackConfig& config,
                               common::BudgetPressure pressure,
                               std::int64_t fold = -1);

}  // namespace repro::core
