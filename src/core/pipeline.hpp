// End-to-end pipeline helpers: synthetic suite -> split challenges, the
// hardened file-ingestion path (DEF files -> validated split challenges
// with per-design failure isolation), and the one loader every tool
// builds its leave-one-out suites with.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/flags.hpp"
#include "common/status.hpp"
#include "core/cross_validation.hpp"
#include "lefdef/lefdef.hpp"
#include "splitmfg/split.hpp"
#include "splitmfg/validate.hpp"
#include "synth/synth.hpp"

namespace repro::core {

/// Cuts every design of a generated suite at `split_layer`.
std::vector<splitmfg::SplitChallenge> build_challenges(
    std::span<const synth::SynthDesign> designs, int split_layer);

/// The suite of `designs` cut at `split_layer`, in input order.
ChallengeSuite make_suite(std::span<const synth::SynthDesign> designs,
                          int split_layer);

/// Options for loading DEF designs from disk.
struct DefLoadOptions {
  int split_layer = 8;
  bool strict = false;   ///< stop the batch at the first bad design
  bool validate = true;  ///< run the layout validator before the cut
  bool repair = true;    ///< let the validator auto-repair defects
};

/// Outcome of loading one DEF file.
struct DefLoadOutcome {
  std::string path;
  bool loaded = false;
  splitmfg::SplitChallenge challenge;     ///< valid iff `loaded`
  splitmfg::ValidationReport validation;  ///< empty when !opt.validate
  common::Status status;                  ///< why the design was skipped
};

/// Outcome of a batch load: per-design results plus totals.
struct DefBatch {
  std::vector<DefLoadOutcome> designs;
  int num_loaded = 0;
  int num_skipped = 0;

  /// Moves the successfully loaded challenges out, in input order.
  std::vector<splitmfg::SplitChallenge> take_loaded();
};

/// Loads one DEF file against an already-parsed LEF, validates it (per
/// `opt`), and cuts it at `opt.split_layer`. Never throws: parse errors,
/// validation failures, and I/O failures all come back as a failing Status
/// with the full story in `sink`.
common::StatusOr<splitmfg::SplitChallenge> load_challenge_from_def(
    const std::string& path, const lefdef::LefContents& lef,
    const std::shared_ptr<const netlist::Library>& lib,
    const DefLoadOptions& opt, common::DiagnosticSink& sink,
    splitmfg::ValidationReport* validation = nullptr);

/// Loads a batch of DEF files with per-design failure isolation: a corrupt
/// or invalid design is reported (diagnostics in `sink`, Status in its
/// DefLoadOutcome) and skipped while the rest of the batch proceeds. With
/// `opt.strict` the batch stops at the first failure instead, mirroring
/// the old fail-fast behaviour.
DefBatch load_challenges_from_defs(
    const std::vector<std::string>& paths, const lefdef::LefContents& lef,
    const DefLoadOptions& opt, common::DiagnosticSink& sink);

/// Where a tool's leave-one-out suite comes from: the built-in generated
/// suite (--demo) or LEF/DEF files (--lef, --train..., --victim). Either
/// way the suite is [victim, training...], so fold i holds out the same
/// design in split_attack, split_attack_server and split_campaign.
struct SuiteSource {
  bool demo = false;
  std::string lef;
  std::vector<std::string> train;
  std::string victim;

  /// Binds --demo, --lef, --train (repeatable) and --victim.
  common::FlagTable& bind(common::FlagTable& flags);
  /// Why the parsed flags name no suite; "" when they do.
  std::string usage_error() const;
  /// Designs per suite, which is also the fold count per split layer.
  std::int64_t num_designs() const;
  /// The flags that name this source on a split_attack command line.
  std::vector<std::string> worker_argv() const;
};

/// One leave-one-out suite per split layer, plus the training-file
/// tallies split_attack reports.
struct LoadedSuites {
  std::map<int, ChallengeSuite> suites;  ///< by split layer
  int train_files = 0;    ///< training designs named (demo: generated)
  int train_skipped = 0;  ///< bad training DEFs skipped, over all layers
};

/// Builds the [victim, training...] suite of `source` at every layer.
/// Demo mode generates the suite once (at REPRO_SCALE) and cuts it per
/// layer. File mode parses the LEF once and checks every layer against
/// its via stack before loading any DEF; then, per layer, it loads the
/// training batch and the victim with `opt` (its split_layer is set per
/// layer) and records the victim's diagnostics as ingest.victim_diag.
/// A bad training DEF is skipped with a "warning:" line, or fails the
/// load under `opt.strict`. Diagnostics and per-design lines go to
/// `log`; a failing Status's message is the one-line reason.
common::StatusOr<LoadedSuites> load_suites(const SuiteSource& source,
                                           std::span<const int> layers,
                                           DefLoadOptions opt,
                                           std::ostream& log);

}  // namespace repro::core
