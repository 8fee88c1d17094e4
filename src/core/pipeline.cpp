#include "core/pipeline.hpp"

#include <cstdio>
#include <exception>
#include <fstream>
#include <utility>

#include "common/obs.hpp"

namespace repro::core {

using common::Status;
using common::StatusOr;

std::vector<splitmfg::SplitChallenge> build_challenges(
    std::span<const synth::SynthDesign> designs, int split_layer) {
  std::vector<splitmfg::SplitChallenge> out;
  out.reserve(designs.size());
  for (const synth::SynthDesign& d : designs) {
    out.push_back(splitmfg::make_challenge(*d.netlist, d.routes, split_layer));
  }
  return out;
}

ChallengeSuite make_suite(std::span<const synth::SynthDesign> designs,
                          int split_layer) {
  return ChallengeSuite(build_challenges(designs, split_layer));
}

common::StatusOr<splitmfg::SplitChallenge> load_challenge_from_def(
    const std::string& path, const lefdef::LefContents& lef,
    const std::shared_ptr<const netlist::Library>& lib,
    const DefLoadOptions& opt, common::DiagnosticSink& sink,
    splitmfg::ValidationReport* validation) {
  OBS_SPAN("ingest.design");
  sink.set_file(path);

  if (opt.split_layer < 1 || opt.split_layer > lef.tech.num_via_layers()) {
    sink.error("load.bad_split_layer", 0,
               "split layer " + std::to_string(opt.split_layer) +
                   " outside the technology's via stack [1, " +
                   std::to_string(lef.tech.num_via_layers()) + "]");
    return common::Status::InvalidArgument(
        "split layer outside the via stack");
  }

  std::ifstream in(path);
  if (!in) {
    sink.error("load.cannot_open", 0, "cannot open " + path);
    return common::Status::IoError("cannot open " + path);
  }

  common::StatusOr<lefdef::DefDesign> parsed = lefdef::read_def(in, lib, sink);
  if (!parsed.ok()) return parsed.status();
  lefdef::DefDesign def = std::move(parsed).value();

  if (opt.validate) {
    splitmfg::ValidationOptions vopt;
    vopt.num_metal_layers = lef.tech.num_metal_layers();
    vopt.num_via_layers = lef.tech.num_via_layers();
    vopt.gcell_size = lef.tech.gcell_size();
    vopt.split_layer = opt.split_layer;
    vopt.repair = opt.repair;
    const splitmfg::ValidationReport report =
        splitmfg::validate_design(def, vopt, sink);
    if (validation != nullptr) *validation = report;
    // Per-design validation taxonomy counts (fatal / repaired / ignored)
    // feed the run report's ingestion-health block.
    OBS_COUNT("validate.fatal_defects", report.fatal);
    OBS_COUNT("validate.repaired_defects", report.repaired);
    OBS_COUNT("validate.ignored_defects", report.ignored);
    if (!report.ok()) {
      return common::Status::FailedPrecondition("layout validation " +
                                                report.summary());
    }
  }

  // The cut itself runs on validated data, but a final guard keeps any
  // residual failure contained to this design.
  try {
    const route::RouteDB db = lefdef::to_route_db(def, lef.tech.gcell_size());
    return splitmfg::make_challenge(def.netlist, db, opt.split_layer);
  } catch (const std::exception& e) {
    sink.error("load.challenge_failed", 0,
               std::string("challenge extraction failed: ") + e.what());
    return common::Status::Internal(e.what());
  }
}

DefBatch load_challenges_from_defs(const std::vector<std::string>& paths,
                                   const lefdef::LefContents& lef,
                                   const DefLoadOptions& opt,
                                   common::DiagnosticSink& sink) {
  OBS_SPAN("ingest.batch");
  DefBatch batch;
  const auto lib = std::make_shared<const netlist::Library>(lef.lib);
  for (const std::string& path : paths) {
    DefLoadOutcome outcome;
    outcome.path = path;
    common::StatusOr<splitmfg::SplitChallenge> ch =
        load_challenge_from_def(path, lef, lib, opt, sink,
                                &outcome.validation);
    if (ch.ok()) {
      outcome.loaded = true;
      outcome.challenge = std::move(ch).value();
      ++batch.num_loaded;
    } else {
      outcome.status = ch.status();
      ++batch.num_skipped;
    }
    batch.designs.push_back(std::move(outcome));
    if (opt.strict && batch.num_skipped > 0) break;
  }
  OBS_COUNT("ingest.designs_loaded", batch.num_loaded);
  OBS_COUNT("ingest.designs_skipped", batch.num_skipped);
  common::obs::record_diagnostics("ingest.diag", sink);
  return batch;
}

std::vector<splitmfg::SplitChallenge> DefBatch::take_loaded() {
  std::vector<splitmfg::SplitChallenge> out;
  out.reserve(static_cast<std::size_t>(num_loaded));
  for (DefLoadOutcome& d : designs) {
    if (d.loaded) out.push_back(std::move(d.challenge));
    d.loaded = false;
  }
  return out;
}

common::FlagTable& SuiteSource::bind(common::FlagTable& flags) {
  return flags.flag("--demo", &demo)
      .text("--lef", "FILE", &lef)
      .text("--train", "FILE", &train)
      .text("--victim", "FILE", &victim);
}

std::string SuiteSource::usage_error() const {
  if (demo || (!lef.empty() && !train.empty() && !victim.empty())) return "";
  return "file mode needs --lef, --train and --victim";
}

std::int64_t SuiteSource::num_designs() const {
  // Demo mode counts the presets the suite is generated from (one
  // design each, at any REPRO_SCALE), without generating it.
  return demo ? static_cast<std::int64_t>(synth::preset_names().size())
              : 1 + static_cast<std::int64_t>(train.size());
}

std::vector<std::string> SuiteSource::worker_argv() const {
  if (demo) return {"--demo"};
  std::vector<std::string> argv = {"--lef", lef};
  for (const std::string& t : train) argv.insert(argv.end(), {"--train", t});
  argv.insert(argv.end(), {"--victim", victim});
  return argv;
}

StatusOr<LoadedSuites> load_suites(const SuiteSource& source,
                                   std::span<const int> layers,
                                   DefLoadOptions opt, std::ostream& log) {
  LoadedSuites out;
  if (source.demo) {
    const double scale = synth::scale_from_env();
    char scale_text[32];
    std::snprintf(scale_text, sizeof scale_text, "%.2f", scale);
    log << "[demo] generating the built-in suite (scale " << scale_text
        << ")...\n";
    // The first design is the victim, the rest train.
    const std::vector<synth::SynthDesign> designs =
        synth::generate_benchmark_suite(scale);
    out.train_files = static_cast<int>(designs.size()) - 1;
    for (const int layer : layers) {
      out.suites.emplace(layer, make_suite(designs, layer));
    }
    return out;
  }

  std::ifstream lef_in(source.lef);
  if (!lef_in) return Status::IoError("cannot open " + source.lef);
  common::DiagnosticSink lef_sink(source.lef);
  StatusOr<lefdef::LefContents> lef = lefdef::read_lef(lef_in, lef_sink);
  if (!lef.ok()) {
    lef_sink.print(log);
    return Status(lef.status().code(),
                  source.lef + ": " + lef.status().to_string());
  }
  const int num_vias = lef->tech.num_via_layers();
  for (const int layer : layers) {
    if (layer < 1 || layer > num_vias) {
      return Status::InvalidArgument(
          "--split " + std::to_string(layer) +
          " outside the technology's via stack [1, " +
          std::to_string(num_vias) + "]");
    }
  }
  out.train_files = static_cast<int>(source.train.size());
  const auto lib = std::make_shared<const netlist::Library>(lef->lib);
  for (const int layer : layers) {
    opt.split_layer = layer;
    common::DiagnosticSink sink;
    DefBatch batch = load_challenges_from_defs(source.train, *lef, opt, sink);
    for (const DefLoadOutcome& d : batch.designs) {
      if (!d.loaded) {
        log << "warning: skipping training design " << d.path << ": "
            << d.status.to_string() << '\n';
      } else if (d.validation.repaired > 0 || d.validation.ignored > 0) {
        log << "note: " << d.path << ": validation "
            << d.validation.summary() << '\n';
      }
    }
    if (batch.num_skipped > 0) sink.print(log);
    if (opt.strict && batch.num_skipped > 0) {
      return Status::FailedPrecondition(
          "--strict: " + std::to_string(batch.num_skipped) +
          " training design(s) failed to load");
    }
    if (batch.num_loaded == 0) {
      return Status::FailedPrecondition("no usable training designs");
    }
    out.train_skipped += batch.num_skipped;

    common::DiagnosticSink victim_sink;
    StatusOr<splitmfg::SplitChallenge> victim = load_challenge_from_def(
        source.victim, *lef, lib, opt, victim_sink);
    if (!victim.ok()) {
      victim_sink.print(log);
      return Status(victim.status().code(), "victim " + source.victim +
                                                ": " +
                                                victim.status().to_string());
    }
    std::vector<splitmfg::SplitChallenge> designs = batch.take_loaded();
    designs.insert(designs.begin(), std::move(victim).value());
    common::obs::record_diagnostics("ingest.victim_diag", victim_sink);
    out.suites.emplace(layer, ChallengeSuite(std::move(designs)));
  }
  return out;
}

}  // namespace repro::core
