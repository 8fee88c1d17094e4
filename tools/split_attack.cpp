// split_attack - command-line driver for the whole attack.
//
// Runs the machine-learning split-manufacturing attack on LEF/DEF layout
// files (as produced by lefdef::write_lef / write_def, e.g. via the
// attack_from_def example or an external flow emitting the same subset).
//
// Example (any usage error prints the full flag list):
//   split_attack --lef tech.lef --split 8 --config Imp-9Y
//                --train a.def --train b.def --victim victim.def
//
// Crash safety and budgets: --checkpoint-dir records completed work
// (each fold's trained model and result, fold_K.model / fold_K.result)
// as checksummed artifacts under DIR; --resume loads whatever validates
// instead of recomputing it (without --resume the directory is cleared
// first). Resumed runs produce bit-identical results to uninterrupted
// ones at any thread count (scripts/check_crash_recovery.sh proves this
// with a SIGKILL).
// --deadline-s / --max-rss-mb arm a wall-clock / peak-RSS budget:
// under soft pressure the run sheds accuracy down a recorded
// degradation ladder (fewer trees, then sampled targets and a smaller
// candidate radius), and an exceeded budget stops the run at the next
// fold boundary with everything completed so far checkpointed. SIGINT /
// SIGTERM trigger the same cooperative stop, flushing the checkpoint,
// metrics, and a partial run report before exit (exit code 3).
// --digest-out writes the per-design result digests plus a combined
// FNV-1a fingerprint as JSON — equal digests mean bit-equal results.
//
// --threads N sizes the worker pool used for classifier training and
// candidate scoring (0 = auto: REPRO_THREADS env, else hardware
// concurrency). Results are bit-identical at any thread count.
//
// Observability: any of --trace-out / --metrics-out / --report-out
// enables instrumentation and prints an end-of-run summary table.
// --trace-out writes a Chrome trace_event JSON (load in chrome://tracing
// or Perfetto); --metrics-out the counter/gauge/histogram registry;
// --report-out a single-JSON run report (config, dataset shape, phase
// timings, metrics, ingestion diagnostics). --obs-logical-time replaces
// trace timestamps with deterministic sequence numbers so that two
// identical runs produce byte-identical trace files
// (scripts/check_obs.sh relies on this). Metric values are independent
// of --threads either way; only timing fields vary.
//
// The victim DEF must contain the full routing if ground-truth scoring is
// wanted; a FEOL-only victim still produces candidate lists (unscored).
// --demo ignores the file flags and runs on a freshly generated suite.
// Every mode attacks the same leave-one-out suite, [victim, training...]:
// the single train -> victim split is its fold 0, so it checkpoints
// fold_0.model / fold_0.result under the same run key as --loo, and
// either mode resumes the other's fold 0. --loo evaluates every fold
// (each design held out in turn), printing one row per held-out design.
//
// Ingestion is fault-isolated per design: a corrupt or invalid training DEF
// is reported (with structured diagnostics) and skipped, and the attack
// proceeds on the surviving designs. --strict restores fail-fast: any bad
// input, including a bad training DEF, exits nonzero. A corrupt victim is
// always fatal.
//
// --fold K (with --loo) runs only fold K of the suite — the shard-worker
// mode used by split_campaign. It runs the same one-fold code as
// single-victim mode, with the same artifacts and run key, and speaks
// the supervisor's exit-code protocol: 4 means the fold completed but
// shed accuracy under budget pressure.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error,
// 3 interrupted (signal or exhausted budget; partial state was flushed),
// 4 complete but degraded (--fold worker mode only).
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/diagnostics.hpp"
#include "common/flags.hpp"
#include "common/json_writer.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "common/telemetry.hpp"
#include "core/cross_validation.hpp"
#include "core/pipeline.hpp"
#include "core/proximity.hpp"
#include "core/resilience.hpp"

namespace {

using namespace repro;
using common::hex64;

struct Args {
  core::SuiteSource source;
  int split = 8;
  int threads = 0;  ///< worker pool size; 0 = REPRO_THREADS / hardware
  std::string config = "Imp-9";
  double threshold = 0.5;
  std::string out;
  bool pa = false;
  bool loo = false;
  bool strict = false;
  bool validate = true;
  bool repair = true;
  std::string trace_out;
  std::string metrics_out;
  std::string report_out;
  std::string telemetry_out;  ///< heartbeat JSONL (campaign workers)
  double heartbeat_s = 1.0;   ///< heartbeat / RSS sampling interval
  bool obs_logical_time = false;
  std::string checkpoint_dir;
  bool resume = false;
  double deadline_s = 0;  ///< 0 = no wall-clock budget
  int max_rss_mb = 0;     ///< 0 = no memory budget
  std::string digest_out;
  int fold = -1;  ///< >= 0: run only this LOO fold (shard worker)

  bool obs_enabled() const {
    return !trace_out.empty() || !metrics_out.empty() || !report_out.empty();
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  common::FlagTable flags(argv[0]);
  // --split's upper bound is re-checked against the parsed technology's
  // via stack.
  a.source.bind(flags)
      .integer("--split", "N", &a.split, 1, 64)
      .text("--config", "NAME", &a.config)
      .integer("--threads", "N", &a.threads, 0, 1024)
      .number("--threshold", "T", &a.threshold, 0.0, 1.0)
      .text("--out", "CSV", &a.out)
      .flag("--pa", &a.pa)
      .flag("--loo", &a.loo)
      .flag("--strict", &a.strict)
      .flag("--no-validate", &a.validate, false)
      .flag("--no-repair", &a.repair, false)
      .text("--trace-out", "JSON", &a.trace_out)
      .text("--metrics-out", "JSON", &a.metrics_out)
      .text("--report-out", "JSON", &a.report_out)
      .text("--telemetry-out", "JSONL", &a.telemetry_out)
      .number("--heartbeat-s", "S", &a.heartbeat_s, 0.01, 3600)
      .flag("--obs-logical-time", &a.obs_logical_time)
      .text("--checkpoint-dir", "DIR", &a.checkpoint_dir)
      .flag("--resume", &a.resume)
      .number("--deadline-s", "S", &a.deadline_s, 0.001, 1e9)
      .integer("--max-rss-mb", "N", &a.max_rss_mb, 1, 1 << 20)
      .text("--digest-out", "JSON", &a.digest_out)
      .integer("--fold", "K", &a.fold, 0, 1 << 20);
  flags.parse_or_exit(argc, argv);
  if (const std::string why = a.source.usage_error(); !why.empty()) {
    flags.fail(why);
  }
  if (a.resume && a.checkpoint_dir.empty()) {
    flags.fail("--resume requires --checkpoint-dir");
  }
  if (a.fold >= 0 && !a.loo) flags.fail("--fold only applies to --loo runs");
  return a;
}

/// Writes {"complete": ..., "digest": ..., "designs": [...]} for the
/// kill-and-resume differential check. Incomplete runs carry null per
/// missing design and no combined digest.
bool write_digest_file(const std::string& path, bool complete,
                       const std::vector<std::string>& names,
                       const std::vector<std::optional<std::uint64_t>>& ds) {
  std::vector<std::string> rows;
  rows.reserve(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    common::JsonObject row;
    row.field("design", names[i]);
    if (ds[i]) {
      row.field("digest", hex64(*ds[i]));
    } else {
      row.field_raw("digest", "null");
    }
    rows.push_back(row.str());
  }
  common::JsonObject obj;
  obj.field("complete", complete);
  if (complete) {
    std::vector<std::uint64_t> all;
    all.reserve(ds.size());
    for (const auto& d : ds) all.push_back(*d);
    obj.field("digest", hex64(core::combine_digests(all)));
  }
  obj.field_raw("designs", common::json_array(rows));
  return common::write_json_file(path, obj.str());
}

/// Writes the LoC CSV through the atomic temp-then-rename path, so a
/// crash or full disk mid-write can never leave a truncated CSV under
/// the final name; returns false (with a message) on any I/O failure.
bool write_loc_csv(const std::string& path,
                   const splitmfg::SplitChallenge& ch,
                   const core::AttackResult& res, double threshold) {
  std::ostringstream os;
  os << "vpin,x,y,candidate,probability,distance\n";
  for (int v = 0; v < ch.num_vpins(); ++v) {
    const auto& r = res.per_vpin()[static_cast<std::size_t>(v)];
    for (const core::Candidate& c : r.top) {
      if (c.p < threshold) break;
      os << v << ',' << ch.vpin(v).pos.x << ',' << ch.vpin(v).pos.y << ','
         << c.id << ',' << c.p << ',' << c.d << '\n';
    }
  }
  common::Status st = common::atomic_write_file(path, os.str());
  if (!st.ok()) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", path.c_str(),
                 st.message().c_str());
    return false;
  }
  return true;
}

/// End-of-run observability summary: wall-clock per span name plus every
/// registered metric, aligned for terminal reading.
void print_obs_summary() {
  std::printf("--- observability summary ---------------------------------\n");
  std::printf("%-28s %8s %12s\n", "phase", "calls", "seconds");
  for (const common::obs::SpanAggregate& a : common::obs::aggregate_spans()) {
    std::printf("%-28s %8llu %12.3f\n", a.name.c_str(),
                static_cast<unsigned long long>(a.count), a.seconds);
  }
  std::printf("%-28s %20s\n", "metric", "value");
  for (const common::obs::MetricSnapshot& m : common::obs::snapshot_metrics()) {
    switch (m.kind) {
      case common::obs::MetricSnapshot::Kind::kCounter:
        std::printf("%-28s %20llu\n", m.name.c_str(),
                    static_cast<unsigned long long>(m.count));
        break;
      case common::obs::MetricSnapshot::Kind::kGauge:
        std::printf("%-28s %20.6g\n", m.name.c_str(), m.value);
        break;
      case common::obs::MetricSnapshot::Kind::kHistogram:
        std::printf("%-28s %16llu obs\n", m.name.c_str(),
                    static_cast<unsigned long long>(m.count));
        break;
    }
  }
}

/// Prints the summary table and writes whichever of --trace-out /
/// --metrics-out / --report-out were requested. `rep` already carries the
/// caller's result fields; phases and metrics are appended by to_json().
bool emit_obs_outputs(const Args& args, common::obs::RunReport& rep) {
  // Peak RSS has been sampled continuously by the heartbeat thread (not
  // only at budget checkpoints); one final sample catches the tail, and
  // the peak lands in the report. It lives outside the metrics registry
  // so metrics files stay byte-comparable across runs (telemetry.hpp).
  common::obs::sample_rss();
  rep.set("rss_peak_mb",
          static_cast<std::int64_t>(common::obs::rss_peak_mb()));
  print_obs_summary();
  if (!args.trace_out.empty()) {
    if (!common::write_json_file(args.trace_out, common::obs::trace_json())) {
      return false;
    }
    std::printf("trace written to %s\n", args.trace_out.c_str());
  }
  if (!args.metrics_out.empty()) {
    if (!common::write_json_file(args.metrics_out,
                                 common::obs::metrics_json())) {
      return false;
    }
    std::printf("metrics written to %s\n", args.metrics_out.c_str());
  }
  if (!args.report_out.empty()) {
    if (!common::write_json_file(args.report_out, rep.to_json())) {
      return false;
    }
    std::printf("report written to %s\n", args.report_out.c_str());
  }
  return true;
}

/// Single-victim stdout: the attack summary for fold 0.
void print_victim_result(const Args& args, const core::ChallengeSuite& suite,
                         const core::FoldRun& run, int num_threads,
                         const core::LoadedSuites& loaded,
                         const core::AttackConfig& cfg) {
  const splitmfg::SplitChallenge& victim = suite.challenge(0);
  const core::AttackResult& res = *run.result;
  std::printf("design:        %s\n", victim.design_name.c_str());
  std::printf("split layer:   %d\n", victim.split_layer);
  std::printf("v-pins:        %d\n", victim.num_vpins());
  std::printf("threads:       %d\n", num_threads);
  std::printf("train designs: %zu of %d (%d skipped)\n", suite.size() - 1,
              loaded.train_files, loaded.train_skipped);
  if (run.model) {
    std::printf("train samples: %d\n", run.model->num_train_samples);
    std::printf("phase times:   sample %.2fs, fit %.2fs, score %.2fs "
                "(total %.2fs)\n",
                run.model->sample_seconds, run.model->fit_seconds,
                res.test_seconds, run.model->train_seconds + res.test_seconds);
  }
  std::printf("mean |LoC| @ t=%.2f: %.1f\n", args.threshold,
              res.mean_loc_at_threshold(args.threshold));
  if (victim.num_matching_pairs() > 0) {
    std::printf("accuracy @ t=%.2f:   %.2f%%\n", args.threshold,
                100 * res.accuracy_at_threshold(args.threshold));
    if (args.pa) {
      // The config the fold trained with (degradation included); a
      // resumed result carries no model, so the requested one.
      const core::PAOutcome pa = core::validated_proximity_attack(
          res, victim, suite.training_for(0),
          run.model ? run.model->config : cfg);
      std::printf("PA success:          %.2f%% (fraction %.4f)\n",
                  100 * pa.success_rate, pa.best_fraction);
    }
  } else {
    std::printf("victim has no ground truth (FEOL-only view): "
                "candidate lists only\n");
  }
}

int run(const Args& args) {
  // Resilience services arm before ingestion so the wall-clock budget
  // covers the whole run, and ^C during a slow parse already unwinds
  // cooperatively. Both a signal and an exhausted budget route through
  // the same token, so both leave a valid checkpoint and a flushed
  // (partial) report behind.
  common::install_stop_signals();
  common::CancelToken& cancel = common::global_cancel_token();
  common::Budget budget(args.deadline_s, args.max_rss_mb);

  common::set_global_threads(args.threads);
  if (args.obs_enabled() || !args.telemetry_out.empty()) {
    // Telemetry heartbeats sample the metrics registry, so a telemetry
    // run forces the registry on even without trace/metrics/report
    // outputs.
    common::obs::set_enabled(true);
    common::obs::set_logical_time(args.obs_logical_time);
  }
  // Background sampler: with --telemetry-out it appends heartbeat
  // records to the crash-safe JSONL; without one (but with obs on) it
  // still samples RSS every interval so the report's rss_peak_mb
  // reflects the whole run, not just budget checkpoints.
  std::unique_ptr<common::obs::Heartbeat> heartbeat;
  if (args.obs_enabled() || !args.telemetry_out.empty()) {
    common::obs::set_phase("ingest");
    common::obs::Heartbeat::Options hopt;
    hopt.path = args.telemetry_out;
    hopt.interval_s = args.heartbeat_s;
    hopt.budget = budget.unlimited() ? nullptr : &budget;
    auto hb = common::obs::Heartbeat::start(std::move(hopt));
    if (!hb.ok()) {
      std::fprintf(stderr, "error: %s\n", hb.status().to_string().c_str());
      return 1;
    }
    heartbeat = std::move(*hb);
  }
  // Every mode attacks one leave-one-out suite in [victim, training...]
  // order: --loo runs all of its folds, --fold K fold K, and
  // single-victim mode fold 0 (train on the rest, test the victim).
  common::obs::SpanGuard ingest_span("ingest");
  common::StatusOr<core::LoadedSuites> loaded = core::load_suites(
      args.source, {&args.split, 1},
      {.strict = args.strict, .validate = args.validate,
       .repair = args.repair},
      std::cerr);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().message().c_str());
    return 1;
  }
  ingest_span.end();
  const core::ChallengeSuite& suite = loaded->suites.at(args.split);

  const core::AttackConfig cfg = core::config_from_name(args.config);
  const int num_threads = common::global_pool().num_threads();

  common::obs::RunReport rep;
  rep.set("tool", "split_attack")
      .set("mode", args.loo ? "loo" : "single")
      .set("config", cfg.name)
      .set("split_layer", suite.challenge(0).split_layer)
      .set("threads", num_threads)
      .set("seed", static_cast<std::int64_t>(cfg.seed))
      .set("logical_time", args.obs_logical_time)
      .set("train_files", loaded->train_files)
      .set("train_skipped", loaded->train_skipped);
  if (!args.checkpoint_dir.empty()) {
    rep.set("checkpoint_dir", args.checkpoint_dir).set("resume", args.resume);
  }
  if (!budget.unlimited()) {
    rep.set("deadline_s", args.deadline_s)
        .set("max_rss_mb", static_cast<std::int64_t>(args.max_rss_mb));
  }

  // Opens (or clears, without --resume) the checkpoint directory, scoped
  // to the suite's LOO run key. A failure to open is fatal — silently
  // running uncheckpointed would defeat the point of the flag.
  common::DiagnosticSink ckpt_sink(args.checkpoint_dir);
  std::optional<common::CheckpointManager> ckpt;
  if (!args.checkpoint_dir.empty()) {
    const std::uint64_t run_key =
        core::attack_run_key(suite.challenges(), cfg) ^
        common::fnv1a64("loo");
    auto c = common::CheckpointManager::open(args.checkpoint_dir, run_key,
                                             ckpt_sink);
    if (!c.ok()) {
      std::fprintf(stderr, "error: checkpoint dir %s: %s\n",
                   args.checkpoint_dir.c_str(),
                   c.status().to_string().c_str());
      return 1;
    }
    ckpt = std::move(*c);
    if (!args.resume) {
      for (const std::string& name : ckpt->names()) (void)ckpt->remove(name);
    }
    rep.set("run_key", hex64(run_key));
  }
  core::RunControl rc;
  rc.checkpoint = ckpt ? &*ckpt : nullptr;
  rc.cancel = &cancel;
  rc.budget = budget.unlimited() ? nullptr : &budget;
  rc.sink = &ckpt_sink;

  if (args.loo && args.fold < 0) {
    std::fprintf(stderr,
                 "LOO cross-validation over %zu designs (%d threads)...\n",
                 suite.size(), num_threads);
    const auto folds = suite.run_all_checkpointed(cfg, rc);
    ckpt_sink.print(std::cerr);
    // Corrupt-artifact / stale-checkpoint warnings belong in the run
    // report next to the degradation events: both mark runs whose path
    // to the result was not the happy one.
    common::obs::record_diagnostics("checkpoint.diag", ckpt_sink);

    std::printf("%-16s %8s %12s %10s\n", "design", "v-pins", "mean|LoC|",
                "accuracy");
    double acc_sum = 0;
    int acc_n = 0;
    int completed = 0;
    std::vector<std::string> names;
    std::vector<std::optional<std::uint64_t>> digests;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const splitmfg::SplitChallenge& ch = suite.challenge(i);
      names.push_back(ch.design_name);
      if (!folds[i]) {
        digests.emplace_back();
        std::printf("%-16s %8d %12s %10s\n", ch.design_name.c_str(),
                    ch.num_vpins(), "-", "skipped");
        continue;
      }
      ++completed;
      const core::AttackResult& r = *folds[i];
      digests.emplace_back(core::result_digest(r));
      const double loc = r.mean_loc_at_threshold(args.threshold);
      if (ch.num_matching_pairs() > 0) {
        const double acc = r.accuracy_at_threshold(args.threshold);
        acc_sum += acc;
        ++acc_n;
        std::printf("%-16s %8d %12.1f %9.2f%%\n", ch.design_name.c_str(),
                    ch.num_vpins(), loc, 100 * acc);
      } else {
        std::printf("%-16s %8d %12.1f %10s\n", ch.design_name.c_str(),
                    ch.num_vpins(), loc, "n/a");
      }
    }
    const bool complete = completed == static_cast<int>(suite.size());
    const bool interrupted = cancel.cancelled();
    const double mean_acc = acc_n > 0 ? acc_sum / acc_n : 0;
    if (acc_n > 0) {
      std::printf("mean accuracy @ t=%.2f over %d designs: %.2f%%\n",
                  args.threshold, acc_n, 100 * mean_acc);
    }
    if (complete) {
      std::vector<std::uint64_t> ds;
      for (const auto& d : digests) ds.push_back(*d);
      std::printf("result digest: %s\n",
                  hex64(core::combine_digests(ds)).c_str());
    } else {
      std::fprintf(stderr,
                   "interrupted (%s): %d of %zu folds complete%s\n",
                   cancel.reason().empty() ? "signal" : cancel.reason().c_str(),
                   completed, suite.size(),
                   ckpt ? "; checkpoint saved, rerun with --resume" : "");
    }
    rep.set("num_designs", static_cast<int>(suite.size()))
        .set("folds_completed", completed)
        .set("threshold", args.threshold)
        .set("interrupted", interrupted);
    if (interrupted && !cancel.reason().empty()) {
      rep.set("cancel_reason", cancel.reason());
    }
    if (acc_n > 0) rep.set("mean_accuracy", mean_acc);
    if (args.obs_enabled()) {
      common::obs::gauge("attack.threshold").set(args.threshold);
      if (acc_n > 0) common::obs::gauge("attack.mean_accuracy").set(mean_acc);
      if (!emit_obs_outputs(args, rep)) return 1;
    }
    if (!args.digest_out.empty() &&
        !write_digest_file(args.digest_out, complete, names, digests)) {
      return 1;
    }
    return interrupted || !complete ? 3 : 0;
  }

  // One fold: fold K in shard-worker mode (the campaign supervisor owns
  // the rest), fold 0 in single-victim mode. Same run key and artifact
  // names as a monolithic LOO run, so either checkpoint is
  // interchangeable with a slice of the full one.
  const std::int64_t fold = args.loo ? args.fold : 0;
  if (fold >= static_cast<std::int64_t>(suite.size())) {
    std::fprintf(stderr, "error: --fold %lld outside the suite [0, %zu)\n",
                 static_cast<long long>(fold), suite.size());
    return 2;
  }
  const splitmfg::SplitChallenge& ch =
      suite.challenge(static_cast<std::size_t>(fold));
  std::fprintf(stderr, "LOO fold %lld of %zu: %s (%d threads)...\n",
               static_cast<long long>(fold), suite.size(),
               ch.design_name.c_str(), num_threads);
  const core::FoldRun run = suite.run_fold_checkpointed(cfg, rc, fold);
  common::obs::set_phase("report");
  ckpt_sink.print(std::cerr);
  common::obs::record_diagnostics("checkpoint.diag", ckpt_sink);
  const bool interrupted = !run.result;
  std::optional<std::uint64_t> digest;
  if (interrupted) {
    std::fprintf(stderr, "interrupted (%s): fold %lld incomplete%s\n",
                 cancel.reason().empty() ? "signal" : cancel.reason().c_str(),
                 static_cast<long long>(fold),
                 ckpt ? "; checkpoint saved, rerun with --resume" : "");
  } else {
    digest = core::result_digest(*run.result);
    if (args.loo) {
      std::printf("%-16s %8d %12.1f\n", ch.design_name.c_str(),
                  ch.num_vpins(),
                  run.result->mean_loc_at_threshold(args.threshold));
    } else {
      print_victim_result(args, suite, run, num_threads, *loaded, cfg);
    }
    std::printf("result digest: %s\n", hex64(*digest).c_str());
    if (!args.loo && !args.out.empty()) {
      if (!write_loc_csv(args.out, ch, *run.result, args.threshold)) return 1;
      std::printf("LoC CSV written to %s\n", args.out.c_str());
    }
  }
  const bool degraded = !common::obs::degradation_events().empty();
  if (args.loo) {
    rep.set("fold", static_cast<std::int64_t>(fold))
        .set("design", ch.design_name)
        .set("threshold", args.threshold)
        .set("interrupted", interrupted)
        .set("degraded", degraded);
  } else {
    rep.set("design", ch.design_name)
        .set("train_designs", static_cast<int>(suite.size()) - 1)
        .set("num_vpins", ch.num_vpins())
        .set("threshold", args.threshold)
        .set("interrupted", interrupted);
    if (interrupted && !cancel.reason().empty()) {
      rep.set("cancel_reason", cancel.reason());
    }
    if (run.model) rep.set("train_samples", run.model->num_train_samples);
    const double loc =
        run.result ? run.result->mean_loc_at_threshold(args.threshold) : 0;
    const bool has_accuracy = run.result && ch.num_matching_pairs() > 0;
    const double acc =
        has_accuracy ? run.result->accuracy_at_threshold(args.threshold) : 0;
    if (run.result) rep.set("mean_loc", loc);
    if (has_accuracy) rep.set("accuracy", acc);
    if (args.obs_enabled()) {
      // Headline gauges, set at a serial point so the registry snapshot
      // carries them too. Shard workers set none, so campaign roll-ups
      // see only their counters.
      common::obs::gauge("attack.threshold").set(args.threshold);
      if (run.result) common::obs::gauge("attack.mean_loc").set(loc);
      if (has_accuracy) common::obs::gauge("attack.accuracy").set(acc);
    }
  }
  if (args.obs_enabled() && !emit_obs_outputs(args, rep)) return 1;
  if (!args.digest_out.empty() &&
      !write_digest_file(args.digest_out, !interrupted, {ch.design_name},
                         {digest})) {
    return 1;
  }
  // The heartbeat's "final" record (written when `heartbeat` is
  // destroyed on return) carries this phase — the supervisor's view of
  // how the attempt ended.
  common::obs::set_phase(interrupted ? "interrupted" : "done");
  if (interrupted) return 3;
  // Worker protocol: a complete-but-degraded fold exits 4 so the
  // supervisor can account for shed accuracy without reparsing reports.
  // Single-victim mode keeps plain 0 for compatibility.
  return args.loo && degraded ? 4 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
