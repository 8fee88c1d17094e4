#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/binio.hpp"
#include "common/http.hpp"
#include "common/json_scan.hpp"
#include "common/parallel.hpp"
#include "common/subprocess.hpp"
#include "common/telemetry.hpp"
#include "core/attack_service.hpp"
#include "core/campaign.hpp"
#include "core/candidate_index.hpp"
#include "core/pipeline.hpp"
#include "core/resilience.hpp"
#include "lefdef/lefdef.hpp"
#include "synth/synth.hpp"
#include "tech/tech.hpp"
#include "trace.hpp"

namespace bench_pipeline {

namespace {

using namespace repro;
namespace fs = std::filesystem;

/// Median and quartiles of `samples` (Python statistics.median and
/// statistics.quantiles(n=4) conventions). Empty input gives 0.
Metric summarize(std::string name, std::string unit,
                 std::vector<double> samples) {
  Metric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.n = static_cast<int>(samples.size());
  if (samples.empty()) return m;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  m.value = n % 2 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
  if (n < 2) {
    m.q1 = m.q3 = m.value;
    return m;
  }
  // statistics.quantiles(n=4, method="exclusive").
  const auto cut = [&](long i) {
    const long ld = static_cast<long>(n);
    const long j = std::clamp(i * (ld + 1) / 4, 1L, ld - 1);
    const long delta = i * (ld + 1) - j * 4;
    return (samples[static_cast<std::size_t>(j - 1)] * (4 - delta) +
            samples[static_cast<std::size_t>(j)] * delta) /
           4.0;
  };
  m.q1 = cut(1);
  m.q3 = cut(3);
  return m;
}

// --- inputs ------------------------------------------------------------------

/// What each workload attacks: every (layer, config) pair is one LOO job.
/// The caps are AttackConfig::max_test_vpins / max_train_samples.
struct WorkloadSpec {
  std::vector<int> layers;
  std::vector<std::string> configs;
  double scale = 1.0;
  int max_test_vpins = 0;
  int max_train_samples = 0;
  /// The run's seed is the attack's seed. Off where the program under
  /// test fixes it (the server and split_campaign attack with seed 1).
  bool seeded_config = false;
};

WorkloadSpec spec_of(const std::string& workload) {
  // loo-train caps the scored targets so training dominates; loo-score
  // caps the training rows and scores every target so scoring dominates
  // (uncapped, scoring reaches that share only at scale 0.25, where one
  // rep takes ~10 s on 4 CPUs).
  if (workload == "loo-train") return {{8}, {"Imp-9"}, 0.5, 200, 24000, true};
  if (workload == "loo-score") return {{4}, {"Imp-9"}, 0.1, 0, 2000, true};
  if (workload == "serve") return {{8}, {"Imp-9", "Imp-11"}, 0.1};
  if (workload == "campaign") return {{8, 6}, {"Imp-9"}, 0.1};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

/// The generated designs cut at the workload's split layers.
struct Inputs {
  std::vector<synth::SynthDesign> designs;
  std::map<int, core::ChallengeSuite> suites;
  double generate_s = 0;
  double cut_s = 0;
  double vpins = 0;
};

/// The five preset layouts at `scale`, generated from the presets' own
/// seeds. The run's seed does not reach the layouts: at the sizes these
/// workloads use, per-seed layouts change the work of one operation by up
/// to 2x, which would drown every change the benchmark exists to see.
Inputs make_inputs(const WorkloadSpec& spec, double scale) {
  Inputs in;
  const std::vector<std::string> names = synth::preset_names();
  double t0 = now_s();
  in.designs = common::parallel_map<synth::SynthDesign>(
      static_cast<std::int64_t>(names.size()), [&](std::int64_t i) {
        synth::SynthParams p = synth::preset(names[static_cast<std::size_t>(i)]);
        p.num_cells = std::max(500, static_cast<int>(p.num_cells * scale));
        return synth::generate(p);
      });
  in.generate_s = now_s() - t0;
  t0 = now_s();
  for (int layer : spec.layers) {
    core::ChallengeSuite suite = core::make_suite(in.designs, layer);
    for (const auto& ch : suite.challenges()) in.vpins += ch.num_vpins();
    in.suites.emplace(layer, std::move(suite));
  }
  in.cut_s = now_s() - t0;
  return in;
}

struct Job {
  int layer = 0;
  core::AttackConfig config;
  const core::ChallengeSuite* suite = nullptr;
};

std::vector<Job> make_jobs(const WorkloadSpec& spec,
                           const std::map<int, core::ChallengeSuite>& suites,
                           std::uint64_t seed) {
  std::vector<Job> jobs;
  for (int layer : spec.layers) {
    for (const std::string& name : spec.configs) {
      Job j;
      j.layer = layer;
      j.config = core::config_from_name(name, spec.seeded_config ? seed : 1);
      j.config.max_test_vpins = spec.max_test_vpins;
      j.config.max_train_samples = spec.max_train_samples;
      j.suite = &suites.at(layer);
      jobs.push_back(j);
    }
  }
  return jobs;
}

/// fnv1a64 over the little-endian digests: how split_attack and
/// split_campaign combine per-fold digests into one.
std::uint64_t combine(const std::vector<std::uint64_t>& digests) {
  common::BinaryWriter w;
  for (std::uint64_t d : digests) w.u64(d);
  return common::fnv1a64(w.buffer());
}

double vm_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

double children_maxrss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024;
}

// --- LOO passes ----------------------------------------------------------------

struct PassOutcome {
  std::vector<std::vector<std::uint64_t>> fold_digests;  ///< per job
  std::uint64_t digest = 0;  ///< combine over jobs of combine over folds
  double accuracy = 0;       ///< mean accuracy at t = 0.5 (information)
  double wall_s = 0;
  double region_s = 0;       ///< wall time inside the fold-parallel regions
  std::vector<int> groups;   ///< tracer groups, one per job
  int fold0_nodes = 0;       ///< job 0, fold 0 forest size (probe check)
  double save_bytes = 0;
};

/// The LoC/accuracy evaluation the paper's tables read off each fold;
/// returns the mean accuracy at t = 0.5.
double evaluate(const std::vector<core::AttackResult>& results) {
  static const std::vector<double> kFractions = {0.001, 0.005, 0.01, 0.05,
                                                 0.1};
  double acc = 0;
  for (const core::AttackResult& r : results) {
    acc += r.accuracy_at_threshold(0.5);
    (void)r.mean_loc_at_threshold(0.5);
    (void)r.mean_loc_for_accuracy(0.9);
    (void)r.tradeoff_curve(kFractions);
  }
  return results.empty() ? 0 : acc / static_cast<double>(results.size());
}

/// Evaluation and digest of one job's fold results, shared by both paths.
void finish_job(const std::vector<core::AttackResult>& results,
                PassOutcome& out, Tracer* tracer, int parent, int group) {
  {
    Tracer::Scope s(tracer, "core.eval", parent, group);
    out.accuracy += evaluate(results);
  }
  Tracer::Scope s(tracer, "core.digest", parent, group);
  std::vector<std::uint64_t> folds;
  for (const core::AttackResult& r : results) {
    folds.push_back(core::result_digest(r));
  }
  out.fold_digests.push_back(std::move(folds));
}

void seal(PassOutcome& out, std::size_t jobs) {
  std::vector<std::uint64_t> per_job;
  for (const auto& folds : out.fold_digests) per_job.push_back(combine(folds));
  out.digest = combine(per_job);
  out.accuracy /= static_cast<double>(std::max<std::size_t>(1, jobs));
}

/// One LOO rep the way users run it: ChallengeSuite::run_all, then the
/// serial evaluation and digest.
PassOutcome loo_rep(const std::vector<Job>& jobs) {
  PassOutcome out;
  const double t0 = now_s();
  for (const Job& j : jobs) {
    finish_job(j.suite->run_all(j.config), out, nullptr, -1, 0);
  }
  out.wall_s = now_s() - t0;
  seal(out, jobs.size());
  return out;
}

/// The same computation through the layers' public functions, mirroring
/// run_all: parallel_map over folds of AttackEngine::train, then
/// FlatForest::build, then AttackEngine::test(model, forest, ch). It is
/// the second path of the digest oracle, and with a tracer every call is
/// a span.
PassOutcome explicit_pass(const std::vector<Job>& jobs, Tracer* tracer) {
  PassOutcome out;
  for (std::size_t ji = 0; ji < jobs.size(); ++ji) {
    const Job& j = jobs[ji];
    const int group = tracer ? tracer->next_group() : 0;
    out.groups.push_back(group);
    Tracer::Scope rep(tracer, "loo.rep", -1, group);
    const auto n = static_cast<std::int64_t>(j.suite->size());
    std::vector<int> nodes(static_cast<std::size_t>(n), 0);
    const double r0 = now_s();
    auto slots = common::parallel_map<std::optional<core::AttackResult>>(
        n, [&](std::int64_t i) {
          const auto fold = static_cast<std::size_t>(i);
          Tracer::Scope fold_span(tracer, "loo.fold", rep.id(), group);
          const auto training = j.suite->training_for(fold);
          core::TrainedModel model;
          {
            Tracer::Scope s(tracer, "core.train", fold_span.id(), group);
            model = core::AttackEngine::train(training, j.config);
          }
          ml::FlatForest forest;
          {
            Tracer::Scope s(tracer, "ml.flatten", fold_span.id(), group);
            forest = ml::FlatForest::build(model.classifier);
          }
          nodes[fold] = forest.num_nodes();
          Tracer::Scope s(tracer, "core.test", fold_span.id(), group);
          return std::optional<core::AttackResult>(core::AttackEngine::test(
              model, forest, j.suite->challenge(fold)));
        });
    out.region_s += now_s() - r0;
    if (ji == 0 && !nodes.empty()) out.fold0_nodes = nodes[0];
    std::vector<core::AttackResult> results;
    for (auto& r : slots) results.push_back(std::move(*r));
    finish_job(results, out, tracer, rep.id(), group);
    out.wall_s += rep.end();
    if (tracer) {
      // Checkpoint serialization, outside the rep: campaign workers pay
      // it per fold, LOO reps do not.
      Tracer::Scope s(tracer, "core.resilience.save", -1, group);
      for (const core::AttackResult& r : results) {
        out.save_bytes += static_cast<double>(core::save_result(r).size());
      }
    }
  }
  seal(out, jobs.size());
  return out;
}

using Samples = std::map<std::string, std::vector<double>>;

/// Per-layer numbers of one traced pass, from its spans.
void pass_layers(const PassOutcome& p, const Tracer& t, Samples& out) {
  double train = 0, flatten = 0, test = 0, fold = 0, eval = 0, digest = 0,
         save = 0;
  for (int g : p.groups) {
    train += t.total("core.train", g);
    flatten += t.total("ml.flatten", g);
    test += t.total("core.test", g);
    fold += t.total("loo.fold", g);
    eval += t.total("core.eval", g);
    digest += t.total("core.digest", g);
    save += t.total("core.resilience.save", g);
  }
  out["core.train_s"].push_back(train);
  out["ml.flatten_s"].push_back(flatten);
  out["core.test_s"].push_back(test);
  out["core.eval_s"].push_back(eval);
  out["core.resilience.save_s"].push_back(save + digest);
  out["core.resilience.bytes"].push_back(p.save_bytes);
  const double capacity = bench_threads() * p.region_s;
  out["loo.idle_frac"].push_back(capacity > 0 ? 1 - fold / capacity : 0);
  out["loo.unattributed_frac"].push_back(
      fold > 0 ? 1 - (train + flatten + test) / fold : 0);
}

/// Sub-layer probes: fold 0 of job 0 again at one thread, call by call,
/// outside the pass sums. Sampling and target selection repeat what
/// AttackEngine::train/test do internally (same seeds), so the probe
/// measures the same work; `engine_nodes` and the pair count check that.
void probe_fold0(const Job& j, int engine_nodes, Tracer& t, Samples& out) {
  common::set_global_threads(1);
  const core::AttackConfig& cfg = j.config;
  const auto training = j.suite->training_for(0);
  const splitmfg::SplitChallenge& ch = j.suite->challenge(0);
  const int group = t.next_group();
  Tracer::Scope root(&t, "probe.fold0", -1, group);

  core::PairFilter filter;
  if (cfg.improved) {
    filter.neighborhood =
        core::neighborhood_radius(training, cfg.neighborhood_percentile);
  }
  filter.limit_top_direction = cfg.limit_top_direction;
  filter.top_metal_horizontal = cfg.top_metal_horizontal;

  ml::Dataset data;
  {
    Tracer::Scope s(&t, "core.sampling", root.id(), group);
    core::SamplingOptions sopt;
    sopt.filter = filter;
    sopt.seed = cfg.seed * 1000003 + 17;
    sopt.normalize_distances = cfg.normalize_distances;
    data = core::make_training_set(training, cfg.features, sopt);
    if (cfg.max_train_samples > 0 && data.num_rows() > cfg.max_train_samples) {
      ml::Dataset sub(data.feature_names());
      std::vector<int> rows(static_cast<std::size_t>(data.num_rows()));
      std::iota(rows.begin(), rows.end(), 0);
      std::mt19937_64 rng(cfg.seed * 31337 + 5);
      std::shuffle(rows.begin(), rows.end(), rng);
      rows.resize(static_cast<std::size_t>(cfg.max_train_samples));
      for (int r : rows) sub.add_row(data.row(r), data.label(r));
      data = std::move(sub);
    }
  }
  core::TrainedModel model;
  model.config = cfg;
  model.feat_idx = core::feature_indices(cfg.features);
  model.filter = filter;
  {
    Tracer::Scope s(&t, "ml.fit", root.id(), group);
    model.classifier = ml::BaggingClassifier::train(
        data, ml::BaggingOptions::reptree_bagging(cfg.seed));
  }
  const ml::FlatForest forest = ml::FlatForest::build(model.classifier);

  std::vector<int> targets(static_cast<std::size_t>(ch.num_vpins()));
  std::iota(targets.begin(), targets.end(), 0);
  if (cfg.max_test_vpins > 0 && ch.num_vpins() > cfg.max_test_vpins) {
    std::mt19937_64 rng(common::derive_stream(cfg.seed, "attack.test.targets"));
    std::shuffle(targets.begin(), targets.end(), rng);
    targets.resize(static_cast<std::size_t>(cfg.max_test_vpins));
    std::sort(targets.begin(), targets.end());
  }

  std::vector<std::vector<splitmfg::VpinId>> cands(targets.size());
  double scanned = 0, yielded = 0;
  {
    Tracer::Scope s(&t, "core.candidate_index", root.id(), group);
    const core::CandidateIndex index(ch);
    for (std::size_t ti = 0; ti < targets.size(); ++ti) {
      scanned += static_cast<double>(index.collect(targets[ti], filter, cands[ti]));
      yielded += static_cast<double>(cands[ti].size());
    }
  }
  // Features then predictions, 64 targets at a time: the engine's batch
  // shape (256-row predict_batch calls) without holding every row.
  const int nfeat = static_cast<int>(model.feat_idx.size());
  const double scale = model.scale_for(ch);
  constexpr std::size_t kChunk = 64;
  constexpr int kBatch = 256;
  std::vector<double> rows;
  std::vector<double> probs(kBatch);
  double predicted = 0;
  for (std::size_t c0 = 0; c0 < targets.size(); c0 += kChunk) {
    const std::size_t c1 = std::min(targets.size(), c0 + kChunk);
    rows.clear();
    {
      Tracer::Scope s(&t, "core.features", root.id(), group);
      for (std::size_t ti = c0; ti < c1; ++ti) {
        const int self = targets[ti];
        for (splitmfg::VpinId w : cands[ti]) {
          const splitmfg::Vpin& a = ch.vpin(std::min(self, w));
          const splitmfg::Vpin& b = ch.vpin(std::max(self, w));
          const auto full = core::pair_features(a, b, scale);
          for (int k : model.feat_idx) {
            rows.push_back(full[static_cast<std::size_t>(k)]);
          }
        }
      }
    }
    Tracer::Scope s(&t, "ml.predict", root.id(), group);
    const int m = static_cast<int>(rows.size()) / nfeat;
    for (int r0 = 0; r0 < m; r0 += kBatch) {
      const int b = std::min(kBatch, m - r0);
      forest.predict_batch(rows.data() + static_cast<std::size_t>(r0) * nfeat,
                           b, nfeat, probs.data());
    }
    predicted += m;
  }

  double test_s = 0, pairs = 0;
  {
    Tracer::Scope s(&t, "core.test", root.id(), group);
    const core::AttackResult res = core::AttackEngine::test(model, forest, ch);
    test_s = s.end();
    for (const core::VpinResult& r : res.per_vpin()) pairs += r.num_evaluated;
  }
  root.end();
  common::set_global_threads(bench_threads());

  if (forest.num_nodes() != engine_nodes || pairs != yielded) {
    std::fprintf(stderr,
                 "warning: fold-0 probe diverges from the engine (nodes %d vs "
                 "%d, pairs %.0f vs %.0f); probe numbers do not describe the "
                 "workload\n",
                 forest.num_nodes(), engine_nodes, yielded, pairs);
  }
  const double index_s = t.total("core.candidate_index", group);
  const double features_s = t.total("core.features", group);
  const double predict_s = t.total("ml.predict", group);
  out["core.sampling_s"].push_back(t.total("core.sampling", group));
  out["core.sampling.rows"].push_back(data.num_rows());
  out["ml.fit_s"].push_back(t.total("ml.fit", group));
  out["ml.fit.nodes"].push_back(forest.num_nodes());
  out["core.candidate_index_s"].push_back(index_s);
  out["core.candidate_index.scanned"].push_back(scanned);
  out["core.candidate_index.yielded"].push_back(yielded);
  out["core.candidate_index.yield_ratio"].push_back(
      scanned > 0 ? yielded / scanned : 0);
  out["core.features_s"].push_back(features_s);
  out["ml.predict_s"].push_back(predict_s);
  out["ml.predict.ns_per_row"].push_back(
      predicted > 0 ? predict_s / predicted * 1e9 : 0);
  out["core.test.residual_s"].push_back(test_s -
                                        (index_s + features_s + predict_s));
}

// --- set-up --------------------------------------------------------------------

/// Everything a workload needs before its measured loop. Member order
/// matters: the server (whose handler points at the service) is
/// destroyed first.
struct Setup {
  Inputs inputs;
  double seconds = 0;
  std::unique_ptr<core::AttackService> service;
  std::unique_ptr<common::http::Server> server;
  std::string lef_path;
  std::vector<std::string> defs;  ///< victim first, then training designs
};

struct Context {
  const RunOptions& opt;
  WorkloadSpec spec;
  double scale = 0;
  int threads = 1;
  Tracer* tracer = nullptr;  ///< traced runs only
  fs::path work;             ///< this process's scratch directory
  /// Budgets of the workload's measured phase and (traced runs) of the
  /// traced-pass alternation; together they are about --seconds.
  double phase_s = 0;
  double layers_s = 0;
};

/// The serve handler: AttackService::handle, plus (traced) a span and the
/// handler time as a response header so the client can split its round
/// trip into handler time and HTTP overhead.
common::http::Server::Handler make_handler(core::AttackService* service,
                                           Tracer* tracer) {
  if (!tracer) {
    return [service](const common::http::Request& req) {
      return service->handle(req);
    };
  }
  return [service, tracer](const common::http::Request& req) {
    int group = 0, parent = -1;
    if (auto doc = common::parse_json(req.body); doc.ok()) {
      group = static_cast<int>(doc->get_i64("bench_group", 0));
      parent = static_cast<int>(doc->get_i64("bench_span", -1));
    }
    Tracer::Scope s(tracer, "core.attack_service.handle", parent, group);
    common::http::Response resp = service->handle(req);
    resp.extra_headers.emplace_back("X-Bench-Handler-S",
                                    std::to_string(s.end()));
    return resp;
  };
}

std::unique_ptr<Setup> make_setup(const Context& cx) {
  auto s = std::make_unique<Setup>();
  const double t0 = now_s();
  s->inputs = make_inputs(cx.spec, cx.scale);
  const std::string& w = cx.opt.workload;
  if (w == "serve") {
    core::AttackService::Options sopt;
    sopt.store_dir = (cx.work / "serve_store").string();
    fs::remove_all(sopt.store_dir);
    auto svc = core::AttackService::create(s->inputs.suites, sopt);
    if (!svc.ok()) throw std::runtime_error(svc.status().to_string());
    s->service = std::move(*svc);
    common::http::Server::Options hopt;
    hopt.num_threads = cx.threads;
    hopt.limits.deadline_s = 60;
    auto server = common::http::Server::start(
        hopt, make_handler(s->service.get(), cx.tracer));
    if (!server.ok()) throw std::runtime_error(server.status().to_string());
    s->server = std::move(*server);
  } else if (w == "campaign") {
    const fs::path dir = cx.work / "defs";
    fs::create_directories(dir);
    s->lef_path = (dir / "tech.lef").string();
    {
      // The generator routes on 800-DBU GCells (synth.cpp).
      std::ofstream lef(s->lef_path);
      lefdef::write_lef(lef, tech::Technology::make_default(800),
                        *s->inputs.designs[0].lib);
    }
    for (const synth::SynthDesign& d : s->inputs.designs) {
      s->defs.push_back((dir / (d.params.name + ".def")).string());
      std::ofstream def(s->defs.back());
      lefdef::write_def(def, *d.netlist, d.routes);
      if (!def) throw std::runtime_error("cannot write " + s->defs.back());
    }
    // The seed orders the training DEFs on the command line, and with it
    // every fold's training set (and so its negative samples).
    std::mt19937_64 rng(common::derive_stream(cx.opt.seed, "bench.train_order"));
    std::shuffle(s->defs.begin() + 1, s->defs.end(), rng);
  }
  s->inputs.designs.clear();
  s->seconds = now_s() - t0;
  return s;
}

// --- serve ---------------------------------------------------------------------

struct Reply {
  double rtt_ms = 0;
  double done_s = 0;  ///< completion time, seconds from phase start
  bool ok = false;
  std::string cache;
  double handler_s = 0, hydrate_s = 0, score_s = 0;
};

struct ServeKey {
  std::int64_t fold;
  std::string config;
  std::uint64_t digest;  ///< reference-path digest of this fold
};

Reply score_request(int port, const ServeKey& key, Tracer* tracer,
                    double phase_t0) {
  const int group = tracer ? tracer->next_group() : 0;
  Tracer::Scope span(tracer, "http.request", -1, group);
  std::string body = "{\"layer\": 8, \"fold\": " + std::to_string(key.fold) +
                     ", \"config\": \"" + key.config + "\"";
  if (tracer) {
    body += ", \"bench_group\": " + std::to_string(group) +
            ", \"bench_span\": " + std::to_string(span.id());
  }
  body += "}";
  Reply r;
  const double t0 = now_s();
  auto resp = common::http::fetch(port, "POST", "/score", body,
                                  "application/json", 120.0);
  const double t1 = now_s();
  span.end();
  r.rtt_ms = (t1 - t0) * 1e3;
  r.done_s = t1 - phase_t0;
  if (!resp.ok() || resp->status != 200) return r;
  auto doc = common::parse_json(resp->body);
  if (!doc.ok()) return r;
  r.ok = std::strtoull(doc->get_string("digest").c_str(), nullptr, 16) ==
         key.digest;
  r.cache = doc->get_string("cache");
  r.hydrate_s = doc->get_double("hydrate_seconds");
  r.score_s = doc->get_double("score_seconds");
  if (const std::string* h = resp->header("x-bench-handler-s")) {
    r.handler_s = std::atof(h->c_str());
  }
  return r;
}

/// Closed loop: `clients` threads, each sending its next request when
/// the previous reply lands. With `each_key_once` every key is sent once
/// (the cold phase); otherwise client c sends keys[(i * clients + c) mod
/// |keys|] for `seconds`, at least `min_each` requests each, so at any
/// moment the clients ask for different keys.
std::vector<Reply> drive(int port, const std::vector<ServeKey>& keys,
                         int clients, bool each_key_once, double seconds,
                         int min_each, Tracer* tracer) {
  std::vector<std::vector<Reply>> per(static_cast<std::size_t>(clients));
  std::atomic<std::size_t> next{0};
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& mine = per[static_cast<std::size_t>(c)];
      if (each_key_once) {
        std::size_t k = next.fetch_add(1);
        for (; k < keys.size(); k = next.fetch_add(1)) {
          mine.push_back(score_request(port, keys[k], tracer, t0));
        }
        return;
      }
      for (std::size_t i = 0;
           now_s() - t0 < seconds || static_cast<int>(i) < min_each; ++i) {
        const std::size_t k = (i * static_cast<std::size_t>(clients) +
                               static_cast<std::size_t>(c)) %
                              keys.size();
        mine.push_back(score_request(port, keys[k], tracer, t0));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Reply> all;
  for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
  return all;
}

// --- campaign ------------------------------------------------------------------

struct CampaignRun {
  double wall_s = 0;
  bool ok = false;
  std::map<int, std::uint64_t> layer_digests;
};

CampaignRun run_campaign(const Context& cx, const Setup& s,
                         const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  common::SpawnOptions so;
  so.argv = {BENCH_SPLIT_CAMPAIGN, "--lef", s.lef_path};
  for (std::size_t i = 1; i < s.defs.size(); ++i) {
    so.argv.insert(so.argv.end(), {"--train", s.defs[i]});
  }
  std::string layers;
  for (int l : cx.spec.layers) {
    layers += (layers.empty() ? "" : ",") + std::to_string(l);
  }
  so.argv.insert(so.argv.end(),
                 {"--victim", s.defs[0], "--layers", layers, "--workers",
                  std::to_string(cx.threads), "--threads", "1",
                  "--campaign-dir", (dir / "campaign").string(),
                  "--digest-out", (dir / "digest.json").string(),
                  "--report-out", (dir / "report.json").string()});
  so.stdout_path = (dir / "campaign.out").string();
  so.stderr_path = (dir / "campaign.err").string();
  CampaignRun run;
  const double t0 = now_s();
  auto proc = common::Subprocess::spawn(so);
  if (!proc.ok()) return run;
  const common::WaitStatus ws = proc->wait();
  run.wall_s = now_s() - t0;
  auto doc = common::parse_json(read_file(dir / "digest.json"));
  if (!ws.exited || ws.exit_code != 0 || !doc.ok()) return run;
  if (const common::JsonValue* rows = doc->find("layers")) {
    for (const common::JsonValue& row : rows->items) {
      run.layer_digests[static_cast<int>(row.get_i64("layer"))] =
          std::strtoull(row.get_string("digest").c_str(), nullptr, 16);
    }
  }
  run.ok = doc->get_bool("complete");
  return run;
}

/// Shard-level numbers of one finished campaign, from the files its
/// workers leave behind: telemetry (start -> final) and report phases.
void campaign_layers(const Context& cx, const fs::path& dir, double wall_s,
                     std::int64_t folds, Samples& out) {
  std::vector<double> shard_s;
  double ingest = 0, busy = 0;
  for (int layer : cx.spec.layers) {
    for (std::int64_t fold = 0; fold < folds; ++fold) {
      const fs::path shard = core::CampaignSupervisor::shard_dir(
          (dir / "campaign").string(), core::ShardSpec{layer, fold});
      double start = 0, final_t = 0;
      std::istringstream lines(read_file(shard / "telemetry.jsonl"));
      for (std::string line; std::getline(lines, line);) {
        auto rec = common::obs::parse_telemetry_line(line);
        if (!rec.ok()) continue;
        if (rec->kind == "start") start = rec->t;
        if (rec->kind == "final") final_t = rec->t;
      }
      if (final_t > start && start > 0) {
        shard_s.push_back(final_t - start);
        busy += final_t - start;
      }
      auto report = common::parse_json(read_file(shard / "report.json"));
      if (!report.ok()) continue;
      if (const common::JsonValue* phases = report->find("phases")) {
        for (const common::JsonValue& p : phases->items) {
          if (p.get_string("name") == "ingest") ingest += p.get_double("seconds");
        }
      }
    }
  }
  auto report = common::parse_json(read_file(dir / "report.json"));
  out["core.campaign.shard_s_p50"].push_back(
      summarize("", "", shard_s).value);
  out["core.campaign.worker_ingest_frac"].push_back(busy > 0 ? ingest / busy
                                                             : 0);
  out["core.campaign.worker_busy_frac"].push_back(
      wall_s > 0 ? busy / (cx.threads * wall_s) : 0);
  out["core.campaign.retries"].push_back(
      report.ok() ? report->get_double("retries") : 0);
}

/// The campaign's reference: the same five DEFs ingested in process, in
/// split_attack's suite order (victim first), one suite per layer.
std::map<int, core::ChallengeSuite> ingest_defs(const Context& cx,
                                                const Setup& s) {
  std::ifstream lef_in(s.lef_path);
  common::DiagnosticSink lef_sink;
  auto lef = lefdef::read_lef(lef_in, lef_sink);
  if (!lef.ok()) throw std::runtime_error("LEF: " + lef.status().to_string());
  std::map<int, core::ChallengeSuite> suites;
  for (int layer : cx.spec.layers) {
    core::DefLoadOptions lopt;
    lopt.split_layer = layer;
    lopt.strict = true;
    common::DiagnosticSink sink;
    core::DefBatch batch = core::load_challenges_from_defs(s.defs, *lef, lopt, sink);
    if (batch.num_skipped > 0) throw std::runtime_error("DEF ingest failed");
    suites.emplace(layer, core::ChallengeSuite(batch.take_loaded()));
  }
  return suites;
}

// --- the run -------------------------------------------------------------------

struct OpCount {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Completion time and latency of one measured operation.
struct Timed {
  double end_s = 0;
  double ms = 0;
};

/// What a workload's measured phase leaves for the result.
struct Measured {
  std::vector<Timed> ops;
  int clients = 1;  ///< operations in flight at once
  OpCount count;
  Samples layers;
  std::vector<std::pair<std::string, double>> detail;
};

bool keep_going(double t0, double seconds, int done, int min_reps) {
  return done < min_reps || now_s() - t0 < seconds;
}

/// Per-layer metric units follow their names' suffixes.
const char* layer_unit(const std::string& name) {
  static const std::pair<const char*, const char*> kSuffixes[] = {
      {"_ms_p50", "ms"},    {"_s_p50", "s"},       {"_s", "s"},
      {"_frac", "fraction"}, {"_ratio", "fraction"}, {"ns_per_row", "ns"},
      {".bytes", "bytes"}};
  for (const auto& [suffix, unit] : kSuffixes) {
    if (name.ends_with(suffix)) return unit;
  }
  return "count";
}

double median(std::vector<double> v) {
  return summarize("", "", std::move(v)).value;
}

/// The repeats behind op_ms and ops_per_s: the operations in completion
/// order, cut into (up to) seven consecutive blocks. Per block: the median
/// latency, and the throughput clients * count / sum(latency) -- Little's
/// law, which is 1 / mean latency for one sequential client and the
/// completion rate for a closed loop that keeps `clients` requests in
/// flight. Block medians repeat far better than single operations on a
/// shared machine, and with seven blocks their quartiles are the second
/// and sixth block, so one disturbed block does not widen them.
void block_repeats(std::vector<Timed> ops, int clients,
                   std::vector<double>* p50_ms, std::vector<double>* per_s) {
  std::sort(ops.begin(), ops.end(),
            [](const Timed& a, const Timed& b) { return a.end_s < b.end_s; });
  const std::size_t n = ops.size();
  const std::size_t blocks = std::min<std::size_t>(7, n);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<double> ms;
    double sum_s = 0;
    for (std::size_t i = b * n / blocks; i < (b + 1) * n / blocks; ++i) {
      ms.push_back(ops[i].ms);
      sum_s += ops[i].ms / 1e3;
    }
    per_s->push_back(clients * static_cast<double>(ms.size()) / sum_s);
    p50_ms->push_back(median(std::move(ms)));
  }
}

void measure_loo(const Context& cx, const std::vector<Job>& jobs,
                 const PassOutcome& ref, Measured& m) {
  const double t0 = now_s();
  for (int done = 0; keep_going(t0, cx.phase_s, done, cx.opt.min_reps);
       ++done) {
    const PassOutcome rep = loo_rep(jobs);
    m.count.add(rep.digest == ref.digest);
    m.ops.push_back({now_s(), rep.wall_s * 1e3});
  }
}

void measure_serve(const Context& cx, const std::vector<Job>& jobs,
                   const PassOutcome& ref, const Setup& setup, Measured& m) {
  std::vector<ServeKey> keys;
  for (std::size_t ji = 0; ji < jobs.size(); ++ji) {
    for (std::size_t f = 0; f < ref.fold_digests[ji].size(); ++f) {
      keys.push_back({static_cast<std::int64_t>(f), jobs[ji].config.name,
                      ref.fold_digests[ji][f]});
    }
  }
  // The seed orders the requests; each key stays equally frequent.
  std::mt19937_64 rng(common::derive_stream(cx.opt.seed, "bench.serve_order"));
  std::shuffle(keys.begin(), keys.end(), rng);
  const int port = setup.server->port();
  // Cold: each key once, so each request trains and writes the cache and
  // the store. Warm: round-robin over the same keys, all cache hits.
  const std::vector<Reply> cold =
      drive(port, keys, cx.threads, true, 0, 0, cx.tracer);
  const std::vector<Reply> warm = drive(port, keys, cx.threads, false,
                                        cx.phase_s, cx.opt.min_reps, cx.tracer);
  m.clients = cx.threads;
  std::vector<double> cold_ms, warm_ms;
  for (const Reply& x : cold) {
    m.count.add(x.ok && x.cache == "trained");
    cold_ms.push_back(x.rtt_ms);
  }
  for (const Reply& x : warm) {
    m.count.add(x.ok);
    warm_ms.push_back(x.rtt_ms);
    m.ops.push_back({x.done_s, x.rtt_ms});
  }
  std::sort(warm_ms.begin(), warm_ms.end());
  m.detail.emplace_back("cold_ms", median(cold_ms));
  m.detail.emplace_back("warm_requests", static_cast<double>(warm.size()));
  m.detail.emplace_back("warm_p95_ms", warm_ms[warm_ms.size() * 95 / 100]);
  if (!cx.tracer) return;

  std::vector<double> overhead_ms;
  const std::pair<const char*, const std::vector<Reply>*> phases[] = {
      {"cold", &cold}, {"warm", &warm}};
  for (const auto& [tag, replies] : phases) {
    std::vector<double> handle, hydrate, score;
    for (const Reply& x : *replies) {
      handle.push_back(x.handler_s * 1e3);
      hydrate.push_back(x.hydrate_s * 1e3);
      score.push_back(x.score_s * 1e3);
      overhead_ms.push_back(x.rtt_ms - x.handler_s * 1e3);
    }
    const std::string p = std::string("core.attack_service.") + tag;
    m.layers[p + ".handle_ms_p50"].push_back(median(handle));
    m.layers[p + ".hydrate_ms_p50"].push_back(median(hydrate));
    m.layers[p + ".score_ms_p50"].push_back(median(score));
  }
  m.layers["common.http.overhead_ms_p50"].push_back(median(overhead_ms));
  const core::ArtifactCache::Stats cs = setup.service->cache_stats();
  const double lookups = static_cast<double>(cs.hits + cs.misses);
  m.layers["core.artifact_cache.hits"].push_back(static_cast<double>(cs.hits));
  m.layers["core.artifact_cache.misses"].push_back(
      static_cast<double>(cs.misses));
  m.layers["core.artifact_cache.inserts"].push_back(
      static_cast<double>(cs.inserts));
  m.layers["core.artifact_cache.evictions"].push_back(
      static_cast<double>(cs.evictions));
  m.layers["core.artifact_cache.hit_ratio"].push_back(
      lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0);
}

void measure_campaign(const Context& cx, const std::vector<Job>& jobs,
                      const PassOutcome& ref, const Setup& setup,
                      Measured& m) {
  const fs::path dir = cx.work / "campaign_rep";
  const double t0 = now_s();
  for (int done = 0; keep_going(t0, cx.phase_s, done, cx.opt.min_reps);
       ++done) {
    const CampaignRun run = run_campaign(cx, setup, dir);
    bool ok = run.ok;
    for (std::size_t ji = 0; ji < jobs.size(); ++ji) {
      const auto it = run.layer_digests.find(jobs[ji].layer);
      ok = ok && it != run.layer_digests.end() &&
           it->second == combine(ref.fold_digests[ji]);
    }
    m.count.add(ok);
    m.ops.push_back({now_s(), run.wall_s * 1e3});
    if (cx.tracer) {
      campaign_layers(cx, dir, run.wall_s,
                      static_cast<std::int64_t>(jobs[0].suite->size()),
                      m.layers);
    }
    fs::remove_all(dir);
  }
}

/// Traced runs: untraced reps and traced passes of the same jobs,
/// alternated, for the tracing overhead; each traced pass adds a layer
/// sample. The reference pass is not one: as the process's first pass it
/// pays for cold allocator arenas and first-touch page faults. Then the
/// fold-0 probes.
void measure_layers(const Context& cx, const std::vector<Job>& jobs,
                    const PassOutcome& ref, Tracer& tracer, Measured& m) {
  std::vector<double> plain_s, traced_s;
  const double t0 = now_s();
  for (int done = 0; keep_going(t0, cx.layers_s, done, 1); ++done) {
    const PassOutcome plain = loo_rep(jobs);
    const PassOutcome traced = explicit_pass(jobs, &tracer);
    m.count.add(plain.digest == ref.digest);
    m.count.add(traced.digest == ref.digest);
    plain_s.push_back(plain.wall_s);
    traced_s.push_back(traced.wall_s);
    pass_layers(traced, tracer, m.layers);
  }
  m.layers["trace.overhead_frac"].push_back(median(traced_s) /
                                            median(plain_s) - 1);
  probe_fold0(jobs[0], ref.fold0_nodes, tracer, m.layers);
}

}  // namespace

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"loo-train", "loo-score",
                                                 "serve", "campaign"};
  return names;
}

double default_scale(const std::string& workload) {
  return spec_of(workload).scale;
}

int bench_threads() { return std::min(4, common::usable_cpus()); }

WorkloadResult run_workload(const RunOptions& opt) {
  Tracer tracer;
  const WorkloadSpec spec = spec_of(opt.workload);
  const bool loo = opt.workload == "loo-train" || opt.workload == "loo-score";
  const double layers_s = !opt.traced ? 0 : loo ? opt.seconds : opt.seconds / 2;
  const Context cx{
      .opt = opt,
      .spec = spec,
      .scale = opt.scale > 0 ? opt.scale : spec.scale,
      .threads = bench_threads(),
      .tracer = opt.traced ? &tracer : nullptr,
      .work = fs::path(opt.work_dir) /
              (opt.workload + "-" + std::to_string(::getpid())),
      .phase_s = opt.seconds - layers_s,
      .layers_s = layers_s};
  fs::create_directories(cx.work);
  common::set_global_threads(cx.threads);

  WorkloadResult r;
  r.workload = opt.workload;
  r.scale = cx.scale;
  r.threads = cx.threads;
  Measured m;

  // Set-up, several times: setup_s is their median. The last one stays.
  // A first, uncounted set-up pays the process's cold allocator arenas
  // and first-touch page faults, which would otherwise make the first
  // counted one an outlier.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int k = 0; k <= std::max(1, opt.setups); ++k) {
    setup.reset();
    setup = make_setup(cx);
    if (k == 0) continue;
    setup_s.push_back(setup->seconds);
    m.layers["synth.generate_s"].push_back(setup->inputs.generate_s);
    m.layers["splitmfg.cut_s"].push_back(setup->inputs.cut_s);
    m.layers["splitmfg.vpins"].push_back(setup->inputs.vpins);
  }
  std::map<int, core::ChallengeSuite> def_suites;
  bool inputs_agree = true;
  if (opt.workload == "campaign") {
    const double t0 = now_s();
    def_suites = ingest_defs(cx, *setup);
    m.layers["lefdef.ingest_s"].push_back(now_s() - t0);
    // The DEF exchange must carry the split: the same v-pins per layer as
    // the in-memory cut of the same layouts.
    for (const auto& [layer, suite] : def_suites) {
      long from_defs = 0, in_memory = 0;
      for (const auto& ch : suite.challenges()) from_defs += ch.num_vpins();
      for (const auto& ch : setup->inputs.suites.at(layer).challenges()) {
        in_memory += ch.num_vpins();
      }
      inputs_agree = inputs_agree && from_defs == in_memory;
    }
  }
  const std::vector<Job> jobs = make_jobs(
      cx.spec, opt.workload == "campaign" ? def_suites : setup->inputs.suites,
      opt.seed);

  // The reference path (untimed): every measured operation must match it.
  const PassOutcome ref = explicit_pass(jobs, nullptr);
  m.count.add(inputs_agree &&
              (!opt.expected_digest || *opt.expected_digest == ref.digest));
  m.detail.emplace_back("accuracy", ref.accuracy);

  if (opt.workload == "serve") {
    measure_serve(cx, jobs, ref, *setup, m);
  } else if (opt.workload == "campaign") {
    measure_campaign(cx, jobs, ref, *setup, m);
  } else if (!opt.traced) {
    measure_loo(cx, jobs, ref, m);  // traced LOO reps run in measure_layers
  }

  if (opt.traced) {
    measure_layers(cx, jobs, ref, tracer, m);
    for (const auto& [name, samples] : m.layers) {
      r.metrics.push_back(summarize(name, layer_unit(name), samples));
    }
    r.trace_json = tracer.chrome_json();
  } else {
    std::vector<double> op_ms, per_s;
    block_repeats(m.ops, m.clients, &op_ms, &per_s);
    // The campaign's program is the split_campaign process tree.
    const double rss = opt.workload == "campaign" ? children_maxrss_mb()
                                                  : vm_hwm_mb();
    r.metrics = {summarize("setup_s", "s", setup_s),
                 summarize("op_ms", "ms", op_ms),
                 summarize("ops_per_s", "1/s", per_s),
                 summarize("rss_peak_mb", "MB", {rss})};
  }
  r.digest = ref.digest;
  r.attempted = m.count.attempted;
  r.failed = m.count.failed;
  r.detail = std::move(m.detail);
  setup.reset();
  fs::remove_all(cx.work);
  return r;
}

}  // namespace bench_pipeline
