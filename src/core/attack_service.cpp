#include "core/attack_service.hpp"

#include <exception>
#include <limits>
#include <utility>

#include "common/binio.hpp"
#include "common/clock.hpp"
#include "common/json_scan.hpp"
#include "common/json_writer.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "core/resilience.hpp"

namespace repro::core {

namespace {

using common::hex64;
using common::JsonObject;
using common::http::Request;
using common::http::Response;

Response json_response(int status, const std::string& body) {
  Response resp;
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = body + "\n";
  return resp;
}

Response error_response(int status, const std::string& message) {
  return json_response(status,
                       JsonObject().field("error", message).str());
}

const char* source_label(CachedEnsemble::Source s) {
  return s == CachedEnsemble::Source::kStore ? "store" : "trained";
}

}  // namespace

std::uint64_t fold_model_key(const ChallengeSuite& suite,
                             const AttackConfig& config,
                             std::int64_t fold) {
  return attack_run_key(suite.challenges(), config) ^
         common::derive_seed(common::fnv1a64("attack_server.fold"),
                             static_cast<std::uint64_t>(fold));
}

std::string model_artifact_name(std::uint64_t key) {
  return "model_" + hex64(key);
}

std::string result_artifact_name(std::uint64_t key) {
  return "result_" + hex64(key);
}

common::StatusOr<std::unique_ptr<AttackService>> AttackService::create(
    std::map<int, ChallengeSuite> suites, Options opt) {
  if (suites.empty()) {
    return common::Status::InvalidArgument(
        "attack service needs at least one challenge suite");
  }
  std::unique_ptr<AttackService> svc(
      new AttackService(std::move(suites), std::move(opt)));
  if (!svc->opt_.store_dir.empty()) {
    // One fixed store key: artifact *names* carry the per-model
    // fingerprint (config + inputs + fold), so the store can hold
    // models of many configurations side by side — unlike a batch
    // checkpoint, which is scoped to a single computation.
    auto store = common::CheckpointManager::open(
        svc->opt_.store_dir,
        common::fnv1a64("attack_server.model_store"), svc->store_sink_);
    if (!store.ok()) return store.status();
    svc->store_.emplace(std::move(*store));
  }
  return svc;
}

std::uint64_t AttackService::requests_scored() const {
  return scored_.load(std::memory_order_relaxed);
}

std::unique_lock<std::mutex> AttackService::lock_gate(std::uint64_t key) {
  std::shared_ptr<std::mutex> gate;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto& slot = inflight_[key];
    if (slot == nullptr) slot = std::make_shared<std::mutex>();
    gate = slot;
  }
  // The map keeps every gate for the service's lifetime, so the lock
  // may outlive `gate`.
  return std::unique_lock<std::mutex>(*gate);
}

std::optional<std::string> AttackService::read_store(const std::string& name) {
  if (!store_.has_value()) return std::nullopt;
  std::lock_guard<std::mutex> lock(store_mutex_);
  if (!store_->has(name)) return std::nullopt;
  // A corrupt or unreadable artifact reads as absent — the checkpoint
  // layer has already dropped its manifest entry.
  auto raw = store_->read(name, store_sink_);
  if (!raw.ok()) return std::nullopt;
  return std::move(*raw);
}

void AttackService::write_store(const std::string& name,
                                const std::string& bytes) {
  if (!store_.has_value()) return;
  std::lock_guard<std::mutex> lock(store_mutex_);
  // Best-effort: a full disk must not fail the request, only the warm
  // restart / idempotency tier.
  (void)store_->write(name, bytes);
}

std::shared_ptr<const CachedEnsemble> AttackService::hydrate(
    const ChallengeSuite& suite, const AttackConfig& config,
    std::int64_t fold, std::uint64_t key, const char** source) {
  if (auto entry = cache_->get(key)) {
    *source = "hit";
    return entry;
  }
  // Singleflight: the first thread to miss trains (or loads); threads
  // that pile onto the same key wait here and then hit the cache.
  const auto flight = lock_gate(key);
  if (auto entry = cache_->get(key)) {
    *source = "hit";
    return entry;
  }

  auto entry = std::make_shared<CachedEnsemble>();  // source: kTrained
  const std::string name = model_artifact_name(key);
  if (const auto raw = read_store(name)) {
    auto model = load_model(*raw);
    if (model.ok()) {
      entry->model = std::move(*model);
      entry->source = CachedEnsemble::Source::kStore;
    }
  }
  if (entry->source == CachedEnsemble::Source::kTrained) {
    const auto training = suite.training_for(static_cast<std::size_t>(fold));
    entry->model = AttackEngine::train(training, config);
    if (store_.has_value()) write_store(name, save_model(entry->model));
  }
  entry->forest = ml::FlatForest::build(entry->model.classifier);
  entry->bytes = estimate_ensemble_bytes(*entry);
  *source = source_label(entry->source);
  cache_->put(key, entry);
  return entry;
}

bool AttackService::parse_target(const Request& req, ShardTarget* out,
                                 Response* error) {
  auto doc = common::parse_json(req.body);
  if (!doc.ok() || !doc->is_object()) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    *error = error_response(400, "request body is not a JSON object");
    return false;
  }
  const std::int64_t layer = doc->get_i64("layer", suites_.begin()->first);
  out->fold = doc->get_i64("fold", 0);
  out->config_name = doc->get_string("config", "Imp-9");
  out->threshold = doc->get_double("threshold", opt_.default_threshold);

  // A layer outside int names no suite; narrowing it first would wrap
  // it onto one.
  const auto suite_it =
      layer >= std::numeric_limits<int>::min() &&
              layer <= std::numeric_limits<int>::max()
          ? suites_.find(static_cast<int>(layer))
          : suites_.end();
  if (suite_it == suites_.end()) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    *error = error_response(400, "no suite for split layer " +
                                     std::to_string(layer));
    return false;
  }
  out->layer = suite_it->first;
  out->suite = &suite_it->second;
  if (out->fold < 0 ||
      out->fold >= static_cast<std::int64_t>(out->suite->size())) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    *error = error_response(400, "fold out of range (suite has " +
                                     std::to_string(out->suite->size()) +
                                     " designs)");
    return false;
  }
  try {
    out->config = config_from_name(out->config_name);
  } catch (const std::exception& e) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    *error = error_response(400, std::string("bad config: ") + e.what());
    return false;
  }
  return true;
}

Response AttackService::handle_score(const Request& req) {
  ShardTarget target;
  Response error;
  if (!parse_target(req, &target, &error)) return error;
  const int layer = target.layer;
  const std::int64_t fold = target.fold;
  const std::string& config_name = target.config_name;
  const ChallengeSuite& suite = *target.suite;
  AttackConfig config = target.config;
  const double threshold = target.threshold;

  // Admission under the budget ladder.
  bool degraded = false;
  if (opt_.budget != nullptr) {
    const common::BudgetPressure pressure = opt_.budget->pressure();
    if (pressure == common::BudgetPressure::kExceeded) {
      rejected_busy_.fetch_add(1, std::memory_order_relaxed);
      Response resp = error_response(503, "budget exceeded");
      resp.extra_headers.emplace_back("Retry-After", "1");
      return resp;
    }
    degraded = apply_degradation(config, pressure, fold);
  }
  if (opt_.cancel != nullptr && opt_.cancel->cancelled()) {
    rejected_busy_.fetch_add(1, std::memory_order_relaxed);
    return error_response(503, "shutting down");
  }

  // All compute inline on this handler thread: the deterministic pool
  // is single-caller, and inline results are bit-identical (see
  // common::ScopedInline).
  common::ScopedInline inline_region;
  const std::uint64_t key = fold_model_key(suite, config, fold);
  const char* source = "trained";
  const double t0 = common::steady_seconds();
  const auto entry = hydrate(suite, config, fold, key, &source);
  const double t1 = common::steady_seconds();
  const AttackResult result =
      AttackEngine::test(entry->model, entry->forest,
                         suite.challenge(static_cast<std::size_t>(fold)),
                         opt_.cancel);
  const double t2 = common::steady_seconds();
  if (result.interrupted) {
    rejected_busy_.fetch_add(1, std::memory_order_relaxed);
    return error_response(503, "scoring interrupted by shutdown");
  }
  scored_.fetch_add(1, std::memory_order_relaxed);

  JsonObject obj;
  obj.field("design", result.design())
      .field("layer", layer)
      .field("fold", static_cast<long>(fold))
      .field("config", config_name)
      .field("digest", hex64(result_digest(result)))
      .field("num_vpins", result.num_vpins())
      .field("threshold", threshold)
      .field("mean_loc", result.mean_loc_at_threshold(threshold))
      .field("accuracy", result.accuracy_at_threshold(threshold))
      .field("cache", source)
      .field("degraded", degraded)
      .field("hydrate_seconds", t1 - t0)
      .field("score_seconds", t2 - t1)
      .field("train_seconds", entry->model.train_seconds);
  return json_response(200, obj.str());
}

AttackService::ShardStats AttackService::shard_stats() const {
  ShardStats s;
  s.requests = shard_requests_.load(std::memory_order_relaxed);
  s.computed = shard_computed_.load(std::memory_order_relaxed);
  s.memory_hits = shard_memory_hits_.load(std::memory_order_relaxed);
  s.store_hits = shard_store_hits_.load(std::memory_order_relaxed);
  return s;
}

Response AttackService::handle_shard(const Request& req) {
  ShardTarget target;
  Response error;
  if (!parse_target(req, &target, &error)) return error;
  const ChallengeSuite& suite = *target.suite;

  // Admission: only the hard ceiling pushes back. No degradation here —
  // a degraded shard result would break byte-identity with the
  // monolithic CLI, which is the whole point of the route.
  if (opt_.budget != nullptr &&
      opt_.budget->pressure() == common::BudgetPressure::kExceeded) {
    rejected_busy_.fetch_add(1, std::memory_order_relaxed);
    Response resp = error_response(503, "budget exceeded");
    resp.extra_headers.emplace_back("Retry-After", "1");
    return resp;
  }
  if (opt_.cancel != nullptr && opt_.cancel->cancelled()) {
    rejected_busy_.fetch_add(1, std::memory_order_relaxed);
    return error_response(503, "shutting down");
  }

  const std::uint64_t key =
      fold_model_key(suite, target.config, target.fold);
  // One pass over the idempotency tiers — the in-memory results, the
  // persistent store, then compute — under a shard-scoped singleflight
  // gate: concurrent identical shards execute once, and the waiters find
  // the winner's result in memory.
  const auto flight =
      lock_gate(key ^ common::fnv1a64("attack_server.shard_gate"));
  std::optional<ShardResult> shard;
  const char* result_source = "memory";
  {
    std::lock_guard<std::mutex> lock(results_mutex_);
    auto it = results_.find(key);
    if (it != results_.end()) shard = it->second;
  }
  // The store survives a server restart. The envelope CRC inside its
  // payload is re-checked by load_result before the bytes are vouched
  // for; a damaged payload is recomputed.
  if (!shard) {
    if (auto raw = read_store(result_artifact_name(key))) {
      auto decoded = load_result(*raw);
      if (decoded.ok()) {
        shard = ShardResult{std::move(*raw), result_digest(*decoded)};
        result_source = "store";
      }
    }
  }
  if (!shard) {
    common::ScopedInline inline_region;
    const char* model_source = "trained";
    const auto entry =
        hydrate(suite, target.config, target.fold, key, &model_source);
    const AttackResult result = AttackEngine::test(
        entry->model, entry->forest,
        suite.challenge(static_cast<std::size_t>(target.fold)),
        opt_.cancel);
    if (result.interrupted) {
      rejected_busy_.fetch_add(1, std::memory_order_relaxed);
      return error_response(503, "shard interrupted by shutdown");
    }
    shard = ShardResult{save_result(result), result_digest(result)};
    result_source = "computed";
    shard_computed_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(results_mutex_);
      if (results_.emplace(key, *shard).second) {
        results_order_.push_back(key);
        // Bounded FIFO: sealed results are small, but a long-lived
        // server must not grow without limit.
        constexpr std::size_t kMaxResults = 512;
        if (results_order_.size() > kMaxResults) {
          results_.erase(results_order_.front());
          results_order_.erase(results_order_.begin());
        }
      }
    }
    write_store(result_artifact_name(key), shard->payload);
  }

  if (result_source[0] == 'm') {
    shard_memory_hits_.fetch_add(1, std::memory_order_relaxed);
  } else if (result_source[0] == 's') {
    shard_store_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  shard_requests_.fetch_add(1, std::memory_order_relaxed);
  scored_.fetch_add(1, std::memory_order_relaxed);

  Response resp;
  resp.status = 200;
  resp.content_type = "application/octet-stream";
  resp.body = std::move(shard->payload);
  resp.extra_headers.emplace_back(
      "X-Run-Key",
      hex64(attack_run_key(suite.challenges(), target.config)));
  resp.extra_headers.emplace_back("X-Result-Digest", hex64(shard->digest));
  resp.extra_headers.emplace_back("X-Result-Source", result_source);
  resp.extra_headers.emplace_back("X-Payload-Fnv",
                                  hex64(common::fnv1a64(resp.body)));
  resp.extra_headers.emplace_back("X-Layer",
                                  std::to_string(target.layer));
  resp.extra_headers.emplace_back("X-Fold", std::to_string(target.fold));
  return resp;
}

Response AttackService::handle_status() const {
  std::vector<std::string> layers;
  for (const auto& [layer, suite] : suites_) {
    layers.push_back(JsonObject()
                         .field("layer", layer)
                         .field("designs",
                                static_cast<unsigned long>(suite.size()))
                         .str());
  }
  const ArtifactCache::Stats cs = cache_->stats();
  JsonObject cache;
  cache.field("entries", static_cast<unsigned long>(cs.entries))
      .field("bytes", static_cast<unsigned long>(cs.bytes))
      .field("capacity_bytes",
             static_cast<unsigned long>(cs.capacity_bytes))
      .field("hits", static_cast<unsigned long>(cs.hits))
      .field("misses", static_cast<unsigned long>(cs.misses))
      .field("evictions", static_cast<unsigned long>(cs.evictions))
      .field("inserts", static_cast<unsigned long>(cs.inserts));
  const ShardStats ss = shard_stats();
  JsonObject shard;
  shard.field("requests", static_cast<unsigned long>(ss.requests))
      .field("computed", static_cast<unsigned long>(ss.computed))
      .field("memory_hits", static_cast<unsigned long>(ss.memory_hits))
      .field("store_hits", static_cast<unsigned long>(ss.store_hits));
  JsonObject obj;
  obj.field_raw("layers", common::json_array(layers))
      .field_raw("cache", cache.str())
      .field_raw("shard", shard.str())
      .field("store_dir", opt_.store_dir)
      .field("requests_scored",
             static_cast<unsigned long>(
                 scored_.load(std::memory_order_relaxed)))
      .field("rejected_busy",
             static_cast<unsigned long>(
                 rejected_busy_.load(std::memory_order_relaxed)))
      .field("bad_requests",
             static_cast<unsigned long>(
                 bad_requests_.load(std::memory_order_relaxed)));
  return json_response(200, obj.str());
}

Response AttackService::handle_metrics() const {
  // Per-instance counters stay out of the process-global registry
  // (DESIGN §12) and share only its renderer.
  using M = common::obs::MetricSnapshot;
  const ArtifactCache::Stats cs = cache_->stats();
  const ShardStats ss = shard_stats();
  const std::vector<M> server = {
      M::counter("cache_hits", cs.hits),
      M::counter("cache_misses", cs.misses),
      M::counter("cache_evictions", cs.evictions),
      M::counter("cache_inserts", cs.inserts),
      M::gauge("cache_entries", static_cast<double>(cs.entries)),
      M::gauge("cache_bytes", static_cast<double>(cs.bytes)),
      M::counter("requests_scored", requests_scored()),
      M::counter("requests_rejected",
                 rejected_busy_.load(std::memory_order_relaxed)),
      M::counter("bad_requests", bad_requests_.load(std::memory_order_relaxed)),
      M::counter("shard_requests", ss.requests),
      M::counter("shard_computed", ss.computed),
      M::counter("shard_memory_hits", ss.memory_hits),
      M::counter("shard_store_hits", ss.store_hits),
  };
  Response resp;
  resp.status = 200;
  resp.content_type = "text/plain; version=0.0.4";
  resp.body = common::obs::prometheus_text() +
              common::obs::prometheus_text(server, "server_");
  return resp;
}

Response AttackService::handle(const Request& req) {
  try {
    const std::string path = req.path.substr(0, req.path.find('?'));
    if (path == "/score") {
      if (req.method != "POST") {
        return error_response(405, "use POST /score");
      }
      return handle_score(req);
    }
    if (path == "/shard") {
      if (req.method != "POST") {
        return error_response(405, "use POST /shard");
      }
      return handle_shard(req);
    }
    if (path == "/status" || path == "/metrics" || path == "/healthz") {
      if (req.method != "GET") {
        return error_response(405, "use GET " + path);
      }
      if (path == "/status") return handle_status();
      if (path == "/metrics") return handle_metrics();
      Response resp;
      resp.body = "ok\n";
      return resp;
    }
    return error_response(404, "unknown path " + path);
  } catch (const std::exception& e) {
    return error_response(500, e.what());
  }
}

}  // namespace repro::core
