// The attack-as-a-service layer behind tools/split_attack_server: route
// logic, model cache, persistent store, and budget admission — all the
// daemon's behaviour except the socket loop (common/http owns that), so
// tests and the bench drive it in-process.
//
// Request lifecycle (POST /score {"layer", "fold", "config", ...}):
//
//   1. Admission. Under the common::Budget ladder: kExceeded answers
//      503 immediately (the server is out of wall-clock or RSS budget);
//      soft/hard pressure instead applies the standard degradation
//      ladder to the request's config — degraded work is admitted, and
//      because the degraded config changes attack_run_key, its results
//      can never be served from (or to) a full-fidelity cache slot.
//   2. Key. The fold's model is identified by attack_run_key over the
//      layer's full challenge suite and the effective config, mixed
//      with the fold index — the same fingerprint discipline the
//      checkpoint/campaign layers use, so "the same computation" has
//      one name across the batch CLI, the store, and this cache.
//   3. Hydration. Cache hit: score immediately ("cache":"hit"). Miss:
//      a per-key singleflight lock collapses concurrent identical
//      requests into one hydration, which loads the CRC-sealed model
//      artifact from the checkpoint store if present ("store") and
//      trains otherwise ("trained", writing the artifact back). Either
//      way the ensemble is flattened to a FlatForest once, at insert.
//   4. Scoring. AttackEngine::test through the prebuilt forest, under
//      common::ScopedInline: handler threads each score serially, and
//      request concurrency comes from the server's thread pool — the
//      deterministic parallel layer is single-caller by contract, and
//      inline execution is bit-identical by construction, so server
//      digests match batch `split_attack` at any thread count.
//
// POST /shard {"layer", "fold", "config"} is the remote-campaign work
// unit: it runs one LOO fold end to end and answers with the CRC-sealed
// result artifact bytes (the exact payload save_result produces — what a
// local worker would have written into its shard checkpoint), stamped
// with X-Run-Key / X-Result-Digest / X-Payload-Fnv headers so the client
// can place and verify the artifact without decoding it. Shard execution
// is idempotent by construction: results are stored under their
// fold/config fingerprint (in memory and, when store_dir is set, in the
// persistent store as "result_<hex16>"), so a client retrying after a
// torn response is answered from the store — the fold is never trained
// twice (X-Result-Source: computed | memory | store, with counters for
// tests). /shard never degrades under budget pressure: a degraded result
// would silently break the byte-identical-digest contract with the
// monolithic CLI, so pressure short of kExceeded runs at full fidelity
// and kExceeded answers 503 + Retry-After like /score.
//
// GET /status reports suites, cache and store state as JSON; /metrics
// exports the obs registry (Prometheus text, with the histogram _sum
// series) plus cache hit/miss/evict and request counters; /healthz is
// a liveness probe.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/http.hpp"
#include "core/artifact_cache.hpp"
#include "core/cross_validation.hpp"

namespace repro::core {

class AttackService {
 public:
  struct Options {
    std::size_t cache_bytes = 256u << 20;  ///< warm-model LRU capacity
    std::string store_dir;      ///< "" = no persistent model store
    double default_threshold = 0.5;
    common::Budget* budget = nullptr;       ///< admission ladder (opt.)
    common::CancelToken* cancel = nullptr;  ///< shutdown drain (opt.)
  };

  /// `suites`: one leave-one-out challenge suite per split layer. The
  /// service copies nothing — suites are immutable for its lifetime.
  /// Opens the checkpoint store when store_dir is set (taking its
  /// exclusive flock; a second server on the same store fails fast).
  static common::StatusOr<std::unique_ptr<AttackService>> create(
      std::map<int, ChallengeSuite> suites, Options opt);

  /// The http::Server handler: routes the request. Thread-safe.
  common::http::Response handle(const common::http::Request& req);

  /// Cache counters, for tests and the tool's shutdown summary.
  ArtifactCache::Stats cache_stats() const { return cache_->stats(); }

  /// Requests that completed scoring ("hit" + "store" + "trained").
  std::uint64_t requests_scored() const;

  /// /shard idempotency counters (tests assert no duplicate training).
  struct ShardStats {
    std::uint64_t requests = 0;     ///< /shard requests answered 200
    std::uint64_t computed = 0;     ///< folds actually executed
    std::uint64_t memory_hits = 0;  ///< served from the in-memory results
    std::uint64_t store_hits = 0;   ///< served from the persistent store
  };
  ShardStats shard_stats() const;

 private:
  AttackService(std::map<int, ChallengeSuite> suites, Options opt)
      : suites_(std::move(suites)),
        opt_(std::move(opt)),
        cache_(std::make_unique<ArtifactCache>(opt_.cache_bytes)) {}

  common::http::Response handle_score(const common::http::Request& req);
  common::http::Response handle_shard(const common::http::Request& req);
  common::http::Response handle_status() const;
  common::http::Response handle_metrics() const;

  struct ShardTarget {
    int layer = 0;
    std::int64_t fold = 0;
    std::string config_name;
    AttackConfig config;
    double threshold = 0;  ///< /score's LoC threshold; /shard ignores it
    const ChallengeSuite* suite = nullptr;
  };
  /// Shared /score + /shard request parsing; on failure fills `error`
  /// (and bumps bad_requests_) and returns false.
  bool parse_target(const common::http::Request& req, ShardTarget* out,
                    common::http::Response* error);

  /// Locks the singleflight gate of `key`: one holder per key at a time.
  /// /score hydration gates on model keys, /shard on salted result keys.
  std::unique_lock<std::mutex> lock_gate(std::uint64_t key);

  /// The named store artifact, if there is a store and the artifact
  /// reads back intact; write_store is best-effort and a no-op without
  /// a store.
  std::optional<std::string> read_store(const std::string& name);
  void write_store(const std::string& name, const std::string& bytes);

  /// Cache-or-store-or-train for one (suite, config, fold); returns the
  /// entry and labels where it came from ("hit" | "store" | "trained").
  std::shared_ptr<const CachedEnsemble> hydrate(
      const ChallengeSuite& suite, const AttackConfig& config,
      std::int64_t fold, std::uint64_t key, const char** source);

  const std::map<int, ChallengeSuite> suites_;
  const Options opt_;
  std::unique_ptr<ArtifactCache> cache_;

  /// Store access is serialized: CheckpointManager reads are specified
  /// for serial callers, and next to a training run the lock is noise.
  std::mutex store_mutex_;
  std::optional<common::CheckpointManager> store_;
  common::DiagnosticSink store_sink_;

  /// Singleflight gates (lock_gate): concurrent misses on the same key
  /// wait and then hit the cache or the result map.
  std::mutex inflight_mutex_;
  std::map<std::uint64_t, std::shared_ptr<std::mutex>> inflight_;

  std::atomic<std::uint64_t> scored_{0};
  std::atomic<std::uint64_t> rejected_busy_{0};  ///< 503s (budget)
  std::atomic<std::uint64_t> bad_requests_{0};   ///< 4xx route-level

  /// Sealed /shard result payloads by result key, each beside its
  /// result digest — the fast idempotency tier (the persistent store is
  /// the durable one). Bounded FIFO.
  struct ShardResult {
    std::string payload;
    std::uint64_t digest = 0;
  };
  std::mutex results_mutex_;
  std::map<std::uint64_t, ShardResult> results_;
  std::vector<std::uint64_t> results_order_;

  std::atomic<std::uint64_t> shard_requests_{0};
  std::atomic<std::uint64_t> shard_computed_{0};
  std::atomic<std::uint64_t> shard_memory_hits_{0};
  std::atomic<std::uint64_t> shard_store_hits_{0};
};

/// The model key for fold `fold` of a suite under `config`: the suite
/// run key mixed with the fold index (splitmix64-scrambled so nearby
/// folds do not collide under xor with other stream tweaks).
std::uint64_t fold_model_key(const ChallengeSuite& suite,
                             const AttackConfig& config, std::int64_t fold);

/// Store artifact name for a model key ("model_<hex16>").
std::string model_artifact_name(std::uint64_t key);

/// Store artifact name for a sealed /shard result ("result_<hex16>").
std::string result_artifact_name(std::uint64_t key);

}  // namespace repro::core
