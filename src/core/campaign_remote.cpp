#include "core/campaign_remote.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/clock.hpp"
#include "common/diagnostics.hpp"
#include "common/json_writer.hpp"
#include "common/parallel.hpp"
#include "common/subprocess.hpp"
#include "core/cross_validation.hpp"

namespace repro::core {

using common::Status;
using common::StatusOr;

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker() : opt_(Options()) {}

bool CircuitBreaker::allow(double now_ms) {
  if (state_ == BreakerState::kClosed) return true;
  if (now_ms - opened_at_ms_ < opt_.cooldown_ms) return false;
  // Cooldown elapsed: half-open, one probe at a time.
  state_ = BreakerState::kHalfOpen;
  if (probe_inflight_) return false;
  probe_inflight_ = true;
  return true;
}

void CircuitBreaker::record_success() {
  state_ = BreakerState::kClosed;
  consecutive_failures_ = 0;
  probe_inflight_ = false;
}

void CircuitBreaker::record_failure(double now_ms) {
  probe_inflight_ = false;
  ++consecutive_failures_;
  if (state_ == BreakerState::kHalfOpen ||
      (state_ == BreakerState::kClosed &&
       consecutive_failures_ >= opt_.failure_threshold)) {
    state_ = BreakerState::kOpen;
    opened_at_ms_ = now_ms;
    ++trips_;
  }
}

BreakerState CircuitBreaker::state(double now_ms) const {
  if (state_ == BreakerState::kClosed) return BreakerState::kClosed;
  if (now_ms - opened_at_ms_ >= opt_.cooldown_ms ||
      state_ == BreakerState::kHalfOpen) {
    return BreakerState::kHalfOpen;
  }
  return BreakerState::kOpen;
}

StatusOr<std::vector<common::http::Endpoint>> parse_endpoint_list(
    const std::string& text) {
  std::vector<common::http::Endpoint> eps;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string piece = text.substr(start, comma - start);
    if (!piece.empty()) {
      auto ep = common::http::parse_endpoint(piece);
      if (!ep.ok()) return ep.status();
      eps.push_back(*ep);
    }
    start = comma + 1;
  }
  if (eps.empty()) {
    return Status::InvalidArgument("no endpoints in \"" + text + "\"");
  }
  return eps;
}

// ---------------------------------------------------------------------------
// RemoteShardExecution

/// One shard attempt dispatched over HTTP on a background thread, with
/// local-subprocess fallback when the fleet cannot serve it. See the
/// header comment of campaign_remote.hpp for the full lifecycle.
class RemoteShardExecution final : public ShardExecution {
 public:
  RemoteShardExecution(RemoteDispatcher* disp, ShardSpec spec,
                       std::string shard_dir, int attempt)
      : disp_(disp),
        spec_(std::move(spec)),
        dir_(std::move(shard_dir)),
        attempt_(attempt),
        thread_([this] { run(); }) {}

  ~RemoteShardExecution() override {
    abort_.request_cancel();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (local_ != nullptr) local_->terminate(false);
    }
    if (thread_.joinable()) thread_.join();
  }

  bool poll() override { return done_.load(std::memory_order_acquire); }

  void terminate(bool graceful) override {
    abort_.request_cancel();
    std::lock_guard<std::mutex> lock(mutex_);
    if (local_ != nullptr) local_->terminate(graceful);
  }

  bool wait_for(double seconds) override {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    while (!done_.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }

  void wait() override {
    if (thread_.joinable()) thread_.join();
  }

  ExecutionOutcome outcome() override {
    std::lock_guard<std::mutex> lock(mutex_);
    return outcome_;
  }

  bool telemetry_capable() const override { return false; }

 private:
  void run() {
    ExecutionOutcome eo = run_remote();
    if (!eo.ok && eo.outcome == "remote_failed" && !abort_.cancelled() &&
        disp_->options().allow_local_fallback) {
      disp_->count_local_fallback();
      eo = run_local(eo.detail);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      outcome_ = std::move(eo);
    }
    done_.store(true, std::memory_order_release);
  }

  /// Walks breaker-admitted endpoints until one serves the shard.
  ExecutionOutcome run_remote() {
    const RemoteCampaignOptions& opt = disp_->options();
    std::vector<char> tried(opt.endpoints.size(), 0);
    std::string errors;
    bool first = true;
    for (;;) {
      if (abort_.cancelled()) {
        ExecutionOutcome eo;
        eo.ok = false;
        eo.outcome = "interrupted";
        eo.detail = "remote dispatch cancelled";
        eo.retryable = true;
        return eo;
      }
      const int idx = disp_->acquire(tried);
      if (idx < 0) break;
      if (!first) disp_->count_failover();
      first = false;
      std::string detail;
      if (try_endpoint(idx, &detail)) {
        disp_->count_remote_ok();
        ExecutionOutcome eo;
        eo.ok = true;
        return eo;
      }
      tried[static_cast<std::size_t>(idx)] = 1;
      if (!errors.empty()) errors += "; ";
      errors += opt.endpoints[static_cast<std::size_t>(idx)].label() + ": " +
                detail;
    }
    ExecutionOutcome eo;
    eo.ok = false;
    eo.outcome = "remote_failed";
    eo.detail = errors.empty()
                    ? "no endpoint admitted the request (breakers open)"
                    : errors;
    eo.retryable = true;
    return eo;
  }

  /// One /shard round trip (with per-endpoint retries) plus artifact
  /// installation. The dispatcher is told exactly once how it went.
  bool try_endpoint(int idx, std::string* detail) {
    const RemoteCampaignOptions& opt = disp_->options();
    const common::http::Endpoint& ep =
        opt.endpoints[static_cast<std::size_t>(idx)];

    common::http::RetryPolicy policy;
    policy.max_attempts = opt.request_attempts;
    policy.backoff_base_ms = opt.backoff_base_ms;
    policy.backoff_max_ms = opt.backoff_max_ms;
    policy.request_deadline_s = opt.request_deadline_s;
    policy.skip_sleep = opt.skip_sleep;
    // Per-(shard, supervisor attempt, endpoint) jitter stream: shards
    // retrying against the same endpoint never wake in lockstep, and
    // every schedule is reproducible from the campaign seed.
    policy.jitter_seed = common::derive_seed(
        common::derive_seed(opt.jitter_seed, common::fnv1a64(spec_.id())),
        (static_cast<std::uint64_t>(attempt_) << 8) ^
            static_cast<std::uint64_t>(idx));

    const std::string body = common::JsonObject()
                                 .field("layer", spec_.layer)
                                 .field("fold", static_cast<long>(spec_.fold))
                                 .field("config", opt.config_name)
                                 .str();
    common::http::FetchStats fs;
    auto resp = common::http::fetch_with_retry(ep, "POST", "/shard", body,
                                               policy, &fs, &abort_);
    const bool served = resp.ok() && resp->status == 200;
    disp_->report(idx, served, fs);
    if (!resp.ok()) {
      *detail = resp.status().message();
      return false;
    }
    if (resp->status != 200) {
      *detail = "HTTP " + std::to_string(resp->status);
      if (!resp->body.empty() && resp->body.size() < 200) {
        *detail += " (" + resp->body + ")";
      }
      return false;
    }

    // The payload is the exact result-artifact byte string a local
    // worker would have written; record it under the server's run key
    // so the supervisor's validator reads it through the same
    // manifest-CRC + envelope-CRC + decode path. The checkpoint closes
    // (releasing the shard flock) before this attempt reports done.
    std::uint64_t run_key = 0;
    if (const std::string* rk = resp->header("x-run-key")) {
      run_key = std::strtoull(rk->c_str(), nullptr, 16);
    }
    auto ckpt = common::CheckpointManager::open(dir_, run_key, sink_);
    if (!ckpt.ok()) {
      *detail = "shard checkpoint: " + ckpt.status().message();
      return false;
    }
    Status wrote = ckpt->write(ChallengeSuite::fold_result_name(spec_.fold),
                               resp->body);
    if (!wrote.ok()) {
      *detail = "artifact write: " + wrote.message();
      return false;
    }
    return true;
  }

  /// Graceful degradation: the fleet is down, run the shard as a local
  /// worker subprocess under the supervisor's usual environment policy.
  ExecutionOutcome run_local(const std::string& remote_detail) {
    auto spawn_opt =
        prepare_worker_spawn(disp_->local_command_, spec_, dir_, attempt_);
    auto proc = common::Subprocess::spawn(spawn_opt);
    if (!proc.ok()) {
      ExecutionOutcome eo;
      eo.ok = false;
      eo.outcome = "spawn_failed";
      eo.detail = "local fallback: " + proc.status().message();
      eo.retryable = false;
      return eo;
    }
    std::unique_ptr<ShardExecution> local =
        make_local_execution(std::move(*proc));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      local_ = local.get();
    }
    bool term_sent = false;
    while (!local->poll()) {
      if (abort_.cancelled() && !term_sent) {
        local->terminate(false);
        term_sent = true;
      }
      local->wait_for(0.02);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      local_ = nullptr;
    }
    ExecutionOutcome eo = local->outcome();
    if (!eo.ok && !remote_detail.empty()) {
      eo.detail += " (after remote: " + remote_detail + ")";
    }
    return eo;
  }

  RemoteDispatcher* const disp_;
  const ShardSpec spec_;
  const std::string dir_;
  const int attempt_;
  common::CancelToken abort_;
  common::DiagnosticSink sink_;
  std::atomic<bool> done_{false};
  mutable std::mutex mutex_;         ///< guards outcome_ and local_
  ExecutionOutcome outcome_;
  ShardExecution* local_ = nullptr;  ///< live local-fallback attempt
  std::thread thread_;               ///< last member: starts after the rest
};

// ---------------------------------------------------------------------------
// RemoteDispatcher

RemoteDispatcher::RemoteDispatcher(RemoteCampaignOptions options,
                                   WorkerCommand local_command)
    : options_(std::move(options)), local_command_(std::move(local_command)) {
  endpoints_.reserve(options_.endpoints.size());
  for (const auto& ep : options_.endpoints) {
    EndpointState st;
    st.ep = ep;
    st.breaker = CircuitBreaker(options_.breaker);
    endpoints_.push_back(std::move(st));
  }
}

ShardLauncher RemoteDispatcher::launcher() {
  return [this](const ShardSpec& spec, const std::string& shard_dir,
                int attempt) -> StatusOr<std::unique_ptr<ShardExecution>> {
    return std::unique_ptr<ShardExecution>(
        new RemoteShardExecution(this, spec, shard_dir, attempt));
  };
}

int RemoteDispatcher::acquire(const std::vector<char>& tried) {
  std::lock_guard<std::mutex> lock(mutex_);
  const double now = now_ms();
  const std::size_t n = endpoints_.size();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t i = (cursor_ + step) % n;
    if (tried[i] != 0) continue;
    if (!endpoints_[i].breaker.allow(now)) continue;
    cursor_ = (i + 1) % n;
    return static_cast<int>(i);
  }
  return -1;
}

void RemoteDispatcher::report(int index, bool success,
                              const common::http::FetchStats& fs) {
  std::lock_guard<std::mutex> lock(mutex_);
  EndpointState& st = endpoints_[static_cast<std::size_t>(index)];
  st.requests += static_cast<std::uint64_t>(fs.attempts);
  stats_.requests += static_cast<std::uint64_t>(fs.attempts);
  stats_.retries += static_cast<std::uint64_t>(fs.retries);
  if (success) {
    st.breaker.record_success();
  } else {
    st.failures += 1;
    st.breaker.record_failure(now_ms());
  }
}

void RemoteDispatcher::count_failover() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.failovers += 1;
}

void RemoteDispatcher::count_local_fallback() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.local_fallbacks += 1;
}

void RemoteDispatcher::count_remote_ok() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.remote_ok += 1;
}

double RemoteDispatcher::now_ms() { return common::steady_seconds() * 1e3; }

RemoteFleet RemoteDispatcher::fleet() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const double now = now_ms();
  RemoteFleet out;
  out.stats = stats_;  // breaker_trips is summed from the breakers below
  out.endpoints.reserve(endpoints_.size());
  for (const auto& st : endpoints_) {
    out.stats.breaker_trips += st.breaker.trips();
    out.endpoints.push_back(RemoteEndpointObs{
        st.ep.label(), to_string(st.breaker.state(now)), st.requests,
        st.failures});
  }
  return out;
}

}  // namespace repro::core
