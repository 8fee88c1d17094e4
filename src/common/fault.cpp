#include "common/fault.hpp"

#include <csignal>
#include <cstdlib>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

namespace repro::common::fault {

namespace {

std::mutex g_mutex;
FaultSpec g_spec;
bool g_loaded = false;  ///< env read (or configure called) already
std::atomic<std::int64_t> g_commits{0};
std::atomic<std::int64_t> g_net_requests{0};

/// Loads REPRO_FAULT once; a malformed value is ignored (a crash test
/// that typos the spec should fail by *not* crashing, loudly, rather
/// than by aborting the workload with a confusing parse error).
void ensure_loaded_locked() {
  if (g_loaded) return;
  g_loaded = true;
  if (const char* env = std::getenv("REPRO_FAULT")) {
    StatusOr<FaultSpec> parsed = parse_fault_spec(env);
    if (parsed.ok()) g_spec = *parsed;
  }
}

}  // namespace

StatusOr<FaultSpec> parse_fault_spec(const std::string& spec) {
  FaultSpec out;
  if (spec.empty()) return out;
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) {
    return Status::InvalidArgument("fault spec '" + spec +
                                   "' is not <kind>:<ordinal>");
  }
  const std::string kind = spec.substr(0, colon);
  const std::string num = spec.substr(colon + 1);
  char* end = nullptr;
  const long long k = std::strtoll(num.c_str(), &end, 10);
  if (end != num.c_str() + num.size() || k < 0) {
    return Status::InvalidArgument("fault ordinal '" + num +
                                   "' is not a non-negative integer");
  }
  if (kind == "crash_after_artifact") {
    out.kind = Kind::kCrashAfterArtifact;
  } else if (kind == "corrupt_artifact") {
    out.kind = Kind::kCorruptArtifact;
  } else if (kind == "hang") {
    out.kind = Kind::kHang;
  } else if (kind == "net_refuse") {
    out.kind = Kind::kNetRefuse;
  } else if (kind == "net_truncate") {
    out.kind = Kind::kNetTruncate;
  } else if (kind == "net_delay") {
    out.kind = Kind::kNetDelay;
  } else if (kind == "net_garble") {
    out.kind = Kind::kNetGarble;
  } else {
    return Status::InvalidArgument("unknown fault kind '" + kind + "'");
  }
  out.ordinal = k;
  return out;
}

bool is_net_kind(Kind kind) {
  switch (kind) {
    case Kind::kNetRefuse:
    case Kind::kNetTruncate:
    case Kind::kNetDelay:
    case Kind::kNetGarble:
      return true;
    default:
      return false;
  }
}

void configure(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spec = spec;
  g_loaded = true;
  g_commits.store(0, std::memory_order_relaxed);
  g_net_requests.store(0, std::memory_order_relaxed);
}

void reset() { configure(FaultSpec{}); }

Action on_artifact_commit() {
  FaultSpec spec;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    ensure_loaded_locked();
    spec = g_spec;
  }
  const std::int64_t ordinal =
      g_commits.fetch_add(1, std::memory_order_relaxed);
  if (!spec.armed() || is_net_kind(spec.kind) || ordinal != spec.ordinal) {
    return Action::kNone;
  }
  switch (spec.kind) {
    case Kind::kCorruptArtifact:
      return Action::kCorrupt;
    case Kind::kCrashAfterArtifact:
      return Action::kCrashAfter;
    case Kind::kHang:
      // Park forever; the supervisor's per-shard timeout is the only way
      // out. Sleeping (rather than spinning) keeps the hung worker from
      // stealing CPU from the shards that are making progress.
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
    default:
      break;
  }
  return Action::kNone;
}

NetAction on_net_request() {
  FaultSpec spec;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    ensure_loaded_locked();
    spec = g_spec;
  }
  const std::int64_t ordinal =
      g_net_requests.fetch_add(1, std::memory_order_relaxed);
  if (!spec.armed() || !is_net_kind(spec.kind) || ordinal != spec.ordinal) {
    return NetAction::kNone;
  }
  switch (spec.kind) {
    case Kind::kNetRefuse:
      return NetAction::kRefuse;
    case Kind::kNetTruncate:
      return NetAction::kTruncate;
    case Kind::kNetDelay:
      return NetAction::kDelay;
    case Kind::kNetGarble:
      return NetAction::kGarble;
    default:
      break;
  }
  return NetAction::kNone;
}

void corrupt_bytes(std::string& data) {
  if (data.empty()) {
    data.assign(1, '\x01');
    return;
  }
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x20);
  data.back() = static_cast<char>(data.back() ^ 0x01);
}

void crash_now() {
  ::kill(::getpid(), SIGKILL);
  // SIGKILL cannot be handled; if we are somehow still running (e.g. a
  // hostile test harness), die without flushing anything.
  std::_Exit(137);
}

std::int64_t net_requests_seen() {
  return g_net_requests.load(std::memory_order_relaxed);
}

}  // namespace repro::common::fault
