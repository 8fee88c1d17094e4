// Deterministic fault injection for crash-safety tests (REPRO_FAULT).
//
// Crash tests that poll for "some progress" and then SIGKILL race the
// workload: on a fast machine the run finishes before the kill lands and
// the test silently degrades to the nothing-to-resume path. This hook
// makes the fault point *part of the program*, keyed to the artifact
// commit sequence, so scripts and the campaign supervisor can place a
// crash, a torn write, or a hang at an exact, reproducible point.
//
// The spec (environment variable REPRO_FAULT, or fault::configure in
// tests) names one fault and the 0-based artifact-commit ordinal it
// fires at:
//
//   crash_after_artifact:K   commit K completes (artifact + manifest are
//                            durable), then the process raises SIGKILL —
//                            the same no-flush death the kernel OOM
//                            killer or a power cut delivers.
//   corrupt_artifact:K       commit K writes bit-flipped bytes while the
//                            manifest records the true size/CRC: a torn
//                            or bit-rotted artifact that must fail
//                            validation on read-back.
//   hang:K                   commit K never happens; the writing thread
//                            parks forever. Exercises supervisor
//                            wall-clock timeouts.
//
// Network faults are counted on a *separate* ordinal sequence — the
// 0-based HTTP client request attempt, advanced by fault::on_net_request()
// from the retrying HTTP client — so a net fault spec never interacts
// with artifact commits and vice versa:
//
//   net_refuse:K             request K fails as if the remote end sent
//                            RST before the handshake (connect refused).
//   net_truncate:K           request K's response body loses its tail
//                            mid-flight: a torn read the payload-digest
//                            check must catch.
//   net_delay:K              request K stalls past its deadline and
//                            surfaces as a client-side timeout.
//   net_garble:K             request K's response body is bit-flipped in
//                            transit (corrupt_bytes), again caught by the
//                            payload digest.
//
// Commit ordinals are counted by fault::on_artifact_commit(), called
// from CheckpointManager::write (one count per artifact, manifest writes
// are not counted) and from the campaign supervisor's shard-commit path
// (so REPRO_FAULT in the *supervisor's* environment kills the supervisor
// after K shard completions — the supervisor strips the variable from
// worker environments and injects worker faults explicitly).
//
// Everything is process-local and deterministic: no RNG, no timers.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace repro::common::fault {

enum class Kind {
  kNone = 0,
  kCrashAfterArtifact,
  kCorruptArtifact,
  kHang,
  kNetRefuse,
  kNetTruncate,
  kNetDelay,
  kNetGarble,
};

/// True for the net_* kinds (counted per HTTP request, not per commit).
bool is_net_kind(Kind kind);

struct FaultSpec {
  Kind kind = Kind::kNone;
  std::int64_t ordinal = 0;  ///< 0-based artifact commit the fault fires at

  bool armed() const { return kind != Kind::kNone; }
};

/// Parses "crash_after_artifact:K" / "corrupt_artifact:K" / "hang:K" /
/// "net_refuse:K" / "net_truncate:K" / "net_delay:K" / "net_garble:K".
/// An empty spec string yields an unarmed spec (not an error).
StatusOr<FaultSpec> parse_fault_spec(const std::string& spec);

/// Arms `spec` and resets the commit counter. Tests use this instead of
/// the environment variable; it overrides any REPRO_FAULT value.
void configure(const FaultSpec& spec);

/// Disarms and resets (tests). The environment is not re-read afterwards.
void reset();

/// What the caller must do with the commit it is about to perform.
enum class Action {
  kNone = 0,
  kCorrupt,     ///< write deliberately damaged bytes for this artifact
  kCrashAfter,  ///< after the commit is durable, call crash_now()
};

/// Advances the commit ordinal and returns the action for this commit.
/// kHang at the matching ordinal never returns (the thread parks).
Action on_artifact_commit();

/// Damages `data` in place the way corrupt_artifact promises: a bit flip
/// in the middle plus a flipped last byte, so any CRC fails.
void corrupt_bytes(std::string& data);

/// Raises SIGKILL against this process (no atexit, no flush). Falls back
/// to _Exit if the signal somehow does not deliver.
[[noreturn]] void crash_now();

/// What the HTTP client must do with the request it is about to issue.
enum class NetAction {
  kNone = 0,
  kRefuse,    ///< fail as connect-refused without touching the wire
  kTruncate,  ///< perform the request, then drop the tail of the body
  kDelay,     ///< fail as a deadline timeout (after a short real stall)
  kGarble,    ///< perform the request, then corrupt_bytes() the body
};

/// Advances the net-request ordinal and returns the action for this
/// request attempt. Armed artifact kinds never fire here (and net kinds
/// never fire from on_artifact_commit()) — the two counters are
/// independent.
NetAction on_net_request();

/// Net request attempts observed so far (tests / reporting).
std::int64_t net_requests_seen();

}  // namespace repro::common::fault
