#pragma once
// The two clock readers. Phase timings, spans and deadlines are
// differences of the steady clock, immune to wall-clock steps; ages
// that compare times across processes (heartbeats, telemetry records)
// read the wall clock.

#include <chrono>

namespace repro::common {

/// Seconds on the steady clock, from an unspecified origin: only
/// differences mean anything.
inline double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds since the Unix epoch on the system clock: comparable across
/// processes, but it can step.
inline double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace repro::common
