#pragma once
// The one steady-clock reader: phase timings and budget deadlines are
// differences of it, immune to wall-clock steps.

#include <chrono>

namespace repro::common {

/// Seconds on the steady clock, from an unspecified origin: only
/// differences mean anything.
inline double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace repro::common
