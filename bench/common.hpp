// Shared harness for the paper-table benches: generates the five-design
// suite once per process, cuts challenges per split layer, and provides
// small formatting helpers so every bench prints rows shaped like the
// paper's tables.
#pragma once

#include <string>
#include <vector>

#include "common/json_writer.hpp"
#include "core/pipeline.hpp"
#include "synth/synth.hpp"

namespace bench {

/// The five generated designs (sb1, sb5, sb10, sb12, sb18) at the
/// REPRO_SCALE suite scale (synth::scale_from_env, e.g. 0.5 for quick
/// runs); generated on first use and cached for the process lifetime.
const std::vector<repro::synth::SynthDesign>& suite();

/// Challenges for one split layer (cached per layer).
const repro::core::ChallengeSuite& challenges(int split_layer);

/// Short design names aligned with suite().
std::vector<std::string> design_names();

/// Config with target-sampling enabled: at most `cap` target v-pins are
/// evaluated per design (unbiased estimates; see AttackConfig).
repro::core::AttackConfig capped(const std::string& name, int cap);

// --- formatting helpers ---------------------------------------------------
std::string pct(double frac, int decimals = 2);   ///< 0.9532 -> "95.32%"
std::string num(double v, int decimals = 1);      ///< fixed-point
void print_title(const std::string& title);
void print_rule(int width = 96);

// --- timing ---------------------------------------------------------------

/// Monotonic wall-clock seconds (steady_clock).
double wall_seconds();

/// Stopwatch over wall_seconds().
class WallTimer {
 public:
  WallTimer();
  void reset();
  double elapsed_seconds() const;

 private:
  double start_;
};

/// Accumulates named per-phase durations (train / score / ...), preserving
/// first-seen order for reporting.
class PhaseTimers {
 public:
  void add(const std::string& phase, double seconds);
  double seconds(const std::string& phase) const;  ///< 0 if unknown
  double total_seconds() const;
  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }
  void print(const std::string& prefix = "") const;

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

// --- machine-readable results (BENCH_*.json) ------------------------------
// The JSON emitter lives in src/common/json_writer (shared with the
// observability layer and split_attack report output); these aliases keep
// the historical bench:: spellings working.

using repro::common::JsonObject;
using repro::common::json_array;
using repro::common::json_num;
using repro::common::json_str;
using repro::common::write_json_file;

}  // namespace bench
