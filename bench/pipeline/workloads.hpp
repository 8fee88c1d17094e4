// The four bench_pipeline workloads (see README.md for why each exists).
//
// A workload run generates its inputs from the seed, sets up several
// times (setup_s is the median), measures its operation for a fixed wall
// time, and checks every operation's digest against a second path to
// the same result. An untraced run yields the end-to-end metrics; a
// traced run yields the per-layer metrics and a Chrome trace.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace bench_pipeline {

/// One reported number: the median over a run's repeats (reps, setups,
/// time windows) with the repeats' quartiles, so a comparison can tell a
/// real change from run-to-run noise.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  double q1 = 0;
  double q3 = 0;
  int n = 1;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 22;  ///< measured wall time of the operation loop
  double scale = 0;     ///< suite scale; 0 = the workload's default
  int min_reps = 3;     ///< operations measured even past `seconds`
  int setups = 7;       ///< set-up repetitions behind setup_s
  bool traced = false;
  std::string work_dir;  ///< scratch space for DEFs, stores, campaigns
  /// Committed digest for this (workload, scale, seed), when one exists.
  std::optional<std::uint64_t> expected_digest;
};

struct WorkloadResult {
  std::string workload;
  double scale = 0;
  int threads = 1;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::uint64_t digest = 0;  ///< reference-path digest of the workload
  std::vector<Metric> metrics;
  /// Informational numbers the comparison does not judge (for example
  /// serve's cold-request latency), as name -> value.
  std::vector<std::pair<std::string, double>> detail;
  std::string trace_json;  ///< traced runs only
};

const std::vector<std::string>& workload_names();

/// Contents of a file; empty when it cannot be read.
std::string read_file(const std::filesystem::path& path);
double default_scale(const std::string& workload);

/// Threads, server handler threads, clients and campaign workers.
int bench_threads();

/// Runs one workload in this process. Throws std::runtime_error when the
/// set-up itself fails (inputs cannot be generated, server cannot bind).
WorkloadResult run_workload(const RunOptions& opt);

}  // namespace bench_pipeline
