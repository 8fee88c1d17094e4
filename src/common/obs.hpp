// Low-overhead instrumentation for the attack pipeline: trace spans,
// a metrics registry, and a structured run report.
//
// Everything is gated behind one runtime flag (set_enabled). When the
// flag is off, a span guard is a relaxed atomic load and a branch —
// no allocation, no clock read, no buffer touch — so instrumented hot
// paths cost nothing in normal runs.
//
// Trace spans
//   OBS_SPAN("train.fit") opens an RAII span on the current thread.
//   Events land in per-thread buffers (created lazily, owned by a global
//   registry, never freed while the process lives, so worker threads can
//   come and go). Each event carries the pool worker id
//   (common::current_worker_id()) and a per-thread sequence number; the
//   flush merges buffers by (worker, registration epoch, sequence), which
//   is deterministic for a fixed seed and thread count because the
//   parallel layer partitions indices statically. trace_json() renders
//   Chrome trace_event JSON loadable by chrome://tracing / Perfetto.
//   With set_logical_time(true), timestamps are the deterministic
//   sequence numbers instead of the wall clock, which makes the whole
//   trace file byte-stable across identical runs (scripts/check_obs.sh
//   asserts this).
//
// Metrics
//   Named counters (monotonic u64), gauges (last-set double), and
//   fixed-bucket histograms, registered on first use and updated with
//   relaxed atomics. Counter / histogram updates are commutative, so
//   totals are identical at any thread count; gauges must only be set
//   from serial code. snapshot_metrics() / metrics_json() serialize the
//   registry sorted by name.
//
// Run report
//   RunReport combines caller-set fields (tool, config, seed, dataset
//   shape...), per-span aggregate timings, and the metrics snapshot into
//   a single JSON document (split_attack --report-out).
//
// Thread-safety contract: span recording and counter/histogram updates
// are safe from any thread; flush operations (trace_json, clear_trace,
// snapshot_*, reset_metrics) and the enable/mode switches must run at a
// serial point (no concurrently open spans or in-flight updates).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace repro::common {
class DiagnosticSink;
}

namespace repro::common::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
struct SpanBuffer;
}  // namespace detail

/// True when instrumentation is recording. Hot paths read this once per
/// update; the relaxed load keeps the disabled cost to one branch.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Logical-time traces: timestamps become per-thread sequence numbers,
/// making trace_json() byte-stable across identical runs (at the cost of
/// meaningless durations). Wall-clock aggregates are still recorded.
bool logical_time();
void set_logical_time(bool on);

// --- metrics ---------------------------------------------------------------

/// Monotonic counter; add() is a relaxed fetch_add, so totals are exact
/// and thread-count-independent whatever the interleaving.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written value. Writes race destructively; set gauges only from
/// serial code (results, configuration echoes).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations x with
/// x < edges[i] (and >= edges[i-1]); the last bucket is the overflow
/// bucket x >= edges.back(). Updates are relaxed atomic increments.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_edges);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double x);
  const std::vector<double>& edges() const { return edges_; }
  /// One count per bucket: edges().size() + 1 entries.
  std::vector<std::uint64_t> counts() const;
  std::uint64_t total() const;
  /// Sum of finite observations, in fixed-point micro-units (the
  /// Prometheus `_sum` series divided back to units at render time).
  /// Integer accumulation keeps the value exact and identical at any
  /// thread count — a floating-point sum would depend on add order —
  /// which the metrics byte-identity checks rely on. NaN contributes 0
  /// (it still counts in the overflow bucket); values beyond the
  /// representable range saturate.
  std::int64_t sum_micros() const;
  void reset();

 private:
  std::vector<double> edges_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::int64_t> sum_micros_{0};
};

/// Registry lookups: find-or-create by name; the returned reference is
/// stable for the process lifetime (callers may cache it). A histogram's
/// bucket edges are fixed by the first registration; later lookups with
/// different edges return the existing instance unchanged.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name, std::span<const double> edges);

/// One serialized metric, for tests and custom reporting.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  using Labels = std::vector<std::pair<std::string, std::string>>;
  Kind kind = Kind::kCounter;
  std::string name;
  std::uint64_t count = 0;             ///< counter value / histogram total
  double value = 0;                    ///< gauge value
  std::vector<double> edges;           ///< histogram only
  std::vector<std::uint64_t> buckets;  ///< histogram only
  std::int64_t sum_micros = 0;         ///< histogram only (see Histogram)
  Labels labels;                       ///< rendered in order; registry: none

  /// Samples of series that live outside the registry (per-instance
  /// server and watcher counters, campaign state read from files), for
  /// prometheus_text (common/telemetry.hpp).
  static MetricSnapshot counter(std::string name, std::uint64_t count,
                                Labels labels = {}) {
    return {Kind::kCounter, std::move(name), count, 0, {}, {}, 0,
            std::move(labels)};
  }
  static MetricSnapshot gauge(std::string name, double value,
                              Labels labels = {}) {
    return {Kind::kGauge, std::move(name), 0, value, {}, {}, 0,
            std::move(labels)};
  }
};

/// Every registered metric, sorted by name.
std::vector<MetricSnapshot> snapshot_metrics();

/// {"name": value, ..., "hist": {"edges": [...], "counts": [...],
/// "total": n}}, keys sorted.
std::string metrics_json();

/// Zeroes every registered metric (registrations survive).
void reset_metrics();

// --- trace spans -----------------------------------------------------------

/// RAII span. When obs is disabled at construction the guard holds a null
/// buffer pointer and both ends are no-ops (the zero-allocation fast
/// path). `name` must be a string literal (or otherwise outlive the
/// flush); the optional integer arg distinguishes instances of the same
/// span (fold index, RRR iteration).
class SpanGuard {
 public:
  static constexpr std::int64_t kNoArg =
      std::numeric_limits<std::int64_t>::min();

  explicit SpanGuard(const char* name, std::int64_t arg = kNoArg);
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Closes the span now (the destructor becomes a no-op). For phases
  /// that end mid-scope, e.g. sequential sections of a tool's main.
  void end();

 private:
  detail::SpanBuffer* buf_ = nullptr;
  const char* name_ = nullptr;
  std::int64_t arg_ = 0;
  std::uint32_t begin_seq_ = 0;
  double begin_s_ = 0;
};

/// One completed span in merged order (tests, custom serializers).
struct SpanEvent {
  std::string name;
  std::int64_t arg = 0;
  bool has_arg = false;
  int worker = 0;               ///< pool worker id of the recording thread
  std::uint32_t begin_seq = 0;  ///< per-thread logical begin time
  std::uint32_t end_seq = 0;    ///< per-thread logical end time
  double begin_s = 0;           ///< wall clock, seconds
  double end_s = 0;
};

/// All completed spans, deterministically merged (see file comment).
std::vector<SpanEvent> snapshot_spans();

/// Chrome trace_event JSON ({"traceEvents": [...]}) of snapshot_spans().
std::string trace_json();

/// Drops recorded events (buffers stay registered). Serial point only.
void clear_trace();

/// Spans discarded because a thread buffer hit its size cap.
std::uint64_t spans_dropped();

/// Wall-clock totals per span name, sorted by name; the basis of the
/// run report's "phases" block and the end-of-run summary table.
struct SpanAggregate {
  std::string name;
  std::uint64_t count = 0;
  double seconds = 0;
};
std::vector<SpanAggregate> aggregate_spans();

// --- degradation events -----------------------------------------------------

/// One budget-driven accuracy concession (see core::RunControl's
/// degradation ladder). Events are recorded unconditionally — even with
/// instrumentation off — because a result computed with fewer trees or
/// sampled targets must never masquerade as a full-fidelity one: the run
/// report and tests read this log to tell them apart.
struct DegradationEvent {
  std::string step;    ///< "fewer_trees", "sample_targets", "shrink_radius"
  std::string detail;  ///< human-readable what/why
  std::int64_t fold = -1;  ///< LOO fold the step applied from; -1 = global
};

/// Appends an event (thread-safe; folds degrade concurrently).
void record_degradation(std::string_view step, std::string_view detail,
                        std::int64_t fold = -1);

/// Snapshot of all events in record order. Serial point only.
std::vector<DegradationEvent> degradation_events();

/// JSON array of the events (embedded in the run report).
std::string degradation_json();

/// Drops recorded events (tests, consecutive runs in one process).
void clear_degradation();

// --- run report ------------------------------------------------------------

/// Single-JSON run summary: caller fields in insertion order, then
/// "phases" (aggregate_spans), "metrics" (metrics_json), and — when any
/// were recorded — "degradation" (degradation_json).
class RunReport {
 public:
  RunReport& set(const std::string& key, const std::string& value);
  RunReport& set(const std::string& key, const char* value);
  RunReport& set(const std::string& key, double v);
  RunReport& set(const std::string& key, std::int64_t v);
  RunReport& set(const std::string& key, int v);
  RunReport& set(const std::string& key, bool v);

  std::string to_json() const;

 private:
  RunReport& set_raw(const std::string& key, std::string rendered);
  std::vector<std::pair<std::string, std::string>> fields_;  // key -> JSON
};

// --- diagnostics bridge ----------------------------------------------------

/// Adds the sink's severity tallies to counters "<prefix>.notes",
/// ".warnings", ".errors", ".fatals" (no-op while disabled), so ingestion
/// health shows up in the run report next to the attack metrics.
void record_diagnostics(std::string_view prefix, const DiagnosticSink& sink);

}  // namespace repro::common::obs

// --- macros ----------------------------------------------------------------
// OBS_SPAN / OBS_SPAN_ARG open a scoped span; OBS_COUNT bumps a named
// counter, caching the registry lookup in a function-local static so the
// per-call cost is one atomic add.

#define REPRO_OBS_CONCAT_INNER(a, b) a##b
#define REPRO_OBS_CONCAT(a, b) REPRO_OBS_CONCAT_INNER(a, b)

#define OBS_SPAN(name) \
  ::repro::common::obs::SpanGuard REPRO_OBS_CONCAT(obs_span_, __LINE__)(name)

#define OBS_SPAN_ARG(name, arg)                                  \
  ::repro::common::obs::SpanGuard REPRO_OBS_CONCAT(obs_span_,    \
                                                   __LINE__)(    \
      name, static_cast<std::int64_t>(arg))

#define OBS_COUNT(name, n)                                      \
  do {                                                          \
    if (::repro::common::obs::enabled()) {                      \
      static ::repro::common::obs::Counter& obs_counter_ref =   \
          ::repro::common::obs::counter(name);                  \
      obs_counter_ref.add(static_cast<std::uint64_t>(n));       \
    }                                                           \
  } while (0)
