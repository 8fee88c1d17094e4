#include "common/obs.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "common/clock.hpp"
#include "common/diagnostics.hpp"
#include "common/json_writer.hpp"
#include "common/parallel.hpp"

namespace repro::common::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

std::atomic<bool> g_logical_time{false};

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool logical_time() { return g_logical_time.load(std::memory_order_relaxed); }

void set_logical_time(bool on) {
  g_logical_time.store(on, std::memory_order_relaxed);
}

// --- metrics registry ------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_edges)
    : edges_(std::move(upper_edges)), buckets_(edges_.size() + 1) {
  // Edges must be strictly increasing for the bucket search to be a
  // well-defined partition; enforce rather than trust every call site.
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    if (!(edges_[i - 1] < edges_[i])) {
      std::sort(edges_.begin(), edges_.end());
      edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
      buckets_ = std::vector<std::atomic<std::uint64_t>>(edges_.size() + 1);
      break;
    }
  }
}

void Histogram::observe(double x) {
  // upper_bound gives the first edge > x, i.e. the bucket with
  // edges_[i-1] <= x < edges_[i]; x >= edges_.back() (and NaN) land in
  // the overflow bucket.
  const std::size_t bucket =
      x == x ? static_cast<std::size_t>(
                   std::upper_bound(edges_.begin(), edges_.end(), x) -
                   edges_.begin())
             : buckets_.size() - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  if (x == x) {
    // Fixed-point micro-unit accumulation: integer adds commute AND
    // associate, so the sum is bit-identical at any thread count (a
    // double sum would vary with interleaving). Saturate out-of-range
    // values instead of invoking UB in llround.
    constexpr double kCap =
        static_cast<double>(std::numeric_limits<std::int64_t>::max());
    const double scaled = x * 1e6;
    std::int64_t inc;
    if (scaled >= kCap) {
      inc = std::numeric_limits<std::int64_t>::max();
    } else if (scaled <= -kCap) {
      inc = std::numeric_limits<std::int64_t>::min();
    } else {
      inc = static_cast<std::int64_t>(std::llround(scaled));
    }
    sum_micros_.fetch_add(inc, std::memory_order_relaxed);
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t Histogram::total() const {
  std::uint64_t t = 0;
  for (const auto& b : buckets_) t += b.load(std::memory_order_relaxed);
  return t;
}

std::int64_t Histogram::sum_micros() const {
  return sum_micros_.load(std::memory_order_relaxed);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_micros_.store(0, std::memory_order_relaxed);
}

namespace {

/// Node-based maps keep metric addresses stable for the process lifetime,
/// which is what lets call sites cache references in local statics.
struct MetricsRegistry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

MetricsRegistry& metrics_registry() {
  static MetricsRegistry* r = new MetricsRegistry();  // never destroyed
  return *r;
}

}  // namespace

Counter& counter(std::string_view name) {
  MetricsRegistry& r = metrics_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    it = r.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& gauge(std::string_view name) {
  MetricsRegistry& r = metrics_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.gauges.find(name);
  if (it == r.gauges.end()) {
    it = r.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& histogram(std::string_view name, std::span<const double> edges) {
  MetricsRegistry& r = metrics_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.histograms.find(name);
  if (it == r.histograms.end()) {
    it = r.histograms
             .emplace(std::string(name),
                      std::make_unique<Histogram>(
                          std::vector<double>(edges.begin(), edges.end())))
             .first;
  }
  return *it->second;
}

std::vector<MetricSnapshot> snapshot_metrics() {
  MetricsRegistry& r = metrics_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<MetricSnapshot> out;
  for (const auto& [name, c] : r.counters) {
    MetricSnapshot m;
    m.kind = MetricSnapshot::Kind::kCounter;
    m.name = name;
    m.count = c->value();
    out.push_back(std::move(m));
  }
  for (const auto& [name, g] : r.gauges) {
    MetricSnapshot m;
    m.kind = MetricSnapshot::Kind::kGauge;
    m.name = name;
    m.value = g->value();
    out.push_back(std::move(m));
  }
  for (const auto& [name, h] : r.histograms) {
    MetricSnapshot m;
    m.kind = MetricSnapshot::Kind::kHistogram;
    m.name = name;
    m.edges = h->edges();
    m.buckets = h->counts();
    m.count = h->total();
    m.sum_micros = h->sum_micros();
    out.push_back(std::move(m));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::string metrics_json() {
  JsonObject obj;
  for (const MetricSnapshot& m : snapshot_metrics()) {
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        obj.field(m.name, static_cast<unsigned long>(m.count));
        break;
      case MetricSnapshot::Kind::kGauge:
        obj.field(m.name, m.value);
        break;
      case MetricSnapshot::Kind::kHistogram:
        obj.field_raw(
            m.name,
            JsonObject()
                .field_raw("edges", json_num_array(m.edges))
                .field_raw("counts", json_num_array(m.buckets))
                .field("total", static_cast<unsigned long>(m.count))
                .field("sum_micros", static_cast<long>(m.sum_micros))
                .str());
        break;
    }
  }
  return obj.str();
}

void reset_metrics() {
  MetricsRegistry& r = metrics_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& [name, c] : r.counters) c->reset();
  for (auto& [name, g] : r.gauges) g->reset();
  for (auto& [name, h] : r.histograms) h->reset();
}

// --- trace spans -----------------------------------------------------------

namespace detail {

struct SpanRecord {
  const char* name;
  std::int64_t arg;
  bool has_arg;
  std::uint32_t begin_seq;
  std::uint32_t end_seq;
  double begin_s;
  double end_s;
};

struct SpanBuffer {
  int worker = 0;
  int registration = 0;  ///< global registration order (merge tiebreaker)
  std::uint32_t next_seq = 0;
  std::uint64_t dropped = 0;
  std::vector<SpanRecord> records;
};

}  // namespace detail

namespace {

constexpr std::size_t kMaxRecordsPerBuffer = 1 << 20;

/// Buffers are owned here and never destroyed: a worker thread's
/// thread_local pointer must stay valid for the thread's whole life, and
/// threads can outlive any flush. clear_trace() empties the record
/// vectors but keeps the buffers registered.
struct SpanRegistry {
  std::mutex mutex;
  std::vector<detail::SpanBuffer*> buffers;
  int next_registration = 0;
};

SpanRegistry& span_registry() {
  static SpanRegistry* r = new SpanRegistry();  // never destroyed
  return *r;
}

detail::SpanBuffer* local_buffer() {
  thread_local detail::SpanBuffer* tl = nullptr;
  if (tl == nullptr) {
    auto* buf = new detail::SpanBuffer();  // owned by the registry, leaked
    buf->worker = current_worker_id();
    SpanRegistry& r = span_registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    buf->registration = r.next_registration++;
    r.buffers.push_back(buf);
    tl = buf;
  }
  return tl;
}

}  // namespace

SpanGuard::SpanGuard(const char* name, std::int64_t arg) {
  if (!enabled()) return;
  buf_ = local_buffer();
  name_ = name;
  arg_ = arg;
  begin_seq_ = buf_->next_seq++;
  begin_s_ = steady_seconds();
}

SpanGuard::~SpanGuard() { end(); }

void SpanGuard::end() {
  if (buf_ == nullptr) return;
  detail::SpanBuffer* buf = buf_;
  buf_ = nullptr;
  const std::uint32_t end_seq = buf->next_seq++;
  if (buf->records.size() >= kMaxRecordsPerBuffer) {
    ++buf->dropped;
    return;
  }
  buf->records.push_back(detail::SpanRecord{
      name_, arg_ == kNoArg ? 0 : arg_, arg_ != kNoArg, begin_seq_, end_seq,
      begin_s_, steady_seconds()});
}

std::vector<SpanEvent> snapshot_spans() {
  SpanRegistry& r = span_registry();
  std::vector<SpanEvent> out;
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    // Merge in (worker, registration) buffer order. Within a buffer,
    // records are completion-ordered; sorting by begin_seq afterwards
    // restores open order (parents before children).
    std::vector<const detail::SpanBuffer*> bufs(r.buffers.begin(),
                                                r.buffers.end());
    std::sort(bufs.begin(), bufs.end(),
              [](const detail::SpanBuffer* a, const detail::SpanBuffer* b) {
                if (a->worker != b->worker) return a->worker < b->worker;
                return a->registration < b->registration;
              });
    for (const detail::SpanBuffer* buf : bufs) {
      std::vector<SpanEvent> local;
      local.reserve(buf->records.size());
      for (const detail::SpanRecord& rec : buf->records) {
        SpanEvent e;
        e.name = rec.name;
        e.arg = rec.arg;
        e.has_arg = rec.has_arg;
        e.worker = buf->worker;
        e.begin_seq = rec.begin_seq;
        e.end_seq = rec.end_seq;
        e.begin_s = rec.begin_s;
        e.end_s = rec.end_s;
        local.push_back(std::move(e));
      }
      std::sort(local.begin(), local.end(),
                [](const SpanEvent& a, const SpanEvent& b) {
                  return a.begin_seq < b.begin_seq;
                });
      for (auto& e : local) out.push_back(std::move(e));
    }
  }
  return out;
}

std::string trace_json() {
  const std::vector<SpanEvent> events = snapshot_spans();
  const bool logical = logical_time();
  double epoch = 0;
  if (!logical && !events.empty()) {
    epoch = events.front().begin_s;
    for (const SpanEvent& e : events) epoch = std::min(epoch, e.begin_s);
  }
  std::vector<std::string> rendered;
  rendered.reserve(events.size());
  for (const SpanEvent& e : events) {
    JsonObject obj;
    obj.field("name", e.name)
        .field("cat", "repro")
        .field("ph", "X")
        .field("pid", 0)
        .field("tid", e.worker);
    if (logical) {
      obj.field("ts", static_cast<long>(e.begin_seq))
          .field("dur",
                 static_cast<long>(std::max<std::int64_t>(
                     1, static_cast<std::int64_t>(e.end_seq) - e.begin_seq)));
    } else {
      obj.field("ts", (e.begin_s - epoch) * 1e6)
          .field("dur", std::max(0.0, (e.end_s - e.begin_s) * 1e6));
    }
    if (e.has_arg) {
      obj.field_raw("args", JsonObject().field("v", static_cast<long>(e.arg))
                                .str());
    }
    rendered.push_back(obj.str());
  }
  return JsonObject()
      .field("displayTimeUnit", "ms")
      .field_raw("traceEvents", json_array(rendered))
      .str();
}

void clear_trace() {
  SpanRegistry& r = span_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (detail::SpanBuffer* buf : r.buffers) {
    buf->records.clear();
    buf->next_seq = 0;
    buf->dropped = 0;
  }
}

std::uint64_t spans_dropped() {
  SpanRegistry& r = span_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::uint64_t total = 0;
  for (const detail::SpanBuffer* buf : r.buffers) total += buf->dropped;
  return total;
}

std::vector<SpanAggregate> aggregate_spans() {
  std::map<std::string, SpanAggregate> agg;
  for (const SpanEvent& e : snapshot_spans()) {
    SpanAggregate& a = agg[e.name];
    a.name = e.name;
    ++a.count;
    a.seconds += std::max(0.0, e.end_s - e.begin_s);
  }
  std::vector<SpanAggregate> out;
  out.reserve(agg.size());
  for (auto& [name, a] : agg) out.push_back(std::move(a));
  return out;
}

// --- degradation events -----------------------------------------------------

namespace {

struct DegradationLog {
  std::mutex mutex;
  std::vector<DegradationEvent> events;
};

DegradationLog& degradation_log() {
  static DegradationLog* log = new DegradationLog();  // never destroyed
  return *log;
}

}  // namespace

void record_degradation(std::string_view step, std::string_view detail,
                        std::int64_t fold) {
  DegradationLog& log = degradation_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  log.events.push_back(
      DegradationEvent{std::string(step), std::string(detail), fold});
}

std::vector<DegradationEvent> degradation_events() {
  DegradationLog& log = degradation_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  return log.events;
}

std::string degradation_json() {
  std::vector<std::string> parts;
  for (const DegradationEvent& e : degradation_events()) {
    parts.push_back(JsonObject()
                        .field("step", e.step)
                        .field("detail", e.detail)
                        .field("fold", static_cast<long>(e.fold))
                        .str());
  }
  return json_array(parts);
}

void clear_degradation() {
  DegradationLog& log = degradation_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  log.events.clear();
}

// --- run report ------------------------------------------------------------

RunReport& RunReport::set_raw(const std::string& key, std::string rendered) {
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(rendered);
      return *this;
    }
  }
  fields_.emplace_back(key, std::move(rendered));
  return *this;
}

RunReport& RunReport::set(const std::string& key, const std::string& value) {
  return set_raw(key, json_str(value));
}
RunReport& RunReport::set(const std::string& key, const char* value) {
  return set_raw(key, json_str(value));
}
RunReport& RunReport::set(const std::string& key, double v) {
  return set_raw(key, json_num(v));
}
RunReport& RunReport::set(const std::string& key, std::int64_t v) {
  return set_raw(key, std::to_string(v));
}
RunReport& RunReport::set(const std::string& key, int v) {
  return set_raw(key, std::to_string(v));
}
RunReport& RunReport::set(const std::string& key, bool v) {
  return set_raw(key, v ? "true" : "false");
}

std::string RunReport::to_json() const {
  JsonObject obj;
  for (const auto& [k, v] : fields_) obj.field_raw(k, v);
  std::vector<std::string> phases;
  for (const SpanAggregate& a : aggregate_spans()) {
    phases.push_back(JsonObject()
                         .field("name", a.name)
                         .field("count", static_cast<unsigned long>(a.count))
                         .field("seconds", a.seconds)
                         .str());
  }
  obj.field_raw("phases", json_array(phases));
  obj.field_raw("metrics", metrics_json());
  if (!degradation_events().empty()) {
    obj.field_raw("degradation", degradation_json());
  }
  return obj.str();
}

// --- diagnostics bridge ----------------------------------------------------

void record_diagnostics(std::string_view prefix, const DiagnosticSink& sink) {
  if (!enabled()) return;
  const std::string p(prefix);
  counter(p + ".notes").add(sink.count(Severity::kNote));
  counter(p + ".warnings").add(sink.count(Severity::kWarning));
  counter(p + ".errors").add(sink.count(Severity::kError));
  counter(p + ".fatals").add(sink.count(Severity::kFatal));
}

}  // namespace repro::common::obs
