#include "common/telemetry.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/cancel.hpp"
#include "common/clock.hpp"
#include "common/json_scan.hpp"
#include "common/json_writer.hpp"
#include "common/obs.hpp"

namespace repro::common::obs {

namespace {

std::atomic<const char*> g_phase{"idle"};
std::atomic<long> g_rss_mb{0};
std::atomic<long> g_rss_peak_mb{0};

std::uint64_t counter_value(const std::vector<MetricSnapshot>& metrics,
                            std::string_view name) {
  for (const auto& m : metrics) {
    if (m.kind == MetricSnapshot::Kind::kCounter && m.name == name) {
      return m.count;
    }
  }
  return 0;
}

}  // namespace

void set_phase(const char* phase) {
  g_phase.store(phase != nullptr ? phase : "idle", std::memory_order_relaxed);
}

const char* current_phase() {
  return g_phase.load(std::memory_order_relaxed);
}

long sample_rss() {
  const long rss = current_rss_mb();
  g_rss_mb.store(rss, std::memory_order_relaxed);
  long peak = g_rss_peak_mb.load(std::memory_order_relaxed);
  while (rss > peak && !g_rss_peak_mb.compare_exchange_weak(
                           peak, rss, std::memory_order_relaxed)) {
  }
  return rss;
}

long rss_mb() { return g_rss_mb.load(std::memory_order_relaxed); }

long rss_peak_mb() { return g_rss_peak_mb.load(std::memory_order_relaxed); }

// --- records ---------------------------------------------------------------

std::string TelemetryRecord::to_json() const {
  JsonObject obj;
  obj.field("kind", kind)
      .field("seq", static_cast<unsigned long>(seq))
      .field("pid", static_cast<long>(pid))
      .field("t", t)
      .field("phase", phase)
      .field("progress", static_cast<unsigned long>(progress))
      .field("targets_done", static_cast<unsigned long>(targets_done))
      .field("pairs_scored", static_cast<unsigned long>(pairs_scored))
      .field("trees_done", static_cast<unsigned long>(trees_done))
      .field("folds_done", static_cast<unsigned long>(folds_done))
      .field("rss_mb", static_cast<long>(rss_mb))
      .field("rss_peak_mb", static_cast<long>(rss_peak_mb));
  if (!pressure.empty()) {
    obj.field("pressure", pressure);
  }
  return obj.str();
}

StatusOr<TelemetryRecord> parse_telemetry_line(std::string_view line) {
  auto parsed = parse_json(line);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValue& v = *parsed;
  if (!v.is_object()) {
    return Status::ParseError("telemetry line is not a JSON object");
  }
  if (v.find("kind") == nullptr || v.find("seq") == nullptr) {
    return Status::ParseError("telemetry line lacks kind/seq");
  }
  TelemetryRecord rec;
  rec.kind = v.get_string("kind", "heartbeat");
  rec.seq = v.get_u64("seq", 0);
  rec.pid = v.get_i64("pid", 0);
  rec.t = v.get_double("t", 0);
  rec.phase = v.get_string("phase", "");
  rec.progress = v.get_u64("progress", 0);
  rec.targets_done = v.get_u64("targets_done", 0);
  rec.pairs_scored = v.get_u64("pairs_scored", 0);
  rec.trees_done = v.get_u64("trees_done", 0);
  rec.folds_done = v.get_u64("folds_done", 0);
  rec.rss_mb = v.get_i64("rss_mb", 0);
  rec.rss_peak_mb = v.get_i64("rss_peak_mb", 0);
  rec.pressure = v.get_string("pressure", "");
  return rec;
}

TelemetryRecord sample_telemetry(const Budget* budget) {
  TelemetryRecord rec;
  rec.pid = static_cast<std::int64_t>(::getpid());
  rec.t = wall_seconds();
  rec.phase = current_phase();
  const long rss = sample_rss();
  rec.rss_mb = rss;
  rec.rss_peak_mb = rss_peak_mb();
  if (budget != nullptr && !budget->unlimited()) {
    rec.pressure = to_string(budget->pressure());
  }
  const std::vector<MetricSnapshot> metrics = snapshot_metrics();
  for (const auto& m : metrics) {
    if (m.kind == MetricSnapshot::Kind::kCounter) {
      rec.progress += m.count;
    }
  }
  rec.targets_done = counter_value(metrics, "attack.targets_done");
  rec.pairs_scored = counter_value(metrics, "attack.pairs_scored");
  rec.trees_done = counter_value(metrics, "ml.trees_done");
  rec.folds_done = counter_value(metrics, "loo.folds_done");
  return rec;
}

// --- writer ----------------------------------------------------------------

StatusOr<TelemetryWriter> TelemetryWriter::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    return Status::IoError("telemetry: cannot open " + path + ": " +
                           std::strerror(errno));
  }
  return TelemetryWriter(fd, path);
}

TelemetryWriter::TelemetryWriter(TelemetryWriter&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

TelemetryWriter& TelemetryWriter::operator=(TelemetryWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

TelemetryWriter::~TelemetryWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status TelemetryWriter::append(const TelemetryRecord& rec) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("telemetry: writer is closed");
  }
  // One write() of the whole line: O_APPEND makes it land atomically at
  // EOF, so concurrent writers interleave by whole records and a crash
  // tears at most the final line.
  std::string line = rec.to_json();
  line.push_back('\n');
  const char* p = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError("telemetry: write to " + path_ + " failed: " +
                             std::strerror(errno));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

// --- reader ----------------------------------------------------------------

std::size_t TelemetryTail::poll(std::vector<TelemetryRecord>& out) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    return 0;
  }
  in.seekg(static_cast<std::streamoff>(offset_));
  if (!in) {
    return 0;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::size_t added = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      break;  // in-flight line: leave for the next poll
    }
    const std::string_view line(text.data() + pos, nl - pos);
    offset_ += (nl - pos) + 1;
    pos = nl + 1;
    if (line.empty()) {
      continue;
    }
    auto rec = parse_telemetry_line(line);
    if (rec.ok()) {
      out.push_back(std::move(*rec));
      ++added;
    }
  }
  return added;
}

// --- heartbeat -------------------------------------------------------------

StatusOr<std::unique_ptr<Heartbeat>> Heartbeat::start(Options opt) {
  std::unique_ptr<Heartbeat> hb(new Heartbeat());
  if (!opt.path.empty()) {
    auto writer = TelemetryWriter::open(opt.path);
    if (!writer.ok()) {
      return writer.status();
    }
    hb->writer_ =
        std::make_unique<TelemetryWriter>(std::move(writer).value());
  }
  hb->budget_ = opt.budget;
  hb->interval_s_ = opt.interval_s >= 0.01 ? opt.interval_s : 0.01;
  hb->stopped_ = false;
  hb->emit("start");
  hb->thread_ = std::thread([raw = hb.get()] { raw->run_loop(); });
  return hb;
}

void Heartbeat::emit(const char* kind) {
  TelemetryRecord rec = sample_telemetry(budget_);
  rec.kind = kind;
  rec.seq = seq_++;
  if (writer_ != nullptr && writer_->append(rec).ok()) {
    ++written_;
  }
}

void Heartbeat::run_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto interval = std::chrono::duration<double>(interval_s_);
  while (!stopping_) {
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) {
      break;
    }
    emit("heartbeat");
  }
}

void Heartbeat::stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  emit("final");
}

std::uint64_t Heartbeat::records_written() const { return written_; }

// --- Prometheus ------------------------------------------------------------

namespace {

std::string sanitize_metric_name(std::string_view prefix,
                                 std::string_view name) {
  std::string out;
  out.reserve(prefix.size() + name.size());
  out.append(prefix);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string render_double(double v) {
  // Prometheus values are plain decimals; reuse the JSON renderer (it
  // never emits NaN/Inf, which the registry cannot hold anyway).
  return json_num(v);
}

/// `k="v",...`, each value escaped as the text format requires (\ "
/// newline), so a string read from a file stays inside its quotes.
std::string label_pairs(const MetricSnapshot::Labels& labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    out += (out.empty() ? "" : ",") + key + "=\"";
    for (const char c : value) {
      if (c == '\\' || c == '"' || c == '\n') out += '\\';
      out += c == '\n' ? 'n' : c;
    }
    out += '"';
  }
  return out;
}

}  // namespace

std::string prometheus_text(const std::vector<MetricSnapshot>& metrics,
                            std::string_view prefix) {
  std::string out;
  std::string last_type;  // one # TYPE line per run of same-named samples
  const auto type_line = [&](const std::string& family, const char* type) {
    const std::string line = "# TYPE " + family + " " + type + "\n";
    if (line != last_type) out += line;
    last_type = line;
  };
  for (const auto& m : metrics) {
    const std::string name = sanitize_metric_name(prefix, m.name);
    const std::string pairs = label_pairs(m.labels);
    const std::string labels = pairs.empty() ? "" : "{" + pairs + "}";
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        type_line(name + "_total", "counter");
        out += name + "_total" + labels + " " + std::to_string(m.count) + "\n";
        break;
      case MetricSnapshot::Kind::kGauge:
        type_line(name, "gauge");
        out += name + labels + " " + render_double(m.value) + "\n";
        break;
      case MetricSnapshot::Kind::kHistogram: {
        type_line(name, "histogram");
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          cum += m.buckets[i];
          const std::string le =
              i < m.edges.size() ? render_double(m.edges[i]) : "+Inf";
          out += name + "_bucket{" + pairs + (pairs.empty() ? "" : ",") +
                 "le=\"" + le + "\"} " + std::to_string(cum) + "\n";
        }
        // _sum is mandatory in the exposition format (it is what makes
        // rate(x_sum)/rate(x_count) averages possible); rendered from
        // the histogram's exact micro-unit integer sum.
        out += name + "_sum" + labels + " " +
               render_double(static_cast<double>(m.sum_micros) / 1e6) +
               "\n";
        out += name + "_count" + labels + " " + std::to_string(cum) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string prometheus_text() {
  std::vector<MetricSnapshot> metrics = snapshot_metrics();
  metrics.push_back(
      MetricSnapshot::gauge("rss_mb", static_cast<double>(rss_mb())));
  metrics.push_back(
      MetricSnapshot::gauge("rss_peak_mb", static_cast<double>(rss_peak_mb())));
  return prometheus_text(metrics, "repro_");
}

}  // namespace repro::common::obs
