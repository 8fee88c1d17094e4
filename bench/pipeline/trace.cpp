#include "trace.hpp"

#include <algorithm>
#include <chrono>

#include "common/json_writer.hpp"
#include "common/parallel.hpp"

namespace bench_pipeline {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name, int parent,
                     int group)
    : tracer_(tracer) {
  span_.name = std::string(name);
  span_.parent = parent;
  span_.group = group;
  span_.worker = repro::common::current_worker_id();
  span_.id = tracer_ ? tracer_->next_id_.fetch_add(1) + 1 : 0;
  span_.start_s = now_s();
}

double Tracer::Scope::end() {
  if (open_) {
    span_.end_s = now_s();
    open_ = false;
    if (tracer_) tracer_->record(span_);
  }
  return span_.seconds();
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

double Tracer::total(std::string_view name, int group) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.group == group && s.name == name) sum += s.seconds();
  }
  return sum;
}

std::string Tracer::chrome_json() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    all = spans_;
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_s != b.start_s ? a.start_s < b.start_s : a.id < b.id;
  });
  const double epoch = all.empty() ? 0 : all.front().start_s;
  std::vector<std::string> events;
  events.reserve(all.size());
  for (const Span& s : all) {
    events.push_back(
        repro::common::JsonObject()
            .field("name", s.name)
            .field("cat", "bench_pipeline")
            .field("ph", "X")
            .field("pid", 0)
            .field("tid", s.worker)
            .field("ts", (s.start_s - epoch) * 1e6)
            .field("dur", s.seconds() * 1e6)
            .field_raw("args", repro::common::JsonObject()
                                   .field("id", s.id)
                                   .field("parent", s.parent)
                                   .field("group", s.group)
                                   .str())
            .str());
  }
  return repro::common::JsonObject()
      .field("displayTimeUnit", "ms")
      .field_raw("traceEvents", repro::common::json_array(events))
      .str();
}

}  // namespace bench_pipeline
