// In-memory span recorder for the traced benchmark pass.
//
// The benchmark times its own calls into each layer's public functions;
// nothing inside the program is instrumented. A span has a name, start
// and end (steady clock, seconds), the span that caused it, the pool
// worker that ran it, and a group id shared by every span of one LOO
// rep or one request. Spans are kept in memory and written out as a
// Chrome trace when the run ends.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bench_pipeline {

/// Monotonic seconds (steady_clock).
double now_s();

struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 for a root
  int worker = 0;   ///< common::current_worker_id() of the recording thread
  int group = 0;    ///< shared by the spans of one rep / request

  double seconds() const { return end_s - start_s; }
};

class Tracer {
 public:
  /// Records one span over its lifetime; a null tracer records nothing,
  /// so traced and untraced callers share one code path.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, int parent, int group);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int id() const { return span_.id; }
    /// Closes the span early; returns its duration.
    double end();

   private:
    Tracer* tracer_;
    Span span_;
    bool open_ = true;
  };

  int next_group() { return next_group_.fetch_add(1) + 1; }

  /// Sum of the durations of the spans called `name` in `group`.
  double total(std::string_view name, int group) const;
  /// Chrome trace-event JSON ("X" events, microseconds from the first
  /// span; args carry id, parent and group).
  std::string chrome_json() const;

 private:
  void record(Span span);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<int> next_id_{0};
  std::atomic<int> next_group_{0};
};

}  // namespace bench_pipeline
