// Cooperative cancellation and resource budgets for long campaigns.
//
// A CancelToken is a shared flag that long-running phases poll at safe
// points (between parallel-loop indices, between RRR iterations, between
// LOO folds). Setting it never interrupts a computation mid-expression:
// work units that already started finish normally, later ones are
// skipped, so every output slot is either fully computed or untouched —
// the invariant that makes checkpoint flushing after cancellation safe.
//
// request_cancel() is async-signal-safe (a relaxed atomic store), so the
// SIGINT/SIGTERM handler install_stop_signals() sets up can call it
// directly; the human-readable reason is attached from normal context
// only.
//
// A Budget bounds a run by wall-clock deadline and/or peak RSS. It is
// *checked*, not enforced: callers ask `pressure()` at phase boundaries
// and decide what to shed (see core::RunControl's degradation ladder).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace repro::common {

class CancelToken {
 public:
  /// Signal-safe: a relaxed store. May be called from any thread or from
  /// an asynchronous signal handler.
  void request_cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Normal-context variant that also records why (first reason wins).
  void request_cancel(const std::string& reason);

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Reason attached by the normal-context request_cancel, if any
  /// ("deadline exceeded", "SIGINT", ...). Serial use only.
  const std::string& reason() const { return reason_; }

  /// Re-arms the token (tests, consecutive runs in one process).
  void reset();

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_reason_{false};
  std::string reason_;
};

/// The process-wide token that signal handlers flip; tools thread it
/// into their RunControl so ^C unwinds through the same cooperative
/// path as a deadline.
CancelToken& global_cancel_token();

/// Routes SIGINT and SIGTERM to global_cancel_token(): a signal requests
/// the same cooperative stop as an exhausted budget, and the tool
/// unwinds at its next safe point.
void install_stop_signals();

/// How hard a budget is being pressed at a checkpoint.
enum class BudgetPressure {
  kNone = 0,   ///< plenty of budget left
  kSoft,       ///< past the soft fraction: start shedding accuracy
  kHard,       ///< past the hard fraction: shed aggressively
  kExceeded,   ///< budget gone: stop and flush
};

const char* to_string(BudgetPressure p);

/// Wall-clock / memory budget, armed once at run start.
class Budget {
 public:
  /// deadline_s <= 0 and max_rss_mb <= 0 disable the respective limit.
  Budget(double deadline_s, long max_rss_mb);
  virtual ~Budget() = default;

  bool unlimited() const { return deadline_s_ <= 0 && max_rss_mb_ <= 0; }
  double deadline_s() const { return deadline_s_; }
  long max_rss_mb() const { return max_rss_mb_; }
  double elapsed_s() const;

  /// Worst pressure across the armed limits. Deadline pressure uses the
  /// elapsed fraction (soft 0.6, hard 0.8, exceeded 1.0); RSS pressure
  /// uses the same fractions of max_rss_mb. Virtual so that a test can
  /// script the pressure a run meets at each of its reads.
  virtual BudgetPressure pressure() const;

 private:
  double deadline_s_ = 0;
  long max_rss_mb_ = 0;
  double start_s_ = 0;
};

/// Resident-set size of this process in MiB (Linux /proc/self/statm);
/// 0 when unavailable.
long current_rss_mb();

}  // namespace repro::common
