#include "common/cancel.hpp"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>

#include "common/clock.hpp"

namespace repro::common {

namespace {

void handle_stop_signal(int) { global_cancel_token().request_cancel(); }

}  // namespace

void CancelToken::request_cancel(const std::string& reason) {
  // The reason is written before the flag is raised and only once, so
  // serial readers after cancellation observe a complete string.
  bool expected = false;
  if (has_reason_.compare_exchange_strong(expected, true,
                                          std::memory_order_relaxed)) {
    reason_ = reason;
  }
  cancelled_.store(true, std::memory_order_release);
}

void CancelToken::reset() {
  cancelled_.store(false, std::memory_order_relaxed);
  has_reason_.store(false, std::memory_order_relaxed);
  reason_.clear();
}

CancelToken& global_cancel_token() {
  static CancelToken token;
  return token;
}

void install_stop_signals() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

const char* to_string(BudgetPressure p) {
  switch (p) {
    case BudgetPressure::kNone: return "none";
    case BudgetPressure::kSoft: return "soft";
    case BudgetPressure::kHard: return "hard";
    case BudgetPressure::kExceeded: return "exceeded";
  }
  return "unknown";
}

Budget::Budget(double deadline_s, long max_rss_mb)
    : deadline_s_(deadline_s), max_rss_mb_(max_rss_mb),
      start_s_(steady_seconds()) {}

double Budget::elapsed_s() const { return steady_seconds() - start_s_; }

BudgetPressure Budget::pressure() const {
  const auto level = [](double used_frac) {
    if (used_frac >= 1.0) return BudgetPressure::kExceeded;
    if (used_frac >= 0.8) return BudgetPressure::kHard;
    if (used_frac >= 0.6) return BudgetPressure::kSoft;
    return BudgetPressure::kNone;
  };
  BudgetPressure worst = BudgetPressure::kNone;
  if (deadline_s_ > 0) {
    worst = std::max(worst, level(elapsed_s() / deadline_s_));
  }
  if (max_rss_mb_ > 0) {
    worst = std::max(worst, level(static_cast<double>(current_rss_mb()) /
                                  static_cast<double>(max_rss_mb_)));
  }
  return worst;
}

long current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  long size_pages = 0, rss_pages = 0;
  const int matched = std::fscanf(f, "%ld %ld", &size_pages, &rss_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return rss_pages * (page > 0 ? page : 4096) / (1024 * 1024);
}

}  // namespace repro::common
