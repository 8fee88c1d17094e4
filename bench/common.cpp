#include "common.hpp"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>

namespace bench {

const std::vector<repro::synth::SynthDesign>& suite() {
  static const std::vector<repro::synth::SynthDesign> designs = [] {
    const double scale = repro::synth::scale_from_env();
    std::fprintf(stderr, "[bench] generating %zu designs (scale %.2f)...\n",
                 repro::synth::preset_names().size(), scale);
    auto d = repro::synth::generate_benchmark_suite(scale);
    std::fprintf(stderr, "[bench] suite ready\n");
    return d;
  }();
  return designs;
}

const repro::core::ChallengeSuite& challenges(int split_layer) {
  static std::map<int, std::unique_ptr<repro::core::ChallengeSuite>> cache;
  auto& slot = cache[split_layer];
  if (!slot) {
    slot = std::make_unique<repro::core::ChallengeSuite>(
        repro::core::make_suite(suite(), split_layer));
  }
  return *slot;
}

std::vector<std::string> design_names() {
  return repro::synth::preset_names();
}

repro::core::AttackConfig capped(const std::string& name, int cap) {
  repro::core::AttackConfig cfg = repro::core::config_from_name(name);
  cfg.max_test_vpins = cap;
  cfg.max_train_samples = 24000;
  return cfg;
}

std::string pct(double frac, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f%%", decimals, frac * 100.0);
  return buf;
}

std::string num(double v, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

void print_title(const std::string& title) {
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('=');
  std::putchar('\n');
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WallTimer::WallTimer() : start_(wall_seconds()) {}

void WallTimer::reset() { start_ = wall_seconds(); }

double WallTimer::elapsed_seconds() const { return wall_seconds() - start_; }

void PhaseTimers::add(const std::string& phase, double seconds) {
  for (auto& [name, s] : entries_) {
    if (name == phase) {
      s += seconds;
      return;
    }
  }
  entries_.emplace_back(phase, seconds);
}

double PhaseTimers::seconds(const std::string& phase) const {
  for (const auto& [name, s] : entries_) {
    if (name == phase) return s;
  }
  return 0.0;
}

double PhaseTimers::total_seconds() const {
  double total = 0;
  for (const auto& [name, s] : entries_) total += s;
  return total;
}

void PhaseTimers::print(const std::string& prefix) const {
  for (const auto& [name, s] : entries_) {
    std::printf("%s%-12s %8.3fs\n", prefix.c_str(), (name + ":").c_str(), s);
  }
}

}  // namespace bench
