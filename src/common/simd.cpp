#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>

namespace repro::common::simd {

namespace {

/// -1 = unresolved; otherwise a Level value. Relaxed atomics: dispatch
/// resolution is idempotent, so a racing first call at worst resolves
/// twice to the same value.
std::atomic<int> g_level{-1};

Level clamp_to_supported(Level l) {
  return l > max_supported() ? max_supported() : l;
}

Level resolve_from_env() {
  if (const char* s = std::getenv("REPRO_SIMD")) {
    if (const auto l = parse_level(s)) return clamp_to_supported(*l);
  }
  return max_supported();
}

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

std::optional<Level> parse_level(std::string_view s) {
  if (s == "scalar") return Level::kScalar;
  if (s == "avx2") return Level::kAvx2;
  return std::nullopt;  // "auto", "", typos: resolve from hardware
}

Level max_supported() {
#if defined(REPRO_SIMD_X86) && defined(__GNUC__)
  static const Level supported =
      __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kScalar;
  return supported;
#else
  return Level::kScalar;
#endif
}

Level active() {
  const int v = g_level.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Level>(v);
  const Level resolved = resolve_from_env();
  g_level.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return resolved;
}

void set_level(Level level) {
  g_level.store(static_cast<int>(clamp_to_supported(level)),
                std::memory_order_relaxed);
}

#if defined(REPRO_SIMD_X86)

const std::uint32_t (&compress8_table())[256][8] {
  static const auto& table = *[] {
    static std::uint32_t t[256][8];
    for (int m = 0; m < 256; ++m) {
      int k = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if (m & (1 << lane)) t[m][k++] = static_cast<std::uint32_t>(lane);
      }
      for (; k < 8; ++k) t[m][k] = 0;
    }
    return &t;
  }();
  return table;
}

#endif  // REPRO_SIMD_X86

}  // namespace repro::common::simd
