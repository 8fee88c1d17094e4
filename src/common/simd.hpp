// SIMD portability shim: compile-time capability detection, runtime
// dispatch, and the shared left-packing helpers of the vectorized
// kernels (FlatForest::predict_batch, CandidateIndex scans).
//
// Contract: every kernel in this repo that dispatches through
// simd::active() computes the EXACT same arithmetic at every level —
// the same double-precision subtractions, |x| via sign-bit clear,
// ordered < / <= comparisons (NaN compares false, selecting the same
// branch the scalar ternary selects) and the same accumulation order.
// Vector width changes which lanes are computed together, never what
// is computed, so AttackResult digests are bit-identical across
// scalar / AVX2 and across thread counts. The differential tests in
// tests/test_simd.cpp and scripts/check_simd.sh enforce this by running
// the same inputs under every forced level.
//
// There are two levels. kScalar is the reference code every kernel
// starts from; kAvx2 is the one vector tier whose kernels measurably beat
// it (DESIGN.md section 8.2).
//
// Dispatch resolution, in priority order:
//   1. set_level(l) (tests, benches) — clamped to max_supported()
//   2. the REPRO_SIMD environment variable: scalar | avx2 | auto
//   3. max_supported(): kAvx2 when both compiled in (x86) and reported
//      by the CPU (cpuid via __builtin_cpu_supports), else kScalar
//
// Non-x86 builds compile the scalar fallback only; REPRO_SIMD=avx2
// clamps down to scalar there instead of failing, so the same scripts
// run everywhere.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#define REPRO_SIMD_X86 1
#include <immintrin.h>
#endif

namespace repro::common::simd {

/// Instruction-set tiers the kernels are specialized for, ordered so
/// numeric comparison means capability comparison.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
};

const char* to_string(Level level);

/// Parses a REPRO_SIMD value. "scalar" / "avx2" map to their levels;
/// "auto" (and "") mean resolve-from-hardware and return nullopt;
/// anything else (a typo, or the retired "sse2") also returns nullopt,
/// so callers fall back to auto rather than aborting a run.
std::optional<Level> parse_level(std::string_view s);

/// Strongest level this binary can execute here: compile-target support
/// AND a runtime cpuid check, cached after the first call.
Level max_supported();

/// The level kernels dispatch on right now. Resolved once from
/// REPRO_SIMD (clamped to max_supported()) on first use; subsequent
/// set_level calls override it.
Level active();

/// Forces the dispatch level (clamped to max_supported()). Tests and
/// benches use this to run the same kernel at every level in-process.
void set_level(Level level);

#if defined(REPRO_SIMD_X86)

/// Left-packing permutation table for 8-lane i32 compress-emit: row m
/// lists, in ascending lane order, the lanes whose bit is set in m,
/// padded with zeros. Used with _mm256_permutevar8x32_epi32 to store
/// the admitted candidate ids of an 8-wide scan contiguously
/// (the cursor then advances by popcount(m)).
const std::uint32_t (&compress8_table())[256][8];

#endif  // REPRO_SIMD_X86

}  // namespace repro::common::simd
