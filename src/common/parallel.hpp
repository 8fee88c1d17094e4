// Deterministic data-parallel execution layer.
//
// A fixed pool of worker threads with *static* index partitioning: a
// parallel_for over [0, n) is split into num_threads() contiguous chunks,
// chunk w always covering the same index range for a given (n, threads).
// There is no work stealing, so which indices a worker executes is a pure
// function of the iteration count — determinism then only requires that
// the loop body be a pure function of its index (per-index RNG seeds,
// per-index output slots), which is how every caller in this repo is
// written. Results are bit-identical at any thread count, including 1.
//
// Nesting: a parallel_for issued from inside a worker runs its body
// inline (serially) on the calling worker. This keeps the pool deadlock
// free with a fixed thread count and costs nothing in determinism, since
// bodies are index-pure either way.
//
// Thread count resolution, in priority order:
//   1. set_global_threads(n) (split_attack --threads, tests)
//   2. the REPRO_THREADS environment variable
//   3. usable_cpus() — the cpuset-aware affinity mask size, NOT
//      hardware_concurrency(), which reports the machine's core count
//      even when the process is pinned to a fraction of it (containers,
//      taskset, cgroup cpusets). Benches use usable_cpus() to tell real
//      scaling headroom from oversubscription.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cancel.hpp"

namespace repro::common {

/// SplitMix64 scrambler; used to derive statistically independent child
/// seeds from (seed, index) pairs without sequential RNG draws.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The seed for the index-th independent task of a job seeded with `seed`
/// (tree index, fold index, ...). Mixing the index through splitmix64
/// decorrelates neighbouring indices; xoring with the job seed keeps
/// distinct jobs distinct.
constexpr std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  return splitmix64(seed ^ splitmix64(index + 1));
}

/// FNV-1a over a short name; constexpr so stream ids can be compile-time
/// constants.
constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// The seed for the *named* independent RNG stream of a job seeded with
/// `seed` ("attack.test.targets", "sampling.negatives", ...). Built on
/// derive_seed with the name hash as the stream index, so every consumer
/// that derives through a distinct name gets a stream decorrelated both
/// from other named streams and from the numbered per-task streams
/// (per-tree, per-fold). This replaces ad-hoc `seed * prime + c`
/// derivations, which collide across nearby seeds (seed*7927+3 for one
/// consumer meets seed'*1000003+17 of another for many (seed, seed')).
constexpr std::uint64_t derive_stream(std::uint64_t seed,
                                      std::string_view name) {
  return derive_seed(seed, fnv1a64(name));
}

class ThreadPool {
 public:
  /// num_threads <= 0 selects the REPRO_THREADS / hardware default.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total number of executing threads (workers + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Calls body(i) for every i in [0, n), partitioned statically across
  /// the pool; the calling thread executes chunk 0 and blocks until all
  /// chunks finish. The first exception thrown by any chunk is rethrown
  /// on the caller. Runs inline when n is small, the pool is size 1, or
  /// the caller is itself a pool worker (see nesting note above).
  ///
  /// `cancel` (optional) makes the region cooperative: every worker
  /// polls the token between indices and stops issuing new bodies once
  /// it is set. Cancellation is per-index atomic — an index either ran
  /// its body to completion or was never started, so each output slot is
  /// fully written or untouched — but *which* indices ran before the
  /// token was observed depends on timing; callers must treat the
  /// region's output as partial after a cancelled run (and, in this
  /// repo, discard it rather than checkpoint it).
  ///
  /// `grain` (optional, >= 1) is the minimum number of indices worth
  /// waking a worker for: the loop is cut into at most n / grain chunks
  /// (never more than the pool size, always at least 1). Small loops over
  /// expensive bodies — 50 trees across 8 workers — would otherwise be
  /// sliced into pool-size cold chunks whose per-chunk wakeup, cache
  /// warmup, and allocator contention exceed the win from spreading the
  /// work. Chunking is still a pure function of (n, grain, pool size),
  /// and bodies are index-pure, so results are bit-identical for any
  /// grain; only the schedule changes.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t)>& body,
                    const CancelToken* cancel = nullptr,
                    std::int64_t grain = 1);

  struct State;  ///< implementation detail, defined in parallel.cpp

 private:
  void worker_loop(int worker_index);

  std::unique_ptr<State> state_;
  std::vector<std::thread> workers_;
};

/// Forces every parallel_for issued from the calling thread to run
/// inline (serially, on this thread) for the guard's lifetime, by
/// marking the thread as already inside a parallel region.
///
/// This is the bridge between the pool's single-caller contract and
/// servers that handle requests on their own threads: parallel_for's
/// job-state protocol supports one external caller at a time, so N
/// handler threads entering the pool concurrently would race. Each
/// handler instead holds a ScopedInline and computes serially —
/// concurrency comes from the handler threads themselves, and results
/// stay bit-identical because bodies are index-pure (inline execution
/// is the pool's own nested-region fallback).
class ScopedInline {
 public:
  ScopedInline();
  ~ScopedInline();
  ScopedInline(const ScopedInline&) = delete;
  ScopedInline& operator=(const ScopedInline&) = delete;

 private:
  bool prev_ = false;
};

/// True while the calling thread runs a parallel_for body or holds a
/// ScopedInline: a parallel_for issued now would run inline. A caller
/// that sees false owns the pool for its next region.
bool in_parallel_region();

/// Thread count the global pool would use right now (>= 1).
int configured_threads();

/// CPUs this process may actually run on (>= 1): the scheduler affinity
/// mask size where available (Linux sched_getaffinity — respects cgroup
/// cpusets, taskset, and container CPU pinning), otherwise
/// hardware_concurrency(). Thread counts above this value timeshare
/// cores instead of adding parallelism.
int usable_cpus();

/// Pool worker index of the calling thread: 0 for the thread that issues
/// parallel_for (and for any thread outside the pool), 1..N-1 for pool
/// workers. Stable for a thread's whole life, so it doubles as the
/// deterministic track id of the observability layer's trace merge.
int current_worker_id();

/// The process-wide pool, created on first use with configured_threads().
ThreadPool& global_pool();

/// Resizes the global pool (0 = auto from REPRO_THREADS / hardware).
/// Must not be called from inside a parallel region.
void set_global_threads(int num_threads);

/// parallel_for over the global pool.
inline void parallel_for(std::int64_t n,
                         const std::function<void(std::int64_t)>& body,
                         const CancelToken* cancel = nullptr,
                         std::int64_t grain = 1) {
  global_pool().parallel_for(n, body, cancel, grain);
}

/// Maps fn over [0, n) into a vector, in parallel; out[i] = fn(i).
/// T must be default-constructible (use std::optional otherwise).
/// With a cancel token, slots whose index was skipped stay
/// default-constructed (see the parallel_for cancellation contract).
template <class T, class Fn>
std::vector<T> parallel_map(std::int64_t n, Fn&& fn,
                            const CancelToken* cancel = nullptr,
                            std::int64_t grain = 1) {
  std::vector<T> out(static_cast<std::size_t>(n));
  parallel_for(
      n,
      [&](std::int64_t i) { out[static_cast<std::size_t>(i)] = fn(i); },
      cancel, grain);
  return out;
}

}  // namespace repro::common
