#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>

#if defined(__linux__)
#include <sched.h>
#endif

namespace repro::common {

namespace {

/// True on threads currently executing a parallel_for chunk; nested
/// parallel_for calls detect this and run inline.
thread_local bool t_in_parallel_region = false;

/// Pool worker index of this thread; 0 for the caller / non-pool threads.
thread_local int t_worker_id = 0;

int env_threads() {
  if (const char* s = std::getenv("REPRO_THREADS")) {
    const long v = std::strtol(s, nullptr, 10);
    if (v > 0) return static_cast<int>(std::min(v, 1024L));
  }
  return 0;
}

int default_threads() {
  if (const int n = env_threads(); n > 0) return n;
  return usable_cpus();
}

}  // namespace

int usable_cpus() {
#if defined(__linux__)
  // The affinity mask is what the scheduler will actually give us:
  // container cpusets and taskset pins shrink it while
  // hardware_concurrency() keeps reporting the whole machine.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

struct ThreadPool::State {
  std::mutex mutex;
  std::condition_variable work_cv;  ///< workers wait for a new generation
  std::condition_variable done_cv;  ///< caller waits for chunk completion

  // Current job; a worker runs chunk `worker_index` of the job whenever
  // generation differs from the generation it last completed. The caller
  // never starts a new job before every chunk of the previous one is done,
  // so (generation, body, n, num_chunks) are stable while workers run.
  std::uint64_t generation = 0;
  const std::function<void(std::int64_t)>* body = nullptr;
  const CancelToken* cancel = nullptr;
  std::int64_t n = 0;
  int num_chunks = 0;
  int chunks_done = 0;
  std::exception_ptr first_error;
  bool shutdown = false;
};

namespace {

/// Chunk c of [0, n) over k chunks: contiguous, deterministic, balanced.
std::pair<std::int64_t, std::int64_t> chunk_range(std::int64_t n, int k,
                                                  int c) {
  const std::int64_t lo = n * c / k;
  const std::int64_t hi = n * (c + 1) / k;
  return {lo, hi};
}

void run_chunk(ThreadPool::State& st, int chunk) {
  // With a grain-limited chunk count, workers past the last chunk have
  // nothing to do this generation (they still report completion).
  if (chunk >= st.num_chunks) return;
  const auto [lo, hi] = chunk_range(st.n, st.num_chunks, chunk);
  t_in_parallel_region = true;
  try {
    for (std::int64_t i = lo; i < hi; ++i) {
      // Cooperative cancellation: checked *between* bodies only, so an
      // index either runs to completion or never starts.
      if (st.cancel && st.cancel->cancelled()) break;
      (*st.body)(i);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(st.mutex);
    if (!st.first_error) st.first_error = std::current_exception();
  }
  t_in_parallel_region = false;
}

}  // namespace

ScopedInline::ScopedInline() : prev_(t_in_parallel_region) {
  t_in_parallel_region = true;
}

ScopedInline::~ScopedInline() { t_in_parallel_region = prev_; }

ThreadPool::ThreadPool(int num_threads) : state_(std::make_unique<State>()) {
  int n = num_threads > 0 ? num_threads : default_threads();
  n = std::clamp(n, 1, 1024);
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int w = 1; w < n; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->shutdown = true;
  }
  state_->work_cv.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop(int worker_index) {
  t_worker_id = worker_index;
  State& st = *state_;
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(st.mutex);
      st.work_cv.wait(lock, [&] {
        return st.shutdown || st.generation != seen_generation;
      });
      if (st.shutdown) return;
      seen_generation = st.generation;
    }
    run_chunk(st, worker_index);
    {
      std::lock_guard<std::mutex> lock(st.mutex);
      ++st.chunks_done;
    }
    st.done_cv.notify_one();
  }
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& body,
                              const CancelToken* cancel,
                              std::int64_t grain) {
  if (n <= 0) return;
  grain = std::max<std::int64_t>(1, grain);
  // At most one chunk per `grain` indices, never more than the pool has
  // threads; a single chunk runs inline below.
  const int max_chunks =
      static_cast<int>(std::min<std::int64_t>(n / grain > 0 ? n / grain : 1,
                                              num_threads()));
  // Inline fallback: single-threaded pool, nested call, or a loop too
  // small to be worth a wakeup. The cutoff only skips dispatch overhead;
  // results are identical either way.
  if (workers_.empty() || t_in_parallel_region || n < 2 || max_chunks < 2) {
    const bool was_nested = t_in_parallel_region;
    t_in_parallel_region = true;
    try {
      for (std::int64_t i = 0; i < n; ++i) {
        if (cancel && cancel->cancelled()) break;
        body(i);
      }
    } catch (...) {
      t_in_parallel_region = was_nested;
      throw;
    }
    t_in_parallel_region = was_nested;
    return;
  }

  State& st = *state_;
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    st.body = &body;
    st.cancel = cancel;
    st.n = n;
    st.num_chunks = max_chunks;
    st.chunks_done = 0;
    st.first_error = nullptr;
    ++st.generation;
  }
  st.work_cv.notify_all();

  run_chunk(st, 0);  // the caller executes chunk 0

  // Every pool worker reports completion each generation, including the
  // ones past the last grain-limited chunk (their run_chunk is a no-op).
  const int expected_done = num_threads() - 1;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(st.mutex);
    st.done_cv.wait(lock,
                    [&] { return st.chunks_done == expected_done; });
    st.body = nullptr;
    st.cancel = nullptr;
    error = st.first_error;
  }
  if (error) std::rethrow_exception(error);
}

int configured_threads() {
  return default_threads();
}

int current_worker_id() { return t_worker_id; }

bool in_parallel_region() { return t_in_parallel_region; }

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>();
  return *g_pool;
}

void set_global_threads(int num_threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool = std::make_unique<ThreadPool>(num_threads);
}

}  // namespace repro::common
