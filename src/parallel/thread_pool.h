#ifndef SHARDCHAIN_PARALLEL_THREAD_POOL_H_
#define SHARDCHAIN_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace shardchain {

/// \brief How much parallelism a component may use. This is a *local
/// performance knob*, never consensus data: two miners running with
/// different thread counts must still produce byte-identical plans
/// (see DESIGN.md §9), so ParallelConfig is deliberately absent from
/// every codec and every UnifiedParameters field.
struct ParallelConfig {
  /// Total threads in a parallel region (workers plus the calling
  /// thread). 1, the default, is strictly serial: no pool is created
  /// and ParallelFor is the plain loop; 0 reads as 1.
  size_t threads = 1;
};

/// \brief A deterministic fork-join thread pool.
///
/// Deliberately work-stealing-free: a parallel region is a fixed list
/// of tasks [0, num_chunks) and idle threads claim the next index from
/// a shared cursor. WHICH thread runs an index is scheduler-dependent,
/// but because ParallelFor (parallel.h) lets index i write only its own
/// slot, WHAT each index computes is not. Results are therefore
/// independent of thread count and scheduling, which is what lets the
/// consensus-critical VRF batch use this pool at all (Sec. IV-C
/// requires every miner to recompute the epoch bit-identically).
///
/// The pool owns `threads - 1` workers; the thread calling Run()
/// participates as the final lane, so `ThreadPool(1)` spawns nothing
/// and runs the indices inline — bitwise identical to the pool-free
/// loop.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (clamped so `threads == 0` behaves
  /// like 1). The pool is reusable across any number of Run() calls.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers + the calling thread.
  size_t thread_count() const { return workers_.size() + 1; }

  /// Runs `chunk_fn(c)` for every c in [0, num_chunks), distributing
  /// chunks over the workers and the calling thread. Blocks until every
  /// chunk completed. If any chunk throws, the first exception is
  /// rethrown on the calling thread after the region drains (remaining
  /// unstarted chunks are skipped).
  ///
  /// Calls from inside a parallel region (nested parallelism) execute
  /// the chunks serially inline — same results, no deadlock.
  void Run(size_t num_chunks, const std::function<void(size_t)>& chunk_fn);

  /// True while the current thread is executing a chunk of some
  /// parallel region (used by the nested-region serial fallback).
  static bool InParallelRegion();

 private:
  void WorkerLoop();
  /// Claims and executes chunks of the current job until the cursor is
  /// exhausted; records the first exception and fast-forwards the
  /// cursor on failure.
  void DrainChunks(const std::function<void(size_t)>& fn, size_t num_chunks);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  /// Incremented once per Run(); workers pick up a job when the
  /// generation moves past the one they last served.
  uint64_t generation_ = 0;
  size_t busy_workers_ = 0;
  const std::function<void(size_t)>* job_ = nullptr;
  size_t job_chunks_ = 0;
  std::exception_ptr first_error_;  // Guarded by mu_.

  std::atomic<size_t> next_chunk_{0};
};

}  // namespace shardchain

#endif  // SHARDCHAIN_PARALLEL_THREAD_POOL_H_
