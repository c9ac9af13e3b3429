#ifndef SHARDCHAIN_PARALLEL_PARALLEL_H_
#define SHARDCHAIN_PARALLEL_PARALLEL_H_

#include <algorithm>
#include <cstddef>

#include "parallel/thread_pool.h"

namespace shardchain {

/// \brief Deterministic data-parallel primitives (DESIGN.md §9).
///
/// The determinism contract every helper here honours:
///
///   1. FIXED CHUNKING — chunk boundaries are a function of (n, grain)
///      only, never of the thread count. Chunk c covers
///      [c*grain, min(n, (c+1)*grain)).
///   2. DISJOINT WRITES — a chunk may only write state no other chunk
///      touches (its own output slots / its own partial accumulator).
///   3. ORDERED REDUCTION — per-chunk results are combined serially in
///      chunk order on the calling thread, never in completion order.
///   4. PER-CHUNK SEEDING — randomized chunk work derives its RNG
///      stream from ChunkSeed(base, index) (common/rng.h), never from a
///      shared sequential generator.
///
/// Under these rules the pool's scheduling freedom (which thread runs
/// which chunk, in what order) cannot leak into any result byte.

/// Number of fixed-size chunks covering n items.
inline size_t NumChunks(size_t n, size_t grain) {
  const size_t g = grain == 0 ? 1 : grain;
  return (n + g - 1) / g;
}

/// Runs `body(begin, end, chunk)` over the fixed chunk decomposition of
/// [0, n). `pool == nullptr` (or a single-thread pool, or a nested
/// call) runs the identical chunks serially in chunk order.
// flowlint: contract-barrier — certified §9 boundary; taints inside the
// primitives (ThreadPool's hardware_concurrency read) stay inside.
template <typename Body>
void ParallelChunks(ThreadPool* pool, size_t n, size_t grain,
                    const Body& body) {
  if (n == 0) return;
  const size_t g = grain == 0 ? 1 : grain;
  const size_t chunks = NumChunks(n, g);
  if (pool == nullptr || pool->thread_count() <= 1 || chunks <= 1 ||
      ThreadPool::InParallelRegion()) {
    for (size_t c = 0; c < chunks; ++c) {
      body(c * g, std::min(n, (c + 1) * g), c);
    }
    return;
  }
  pool->Run(chunks, [&body, g, n](size_t c) {
    body(c * g, std::min(n, (c + 1) * g), c);
  });
}

/// Element-wise parallel loop: `body(i)` for i in [0, n). The body must
/// only write state owned by element i.
// flowlint: contract-barrier — certified §9 boundary (see ParallelChunks)
template <typename Body>
void ParallelFor(ThreadPool* pool, size_t n, size_t grain, const Body& body) {
  ParallelChunks(pool, n, grain,
                 [&body](size_t begin, size_t end, size_t) {
                   for (size_t i = begin; i < end; ++i) body(i);
                 });
}

}  // namespace shardchain

#endif  // SHARDCHAIN_PARALLEL_PARALLEL_H_
