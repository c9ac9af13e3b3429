#ifndef SHARDCHAIN_PARALLEL_PARALLEL_H_
#define SHARDCHAIN_PARALLEL_PARALLEL_H_

#include <cstddef>

#include "parallel/thread_pool.h"

namespace shardchain {

/// \brief The one data-parallel primitive (DESIGN.md §9): `body(i)` for
/// every i in [0, n), one index per pool task.
///
/// The contract is one rule: index i writes only its own slot. Which
/// thread runs an index, and when, then cannot reach any result byte.
/// `pool == nullptr` runs the plain loop; a one-thread pool or a call
/// nested inside another region runs the indices inline, in order.
///
/// flowlint resolves `pool->Run` by name to BlockPipeline::Run, so
/// without the barrier below every caller would carry its
/// effect:snapshot taint; the pool itself reads nothing nondeterministic.
// flowlint: contract-barrier — stops that name match at the primitive
// (ParallelFor's own summary entry reads effect:snapshot for it).
template <typename Body>
void ParallelFor(ThreadPool* pool, size_t n, const Body& body) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  pool->Run(n, body);
}

}  // namespace shardchain

#endif  // SHARDCHAIN_PARALLEL_PARALLEL_H_
