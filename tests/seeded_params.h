#ifndef SHARDCHAIN_TESTS_SEEDED_PARAMS_H_
#define SHARDCHAIN_TESTS_SEEDED_PARAMS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "core/unification.h"

namespace shardchain {

/// Seeded workloads for the games, shared by the golden digest pins
/// and the parallel equivalence suite: shard sizes straddling L, a
/// skewed fee vector, and a seed-derived randomness. The Monte-Carlo
/// load is small so twenty seeds at six thread counts stay fast.
inline UnifiedParameters ParamsForSeed(uint64_t seed) {
  Rng rng(seed);
  UnifiedParameters params;
  params.randomness = Sha256Digest("parallel.eq." + std::to_string(seed));
  const size_t shards = 3 + rng.UniformInt(10);
  for (size_t s = 0; s < shards; ++s) {
    params.shard_sizes.push_back(1 + rng.UniformInt(
        params.merge_config.min_shard_size));
  }
  const size_t txs = 20 + rng.UniformInt(120);
  for (size_t t = 0; t < txs; ++t) {
    params.tx_fees.push_back(static_cast<Amount>(1 + rng.Zipf(50, 1.1)));
  }
  params.num_miners = 2 + rng.UniformInt(10);
  params.select_config.capacity = 5;
  params.merge_config.subslots = 16;
  params.merge_config.max_slots = 60;
  return params;
}

}  // namespace shardchain

#endif  // SHARDCHAIN_TESTS_SEEDED_PARAMS_H_
