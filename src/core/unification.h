#ifndef SHARDCHAIN_CORE_UNIFICATION_H_
#define SHARDCHAIN_CORE_UNIFICATION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/merging_game.h"
#include "core/selection_game.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "types/block.h"
#include "types/transaction.h"

namespace shardchain {

/// \brief The unified inputs a verifiable leader broadcasts so that
/// every miner runs Algorithms 1–3 locally and deterministically
/// (Sec. IV-C).
///
/// With identical inputs, every honest miner computes the identical
/// merge plan and transaction assignment. That kills two birds:
/// the per-iteration gossip of the games disappears (miners simulate
/// each other's moves locally), and cheating is detectable (a block
/// that deviates from the locally computed output is rejected).
struct UnifiedParameters {
  /// Leader-generated epoch randomness; seeds every derived RNG.
  Hash256 randomness;
  /// The shards set: small-shard sizes entering Algorithm 1.
  std::vector<uint64_t> shard_sizes;
  /// The transactions set: fees entering Algorithm 2.
  std::vector<Amount> tx_fees;
  /// The miners set (just its cardinality matters to the games).
  size_t num_miners = 0;
  /// Game parameters, also part of the broadcast.
  MergingGameConfig merge_config;
  SelectionGameConfig select_config;

  /// Deterministic RNG seed derived from the randomness and a domain
  /// label, so the two games use decorrelated streams.
  uint64_t SeedFor(const char* domain) const;
};

/// Every miner's local, deterministic computation of the merge plan —
/// identical outputs given identical parameters.
IterativeMergeResult ComputeMergePlan(const UnifiedParameters& params);

/// Every miner's local, deterministic computation of the transaction
/// assignment.
SelectionResult ComputeSelectionPlan(const UnifiedParameters& params);

/// Receive-side checks (Sec. IV-C): honest miners compare a peer's
/// behaviour against the locally computed output and reject liars.

/// Verifies that miner `miner_index` packing transactions `claimed_set`
/// (indices into tx_fees) matches the unified selection plan.
Status VerifySelection(const UnifiedParameters& params, size_t miner_index,
                       const std::vector<size_t>& claimed_set);

/// Verifies that the set of source shards `claimed_group` is one of the
/// new shards in the unified merge plan.
Status VerifyMergeGroup(const UnifiedParameters& params,
                        const std::vector<size_t>& claimed_group);

/// Performs the communication of one unification round on `net` and
/// returns the resulting coordination-message count: each shard's
/// representative submits its statistics to the leader, and the leader
/// broadcasts the unified parameters back — the constant "2
/// communication times per shard" of Fig. 4c.
///
/// `shard_reps` maps each shard to the NodeId speaking for it;
/// `leader` is the leader's NodeId. All nodes must be registered on
/// `net`.
uint64_t RunUnificationRound(Network* net, NodeId leader,
                             const std::vector<NodeId>& shard_reps);

/// Ablation arm: the traffic the games would generate WITHOUT
/// parameter unification — every player gossips its choice to every
/// other player each iteration ("miners need to exchange their choices
/// for several iterations", Sec. IV-C). Returns messages recorded.
uint64_t RunGossipIterations(Network* net, const std::vector<NodeId>& players,
                             size_t iterations);

}  // namespace shardchain

#endif  // SHARDCHAIN_CORE_UNIFICATION_H_
