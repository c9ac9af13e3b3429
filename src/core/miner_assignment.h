#ifndef SHARDCHAIN_CORE_MINER_ASSIGNMENT_H_
#define SHARDCHAIN_CORE_MINER_ASSIGNMENT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "crypto/vrf.h"
#include "net/network.h"
#include "types/block.h"

namespace shardchain {

/// \brief Miner-to-shard assignment (Sec. III-B).
///
/// A verifiable leader — the miner with the smallest VRF ticket on the
/// epoch seed — broadcasts the epoch randomness and the per-shard
/// transaction fractions β_i. Every miner then derives a RandHound-style
/// uniform draw r in [1, 100] from (randomness, her public key) and
/// joins shard s when r falls inside s's cumulative fraction band.
/// Anyone can re-derive the draw from public data, so cheating on shard
/// membership is detectable (the Sec. III-C receive-side check).

/// One candidate in the leader election.
struct LeaderCandidate {
  PublicKey public_key;
  VrfOutput vrf;
};

/// Elects the leader: the candidate with the smallest valid VRF ticket
/// on `seed`. Candidates with invalid proofs are skipped; fails if none
/// is valid.
Result<size_t> ElectLeader(const std::vector<LeaderCandidate>& candidates,
                           const Hash256& seed);

/// Full failover ranking: indices of every candidate with a valid VRF
/// proof on `seed`, ordered by ascending ticket (ties broken by index).
/// ranked[0] is the elected leader; ranked[v] is the leader of view v
/// after v view changes (see EpochManager::VerifyView). Fails if no
/// candidate is valid.
Result<std::vector<size_t>> RankCandidates(
    const std::vector<LeaderCandidate>& candidates, const Hash256& seed);

/// RandHound-lite: miners are "separated to 100 groups evenly"; returns
/// this miner's group, a deterministic uniform draw in [1, 100] from
/// the leader randomness and the miner's key fingerprint.
uint32_t RandHoundDraw(const Hash256& randomness, const Hash256& miner_id);

/// Maps a draw to the shard whose cumulative fraction band contains it.
/// `fractions` are percentages per ShardId (index 0 = MaxShard) summing
/// to ~100.
ShardId ShardForDraw(uint32_t draw, const std::vector<double>& fractions);

/// Full assignment for one miner.
ShardId AssignShard(const Hash256& randomness, const Hash256& miner_id,
                    const std::vector<double>& fractions);

/// The receive-side verification of Sec. III-C: checks a claimed
/// membership against the public randomness and fractions. Returns
/// Unauthorized if the claim does not re-derive.
Status VerifyShardMembership(const Hash256& randomness,
                             const Hash256& miner_id,
                             const std::vector<double>& fractions,
                             ShardId claimed);

/// Assigns a whole miner population and registers it on `net` (which
/// may be null). Returns per-miner shard ids, positionally aligned with
/// `miner_ids`; miner i is registered as NodeId(i).
std::vector<ShardId> AssignAllMiners(const Hash256& randomness,
                                     const std::vector<Hash256>& miner_ids,
                                     const std::vector<double>& fractions,
                                     Network* net);

}  // namespace shardchain

#endif  // SHARDCHAIN_CORE_MINER_ASSIGNMENT_H_
