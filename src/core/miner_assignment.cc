#include "core/miner_assignment.h"

#include <algorithm>
#include <cassert>

namespace shardchain {

Result<size_t> ElectLeader(const std::vector<LeaderCandidate>& candidates,
                           const Hash256& seed) {
  Result<std::vector<size_t>> ranked = RankCandidates(candidates, seed);
  if (!ranked.ok()) return ranked.status();
  return ranked->front();
}

Result<std::vector<size_t>> RankCandidates(
    const std::vector<LeaderCandidate>& candidates, const Hash256& seed) {
  std::vector<size_t> ranked;
  ranked.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (VrfVerify(candidates[i].public_key, seed, candidates[i].vrf)) {
      ranked.push_back(i);
    }
  }
  if (ranked.empty()) {
    return Status::NotFound("no candidate with a valid VRF proof");
  }
  std::stable_sort(ranked.begin(), ranked.end(), [&](size_t a, size_t b) {
    return VrfTicket(candidates[a].vrf.value) <
           VrfTicket(candidates[b].vrf.value);
  });
  return ranked;
}

uint32_t RandHoundDraw(const Hash256& randomness, const Hash256& miner_id) {
  Sha256 h;
  h.Update("shardchain.randhound.v1");
  h.Update(randomness.bytes.data(), randomness.bytes.size());
  h.Update(miner_id.bytes.data(), miner_id.bytes.size());
  return 1 + static_cast<uint32_t>(h.Finalize().Prefix64() % 100);
}

ShardId ShardForDraw(uint32_t draw, const std::vector<double>& fractions) {
  assert(draw >= 1 && draw <= 100);
  double cumulative = 0.0;
  for (size_t s = 0; s < fractions.size(); ++s) {
    cumulative += fractions[s];
    if (static_cast<double>(draw) <= cumulative + 1e-9) {
      return static_cast<ShardId>(s);
    }
  }
  // Rounding in the fractions may leave the last sliver of [1, 100]
  // uncovered; it belongs to the final shard.
  return fractions.empty() ? kMaxShardId
                           : static_cast<ShardId>(fractions.size() - 1);
}

ShardId AssignShard(const Hash256& randomness, const Hash256& miner_id,
                    const std::vector<double>& fractions) {
  return ShardForDraw(RandHoundDraw(randomness, miner_id), fractions);
}

Status VerifyShardMembership(const Hash256& randomness,
                             const Hash256& miner_id,
                             const std::vector<double>& fractions,
                             ShardId claimed) {
  const ShardId expected = AssignShard(randomness, miner_id, fractions);
  if (expected != claimed) {
    return Status::Unauthorized("miner claims shard " +
                                std::to_string(claimed) + " but derives to " +
                                std::to_string(expected));
  }
  return Status::OK();
}

std::vector<ShardId> AssignAllMiners(const Hash256& randomness,
                                     const std::vector<Hash256>& miner_ids,
                                     const std::vector<double>& fractions,
                                     Network* net) {
  std::vector<ShardId> out;
  out.reserve(miner_ids.size());
  for (size_t i = 0; i < miner_ids.size(); ++i) {
    const ShardId shard = AssignShard(randomness, miner_ids[i], fractions);
    out.push_back(shard);
    if (net != nullptr) net->Register(static_cast<NodeId>(i), shard);
  }
  return out;
}

}  // namespace shardchain
