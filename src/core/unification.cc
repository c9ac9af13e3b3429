#include "core/unification.h"

#include <algorithm>
#include <cassert>

#include "common/rng.h"

namespace shardchain {

uint64_t UnifiedParameters::SeedFor(const char* domain) const {
  Sha256 h;
  h.Update("shardchain.unified.v1");
  h.Update(domain);
  h.Update(randomness.bytes.data(), randomness.bytes.size());
  return h.Finalize().Prefix64();
}

IterativeMergeResult ComputeMergePlan(const UnifiedParameters& params) {
  Rng rng(params.SeedFor("merge"));
  return RunIterativeMerge(params.shard_sizes, params.merge_config, &rng);
}

SelectionResult ComputeSelectionPlan(const UnifiedParameters& params) {
  Rng rng(params.SeedFor("select"));
  return RunSelectionGame(params.tx_fees, params.num_miners,
                          params.select_config, &rng);
}

Status VerifySelection(const UnifiedParameters& params, size_t miner_index,
                       const std::vector<size_t>& claimed_set) {
  if (miner_index >= params.num_miners) {
    return Status::InvalidArgument("miner index out of range");
  }
  const SelectionResult plan = ComputeSelectionPlan(params);
  std::vector<size_t> claimed = claimed_set;
  std::sort(claimed.begin(), claimed.end());
  if (plan.assignment[miner_index] != claimed) {
    return Status::Unauthorized(
        "miner's transaction set deviates from the unified assignment");
  }
  return Status::OK();
}

Status VerifyMergeGroup(const UnifiedParameters& params,
                        const std::vector<size_t>& claimed_group) {
  const IterativeMergeResult plan = ComputeMergePlan(params);
  std::vector<size_t> claimed = claimed_group;
  std::sort(claimed.begin(), claimed.end());
  for (const std::vector<size_t>& group : plan.new_shards) {
    std::vector<size_t> expected = group;
    std::sort(expected.begin(), expected.end());
    if (expected == claimed) return Status::OK();
  }
  return Status::Unauthorized(
      "claimed merge group is not part of the unified merge plan");
}

uint64_t RunUnificationRound(Network* net, NodeId leader,
                             const std::vector<NodeId>& shard_reps) {
  assert(net != nullptr);
  const uint64_t before = net->CoordinationMessages();
  for (NodeId rep : shard_reps) {
    if (rep != leader) net->Send(rep, leader, MsgKind::kLeaderStat);
  }
  for (NodeId rep : shard_reps) {
    if (rep != leader) net->Send(leader, rep, MsgKind::kLeaderBroadcast);
  }
  return net->CoordinationMessages() - before;
}

uint64_t RunGossipIterations(Network* net, const std::vector<NodeId>& players,
                             size_t iterations) {
  assert(net != nullptr);
  const uint64_t before = net->CoordinationMessages();
  for (size_t it = 0; it < iterations; ++it) {
    for (NodeId a : players) {
      for (NodeId b : players) {
        if (a != b) net->Send(a, b, MsgKind::kGameGossip);
      }
    }
  }
  return net->CoordinationMessages() - before;
}

}  // namespace shardchain
