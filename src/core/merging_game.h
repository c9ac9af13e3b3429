#ifndef SHARDCHAIN_CORE_MERGING_GAME_H_
#define SHARDCHAIN_CORE_MERGING_GAME_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace shardchain {

/// \brief Parameters of the inter-shard merging game (Sec. IV-A, V).
struct MergingGameConfig {
  /// L: the minimum size of a newly formed shard (Eq. 1). A shard of at
  /// least this many pending transactions keeps its miners busy.
  uint64_t min_shard_size = 20;
  /// G: the shard reward paid to small-shard miners when the merge
  /// satisfies Eq. 1.
  double shard_reward = 100.0;
  /// C_i: the profit a merging shard's miners forgo (competition in the
  /// larger shard). One value for all players; must be < shard_reward
  /// or merging never pays.
  double merge_cost = 20.0;
  /// η: replicator step size (Eq. 11).
  double eta = 0.05;
  /// M: subslots per slot — samples used to estimate Eq. 12/13.
  size_t subslots = 32;
  /// Convergence: stop when no probability moves more than this in a
  /// slot, or after max_slots.
  double tolerance = 1e-3;
  size_t max_slots = 500;
  /// Initial merge probability (the leader-broadcast "random initial
  /// choice"; the paper's parameter unification makes it common).
  double initial_prob = 0.5;
  /// After convergence: how many times the final joint draw is retried
  /// until Eq. 1 holds ("repeating increases the success probability",
  /// Sec. VI-E1).
  size_t final_draw_retries = 64;
  /// How the repeated final draws pick the coalition: false = first
  /// qualifying draw (the baseline behaviour); true = the qualifying
  /// draw with the smallest size, which approaches the optimum of one
  /// new shard per L transactions ("repeating increases ... the higher
  /// probability for getting the optimal solution", Sec. VI-E1).
  bool prefer_minimal_coalition = false;
  /// Trembling-hand exploration floor: merge probabilities are clamped
  /// to [prob_floor, 1 - prob_floor]. With many players the volunteer's
  /// dilemma drives x* toward 0; a small positive floor keeps the
  /// population able to form coalitions at scale (Sec. VI-E1 relies on
  /// repeated draws succeeding).
  double prob_floor = 0.001;
};

/// \brief Result of one run of Algorithm 3 (one-time shard merging).
struct OneTimeMergeResult {
  /// Indices (into the input size vector) of the shards forming the new
  /// shard; empty if no qualifying coalition was drawn.
  std::vector<size_t> merged;
  /// Converged mixed strategies x_i*.
  std::vector<double> final_probs;
  size_t slots_used = 0;
  bool converged = false;
  /// True iff `merged` is non-empty and its total size >= L.
  bool formed = false;
  /// Total transactions in the new shard (y_m, Eq. 7).
  uint64_t merged_size = 0;
};

/// Runs Algorithm 3: discretized replicator dynamics (Eq. 11) with
/// Monte-Carlo payoff estimates (Eq. 12–14) until the mixed-strategy
/// equilibrium, then draws the actual merge coalition from the
/// converged probabilities. `sizes[i]` is the transaction count of
/// small shard i.
///
/// `rng` drives one base draw per slot; each chunk of four subslots
/// then runs an independent stream seeded by ChunkSeed(base, chunk),
/// and the per-chunk payoff sums are added in chunk order.
OneTimeMergeResult RunOneTimeMerge(const std::vector<uint64_t>& sizes,
                                   const MergingGameConfig& config, Rng* rng);

/// \brief Result of iterative merging (Algorithm 1) or a baseline.
struct IterativeMergeResult {
  /// Each entry lists the source-shard indices of one new shard.
  std::vector<std::vector<size_t>> new_shards;
  /// Small shards left unmerged.
  std::vector<size_t> leftover;
  /// Slots used across all Algorithm 3 invocations.
  size_t total_slots = 0;

  size_t NumNewShards() const { return new_shards.size(); }
  /// Sizes of the new shards given the original size vector.
  std::vector<uint64_t> NewShardSizes(const std::vector<uint64_t>& sizes) const;
};

/// Algorithm 1: repeatedly runs Algorithm 3 on the remaining small
/// shards while they can still form a shard of size >= L.
IterativeMergeResult RunIterativeMerge(const std::vector<uint64_t>& sizes,
                                       const MergingGameConfig& config,
                                       Rng* rng);

/// The randomized baseline of Sec. VI-C2: each remaining shard joins
/// the next coalition with probability `merge_prob` (paper: 0.5),
/// iterated with the same outer loop as Algorithm 1 but with a single
/// draw per coalition ("at some random point, all the miners are at an
/// equilibrium state ... and the algorithm also stops here") — a draw
/// that fails Eq. 1 ends the process.
IterativeMergeResult RunRandomizedMerge(const std::vector<uint64_t>& sizes,
                                        const MergingGameConfig& config,
                                        Rng* rng, double merge_prob = 0.5);

/// The optimum of Fig. 5a: floor(total transactions / L) new shards
/// ("the system throughput is maximized when the size of all the new
/// shards is L").
size_t OptimalNewShards(const std::vector<uint64_t>& sizes,
                        uint64_t min_shard_size);

/// Expected utilities (Eq. 8/9) under independent merge probabilities
/// `probs` — exposed for tests of the equilibrium condition. Samples
/// are drawn from per-chunk streams seeded off one base draw from
/// `rng`, like RunOneTimeMerge's.
double MergeUtility(const std::vector<uint64_t>& sizes,
                    const std::vector<double>& probs, size_t player,
                    bool merge, const MergingGameConfig& config,
                    size_t mc_samples, Rng* rng);

}  // namespace shardchain

#endif  // SHARDCHAIN_CORE_MERGING_GAME_H_
