#ifndef SHARDCHAIN_CORE_SELECTION_GAME_H_
#define SHARDCHAIN_CORE_SELECTION_GAME_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "types/transaction.h"

namespace shardchain {

/// \brief Parameters of the intra-shard transaction-selection game
/// (Sec. IV-B, Algorithm 2).
struct SelectionGameConfig {
  /// Transactions per miner set (block capacity; paper: 10).
  size_t capacity = 10;
  /// Cap on best-reply sweeps (the game has the finite-improvement
  /// property, so this only guards pathological inputs).
  size_t max_sweeps = 10000;
};

/// \brief Outcome of the congestion game.
struct SelectionResult {
  /// assignment[i] = indices (into the fee vector) selected by miner i,
  /// sorted ascending.
  std::vector<std::vector<size_t>> assignment;
  /// Total single-miner best-reply improvements performed.
  size_t improvement_moves = 0;
  /// False only if max_sweeps was hit before reaching equilibrium.
  bool converged = false;

  /// Number of distinct selected sets — the throughput proxy of
  /// Fig. 5b ("the number of transaction sets can represent the
  /// throughput improvement").
  size_t DistinctSets() const;

  /// n_j for every transaction: how many miners selected it.
  std::vector<uint32_t> SelectionCounts(size_t num_txs) const;
};

/// Expected payoff of one miner for transaction j when `others` other
/// miners also chose it: U = fee / (others + 1)  (Eq. 2, with n_j
/// counting the *competing* miners).
double SelectionUtility(Amount fee, uint32_t others);

/// Runs Algorithm 2 (best-reply dynamics) until the pure-strategy Nash
/// equilibrium. `rng` seeds the random initial choices that the
/// verifiable leader would broadcast under parameter unification
/// (Sec. IV-C); passing the same seed everywhere makes every miner
/// compute the identical assignment.
SelectionResult RunSelectionGame(const std::vector<Amount>& fees,
                                 size_t num_miners,
                                 const SelectionGameConfig& config, Rng* rng);

/// The Ethereum default every miner follows without the game: all
/// miners take the same top-`capacity` transactions by fee.
SelectionResult GreedySelection(const std::vector<Amount>& fees,
                                size_t num_miners, size_t capacity);

/// Oracle upper bound: a disjoint round-robin partition of the fee-
/// sorted transactions (the "optimal" of Fig. 5b — every miner
/// validates a different set whenever enough transactions exist).
SelectionResult RoundRobinSelection(const std::vector<Amount>& fees,
                                    size_t num_miners, size_t capacity);

}  // namespace shardchain

#endif  // SHARDCHAIN_CORE_SELECTION_GAME_H_
