#include "core/selection_game.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <set>

namespace shardchain {

double SelectionUtility(Amount fee, uint32_t others) {
  return static_cast<double>(fee) / (static_cast<double>(others) + 1.0);
}

size_t SelectionResult::DistinctSets() const {
  std::set<std::vector<size_t>> sets;
  for (const auto& s : assignment) {
    if (!s.empty()) sets.insert(s);
  }
  return sets.size();
}

std::vector<uint32_t> SelectionResult::SelectionCounts(size_t num_txs) const {
  std::vector<uint32_t> counts(num_txs, 0);
  for (const auto& s : assignment) {
    for (size_t j : s) {
      assert(j < num_txs);
      ++counts[j];
    }
  }
  return counts;
}

namespace {

/// Picks the best-reply set for one miner: the `capacity` transactions
/// with the highest fee/(competitors+1) shares, given the selection
/// counts of the other miners. Ties break toward the lower index so
/// every miner's computation is reproducible under parameter
/// unification. `mine_scratch` and `scores` are caller-provided scratch
/// to avoid reallocating in the sweep loop.
std::vector<size_t> BestReply(const std::vector<Amount>& fees,
                              const std::vector<uint32_t>& counts,
                              const std::vector<size_t>& current,
                              size_t capacity,
                              std::vector<uint8_t>* mine_scratch,
                              std::vector<double>* scores) {
  const size_t t = fees.size();
  // counts[] includes this miner's current picks; competitors for tx j
  // exclude her.
  std::vector<uint8_t>& mine = *mine_scratch;
  mine.assign(t, 0);
  for (size_t j : current) mine[j] = 1;

  scores->resize(t);
  for (size_t j = 0; j < t; ++j) {
    const uint32_t others = counts[j] - (mine[j] ? 1 : 0);
    (*scores)[j] = SelectionUtility(fees[j], others);
  }

  std::vector<size_t> order(t);
  std::iota(order.begin(), order.end(), 0);
  const size_t take = std::min(capacity, t);
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(take),
                    order.end(), [&](size_t a, size_t b) {
                      const double sa = (*scores)[a];
                      const double sb = (*scores)[b];
                      if (sa != sb) return sa > sb;
                      return a < b;
                    });
  std::vector<size_t> best(order.begin(),
                           order.begin() + static_cast<ptrdiff_t>(take));
  std::sort(best.begin(), best.end());
  return best;
}

double SetUtility(const std::vector<Amount>& fees,
                  const std::vector<uint32_t>& counts,
                  const std::vector<size_t>& set, bool counted) {
  double u = 0.0;
  for (size_t j : set) {
    const uint32_t others = counts[j] - (counted ? 1 : 0);
    u += SelectionUtility(fees[j], others);
  }
  return u;
}

}  // namespace

// flowlint: deterministic-root — consensus entry point (DESIGN.md §7)
SelectionResult RunSelectionGame(const std::vector<Amount>& fees,
                                 size_t num_miners,
                                 const SelectionGameConfig& config, Rng* rng) {
  assert(rng != nullptr);
  SelectionResult result;
  result.assignment.assign(num_miners, {});
  if (fees.empty() || num_miners == 0) {
    result.converged = true;
    return result;
  }

  const size_t t = fees.size();
  const size_t take = std::min(config.capacity, t);
  std::vector<uint32_t> counts(t, 0);

  // Random initial choices — in deployment these come from the
  // verifiable leader's broadcast so all miners start identically.
  std::vector<size_t> indices(t);
  std::iota(indices.begin(), indices.end(), 0);
  for (size_t i = 0; i < num_miners; ++i) {
    rng->Shuffle(&indices);
    std::vector<size_t> init(indices.begin(),
                             indices.begin() + static_cast<ptrdiff_t>(take));
    std::sort(init.begin(), init.end());
    for (size_t j : init) ++counts[j];
    result.assignment[i] = std::move(init);
  }

  // Best-reply sweeps (Algorithm 2). The game is a congestion game
  // over uniform-matroid strategy spaces, so the finite improvement
  // property holds and this terminates at a pure Nash equilibrium.
  constexpr double kEps = 1e-12;
  std::vector<uint8_t> mine_scratch;
  std::vector<double> scores;
  for (size_t sweep = 0; sweep < config.max_sweeps; ++sweep) {
    bool changed = false;
    for (size_t i = 0; i < num_miners; ++i) {
      std::vector<size_t>& mine = result.assignment[i];
      std::vector<size_t> best =
          BestReply(fees, counts, mine, take, &mine_scratch, &scores);
      if (best == mine) continue;
      const double current_u = SetUtility(fees, counts, mine, true);
      // Score the candidate against counts with this miner removed.
      for (size_t j : mine) --counts[j];
      const double best_u = SetUtility(fees, counts, best, false);
      if (best_u > current_u + kEps) {
        for (size_t j : best) ++counts[j];
        mine = std::move(best);
        changed = true;
        ++result.improvement_moves;
      } else {
        for (size_t j : mine) ++counts[j];
      }
    }
    if (!changed) {
      result.converged = true;
      break;
    }
  }
  return result;
}

SelectionResult GreedySelection(const std::vector<Amount>& fees,
                                size_t num_miners, size_t capacity) {
  SelectionResult result;
  result.converged = true;
  const size_t take = std::min(capacity, fees.size());
  std::vector<size_t> order(fees.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(take),
                    order.end(), [&](size_t a, size_t b) {
                      if (fees[a] != fees[b]) return fees[a] > fees[b];
                      return a < b;
                    });
  std::vector<size_t> top(order.begin(),
                          order.begin() + static_cast<ptrdiff_t>(take));
  std::sort(top.begin(), top.end());
  result.assignment.assign(num_miners, top);
  return result;
}

SelectionResult RoundRobinSelection(const std::vector<Amount>& fees,
                                    size_t num_miners, size_t capacity) {
  SelectionResult result;
  result.converged = true;
  result.assignment.assign(num_miners, {});
  if (num_miners == 0) return result;
  std::vector<size_t> order(fees.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (fees[a] != fees[b]) return fees[a] > fees[b];
    return a < b;
  });
  // Deal the fee-sorted transactions to miners like cards, stopping
  // when every miner is full.
  size_t miner = 0;
  for (size_t j : order) {
    // Find the next miner with spare capacity.
    size_t scanned = 0;
    while (result.assignment[miner].size() >= capacity &&
           scanned < num_miners) {
      miner = (miner + 1) % num_miners;
      ++scanned;
    }
    if (result.assignment[miner].size() >= capacity) break;
    result.assignment[miner].push_back(j);
    miner = (miner + 1) % num_miners;
  }
  for (auto& s : result.assignment) std::sort(s.begin(), s.end());
  return result;
}

}  // namespace shardchain
