#include "core/merging_game.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace shardchain {

namespace {

/// Subslots (or players) per chunk. Each chunk draws from its own
/// ChunkSeed stream and sums into its own partial, folded in chunk
/// order; this layout fixes the plan bytes (DESIGN.md §9).
constexpr size_t kSubslotGrain = 4;

/// Runs `body(begin, end, chunk)` over [0, n) in chunks of
/// kSubslotGrain, in chunk order.
template <typename Body>
void ForEachChunk(size_t n, const Body& body) {
  for (size_t c = 0; c * kSubslotGrain < n; ++c) {
    body(c * kSubslotGrain, std::min(n, (c + 1) * kSubslotGrain), c);
  }
}

/// Per-subslot utility of player i (Eq. 14): the shard reward G is won
/// by every small-shard player when the drawn coalition satisfies
/// Eq. 1; merging players additionally pay C_i.
double SubslotUtility(bool merged, bool satisfied,
                      const MergingGameConfig& config) {
  double u = 0.0;
  if (satisfied) u += config.shard_reward;
  if (merged) u -= config.merge_cost;
  return u;
}

/// One joint draw of all players' strategies; returns the coalition and
/// whether Eq. 1 holds.
struct Draw {
  std::vector<uint8_t> merged;  // 0/1 per player.
  uint64_t coalition_size = 0;
  bool satisfied = false;
};

Draw SampleDraw(const std::vector<uint64_t>& sizes,
                const std::vector<double>& probs, uint64_t min_size,
                Rng* rng) {
  Draw d;
  d.merged.resize(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    d.merged[i] = rng->Bernoulli(probs[i]) ? 1 : 0;
    if (d.merged[i]) d.coalition_size += sizes[i];
  }
  // A "coalition" of one shard is no merge at all: Eq. 7 sums m >= 2
  // participants in a meaningful merge, and a lone shard cannot
  // change its own size.
  const size_t joiners = static_cast<size_t>(
      std::count(d.merged.begin(), d.merged.end(), uint8_t{1}));
  d.satisfied = joiners >= 2 && d.coalition_size >= min_size;
  return d;
}

}  // namespace

double MergeUtility(const std::vector<uint64_t>& sizes,
                    const std::vector<double>& probs, size_t player,
                    bool merge, const MergingGameConfig& config,
                    size_t mc_samples, Rng* rng) {
  assert(player < sizes.size());
  std::vector<double> fixed = probs;
  fixed[player] = merge ? 1.0 : 0.0;
  const uint64_t base = rng->Next();
  double total = 0.0;
  ForEachChunk(mc_samples, [&](size_t begin, size_t end, size_t chunk) {
    Rng sub(ChunkSeed(base, chunk));
    double partial = 0.0;
    for (size_t s = begin; s < end; ++s) {
      const Draw d = SampleDraw(sizes, fixed, config.min_shard_size, &sub);
      partial += SubslotUtility(merge, d.satisfied, config);
    }
    total += partial;
  });
  return total / static_cast<double>(mc_samples);
}

// flowlint: deterministic-root — consensus entry point (DESIGN.md §7)
OneTimeMergeResult RunOneTimeMerge(const std::vector<uint64_t>& sizes,
                                   const MergingGameConfig& config, Rng* rng) {
  assert(rng != nullptr);
  OneTimeMergeResult result;
  const size_t n = sizes.size();
  result.final_probs.assign(n, config.initial_prob);
  if (n == 0) return result;
  if (n == 1) {
    // A single shard cannot merge with anyone.
    result.converged = true;
    return result;
  }

  std::vector<double>& x = result.final_probs;
  std::vector<double> avg_merge(n, 0.0);   // Ū_i(Y, x_-i), Eq. 12.
  std::vector<double> avg_mixed(n, 0.0);   // Ū_i(x_i), Eq. 13.
  std::vector<uint32_t> merge_draws(n, 0);
  // One chunk's payoff sums: Σ u over draws where player i merged, and
  // over all draws.
  std::vector<double> chunk_merge(n);
  std::vector<double> chunk_mixed(n);

  for (size_t slot = 0; slot < config.max_slots; ++slot) {
    std::fill(avg_merge.begin(), avg_merge.end(), 0.0);
    std::fill(avg_mixed.begin(), avg_mixed.end(), 0.0);
    std::fill(merge_draws.begin(), merge_draws.end(), 0u);

    // M subslots: every player tosses her coin, utilities are recorded
    // (Algorithm 3, lines 2-6). One base draw from the slot's shared
    // stream seeds an independent stream per chunk of subslots, and
    // each chunk's sums are added in chunk order, so the slot consumes
    // exactly one value of `rng`.
    const uint64_t slot_base = rng->Next();
    ForEachChunk(config.subslots, [&](size_t begin, size_t end,
                                      size_t chunk) {
      std::fill(chunk_merge.begin(), chunk_merge.end(), 0.0);
      std::fill(chunk_mixed.begin(), chunk_mixed.end(), 0.0);
      Rng sub(ChunkSeed(slot_base, chunk));
      for (size_t q = begin; q < end; ++q) {
        const Draw d = SampleDraw(sizes, x, config.min_shard_size, &sub);
        for (size_t i = 0; i < n; ++i) {
          const double u =
              SubslotUtility(d.merged[i] != 0, d.satisfied, config);
          chunk_mixed[i] += u;
          if (d.merged[i]) {
            chunk_merge[i] += u;
            ++merge_draws[i];
          }
        }
      }
      for (size_t i = 0; i < n; ++i) {
        avg_merge[i] += chunk_merge[i];
        avg_mixed[i] += chunk_mixed[i];
      }
    });

    // Replicator update (Eq. 11) on the merge probability.
    double max_delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double mixed = avg_mixed[i] / static_cast<double>(config.subslots);
      if (merge_draws[i] == 0) continue;  // Eq. 12 undefined this slot.
      const double merge_payoff =
          avg_merge[i] / static_cast<double>(merge_draws[i]);
      // Normalize by G so the step size is scale-free.
      const double gradient =
          (merge_payoff - mixed) / std::max(config.shard_reward, 1e-9);
      double next = x[i] + config.eta * gradient * x[i];
      next = std::clamp(next, config.prob_floor,
                        1.0 - config.prob_floor);
      max_delta = std::max(max_delta, std::fabs(next - x[i]));
      x[i] = next;
    }
    result.slots_used = slot + 1;
    if (max_delta < config.tolerance) {
      result.converged = true;
      break;
    }
  }

  // Final determination: repeated draws from the converged mixed
  // strategies until a qualifying coalition appears; with
  // prefer_minimal_coalition the repetition instead keeps the smallest
  // qualifying draw — "repeating increases the success probability,
  // indicating the higher probability for getting the optimal
  // solution" (Sec. VI-E1; the optimum is a coalition of size L).
  Draw best;
  for (size_t attempt = 0; attempt < config.final_draw_retries; ++attempt) {
    Draw d = SampleDraw(sizes, x, config.min_shard_size, rng);
    if (!d.satisfied) continue;
    if (!best.satisfied || (config.prefer_minimal_coalition &&
                            d.coalition_size < best.coalition_size)) {
      best = std::move(d);
    }
    if (!config.prefer_minimal_coalition) break;
  }
  if (best.satisfied) {
    for (size_t i = 0; i < n; ++i) {
      if (best.merged[i]) result.merged.push_back(i);
    }
    result.merged_size = best.coalition_size;
    result.formed = true;
  }
  return result;
}

std::vector<uint64_t> IterativeMergeResult::NewShardSizes(
    const std::vector<uint64_t>& sizes) const {
  std::vector<uint64_t> out;
  out.reserve(new_shards.size());
  for (const auto& group : new_shards) {
    uint64_t total = 0;
    for (size_t i : group) total += sizes[i];
    out.push_back(total);
  }
  return out;
}

namespace {

/// Shared outer loop of Algorithm 1: `step` proposes one coalition from
/// the remaining shards (returning indices into the remaining-list);
/// accepted coalitions are removed and the loop continues while the
/// remainder could still form a shard.
template <typename StepFn>
IterativeMergeResult IterateMerging(const std::vector<uint64_t>& sizes,
                                    uint64_t min_size, size_t max_failures,
                                    StepFn step) {
  IterativeMergeResult result;
  std::vector<size_t> remaining(sizes.size());
  std::iota(remaining.begin(), remaining.end(), 0);

  auto remaining_total = [&]() {
    uint64_t total = 0;
    for (size_t i : remaining) total += sizes[i];
    return total;
  };

  // Bounded retries so a stochastic step that keeps failing to form a
  // coalition terminates.
  size_t consecutive_failures = 0;
  while (remaining.size() >= 2 && remaining_total() >= min_size &&
         consecutive_failures < max_failures) {
    std::vector<uint64_t> rem_sizes;
    rem_sizes.reserve(remaining.size());
    for (size_t i : remaining) rem_sizes.push_back(sizes[i]);

    std::vector<size_t> coalition = step(rem_sizes, &result.total_slots);
    uint64_t coalition_size = 0;
    for (size_t local : coalition) coalition_size += rem_sizes[local];
    if (coalition.size() < 2 || coalition_size < min_size) {
      ++consecutive_failures;
      continue;
    }
    consecutive_failures = 0;

    std::vector<size_t> group;
    group.reserve(coalition.size());
    for (size_t local : coalition) group.push_back(remaining[local]);
    result.new_shards.push_back(group);

    std::vector<size_t> next;
    next.reserve(remaining.size() - coalition.size());
    std::vector<bool> taken(remaining.size(), false);
    for (size_t local : coalition) taken[local] = true;
    for (size_t local = 0; local < remaining.size(); ++local) {
      if (!taken[local]) next.push_back(remaining[local]);
    }
    remaining = std::move(next);
  }
  result.leftover = remaining;
  return result;
}

}  // namespace

// flowlint: deterministic-root — consensus entry point (DESIGN.md §7)
IterativeMergeResult RunIterativeMerge(const std::vector<uint64_t>& sizes,
                                       const MergingGameConfig& config,
                                       Rng* rng) {
  assert(rng != nullptr);
  return IterateMerging(
      sizes, config.min_shard_size, /*max_failures=*/8,
      [&](const std::vector<uint64_t>& rem, size_t* slots) {
        OneTimeMergeResult one = RunOneTimeMerge(rem, config, rng);
        *slots += one.slots_used;
        return one.formed ? one.merged : std::vector<size_t>{};
      });
}

// flowlint: deterministic-root — consensus entry point (DESIGN.md §7)
IterativeMergeResult RunRandomizedMerge(const std::vector<uint64_t>& sizes,
                                        const MergingGameConfig& config,
                                        Rng* rng, double merge_prob) {
  assert(rng != nullptr);
  // One joint coin flip: the shards that say yes form the (single) new
  // shard if Eq. 1 holds, and "the algorithm also stops here"
  // (Sec. VI-C2) — no iteration over the remainder. Each chunk of
  // players flips on its own stream seeded off one base draw.
  IterativeMergeResult result;
  result.total_slots = 1;
  const uint64_t base = rng->Next();
  std::vector<uint8_t> joined(sizes.size(), 0);
  std::vector<size_t> coalition;
  uint64_t coalition_size = 0;
  ForEachChunk(sizes.size(), [&](size_t begin, size_t end, size_t chunk) {
    Rng sub(ChunkSeed(base, chunk));
    for (size_t i = begin; i < end; ++i) {
      if (!sub.Bernoulli(merge_prob)) continue;
      joined[i] = 1;
      coalition.push_back(i);
      coalition_size += sizes[i];
    }
  });
  const bool formed =
      coalition.size() >= 2 && coalition_size >= config.min_shard_size;
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (!formed || !joined[i]) result.leftover.push_back(i);
  }
  if (formed) result.new_shards.push_back(std::move(coalition));
  return result;
}

size_t OptimalNewShards(const std::vector<uint64_t>& sizes,
                        uint64_t min_shard_size) {
  if (min_shard_size == 0) return sizes.size();
  uint64_t total = 0;
  for (uint64_t s : sizes) total += s;
  return static_cast<size_t>(total / min_shard_size);
}

}  // namespace shardchain
