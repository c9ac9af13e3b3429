#include <ios>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/merging_game.h"

namespace shardchain {
namespace {

MergingGameConfig FastConfig() {
  MergingGameConfig config;
  config.min_shard_size = 20;
  config.shard_reward = 100.0;
  config.merge_cost = 20.0;
  config.subslots = 16;
  config.max_slots = 120;
  return config;
}

// ------------------------- One-time merge --------------------------------

TEST(OneTimeMergeTest, EmptyAndSingletonInputs) {
  Rng rng(1);
  const auto empty = RunOneTimeMerge({}, FastConfig(), &rng);
  EXPECT_FALSE(empty.formed);
  const auto lone = RunOneTimeMerge({50}, FastConfig(), &rng);
  EXPECT_FALSE(lone.formed);
  EXPECT_TRUE(lone.converged);
}

TEST(OneTimeMergeTest, FormsShardMeetingThreshold) {
  Rng rng(2);
  const std::vector<uint64_t> sizes{8, 9, 7, 6, 8};
  const auto r = RunOneTimeMerge(sizes, FastConfig(), &rng);
  ASSERT_TRUE(r.formed);
  EXPECT_GE(r.merged_size, FastConfig().min_shard_size);
  EXPECT_GE(r.merged.size(), 2u);
  // Reported size matches the coalition.
  uint64_t total = 0;
  for (size_t i : r.merged) total += sizes[i];
  EXPECT_EQ(total, r.merged_size);
}

TEST(OneTimeMergeTest, ProbabilitiesStayInUnitInterval) {
  Rng rng(3);
  const auto r = RunOneTimeMerge({5, 5, 5, 5, 5, 5}, FastConfig(), &rng);
  for (double p : r.final_probs) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(OneTimeMergeTest, ImpossibleThresholdNeverForms) {
  Rng rng(4);
  MergingGameConfig config = FastConfig();
  config.min_shard_size = 1000;  // Total is only 25.
  const auto r = RunOneTimeMerge({5, 5, 5, 5, 5}, config, &rng);
  EXPECT_FALSE(r.formed);
}

TEST(OneTimeMergeTest, MergeIndicesAreValidAndUnique) {
  Rng rng(5);
  const std::vector<uint64_t> sizes{4, 9, 3, 8, 2, 7, 5};
  const auto r = RunOneTimeMerge(sizes, FastConfig(), &rng);
  std::set<size_t> seen;
  for (size_t i : r.merged) {
    EXPECT_LT(i, sizes.size());
    EXPECT_TRUE(seen.insert(i).second);
  }
}

TEST(OneTimeMergeTest, EquilibriumBalancesMergeAndStayPayoffs) {
  // At the converged mixed strategy the expected payoffs of merging and
  // staying should be close (the defining property of the mixed NE).
  Rng rng(6);
  MergingGameConfig config = FastConfig();
  config.max_slots = 400;
  config.subslots = 32;
  const std::vector<uint64_t> sizes{8, 8, 8, 8, 8};
  const auto r = RunOneTimeMerge(sizes, config, &rng);
  Rng eval_rng(7);
  const double u_merge =
      MergeUtility(sizes, r.final_probs, 0, true, config, 20000, &eval_rng);
  const double u_stay =
      MergeUtility(sizes, r.final_probs, 0, false, config, 20000, &eval_rng);
  // Tolerance is generous: Monte-Carlo dynamics with a clamped domain.
  EXPECT_NEAR(u_merge, u_stay, 0.35 * config.shard_reward);
}

// ------------------------- Iterative merge -------------------------------

TEST(IterativeMergeTest, GroupsAreDisjointAndQualify) {
  Rng rng(8);
  std::vector<uint64_t> sizes;
  Rng size_rng(9);
  for (int i = 0; i < 30; ++i) {
    sizes.push_back(static_cast<uint64_t>(size_rng.UniformRange(1, 10)));
  }
  const auto r = RunIterativeMerge(sizes, FastConfig(), &rng);
  std::set<size_t> seen;
  for (const auto& group : r.new_shards) {
    EXPECT_GE(group.size(), 2u);
    uint64_t total = 0;
    for (size_t i : group) {
      EXPECT_TRUE(seen.insert(i).second) << "shard in two groups";
      total += sizes[i];
    }
    EXPECT_GE(total, FastConfig().min_shard_size);
  }
  for (size_t i : r.leftover) {
    EXPECT_TRUE(seen.insert(i).second) << "leftover shard also merged";
  }
  // Every shard is accounted for exactly once.
  EXPECT_EQ(seen.size(), sizes.size());
}

TEST(IterativeMergeTest, NewShardSizesMatchGroups) {
  Rng rng(10);
  const std::vector<uint64_t> sizes{9, 9, 9, 9, 9, 9};
  const auto r = RunIterativeMerge(sizes, FastConfig(), &rng);
  const auto new_sizes = r.NewShardSizes(sizes);
  ASSERT_EQ(new_sizes.size(), r.new_shards.size());
  for (size_t g = 0; g < r.new_shards.size(); ++g) {
    uint64_t total = 0;
    for (size_t i : r.new_shards[g]) total += sizes[i];
    EXPECT_EQ(new_sizes[g], total);
  }
}

TEST(IterativeMergeTest, ProducesAtLeastOneShardWhenAmple) {
  Rng rng(11);
  const std::vector<uint64_t> sizes(20, 9);  // Total 180, L = 20.
  const auto r = RunIterativeMerge(sizes, FastConfig(), &rng);
  EXPECT_GE(r.NumNewShards(), 1u);
}

TEST(IterativeMergeTest, CannotExceedOptimal) {
  Rng rng(12);
  std::vector<uint64_t> sizes;
  Rng size_rng(13);
  for (int i = 0; i < 40; ++i) {
    sizes.push_back(static_cast<uint64_t>(size_rng.UniformRange(1, 12)));
  }
  const auto r = RunIterativeMerge(sizes, FastConfig(), &rng);
  EXPECT_LE(r.NumNewShards(),
            OptimalNewShards(sizes, FastConfig().min_shard_size));
}

// ------------------------ Randomized baseline ----------------------------

TEST(RandomizedMergeTest, GroupsQualifyToo) {
  Rng rng(14);
  const std::vector<uint64_t> sizes(12, 6);
  const auto r = RunRandomizedMerge(sizes, FastConfig(), &rng, 0.5);
  for (const auto& group : r.new_shards) {
    uint64_t total = 0;
    for (size_t i : group) total += sizes[i];
    EXPECT_GE(total, FastConfig().min_shard_size);
  }
}

TEST(RandomizedMergeTest, GameYieldsAtLeastAsManyShardsOnAverage) {
  // Fig. 3g: the game forms ~59% more new shards than random merging.
  // Averaged over seeds, the game should not be worse.
  MergingGameConfig config = FastConfig();
  double game_total = 0;
  double random_total = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    std::vector<uint64_t> sizes;
    Rng size_rng(100 + seed);
    for (int i = 0; i < 24; ++i) {
      sizes.push_back(static_cast<uint64_t>(size_rng.UniformRange(1, 9)));
    }
    Rng g_rng(200 + seed);
    Rng r_rng(300 + seed);
    game_total += static_cast<double>(
        RunIterativeMerge(sizes, config, &g_rng).NumNewShards());
    random_total += static_cast<double>(
        RunRandomizedMerge(sizes, config, &r_rng, 0.5).NumNewShards());
  }
  EXPECT_GE(game_total, random_total);
}

// --------------------------- Pinned draws --------------------------------
//
// The games draw one base value per slot (or per coalition) and run each
// chunk of four subslots or players on its own ChunkSeed stream, folding
// the chunk partials in chunk order (DESIGN.md §9). These pins hold that
// layout fixed: another chunk seed, grain or fold order changes them.

TEST(RandomizedMergeTest, CoalitionsArePinned) {
  // Fourteen players span four chunks; any two of them reach L = 20.
  const std::vector<uint64_t> sizes{11, 10, 12, 14, 10, 13, 11,
                                    15, 10, 12, 16, 10, 11, 13};
  const std::vector<std::vector<size_t>> expected = {
      {3, 4, 5, 6, 8, 10, 11, 13}, {0, 1, 4, 7, 8, 9, 12, 13},
      {2, 6, 8, 13},                {0, 4, 6, 11},
      {2, 3, 5, 8, 12, 13},         {2, 3, 4, 5, 8, 10, 12},
  };
  for (uint64_t seed = 1; seed <= expected.size(); ++seed) {
    Rng rng(seed);
    const IterativeMergeResult r =
        RunRandomizedMerge(sizes, FastConfig(), &rng, 0.5);
    ASSERT_EQ(r.new_shards.size(), 1u) << "seed " << seed;
    EXPECT_EQ(r.new_shards[0], expected[seed - 1]) << "seed " << seed;
  }
}

TEST(MergeUtilityTest, EstimateIsBitPinned) {
  // Fractional G and C make every partial sum inexact, so the pinned
  // doubles also fix the order the chunk partials are added in. 37
  // samples leave the last chunk short.
  MergingGameConfig config = FastConfig();
  config.shard_reward = 0.7;
  config.merge_cost = 0.3;
  const std::vector<uint64_t> sizes{4, 9, 6, 12, 3, 8, 5};
  const std::vector<double> probs{0.2, 0.5, 0.35, 0.8, 0.1, 0.6, 0.45};
  struct Case {
    uint64_t seed;
    size_t player;
    bool merge;
    double expected;
  };
  const Case cases[] = {
      {1, 0, true, 0x1.255cb6a8d255cp-2},
      {2, 0, false, 0x1.18e879c5e18e8p-1},
      {3, 3, true, 0x1.11fd3b80b11fdp-2},
      {4, 3, false, 0x1.35f7b282135f8p-3},
      {5, 6, true, 0x1.88fe9dc0588fep-3},
      {6, 6, false, 0x1.bd94109afbd95p-2},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    const double u =
        MergeUtility(sizes, probs, c.player, c.merge, config, 37, &rng);
    EXPECT_EQ(u, c.expected)
        << "seed " << c.seed << " player " << c.player << " merge "
        << c.merge << ": got " << std::hexfloat << u;
  }
}

// ------------------------------ Optimal ----------------------------------

TEST(OptimalTest, FloorOfTotalOverL) {
  EXPECT_EQ(OptimalNewShards({10, 10, 10}, 20), 1u);
  EXPECT_EQ(OptimalNewShards({10, 10, 20}, 20), 2u);
  EXPECT_EQ(OptimalNewShards({}, 20), 0u);
  EXPECT_EQ(OptimalNewShards({5}, 20), 0u);
  EXPECT_EQ(OptimalNewShards({5, 5}, 0), 2u);
}

}  // namespace
}  // namespace shardchain
