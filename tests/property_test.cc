// Property-based tests: randomized sweeps over the VM, the ledger, and
// the simulators, checking invariants rather than fixed outputs.

#include <algorithm>
#include <functional>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "chain/ledger.h"
#include "common/rng.h"
#include "contract/registry.h"
#include "contract/vm.h"
#include "core/merging_game.h"
#include "core/selection_game.h"
#include "sim/mining_sim.h"
#include "sim/workload.h"

namespace shardchain {
namespace {

Address Addr(uint8_t tag) {
  Address a;
  a.bytes.fill(tag);
  return a;
}

Amount TotalBalance(const StateDB& state) {
  Amount total = 0;
  for (const Address& addr : state.Addresses()) {
    total += state.BalanceOf(addr);
  }
  return total;
}

// ----------------------------- VM fuzzing --------------------------------

class VmFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VmFuzzTest, RandomBytecodeNeverCrashesAndConservesValue) {
  // Random byte soup through the interpreter: every outcome must be a
  // clean Status, execution must terminate (gas/step bounded), and the
  // total coin supply must be exactly conserved whether the program
  // commits or reverts.
  Rng rng(GetParam());
  for (int trial = 0; trial < 120; ++trial) {
    ContractProgram program;
    const size_t len = 1 + rng.UniformInt(64);
    program.code.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      program.code.push_back(static_cast<uint8_t>(rng.UniformInt(256)));
    }
    const size_t parties = rng.UniformInt(3);
    for (size_t p = 0; p < parties; ++p) {
      program.parties.push_back(Addr(static_cast<uint8_t>(0x50 + p)));
    }

    StateDB state;
    state.Mint(Addr(1), 10000);
    state.Mint(Addr(0xcc), 500);  // Contract has funds to move around.
    const Amount supply_before = TotalBalance(state);

    CallContext ctx;
    ctx.contract = Addr(0xcc);
    ctx.caller = Addr(1);
    ctx.call_value = rng.UniformInt(100);
    ctx.gas_limit = 5000;
    const size_t nargs = rng.UniformInt(3);
    for (size_t a = 0; a < nargs; ++a) {
      ctx.args.push_back(static_cast<int64_t>(rng.UniformInt(1000)));
    }

    const Result<ExecReceipt> result = Vm::Execute(program, ctx, &state);
    (void)result;  // Any status is fine; what matters are the invariants.
    EXPECT_EQ(TotalBalance(state), supply_before)
        << "trial " << trial << " violated coin conservation";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --------------------------- Ledger invariants ---------------------------

class LedgerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LedgerPropertyTest, RandomTrafficConservesSupplyModuloRewards) {
  Rng rng(GetParam());
  StateDB genesis;
  std::vector<Address> users;
  for (uint8_t u = 1; u <= 10; ++u) {
    users.push_back(Addr(u));
    genesis.Mint(Addr(u), 10000);
  }
  Result<Address> contract = ContractRegistry::Deploy(
      &genesis, Addr(99), contracts::UnconditionalTransfer(Addr(0xee)));
  ASSERT_TRUE(contract.ok());
  const Amount genesis_supply = TotalBalance(genesis);

  ChainConfig config;
  config.block_reward = 1000;
  config.max_txs_per_block = 5;
  Ledger ledger(1, genesis, config);

  std::map<Address, uint64_t> nonces;
  size_t blocks_appended = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<Transaction> txs;
    const size_t batch = 1 + rng.UniformInt(5);
    for (size_t t = 0; t < batch; ++t) {
      const Address sender = users[rng.UniformInt(users.size())];
      Transaction tx;
      tx.sender = sender;
      tx.nonce = nonces[sender];
      tx.fee = 1 + rng.UniformInt(20);
      if (rng.Bernoulli(0.5)) {
        tx.kind = TxKind::kDirectTransfer;
        tx.recipient = users[rng.UniformInt(users.size())];
        tx.value = rng.UniformInt(50);
      } else {
        tx.kind = TxKind::kContractCall;
        tx.recipient = *contract;
        tx.value = rng.UniformInt(50);
      }
      txs.push_back(tx);
    }
    const Block block =
        ledger.BuildBlock(Addr(0xaa), txs, static_cast<uint64_t>(round + 1));
    // Track nonces of what actually got in.
    for (const Transaction& tx : block.transactions) {
      nonces[tx.sender] = tx.nonce + 1;
    }
    Result<Hash256> appended = ledger.Append(block);
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    ++blocks_appended;
  }

  // Conservation: final supply == genesis + block rewards minted.
  const Amount expected =
      genesis_supply + blocks_appended * config.block_reward;
  EXPECT_EQ(TotalBalance(ledger.tip_state()), expected);
  // Chain bookkeeping consistent.
  EXPECT_EQ(ledger.CanonicalLength(), blocks_appended + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerPropertyTest,
                         ::testing::Values(7, 8, 9, 10));

// ------------------------- Simulator invariants --------------------------

class MiningSimPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MiningSimPropertyTest, AccountingAlwaysBalances) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const size_t shards = 1 + rng.UniformInt(6);
    std::vector<ShardSpec> specs;
    size_t injected = 0;
    for (size_t s = 0; s < shards; ++s) {
      ShardSpec spec;
      spec.id = static_cast<ShardId>(s);
      spec.num_miners = 1 + rng.UniformInt(5);
      const size_t txs = rng.UniformInt(60);
      spec.tx_fees.assign(txs, 1 + rng.UniformInt(100));
      injected += txs;
      specs.push_back(std::move(spec));
    }
    MiningSimConfig config;
    config.policy = static_cast<SelectionPolicy>(rng.UniformInt(4));
    config.window_seconds = rng.Bernoulli(0.5) ? 600.0 : 0.0;
    Rng run_rng = rng.Fork();
    const SimResult r = RunMiningSim(specs, config, &run_rng);

    // Every injected transaction confirms exactly once.
    EXPECT_EQ(r.TotalTxsConfirmed(), injected);
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(r.shards[s].txs_confirmed, r.shards[s].txs_injected);
      // completion_time is positive iff the shard had work.
      EXPECT_EQ(r.shards[s].completion_time > 0.0,
                r.shards[s].txs_injected > 0);
    }
    // Blocks split exactly into useful + empty; wasted are extra.
    size_t nonempty = 0;
    for (const auto& s : r.shards) {
      nonempty += s.blocks_committed - s.empty_blocks;
    }
    EXPECT_GE(injected, nonempty);  // Each useful block holds >= 1 tx.
    // Makespan is the max shard completion.
    double max_completion = 0.0;
    for (const auto& s : r.shards) {
      max_completion = std::max(max_completion, s.completion_time);
    }
    EXPECT_DOUBLE_EQ(r.makespan, max_completion);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MiningSimPropertyTest,
                         ::testing::Values(100, 200, 300, 400));

TEST(MiningSimPropertyTest, DeterministicGivenSeed) {
  std::vector<ShardSpec> specs{{0, 3, std::vector<Amount>(47, 5), {}, 0.0},
                               {1, 2, std::vector<Amount>(31, 9), {}, 0.0}};
  MiningSimConfig config;
  config.policy = SelectionPolicy::kCongestionGame;
  Rng r1(77);
  Rng r2(77);
  const SimResult a = RunMiningSim(specs, config, &r1);
  const SimResult b = RunMiningSim(specs, config, &r2);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.TotalBlocks(), b.TotalBlocks());
  EXPECT_EQ(a.TotalWastedBlocks(), b.TotalWastedBlocks());
}

// ------------------------ Game-level invariants ---------------------------

class GamePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GamePropertyTest, SelectionAssignmentsAreWellFormed) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const size_t txs = 1 + rng.UniformInt(80);
    const size_t miners = 1 + rng.UniformInt(12);
    std::vector<Amount> fees;
    for (size_t i = 0; i < txs; ++i) fees.push_back(1 + rng.UniformInt(200));
    SelectionGameConfig config;
    config.capacity = 1 + rng.UniformInt(10);
    Rng game_rng = rng.Fork();
    const SelectionResult r = RunSelectionGame(fees, miners, config, &game_rng);
    ASSERT_EQ(r.assignment.size(), miners);
    const size_t expected = std::min(config.capacity, txs);
    for (const auto& set : r.assignment) {
      EXPECT_EQ(set.size(), expected);
      // Sorted, unique, in range.
      for (size_t k = 0; k < set.size(); ++k) {
        EXPECT_LT(set[k], txs);
        if (k > 0) {
          EXPECT_LT(set[k - 1], set[k]);
        }
      }
    }
    const auto counts = r.SelectionCounts(txs);
    uint32_t total = 0;
    for (uint32_t c : counts) total += c;
    EXPECT_EQ(total, miners * expected);
  }
}

TEST_P(GamePropertyTest, MergePlansPartitionTheInput) {
  Rng rng(GetParam() + 5000);
  for (int trial = 0; trial < 6; ++trial) {
    const size_t n = 2 + rng.UniformInt(30);
    std::vector<uint64_t> sizes;
    for (size_t i = 0; i < n; ++i) {
      sizes.push_back(1 + rng.UniformInt(9));
    }
    MergingGameConfig config;
    config.min_shard_size = 5 + rng.UniformInt(30);
    config.subslots = 8;
    config.max_slots = 60;
    Rng game_rng = rng.Fork();
    const IterativeMergeResult plan =
        RunIterativeMerge(sizes, config, &game_rng);
    std::vector<bool> seen(n, false);
    for (const auto& group : plan.new_shards) {
      uint64_t total = 0;
      for (size_t i : group) {
        ASSERT_LT(i, n);
        EXPECT_FALSE(seen[i]);
        seen[i] = true;
        total += sizes[i];
      }
      EXPECT_GE(total, config.min_shard_size);
      EXPECT_GE(group.size(), 2u);
    }
    for (size_t i : plan.leftover) {
      ASSERT_LT(i, n);
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool b) { return b; }));
  }
}

/// Utility of `set` for a miner whose own picks are already inside
/// `counts` (Eq. 2: the competitor count excludes the miner herself).
double OwnUtility(const std::vector<Amount>& fees,
                  const std::vector<uint32_t>& counts,
                  const std::vector<size_t>& set) {
  double u = 0.0;
  for (size_t j : set) u += SelectionUtility(fees[j], counts[j] - 1);
  return u;
}

/// The best utility ANY deviation could reach against fixed opponents:
/// since per-transaction payoffs are independent, it is the sum of the
/// top-`capacity` utilities under the opponent-only counts.
double BestDeviationUtility(const std::vector<Amount>& fees,
                            const std::vector<uint32_t>& counts_wo_self,
                            size_t capacity) {
  std::vector<double> u;
  u.reserve(fees.size());
  for (size_t j = 0; j < fees.size(); ++j) {
    u.push_back(SelectionUtility(fees[j], counts_wo_self[j]));
  }
  std::sort(u.begin(), u.end(), std::greater<double>());
  const size_t take = std::min(capacity, u.size());
  return std::accumulate(u.begin(), u.begin() + static_cast<ptrdiff_t>(take),
                         0.0);
}

TEST_P(GamePropertyTest, ConvergedSelectionIsPureNashEquilibrium) {
  // Algorithm 2's fixed point: no miner can strictly improve by
  // switching to ANY other transaction set (unilateral deviation).
  Rng rng(GetParam() + 9000);
  for (int trial = 0; trial < 6; ++trial) {
    const size_t txs = 1 + rng.UniformInt(60);
    const size_t miners = 1 + rng.UniformInt(10);
    std::vector<Amount> fees;
    for (size_t i = 0; i < txs; ++i) fees.push_back(1 + rng.UniformInt(150));
    SelectionGameConfig config;
    config.capacity = 1 + rng.UniformInt(8);
    Rng game_rng = rng.Fork();
    const SelectionResult r = RunSelectionGame(fees, miners, config, &game_rng);
    ASSERT_TRUE(r.converged);
    const std::vector<uint32_t> counts = r.SelectionCounts(txs);
    for (size_t i = 0; i < miners; ++i) {
      const double current = OwnUtility(fees, counts, r.assignment[i]);
      std::vector<uint32_t> wo_self = counts;
      for (size_t j : r.assignment[i]) --wo_self[j];
      const double best = BestDeviationUtility(fees, wo_self, config.capacity);
      EXPECT_LE(best, current + 1e-9)
          << "miner " << i << " profits by deviating (trial " << trial << ")";
    }
  }
}

TEST_P(GamePropertyTest, SelectionEquilibriumInvariantUnderMinerRelabeling) {
  // Miners are exchangeable: permuting who holds which equilibrium set
  // changes nothing consensus-visible — the selection counts are
  // identical and the permuted profile is still a Nash equilibrium.
  Rng rng(GetParam() + 11000);
  const size_t txs = 40, miners = 8;
  std::vector<Amount> fees;
  for (size_t i = 0; i < txs; ++i) fees.push_back(1 + rng.UniformInt(99));
  SelectionGameConfig config;
  config.capacity = 5;
  Rng game_rng = rng.Fork();
  const SelectionResult r = RunSelectionGame(fees, miners, config, &game_rng);
  ASSERT_TRUE(r.converged);

  SelectionResult relabeled = r;
  Rng perm_rng(GetParam());
  perm_rng.Shuffle(&relabeled.assignment);
  EXPECT_EQ(relabeled.SelectionCounts(txs), r.SelectionCounts(txs));
  const std::vector<uint32_t> counts = relabeled.SelectionCounts(txs);
  for (size_t i = 0; i < miners; ++i) {
    const double current = OwnUtility(fees, counts, relabeled.assignment[i]);
    std::vector<uint32_t> wo_self = counts;
    for (size_t j : relabeled.assignment[i]) --wo_self[j];
    EXPECT_LE(BestDeviationUtility(fees, wo_self, config.capacity),
              current + 1e-9)
        << "relabeled miner " << i << " profits by deviating";
  }
}

TEST_P(GamePropertyTest, IterativeMergeLeavesNoProfitableMergeBehind) {
  // Algorithm 1 must run the small shards down: when it stops, the
  // leftovers can no longer form a new shard — either fewer than two
  // remain or their combined size is below L. (Sizes here are generous
  // relative to L, so the bounded-retry escape hatch never triggers.)
  Rng rng(GetParam() + 13000);
  for (int trial = 0; trial < 5; ++trial) {
    const size_t n = 4 + rng.UniformInt(12);
    MergingGameConfig config;
    config.min_shard_size = 20;
    config.subslots = 16;
    config.max_slots = 80;
    std::vector<uint64_t> sizes;
    for (size_t i = 0; i < n; ++i) {
      sizes.push_back(8 + rng.UniformInt(12));  // Any pair reaches L=20.
    }
    Rng game_rng = rng.Fork();
    const IterativeMergeResult plan =
        RunIterativeMerge(sizes, config, &game_rng);
    uint64_t leftover_total = 0;
    for (size_t i : plan.leftover) leftover_total += sizes[i];
    EXPECT_TRUE(plan.leftover.size() < 2 ||
                leftover_total < config.min_shard_size)
        << "profitable merge left behind: " << plan.leftover.size()
        << " leftover shards totalling " << leftover_total << " (trial "
        << trial << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GamePropertyTest,
                         ::testing::Values(501, 502, 503, 504, 505));

}  // namespace
}  // namespace shardchain
