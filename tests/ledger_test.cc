#include <gtest/gtest.h>

#include "chain/ledger.h"
#include "consensus/pow.h"
#include "contract/registry.h"
#include "txpool/txpool.h"
#include "types/codec.h"

namespace shardchain {
namespace {

Address Addr(uint8_t tag) {
  Address a;
  a.bytes.fill(tag);
  return a;
}

Transaction Pay(const Address& from, const Address& to, Amount value,
                Amount fee, uint64_t nonce = 0) {
  Transaction tx;
  tx.kind = TxKind::kDirectTransfer;
  tx.sender = from;
  tx.recipient = to;
  tx.value = value;
  tx.fee = fee;
  tx.nonce = nonce;
  return tx;
}

StateDB FundedState() {
  StateDB state;
  state.Mint(Addr(1), 1000);
  state.Mint(Addr(2), 1000);
  return state;
}

// ---------------------------- TxPool -----------------------------------

TEST(TxPoolTest, AddAndContains) {
  TxPool pool;
  const Transaction tx = Pay(Addr(1), Addr(2), 10, 5);
  ASSERT_TRUE(pool.Add(tx).ok());
  EXPECT_TRUE(pool.Contains(tx.Id()));
  EXPECT_EQ(pool.Size(), 1u);
}

TEST(TxPoolTest, DuplicateRejected) {
  TxPool pool;
  const Transaction tx = Pay(Addr(1), Addr(2), 10, 5);
  ASSERT_TRUE(pool.Add(tx).ok());
  EXPECT_TRUE(pool.Add(tx).IsAlreadyExists());
}

TEST(TxPoolTest, TopByFeeOrdersDescending) {
  TxPool pool;
  ASSERT_TRUE(pool.Add(Pay(Addr(1), Addr(2), 1, 5)).ok());
  ASSERT_TRUE(pool.Add(Pay(Addr(1), Addr(2), 2, 50)).ok());
  ASSERT_TRUE(pool.Add(Pay(Addr(1), Addr(2), 3, 20)).ok());
  const auto top = pool.TopByFee(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].fee, 50u);
  EXPECT_EQ(top[1].fee, 20u);
}

TEST(TxPoolTest, RemoveAndRemoveAll) {
  TxPool pool;
  const Transaction a = Pay(Addr(1), Addr(2), 1, 5);
  const Transaction b = Pay(Addr(1), Addr(2), 2, 6);
  ASSERT_TRUE(pool.Add(a).ok());
  ASSERT_TRUE(pool.Add(b).ok());
  ASSERT_TRUE(pool.Remove(a.Id()).ok());
  EXPECT_TRUE(pool.Remove(a.Id()).IsNotFound());
  pool.RemoveAll({b});
  EXPECT_TRUE(pool.Empty());
}

TEST(TxPoolTest, CapacityEvictsCheapest) {
  TxPool pool(2);
  ASSERT_TRUE(pool.Add(Pay(Addr(1), Addr(2), 1, 10)).ok());
  ASSERT_TRUE(pool.Add(Pay(Addr(1), Addr(2), 2, 20)).ok());
  // A pricier tx evicts the fee-10 one.
  ASSERT_TRUE(pool.Add(Pay(Addr(1), Addr(2), 3, 30)).ok());
  EXPECT_EQ(pool.Size(), 2u);
  EXPECT_EQ(pool.TopByFee(2)[1].fee, 20u);
  // A cheaper-than-everything tx is rejected outright.
  EXPECT_TRUE(pool.Add(Pay(Addr(1), Addr(2), 4, 1)).IsFailedPrecondition());
}

TEST(TxPoolTest, DeterministicTieBreakById) {
  TxPool a;
  TxPool b;
  std::vector<Transaction> txs;
  for (uint8_t i = 0; i < 10; ++i) txs.push_back(Pay(Addr(i), Addr(99), 1, 7));
  for (const auto& tx : txs) ASSERT_TRUE(a.Add(tx).ok());
  for (auto it = txs.rbegin(); it != txs.rend(); ++it) {
    ASSERT_TRUE(b.Add(*it).ok());
  }
  const auto ta = a.TopByFee(10);
  const auto tb = b.TopByFee(10);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(ta[i].Id(), tb[i].Id());
}

// ----------------------------- Ledger -----------------------------------

TEST(LedgerTest, GenesisIsCanonical) {
  Ledger ledger(1, FundedState());
  EXPECT_EQ(ledger.CanonicalLength(), 1u);
  EXPECT_EQ(ledger.tip_number(), 0u);
  EXPECT_EQ(ledger.tip_hash(), ledger.genesis_hash());
  EXPECT_TRUE(ledger.Contains(ledger.genesis_hash()));
}

TEST(LedgerTest, BuildAndAppendBlock) {
  Ledger ledger(1, FundedState());
  const Address miner = Addr(9);
  Block block = ledger.BuildBlock(miner, {Pay(Addr(1), Addr(2), 100, 10)}, 1);
  ASSERT_EQ(block.transactions.size(), 1u);
  Result<Hash256> hash = ledger.Append(block);
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  EXPECT_EQ(ledger.tip_number(), 1u);
  EXPECT_EQ(ledger.tip_state().BalanceOf(Addr(2)), 1100u);
  // Miner got fee + block reward.
  EXPECT_EQ(ledger.tip_state().BalanceOf(miner),
            10u + ledger.config().block_reward);
  EXPECT_EQ(ledger.CanonicalTxCount(), 1u);
}

TEST(LedgerTest, AppendRejectsForeignShardId) {
  Ledger ledger(1, FundedState());
  Block block = ledger.BuildBlock(Addr(9), {}, 1);
  block.header.shard_id = 2;
  block.header.tx_root = block.ComputeTxRoot();
  EXPECT_TRUE(ledger.Append(block).status().IsUnauthorized());
}

TEST(LedgerTest, AppendRejectsUnknownParent) {
  Ledger ledger(1, FundedState());
  Block block = ledger.BuildBlock(Addr(9), {}, 1);
  block.header.parent_hash = Sha256Digest("nowhere");
  EXPECT_TRUE(ledger.Append(block).status().IsNotFound());
}

TEST(LedgerTest, AppendRejectsBadTxRoot) {
  Ledger ledger(1, FundedState());
  Block block = ledger.BuildBlock(Addr(9), {Pay(Addr(1), Addr(2), 1, 1)}, 1);
  block.header.tx_root = Sha256Digest("lies");
  EXPECT_TRUE(ledger.Append(block).status().IsCorruption());
}

TEST(LedgerTest, AppendRejectsBadStateRoot) {
  Ledger ledger(1, FundedState());
  Block block = ledger.BuildBlock(Addr(9), {Pay(Addr(1), Addr(2), 1, 1)}, 1);
  block.header.state_root = Sha256Digest("lies");
  block.header.tx_root = block.ComputeTxRoot();
  EXPECT_TRUE(ledger.Append(block).status().IsCorruption());
}

TEST(LedgerTest, AppendRejectsDuplicate) {
  Ledger ledger(1, FundedState());
  Block block = ledger.BuildBlock(Addr(9), {}, 1);
  ASSERT_TRUE(ledger.Append(block).ok());
  EXPECT_TRUE(ledger.Append(block).status().IsAlreadyExists());
}

TEST(LedgerTest, AppendRejectsOverfullBlock) {
  ChainConfig config;
  config.max_txs_per_block = 2;
  Ledger ledger(1, FundedState(), config);
  Block block = ledger.BuildBlock(Addr(9), {}, 1);
  for (uint64_t n = 0; n < 3; ++n) {
    block.transactions.push_back(Pay(Addr(1), Addr(2), 1, 1, n));
  }
  block.header.tx_root = block.ComputeTxRoot();
  EXPECT_TRUE(ledger.Append(block).status().IsInvalidArgument());
}

TEST(LedgerTest, AppendRejectsOverfullBlockBeforeHashing) {
  // The count is checked before the tx root, so an overfull block is
  // rejected as overfull (bounded work) even when its root is stale.
  ChainConfig config;
  config.max_txs_per_block = 2;
  Ledger ledger(1, FundedState(), config);
  Block block = ledger.BuildBlock(Addr(9), {}, 1);
  for (uint64_t n = 0; n < 3; ++n) {
    block.transactions.push_back(Pay(Addr(1), Addr(2), 1, 1, n));
  }
  ASSERT_NE(block.header.tx_root, block.ComputeTxRoot());
  EXPECT_TRUE(ledger.Append(block).status().IsInvalidArgument());
}

TEST(LedgerTest, BuildBlockRespectsCapacityAndSkipsInvalid) {
  ChainConfig config;
  config.max_txs_per_block = 3;
  Ledger ledger(1, FundedState(), config);
  std::vector<Transaction> txs;
  // One tx with a hopeless balance, then five valid ones.
  txs.push_back(Pay(Addr(5), Addr(2), 999999, 1));
  for (uint64_t n = 0; n < 5; ++n) {
    txs.push_back(Pay(Addr(1), Addr(2), 10, 1, n));
  }
  Block block = ledger.BuildBlock(Addr(9), txs, 1);
  EXPECT_EQ(block.transactions.size(), 3u);
  for (const auto& tx : block.transactions) EXPECT_EQ(tx.sender, Addr(1));
  EXPECT_TRUE(ledger.Append(block).ok());
}

TEST(LedgerTest, NonceOrderEnforced) {
  Ledger ledger(1, FundedState());
  // Nonce 1 before nonce 0 is rejected by execution; BuildBlock skips it.
  Block block = ledger.BuildBlock(Addr(9), {Pay(Addr(1), Addr(2), 1, 1, 1)}, 1);
  EXPECT_TRUE(block.transactions.empty());
}

TEST(LedgerTest, ForkChoiceLongestChainWins) {
  Ledger ledger(1, FundedState());
  // Chain A: one block on genesis.
  Block a1 = ledger.BuildBlock(Addr(9), {}, 1);
  ASSERT_TRUE(ledger.Append(a1).ok());
  const Hash256 tip_a = ledger.tip_hash();

  // Chain B: two blocks, also rooted at genesis (different miner so the
  // headers differ).
  Ledger shadow(1, FundedState());
  Block b1 = shadow.BuildBlock(Addr(8), {}, 1);
  ASSERT_TRUE(shadow.Append(b1).ok());
  Block b2 = shadow.BuildBlock(Addr(8), {}, 2);

  ASSERT_TRUE(ledger.Append(b1).ok());
  // Same-height sibling does not displace the tip.
  EXPECT_EQ(ledger.tip_hash(), tip_a);
  ASSERT_TRUE(ledger.Append(b2).ok());
  // Longer fork wins.
  EXPECT_EQ(ledger.tip_number(), 2u);
  EXPECT_NE(ledger.tip_hash(), tip_a);
  EXPECT_EQ(ledger.CanonicalChain().size(), 3u);
}

TEST(LedgerTest, EmptyBlockCounting) {
  Ledger ledger(1, FundedState());
  ASSERT_TRUE(ledger.Append(ledger.BuildBlock(Addr(9), {}, 1)).ok());
  ASSERT_TRUE(
      ledger
          .Append(ledger.BuildBlock(Addr(9), {Pay(Addr(1), Addr(2), 1, 1)}, 2))
          .ok());
  ASSERT_TRUE(ledger.Append(ledger.BuildBlock(Addr(9), {}, 3)).ok());
  EXPECT_EQ(ledger.CanonicalEmptyBlocks(), 2u);
  EXPECT_EQ(ledger.CanonicalTxCount(), 1u);
}

TEST(LedgerTest, ContractCallExecutesInBlock) {
  StateDB state;
  state.Mint(Addr(1), 1000);
  Result<Address> contract = ContractRegistry::Deploy(
      &state, Addr(7), contracts::UnconditionalTransfer(Addr(2)));
  ASSERT_TRUE(contract.ok());
  Ledger ledger(1, std::move(state));

  Transaction call;
  call.kind = TxKind::kContractCall;
  call.sender = Addr(1);
  call.recipient = *contract;
  call.value = 400;
  call.fee = 10;
  Block block = ledger.BuildBlock(Addr(9), {call}, 1);
  ASSERT_EQ(block.transactions.size(), 1u);
  ASSERT_TRUE(ledger.Append(block).ok());
  EXPECT_EQ(ledger.tip_state().BalanceOf(Addr(2)), 400u);
}

TEST(LedgerTest, DeployTransactionCreatesContract) {
  Ledger ledger(1, FundedState());
  Transaction deploy;
  deploy.kind = TxKind::kContractDeploy;
  deploy.sender = Addr(1);
  deploy.fee = 5;
  deploy.payload = contracts::UnconditionalTransfer(Addr(2)).Serialize();
  Block block = ledger.BuildBlock(Addr(9), {deploy}, 1);
  ASSERT_EQ(block.transactions.size(), 1u);
  ASSERT_TRUE(ledger.Append(block).ok());
  const Address expected = Address::ForContract(Addr(1), 0);
  EXPECT_TRUE(ledger.tip_state().IsContract(expected));
}

TEST(LedgerTest, PowCheckedWhenConfigured) {
  ChainConfig config;
  config.check_pow = true;
  Ledger ledger(1, FundedState(), config);
  Block block = ledger.BuildBlock(Addr(9), {}, 1);
  block.header.difficulty = 256;
  // Unsolved header almost surely fails the difficulty check.
  if (!pow::CheckPow(block.header)) {
    EXPECT_TRUE(ledger.Append(block).status().IsUnauthorized());
  }
  ASSERT_TRUE(pow::SolvePow(&block.header).has_value());
  EXPECT_TRUE(ledger.Append(block).ok());
}

// ------------------------------ PoW -------------------------------------

// ---------------------- built-state reuse cache -------------------------

TEST(LedgerTest, LastBuiltCacheHitOnImmediateAppend) {
  // Build-then-append is the hit path: the retained post-state must
  // satisfy the header's root and leave the tip fully consistent.
  Ledger ledger(1, FundedState());
  const Address miner = Addr(9);
  Block block = ledger.BuildBlock(miner, {Pay(Addr(1), Addr(2), 50, 5)}, 1);
  ASSERT_TRUE(ledger.Append(block).ok());
  EXPECT_EQ(ledger.tip_state().StateRoot(), block.header.state_root);
  // The cache is consumed: a second build-append cycle works on top.
  Block next = ledger.BuildBlock(miner, {Pay(Addr(2), Addr(1), 7, 2)}, 2);
  ASSERT_TRUE(ledger.Append(next).ok());
  EXPECT_EQ(ledger.tip_number(), 2u);
}

TEST(LedgerTest, LastBuiltCacheMissFallsBackToReExecution) {
  // Appending a block other than the one just built (different header
  // hash) must take the re-execution path and still land on the same
  // post-state a shadow ledger derives.
  Ledger ledger(1, FundedState());
  Ledger shadow(1, FundedState());
  const Address miner = Addr(9);
  // Prime the cache with block A...
  Block a = ledger.BuildBlock(miner, {Pay(Addr(1), Addr(2), 50, 5)}, 1);
  // ...then append B (same parent, different timestamp => different
  // hash), which the cache cannot serve.
  Block b = shadow.BuildBlock(miner, {Pay(Addr(1), Addr(2), 50, 5)}, 2);
  ASSERT_NE(a.header.Hash(), b.header.Hash());
  ASSERT_TRUE(ledger.Append(b).ok());
  ASSERT_TRUE(shadow.Append(b).ok());
  EXPECT_EQ(ledger.tip_hash(), shadow.tip_hash());
  EXPECT_EQ(ledger.tip_state().StateRoot(), shadow.tip_state().StateRoot());
  // A still appends as a same-height fork; the earlier tip wins ties.
  ASSERT_TRUE(ledger.Append(a).ok());
  EXPECT_EQ(ledger.tip_hash(), b.header.Hash());
}

TEST(LedgerTest, ImportAccountInvalidatesBuildCache) {
  // ImportAccount mutates the tip post-state under a cached built
  // block. If the stale cache were reused, the append would succeed
  // with a post-state that no longer matches the chain; instead the
  // cache is dropped, re-execution runs from the mutated tip, and the
  // root check rejects the now-inconsistent block.
  Ledger ledger(1, FundedState());
  Block block = ledger.BuildBlock(Addr(9), {Pay(Addr(1), Addr(2), 50, 5)}, 1);
  Account imported;
  imported.balance = 777;
  ASSERT_TRUE(ledger.ImportAccount(Addr(7), imported).ok());
  EXPECT_TRUE(ledger.Append(block).status().IsCorruption());
}

TEST(LedgerTest, AppendRejectsBuiltHeaderOverChangedBody) {
  // Append records the block BuildBlock just returned without hashing
  // its body again, but only when the body equals the built one. The
  // built header over a body with one fee changed must still fail the
  // tx-root check, and leave the built block appendable.
  Ledger ledger(1, FundedState());
  Block block = ledger.BuildBlock(
      Addr(9), {Pay(Addr(1), Addr(2), 50, 5), Pay(Addr(2), Addr(1), 7, 2)}, 1);
  ASSERT_EQ(block.transactions.size(), 2u);
  block.transactions[1].fee += 1;
  EXPECT_TRUE(ledger.Append(block).status().IsCorruption());
  EXPECT_EQ(ledger.tip_number(), 0u);
  block.transactions[1].fee -= 1;
  ASSERT_TRUE(ledger.Append(block).ok());
  EXPECT_EQ(ledger.tip_state().StateRoot(), block.header.state_root);
}

TEST(LedgerTest, BuildBlockRevertsFailingCandidateMidStream) {
  // A candidate that fails after making writes (fee charged, value
  // moved, then the VM rejects the call to a codeless address) forces
  // the RevertTo path inside BuildBlock; the block must come out
  // byte-identical to one built without the failing candidate.
  StateDB genesis = FundedState();
  genesis.Mint(Addr(3), 500);
  const Address miner = Addr(9);

  Transaction bad_call = Pay(Addr(3), Addr(0x66), 40, 4);
  bad_call.kind = TxKind::kContractCall;  // No code at 0x66: VM error.

  Ledger ledger(1, genesis);
  Block with_failure = ledger.BuildBlock(
      miner,
      {Pay(Addr(1), Addr(2), 100, 10), bad_call, Pay(Addr(2), Addr(1), 30, 3)},
      1);

  Ledger shadow(1, genesis);
  Block reference = shadow.BuildBlock(
      miner, {Pay(Addr(1), Addr(2), 100, 10), Pay(Addr(2), Addr(1), 30, 3)},
      1);

  ASSERT_EQ(with_failure.transactions.size(), 2u);
  EXPECT_EQ(codec::EncodeBlock(with_failure), codec::EncodeBlock(reference));
  ASSERT_TRUE(ledger.Append(with_failure).ok());
  // The failed candidate left no residue: Addr(3) kept its balance.
  EXPECT_EQ(ledger.tip_state().BalanceOf(Addr(3)), 500u);
}

TEST(LedgerTest, FailedTransactionLeavesStateUnchanged) {
  // The serial executor runs candidates with no bracket of its own, so
  // a transaction that fails must leave no write behind: no created
  // account, no fee charged, no cloned leaf.
  constexpr Amount kMax = ~Amount{0};
  const Address sender = Addr(1);
  const Address absent = Addr(0x55);
  const Address miner = Addr(9);

  StateDB genesis = FundedState();
  Result<Address> contract = ContractRegistry::Deploy(
      &genesis, Addr(7), contracts::UnconditionalTransfer(Addr(2)));
  ASSERT_TRUE(contract.ok());
  // A contract already sits where `sender`'s nonce-0 deploy would go.
  ASSERT_TRUE(genesis
                  .DeployContract(Address::ForContract(sender, 0),
                                  contracts::Escrow(Addr(2)).Serialize())
                  .ok());

  Transaction call = Pay(sender, *contract, 10, 5);
  call.kind = TxKind::kContractCall;
  call.gas_limit = 1;  // The VM runs out of gas after the call value moved.
  Transaction garbage_deploy = Pay(sender, Address{}, 0, 5);
  garbage_deploy.kind = TxKind::kContractDeploy;
  garbage_deploy.payload = {0xde, 0xad};
  Transaction colliding_deploy = garbage_deploy;
  colliding_deploy.payload =
      contracts::UnconditionalTransfer(Addr(2)).Serialize();

  const struct {
    const char* name;
    Transaction tx;
  } cases[] = {
      {"absent sender, fee + value wraps", Pay(absent, Addr(2), 1, kMax)},
      {"funded sender, fee + value wraps", Pay(sender, Addr(2), kMax, 1)},
      {"wrong nonce", Pay(sender, Addr(2), 10, 5, /*nonce=*/3)},
      {"short balance", Pay(sender, Addr(2), 996, 5)},
      {"contract call fails in the VM", call},
      {"undecodable deploy", garbage_deploy},
      {"deploy onto an existing contract", colliding_deploy},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    StateDB state = genesis;
    const Hash256 root = state.StateRoot();
    const size_t accounts = state.AccountCount();
    const std::vector<Address> addresses = state.Addresses();
    EXPECT_FALSE(
        Ledger::ExecuteTransaction(c.tx, miner, &state).ok());
    EXPECT_EQ(state.StateRoot(), root);
    EXPECT_EQ(state.AccountCount(), accounts);
    EXPECT_EQ(state.Addresses(), addresses);
    EXPECT_EQ(state.SnapshotDepth(), 0u);
  }
}

TEST(PowTest, TargetMonotoneInDifficulty) {
  EXPECT_GT(pow::TargetForDifficulty(2), pow::TargetForDifficulty(1000));
  EXPECT_EQ(pow::TargetForDifficulty(1), ~uint64_t{0});
}

TEST(PowTest, SolveMeetsCheck) {
  BlockHeader h;
  h.difficulty = 1024;
  const auto iters = pow::SolvePow(&h);
  ASSERT_TRUE(iters.has_value());
  EXPECT_TRUE(pow::CheckPow(h));
}

TEST(PowTest, SolveGivesUpWithinBudget) {
  BlockHeader h;
  h.difficulty = ~uint64_t{0};  // Effectively unsolvable.
  EXPECT_FALSE(pow::SolvePow(&h, 100).has_value());
}

TEST(PowTest, CalibratedMeanInterval) {
  // Difficulty 0x40000 on one unit of power = 60 s (Sec. VI-B1).
  EXPECT_NEAR(pow::MeanBlockInterval(0x40000, 1.0), 60.0, 1e-9);
  EXPECT_NEAR(pow::MeanBlockInterval(0x40000, 2.0), 30.0, 1e-9);
}

TEST(PowTest, SampleIntervalHasRightMean) {
  Rng rng(55);
  double total = 0.0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    total += pow::SampleBlockInterval(0x40000, 1.0, &rng);
  }
  EXPECT_NEAR(total / kSamples, 60.0, 2.0);
}

TEST(PowTest, DifficultyForThroughputMatchesPaperSetting) {
  // 76 tx/s with 10-tx blocks (Sec. VI-B2): interval 10/76 s.
  const uint64_t d = pow::DifficultyForThroughput(76.0, 10.0);
  EXPECT_NEAR(pow::MeanBlockInterval(d, 1.0), 10.0 / 76.0, 0.01);
}

}  // namespace
}  // namespace shardchain
