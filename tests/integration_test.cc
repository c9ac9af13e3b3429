// Cross-component integration tests: wire-level block exchange between
// two system instances, epoch chaining through the façade, and the VM
// tracer.

#include <gtest/gtest.h>

#include "contract/assembler.h"
#include "core/sharding_system.h"
#include "types/codec.h"

namespace shardchain {
namespace {

Address Addr(uint8_t tag) {
  Address a;
  a.bytes.fill(tag);
  return a;
}

ShardingSystemConfig SmallConfig() {
  ShardingSystemConfig config;
  config.chain.max_txs_per_block = 10;
  return config;
}

/// Two replicas built from the same seed hold identical miner keys and
/// genesis, so one can validate and adopt the other's blocks — the
/// wire-level version of "all the miners record that block locally".
class TwinSystemsTest : public ::testing::Test {
 protected:
  TwinSystemsTest()
      : alice_(SmallConfig(), /*seed=*/99), bob_(SmallConfig(), /*seed=*/99) {}

  void SetUpUniverse() {
    for (int i = 0; i < 3; ++i) {
      alice_.AddMiner();
      bob_.AddMiner();
    }
    contract_ = *alice_.DeployContract(
        Addr(1), contracts::UnconditionalTransfer(Addr(0xee)));
    ASSERT_EQ(contract_, *bob_.DeployContract(
                             Addr(1),
                             contracts::UnconditionalTransfer(Addr(0xee))));
    // Same funding on both replicas, before shards form.
    tx_ = MakeTx(10);
    alice_.Mint(tx_.sender, 1000);
    bob_.Mint(tx_.sender, 1000);
    ASSERT_TRUE(alice_.BeginEpoch(1).ok());
    ASSERT_TRUE(bob_.BeginEpoch(1).ok());
    ASSERT_EQ(alice_.epoch_randomness(), bob_.epoch_randomness());
  }

  Transaction MakeTx(uint8_t user) {
    Transaction tx;
    tx.kind = TxKind::kContractCall;
    tx.sender = Addr(user);
    tx.recipient = contract_;
    tx.value = 50;
    tx.fee = 5;
    return tx;
  }

  ShardingSystem alice_;
  ShardingSystem bob_;
  Address contract_;
  Transaction tx_;
};

TEST_F(TwinSystemsTest, BlockMinedHereAppliesThere) {
  SetUpUniverse();
  ASSERT_TRUE(alice_.SubmitTransaction(tx_).ok());
  ASSERT_TRUE(bob_.SubmitTransaction(tx_).ok());
  // Move miners onto the contract shard.
  ASSERT_TRUE(alice_.BeginEpoch(2).ok());
  ASSERT_TRUE(bob_.BeginEpoch(2).ok());

  // Alice's miner 0 mines; find the block.
  Result<Hash256> mined = alice_.MineBlock(0);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  const ShardId shard = alice_.ShardOfMiner(0);
  const Block* block = alice_.ShardLedger(shard)->Find(*mined);
  ASSERT_NE(block, nullptr);

  // Bob derives the same epoch and holds the same miner keys, so the
  // block's coinbase names his miner 0, who serves the block's shard;
  // he accepts the wire bytes.
  const Bytes wire = codec::EncodeBlock(*block);
  Result<Hash256> received = bob_.ReceiveBlockBytes(wire);
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(*received, *mined);
  EXPECT_EQ(bob_.ShardLedger(shard)->CanonicalTxCount(), 1u);
  // The pooled duplicate was flushed on receipt.
  EXPECT_EQ(bob_.ShardPool(shard)->Size(), 0u);
  // Both replicas agree on the post state.
  EXPECT_EQ(bob_.ShardLedger(shard)->tip_state().StateRoot(),
            alice_.ShardLedger(shard)->tip_state().StateRoot());
}

TEST_F(TwinSystemsTest, TamperedWireBlockRejected) {
  SetUpUniverse();
  ASSERT_TRUE(alice_.SubmitTransaction(tx_).ok());
  ASSERT_TRUE(bob_.SubmitTransaction(tx_).ok());
  ASSERT_TRUE(alice_.BeginEpoch(2).ok());
  ASSERT_TRUE(bob_.BeginEpoch(2).ok());
  Result<Hash256> mined = alice_.MineBlock(0);
  ASSERT_TRUE(mined.ok());
  const ShardId shard = alice_.ShardOfMiner(0);
  const Block* block = alice_.ShardLedger(shard)->Find(*mined);
  ASSERT_NE(block, nullptr);

  // Flip a byte inside the body: either decode or the tx-root check
  // must reject it.
  Bytes wire = codec::EncodeBlock(*block);
  if (wire.size() > 160) wire[160] ^= 0x01;
  EXPECT_FALSE(bob_.ReceiveBlockBytes(wire).ok());

  // The honest bytes fail too once the packer the coinbase names has
  // departed on Bob's side.
  ASSERT_TRUE(bob_.CrashMiner(0).ok());
  const Status st =
      bob_.ReceiveBlockBytes(codec::EncodeBlock(*block)).status();
  EXPECT_EQ(st.code(), Status::Code::kUnauthorized) << st.ToString();
}

TEST_F(TwinSystemsTest, OutsiderCoinbaseRejected) {
  SetUpUniverse();
  ASSERT_TRUE(alice_.SubmitTransaction(tx_).ok());
  ASSERT_TRUE(bob_.SubmitTransaction(tx_).ok());
  ASSERT_TRUE(alice_.BeginEpoch(2).ok());
  ASSERT_TRUE(bob_.BeginEpoch(2).ok());

  // A well-formed block on the serving shard whose coinbase is no
  // miner's: accepting it would pay its fee and the block reward to an
  // outsider.
  const ShardId shard = alice_.ShardOfMiner(0);
  const Ledger& ledger = *alice_.ShardLedger(shard);
  const Block forged =
      ledger.BuildBlock(Addr(0x66), {tx_}, ledger.tip_number() + 1);
  ASSERT_EQ(forged.transactions.size(), 1u);

  const Status st =
      bob_.ReceiveBlockBytes(codec::EncodeBlock(forged)).status();
  EXPECT_EQ(st.code(), Status::Code::kUnauthorized) << st.ToString();
  EXPECT_EQ(bob_.ShardLedger(shard)->tip_state().BalanceOf(Addr(0x66)), 0u);
  EXPECT_EQ(bob_.ShardPool(shard)->Size(), 1u);
}

TEST_F(TwinSystemsTest, EpochChainsAreIdenticalAcrossReplicas) {
  SetUpUniverse();
  for (uint64_t e = 2; e <= 5; ++e) {
    ASSERT_TRUE(alice_.BeginEpoch(e).ok());
    ASSERT_TRUE(bob_.BeginEpoch(e).ok());
    EXPECT_EQ(alice_.epoch_randomness(), bob_.epoch_randomness());
    EXPECT_EQ(alice_.leader(), bob_.leader());
  }
  EXPECT_EQ(alice_.epochs().EpochCount(), 5u);
  // Randomness actually changes across epochs (no stuck chain).
  const auto& history = alice_.epochs().History();
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_NE(history[i].randomness, history[i - 1].randomness);
    EXPECT_NE(history[i].seed, history[i - 1].seed);
  }
}

// ------------------------------ VM tracer --------------------------------

TEST(VmTracerTest, TraceCoversEveryExecutedInstruction) {
  ContractProgram program;
  program.code = *Assemble("PUSH 1\nPUSH 2\nADD\nPOP\nSTOP");
  StateDB state;
  CallContext ctx;
  ctx.contract = Addr(0xcc);
  ctx.caller = Addr(0xaa);
  std::vector<TraceStep> steps;
  ctx.tracer = [&](const TraceStep& s) { steps.push_back(s); };
  ASSERT_TRUE(Vm::Execute(program, ctx, &state).ok());
  ASSERT_EQ(steps.size(), 5u);
  EXPECT_EQ(steps[0].op, Op::kPush);
  EXPECT_EQ(steps[2].op, Op::kAdd);
  EXPECT_EQ(steps[2].stack_depth_before, 2u);
  EXPECT_EQ(steps[4].op, Op::kStop);
  // Gas is monotone.
  for (size_t i = 1; i < steps.size(); ++i) {
    EXPECT_GT(steps[i].gas_after, steps[i - 1].gas_after);
  }
}

TEST(VmTracerTest, TraceStopsAtRevert) {
  ContractProgram program;
  program.code = *Assemble("PUSH 1\nREVERT\nPUSH 2\nSTOP");
  StateDB state;
  CallContext ctx;
  ctx.contract = Addr(0xcc);
  ctx.caller = Addr(0xaa);
  std::vector<TraceStep> steps;
  ctx.tracer = [&](const TraceStep& s) { steps.push_back(s); };
  EXPECT_FALSE(Vm::Execute(program, ctx, &state).ok());
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps.back().op, Op::kRevert);
}

}  // namespace
}  // namespace shardchain
