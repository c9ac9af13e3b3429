// Differential tests of the block executor, Ledger::ExecuteCandidates
// (DESIGN.md §13): BuildBlock and the executor must keep exactly the
// transactions, and leave exactly the state, of SerialReplay, a greedy
// inclusion loop written out independently with a snapshot bracket per
// candidate. Four workload shapes run over 20 seeds each: uniform
// transfers, Zipf hot-account traffic from the adversarial stream, an
// all-conflict hot account, and contract-call mixes with deploys and
// hostile candidates. A seeded hostile-candidate fuzz compares the
// executor to SerialReplay account by account, and the executor's
// in-place contract is pinned under a caller-held snapshot. The suite
// names are kept from when the executor also ran lanes, so the test
// ids stay stable.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chain/ledger.h"
#include "common/rng.h"
#include "contract/registry.h"
#include "contract/vm.h"
#include "sim/workload.h"

namespace shardchain {
namespace {

constexpr uint64_t kNumSeeds = 20;

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

/// One differential cell: a genesis state plus a candidate list.
struct Scenario {
  StateDB genesis;
  std::vector<Transaction> txs;
  ChainConfig config;
};

/// Uniform traffic: distinct senders paying recipients from a small
/// pool, a sprinkling of deliberately invalid candidates (hopeless
/// balances, bad nonces) so inclusion decisions are exercised too.
Scenario UniformScenario(uint64_t seed) {
  Rng rng(seed * 7919 + 1);
  Scenario s;
  s.config.max_txs_per_block = 64;
  std::vector<Address> recipients;
  for (int i = 0; i < 12; ++i) recipients.push_back(RandomAddress(&rng));
  const size_t n = 32 + rng.UniformInt(17);
  for (size_t i = 0; i < n; ++i) {
    const Address sender = RandomAddress(&rng);
    const Address to = recipients[rng.UniformInt(recipients.size())];
    Transaction tx = Pay(sender, to, 1 + rng.UniformInt(50),
                         1 + rng.UniformInt(10));
    if (rng.Bernoulli(0.15)) {
      // Unfundable or mis-nonced: must be skipped identically.
      if (rng.Bernoulli(0.5)) {
        tx.value = 1'000'000'000;
      } else {
        tx.nonce = 5;
      }
    }
    s.genesis.Mint(sender, 200);
    s.txs.push_back(tx);
  }
  return s;
}

/// Zipf hot-account traffic from the adversarial stream, with the
/// stream's contract universe actually deployed (UnconditionalTransfer
/// programs) so the calls execute and conflict on the hot contracts.
Scenario ZipfScenario(uint64_t seed) {
  Scenario s;
  s.config.max_txs_per_block = 64;
  AdversarialWorkloadConfig config;
  config.base.num_transactions = 48;
  config.base.num_contracts = 6;
  config.base.zipf_exponent = 1.2;
  config.flash_period = 1;  // Every epoch is a flash crowd.
  config.flash_crowd_share = 0.5;
  AdversarialWorkloadStream stream(config, seed);
  Workload workload = stream.NextEpoch();
  Rng rng(seed * 104729 + 7);
  for (size_t c = 0; c < workload.contracts.size(); ++c) {
    const Address destination = RandomAddress(&rng);
    const Status deployed = s.genesis.DeployContract(
        workload.contracts[c],
        contracts::UnconditionalTransfer(destination).Serialize());
    EXPECT_TRUE(deployed.ok()) << deployed.ToString();
  }
  FundWorkload(workload.transactions, &s.genesis);
  s.txs = std::move(workload.transactions);
  return s;
}

/// All-conflict: every candidate credits the same hot account.
Scenario AllConflictScenario(uint64_t seed) {
  Rng rng(seed * 31 + 17);
  Scenario s;
  s.config.max_txs_per_block = 32;
  const Address hot = Addr(0xee);
  const size_t n = 16 + rng.UniformInt(9);
  for (size_t i = 0; i < n; ++i) {
    const Address sender = RandomAddress(&rng);
    s.genesis.Mint(sender, 500);
    s.txs.push_back(Pay(sender, hot, 1 + rng.UniformInt(100),
                        1 + rng.UniformInt(5)));
  }
  return s;
}

/// Contract-call mix: the standard templates (escrow, token,
/// crowdfund, conditional transfer), interleaved with transfers,
/// deploys, calls to not-yet-deployed addresses, and
/// repeat-sender sequences whose nonces chain. Hostile candidates ride
/// along: fee + value past 2^64, undecodable deploys, calls that run out
/// of gas after their value moved, senders never funded, and the miner
/// every cell uses (Addr(0x99)) paying itself.
Scenario ContractMixScenario(uint64_t seed) {
  constexpr Amount kMax = ~Amount{0};
  Rng rng(seed * 6151 + 3);
  Scenario s;
  s.config.max_txs_per_block = 64;

  const Address owner = Addr(0x01);
  s.genesis.Mint(owner, 10'000);
  std::vector<Address> parties;
  for (int i = 0; i < 4; ++i) {
    parties.push_back(RandomAddress(&rng));
    s.genesis.Mint(parties.back(), 1'000);
  }
  Result<Address> escrow = ContractRegistry::Deploy(
      &s.genesis, owner, contracts::Escrow(parties[0]));
  Result<Address> token =
      ContractRegistry::Deploy(&s.genesis, owner, contracts::Token(parties));
  Result<Address> crowdfund = ContractRegistry::Deploy(
      &s.genesis, owner, contracts::Crowdfund(parties[1], 500));
  Result<Address> conditional = ContractRegistry::Deploy(
      &s.genesis, owner, contracts::ConditionalTransfer(parties[2], 2'000));
  EXPECT_TRUE(escrow.ok() && token.ok() && crowdfund.ok() &&
              conditional.ok());
  const std::vector<Address> targets{*escrow, *token, *crowdfund,
                                     *conditional};

  const size_t n = 28 + rng.UniformInt(13);
  std::map<Address, uint64_t> nonces;
  std::vector<Address> senders;
  for (int i = 0; i < 10; ++i) {
    senders.push_back(RandomAddress(&rng));
    s.genesis.Mint(senders.back(), 5'000);
  }
  for (size_t i = 0; i < n; ++i) {
    Address sender = senders[rng.UniformInt(senders.size())];
    // Off for candidates that always fail, so the sender's next
    // candidate still carries the nonce it expects.
    bool takes_nonce = true;
    Transaction tx;
    tx.fee = 1 + rng.UniformInt(8);
    const uint32_t shape = static_cast<uint32_t>(rng.UniformInt(14));
    if (shape < 3) {
      tx.kind = TxKind::kDirectTransfer;
      tx.recipient = parties[rng.UniformInt(parties.size())];
      tx.value = 1 + rng.UniformInt(40);
    } else if (shape < 8) {
      tx.kind = TxKind::kContractCall;
      tx.recipient = targets[rng.UniformInt(targets.size())];
      tx.value = 1 + rng.UniformInt(60);
      if (tx.recipient == *escrow) {
        tx.payload = Vm::EncodeArgs({rng.Bernoulli(0.7) ? 0 : 1});
      } else if (tx.recipient == *token) {
        tx.payload = Vm::EncodeArgs(
            {0, static_cast<int64_t>(rng.UniformInt(parties.size()))});
      } else if (tx.recipient == *crowdfund) {
        tx.payload = Vm::EncodeArgs({rng.Bernoulli(0.8) ? 0 : 1});
      }
    } else if (shape == 8) {
      // Deploy; some payloads do not decode.
      tx.kind = TxKind::kContractDeploy;
      tx.payload =
          contracts::UnconditionalTransfer(RandomAddress(&rng)).Serialize();
      if (rng.Bernoulli(0.3)) tx.payload = Bytes{0xde, 0xad};
    } else if (shape == 9) {
      // Call into the void: fails at execution.
      tx.kind = TxKind::kContractCall;
      tx.recipient = RandomAddress(&rng);
      tx.value = 1;
    } else if (shape == 10) {
      tx.kind = TxKind::kDirectTransfer;
      tx.recipient = parties[rng.UniformInt(parties.size())];
      tx.value = kMax - rng.UniformInt(4);
      takes_nonce = false;
    } else if (shape == 11) {
      tx.kind = TxKind::kContractCall;
      tx.recipient = targets[rng.UniformInt(targets.size())];
      tx.value = 1 + rng.UniformInt(60);
      tx.gas_limit = 1;
      takes_nonce = false;
    } else if (shape == 12) {
      // A free transfer creates the sender; a fee of 1 fails.
      sender = RandomAddress(&rng);
      tx.kind = TxKind::kDirectTransfer;
      tx.recipient = parties[rng.UniformInt(parties.size())];
      tx.fee = rng.UniformInt(2);
    } else {
      sender = Addr(0x99);
      tx.kind = TxKind::kDirectTransfer;
      tx.recipient = sender;
      tx.value = rng.UniformInt(5);
    }
    tx.sender = sender;
    tx.nonce = takes_nonce ? nonces[sender]++ : nonces[sender];
    s.txs.push_back(tx);
  }
  return s;
}

Scenario MakeScenario(int kind, uint64_t seed) {
  switch (kind) {
    case 0:
      return UniformScenario(seed);
    case 1:
      return ZipfScenario(seed);
    case 2:
      return AllConflictScenario(seed);
    default:
      return ContractMixScenario(seed);
  }
}

const char* KindName(int kind) {
  switch (kind) {
    case 0:
      return "uniform";
    case 1:
      return "zipf";
    case 2:
      return "all-conflict";
    default:
      return "contract-mix";
  }
}

/// Ids of `txs`, in order.
std::vector<Hash256> Ids(const std::vector<Transaction>& txs) {
  std::vector<Hash256> ids;
  for (const Transaction& tx : txs) ids.push_back(tx.Id());
  return ids;
}

/// The reference: greedy inclusion written out independently of the
/// executor, with a snapshot bracket per candidate, minus header
/// assembly and the block reward. Runs in place on `*state` and returns
/// the kept transactions.
std::vector<Transaction> SerialReplay(const std::vector<Transaction>& txs,
                                      const Address& miner,
                                      const ChainConfig& config,
                                      StateDB* state) {
  std::vector<Transaction> included;
  for (const Transaction& tx : txs) {
    if (included.size() >= config.max_txs_per_block) break;
    const size_t trial = state->Snapshot();
    if (Ledger::ExecuteTransaction(tx, miner, state).ok()) {
      EXPECT_TRUE(state->Commit(trial).ok());
      included.push_back(tx);
    } else {
      EXPECT_TRUE(state->RevertTo(trial).ok());
    }
  }
  return included;
}

/// Expects `got` to hold exactly `expect`'s accounts, field by field,
/// not just the same root.
void ExpectSameAccounts(const StateDB& got, const StateDB& expect) {
  EXPECT_EQ(got.Addresses(), expect.Addresses());
  for (const Address& addr : expect.Addresses()) {
    const Account* want = expect.Find(addr);
    const Account* have = got.Find(addr);
    ASSERT_NE(have, nullptr) << addr.ToHex();
    EXPECT_EQ(have->balance, want->balance) << addr.ToHex();
    EXPECT_EQ(have->nonce, want->nonce) << addr.ToHex();
    EXPECT_EQ(have->storage, want->storage) << addr.ToHex();
    EXPECT_EQ(have->code, want->code) << addr.ToHex();
  }
  EXPECT_EQ(got.StateRoot(), expect.StateRoot());
}

/// One differential cell: BuildBlock against SerialReplay. The block
/// must carry exactly the replay's inclusions, in order, and commit to
/// the replay's state plus the block reward, both as built and once
/// Append has recorded the retained post-state.
void RunDifferentialCell(const Scenario& s) {
  const Address miner = Addr(0x99);
  StateDB expect = s.genesis;
  const std::vector<Transaction> expect_included =
      SerialReplay(s.txs, miner, s.config, &expect);
  expect.Mint(miner, s.config.block_reward);

  Ledger ledger(1, s.genesis, s.config);
  const Block built = ledger.BuildBlock(miner, s.txs, 1);
  EXPECT_EQ(Ids(built.transactions), Ids(expect_included));
  EXPECT_EQ(built.header.state_root, expect.StateRoot());
  ASSERT_TRUE(ledger.Append(built).ok());
  ExpectSameAccounts(ledger.tip_state(), expect);
}

void RunDifferentialCells(int kind) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    SCOPED_TRACE(std::string(KindName(kind)) + " seed " +
                 std::to_string(seed));
    RunDifferentialCell(MakeScenario(kind, seed));
  }
}

TEST(ParallelExecEquivalence, UniformWorkloadMatchesSerial) {
  RunDifferentialCells(0);
}

TEST(ParallelExecEquivalence, ZipfAdversarialWorkloadMatchesSerial) {
  RunDifferentialCells(1);
}

TEST(ParallelExecEquivalence, AllConflictWorkloadMatchesSerial) {
  RunDifferentialCells(2);
}

TEST(ParallelExecEquivalence, ContractMixWorkloadMatchesSerial) {
  RunDifferentialCells(3);
}

TEST(ParallelExecEquivalence, BlockCapOverflowMatchesSerial) {
  // More valid candidates than the block holds: the executor stops at
  // the cap, and nothing past it reaches the post-state.
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    SCOPED_TRACE("cap-overflow seed " + std::to_string(seed));
    Scenario s = UniformScenario(seed);
    s.config.max_txs_per_block = 5;
    StateDB replay = s.genesis;
    ASSERT_EQ(SerialReplay(s.txs, Addr(0x99), s.config, &replay).size(), 5u);
    RunDifferentialCell(s);
  }
}

// ------------------- hostile-candidate fuzz ------------------------------

/// Runs the executor on a fork of `genesis` and compares what it keeps,
/// and the state it leaves, to SerialReplay account by account.
void ExpectExecutorMatchesSerialReplay(const StateDB& genesis,
                                       const std::vector<Transaction>& txs,
                                       const Address& miner,
                                       const ChainConfig& config) {
  StateDB serial = genesis;
  const std::vector<Transaction> serial_included =
      SerialReplay(txs, miner, config, &serial);
  StateDB state = genesis;
  const std::vector<Transaction> included =
      Ledger::ExecuteCandidates(txs, miner, config, &state);
  EXPECT_EQ(Ids(included), Ids(serial_included));
  EXPECT_EQ(state.SnapshotDepth(), 0u);
  ExpectSameAccounts(state, serial);
}

TEST(ConflictScheduleFuzz, ModificationLogMergeEqualsSerialReplay) {
  // Random overlapping transfer workloads with hostile candidates, then
  // the contract-mix shape. The executor runs candidates with no
  // bracket, so each failure below must leave no write behind.
  constexpr Amount kMax = ~Amount{0};
  const Address miner = Addr(0x99);
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    Rng rng(seed * 2654435761u + 9);
    StateDB genesis;
    std::vector<Address> actors;
    for (int i = 0; i < 10; ++i) {
      actors.push_back(Addr(static_cast<uint8_t>(10 + i)));
      if (rng.Bernoulli(0.8)) genesis.Mint(actors.back(), rng.UniformInt(300));
    }
    Result<Address> contract = ContractRegistry::Deploy(
        &genesis, Addr(0x30), contracts::UnconditionalTransfer(actors[0]));
    ASSERT_TRUE(contract.ok());
    std::vector<Transaction> txs;
    std::map<Address, uint64_t> nonces;
    const size_t n = 8 + rng.UniformInt(25);
    for (size_t i = 0; i < n; ++i) {
      const Address from = actors[rng.UniformInt(actors.size())];
      const Address to = actors[rng.UniformInt(actors.size())];
      Transaction tx = Pay(from, to, rng.UniformInt(120), rng.UniformInt(6));
      switch (rng.UniformInt(12)) {
        case 0:  // fee near 2^64: fee + value mostly wraps.
          tx.fee = kMax - rng.UniformInt(4);
          break;
        case 1:
          tx.value = kMax - rng.UniformInt(4);
          break;
        case 2:  // A sender never funded; free transactions still pass.
          tx.sender = Addr(static_cast<uint8_t>(0x70 + rng.UniformInt(4)));
          tx.fee = rng.UniformInt(2);
          tx.value = rng.UniformInt(2);
          break;
        case 3:  // The miner pays itself.
          tx.sender = miner;
          tx.recipient = miner;
          break;
        case 4:  // A call that succeeds, or runs out of gas in the VM.
          tx.kind = TxKind::kContractCall;
          tx.recipient = *contract;
          if (rng.Bernoulli(0.5)) tx.gas_limit = 1;
          break;
        case 5:  // A call to an address without code.
          tx.kind = TxKind::kContractCall;
          break;
        case 6:  // A deploy, undecodable half of the time.
          tx.kind = TxKind::kContractDeploy;
          tx.payload =
              rng.Bernoulli(0.5)
                  ? Bytes{0xde, 0xad}
                  : contracts::UnconditionalTransfer(to).Serialize();
          break;
        default:
          break;
      }
      tx.nonce = nonces[tx.sender];
      // Some candidates carry a stale nonce or pay the miner.
      if (rng.Bernoulli(0.1)) tx.nonce += 1;
      if (rng.Bernoulli(0.1)) tx.recipient = miner;
      txs.push_back(tx);
      if (tx.nonce == nonces[tx.sender]) ++nonces[tx.sender];
    }
    ChainConfig config;
    config.max_txs_per_block = 6 + rng.UniformInt(30);
    ExpectExecutorMatchesSerialReplay(genesis, txs, miner, config);
  }
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    SCOPED_TRACE("contract-mix seed " + std::to_string(seed));
    const Scenario s = ContractMixScenario(seed);
    ExpectExecutorMatchesSerialReplay(s.genesis, s.txs, miner, s.config);
  }
}

// ------------------- in-place contract -----------------------------------

TEST(ParallelExecEquivalence, InPlaceUnderCallerSnapshot) {
  // The pipeline's calling pattern: the executor runs on a state the
  // caller already holds a snapshot on. It must leave that snapshot the
  // only one open, keep what SerialReplay keeps, write exactly the
  // accounts SerialReplay writes (the caller's TouchedSince span), and
  // stay revertible by the caller. Cap 5 stops mid-list.
  const Address miner = Addr(0x99);
  for (const int kind : {0, 3}) {
    for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
      for (const uint64_t cap : {5u, 1000u}) {
        SCOPED_TRACE(std::string(KindName(kind)) + " seed " +
                     std::to_string(seed) + " cap " + std::to_string(cap));
        Scenario s = MakeScenario(kind, seed);
        s.config.max_txs_per_block = cap;
        const Hash256 pre_root = s.genesis.StateRoot();

        StateDB replay = s.genesis;
        const size_t replay_outer = replay.Snapshot();
        const std::vector<Transaction> replay_included =
            SerialReplay(s.txs, miner, s.config, &replay);
        Result<std::vector<Address>> replay_touched =
            replay.TouchedSince(replay_outer);
        ASSERT_TRUE(replay_touched.ok());

        StateDB state = s.genesis;
        const size_t outer = state.Snapshot();
        const std::vector<Transaction> included =
            Ledger::ExecuteCandidates(s.txs, miner, s.config, &state);
        EXPECT_EQ(state.SnapshotDepth(), 1u);
        EXPECT_EQ(Ids(included), Ids(replay_included));
        Result<std::vector<Address>> touched = state.TouchedSince(outer);
        ASSERT_TRUE(touched.ok()) << touched.status().ToString();
        EXPECT_EQ(*touched, *replay_touched);
        EXPECT_EQ(state.StateRoot(), replay.StateRoot());
        ASSERT_TRUE(state.RevertTo(outer).ok());
        EXPECT_EQ(state.SnapshotDepth(), 0u);
        EXPECT_EQ(state.StateRoot(), pre_root);
      }
    }
  }
}

// ------------------- last_built_ reuse cache -----------------------------

TEST(ParallelExecEquivalence, LastBuiltReuseAfterParallelBuild) {
  // The producer's Append records the block and post-state BuildBlock
  // retained; a receiver that did not build the block re-executes it.
  // Both must reach the same tip, block after block.
  const Scenario s = ContractMixScenario(3);
  const Address miner = Addr(0x99);
  Ledger producer(1, s.genesis, s.config);
  Ledger receiver(1, s.genesis, s.config);
  for (uint64_t height = 1; height <= 2; ++height) {
    SCOPED_TRACE("height " + std::to_string(height));
    const Block built = producer.BuildBlock(miner, s.txs, height);
    ASSERT_TRUE(producer.Append(built).ok());
    ASSERT_TRUE(receiver.Append(built).ok());
    EXPECT_EQ(producer.tip_hash(), receiver.tip_hash());
    ExpectSameAccounts(producer.tip_state(), receiver.tip_state());
  }
  EXPECT_EQ(producer.tip_number(), 2u);
}

}  // namespace
}  // namespace shardchain
