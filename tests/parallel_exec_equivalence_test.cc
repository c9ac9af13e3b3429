// Differential serial-vs-parallel block building (ctest label:
// parallel): Ledger::BuildBlock with a conflict-aware exec pool at
// thread counts {1, 2, 3, 4, 7, 8} must produce byte-identical block
// encodings, state roots, inclusion sets, and retained post-states to
// the strictly serial greedy loop, for ≥20 seeds across four workload
// shapes — uniform transfers, Zipf hot-account traffic from the
// adversarial stream, the all-conflict degenerate case (which must
// degrade to a width-1 schedule), and contract-call mixes with deploys
// and serial barriers. A seeded conflict-schedule fuzz additionally
// asserts the lane coloring invariant and that the modification-log
// merge equals serial replay account-by-account, and the executor's
// in-place contract is pinned under a caller-held snapshot
// (DESIGN.md §13).

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chain/ledger.h"
#include "chain/executor.h"
#include "common/rng.h"
#include "contract/registry.h"
#include "contract/vm.h"
#include "parallel/thread_pool.h"
#include "sim/workload.h"
#include "types/codec.h"

namespace shardchain {
namespace {

const size_t kThreadCounts[] = {1, 2, 3, 4, 7, 8};
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

/// All-conflict: every candidate credits the same hot account, so the
/// schedule must degrade to one transaction per lane.
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
/// deploys (serial barriers), calls to not-yet-deployed addresses, and
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
      // Deploy: always a serial barrier; some payloads do not decode.
      tx.kind = TxKind::kContractDeploy;
      tx.payload =
          contracts::UnconditionalTransfer(RandomAddress(&rng)).Serialize();
      if (rng.Bernoulli(0.3)) tx.payload = Bytes{0xde, 0xad};
    } else if (shape == 9) {
      // Call into the void: fails at execution, unresolvable footprint.
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

/// Runs one differential cell: serial reference build vs pool builds at
/// every thread count, asserting bitwise identity of the encoded block,
/// the state root, and the post-append tip state.
void RunDifferentialCell(int kind, uint64_t seed) {
  SCOPED_TRACE(std::string(KindName(kind)) + " seed " + std::to_string(seed));
  const Scenario s = MakeScenario(kind, seed);
  const Address miner = Addr(0x99);

  Ledger serial_ledger(1, s.genesis, s.config);
  Result<Block> serial_built = serial_ledger.BuildBlock(miner, s.txs, 1);
  ASSERT_TRUE(serial_built.ok()) << serial_built.status().ToString();
  const Bytes serial_bytes = codec::EncodeBlock(*serial_built);
  ASSERT_TRUE(serial_ledger.Append(*serial_built).ok());
  const Hash256 serial_tip_root = serial_ledger.tip_state().StateRoot();

  for (const size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    Ledger ledger(1, s.genesis, s.config);
    ledger.SetExecPool(&pool);
    Result<Block> built = ledger.BuildBlock(miner, s.txs, 1);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_EQ(codec::EncodeBlock(*built), serial_bytes)
        << "block bytes diverged at " << threads << " threads";
    EXPECT_EQ(built->header.state_root, serial_built->header.state_root)
        << "state root diverged at " << threads << " threads";
    // The retained post-state must be equivalent too: append the block
    // (consuming the last_built_ cache) and compare the tip.
    ASSERT_TRUE(ledger.Append(*built).ok());
    EXPECT_EQ(ledger.tip_state().StateRoot(), serial_tip_root)
        << "retained post-state diverged at " << threads << " threads";
  }
}

TEST(ParallelExecEquivalence, UniformWorkloadMatchesSerial) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    RunDifferentialCell(0, seed);
  }
}

TEST(ParallelExecEquivalence, ZipfAdversarialWorkloadMatchesSerial) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    RunDifferentialCell(1, seed);
  }
}

TEST(ParallelExecEquivalence, AllConflictWorkloadMatchesSerial) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    RunDifferentialCell(2, seed);
  }
}

TEST(ParallelExecEquivalence, ContractMixWorkloadMatchesSerial) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    RunDifferentialCell(3, seed);
  }
}

TEST(ParallelExecEquivalence, AllConflictDegradesToSerialSchedule) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const Scenario s = AllConflictScenario(seed);
    const Address miner = Addr(0x99);
    std::vector<TxFootprint> footprints;
    for (const Transaction& tx : s.txs) {
      footprints.push_back(DeriveFootprint(tx, s.genesis, miner));
    }
    const LaneSchedule schedule = ScheduleLanes(footprints);
    ASSERT_EQ(schedule.lanes.size(), s.txs.size());
    for (const auto& lane : schedule.lanes) EXPECT_EQ(lane.size(), 1u);
    // Lane order must equal candidate order: full serialization.
    for (size_t i = 0; i < s.txs.size(); ++i) {
      EXPECT_EQ(schedule.lane_of[i], static_cast<uint32_t>(i));
    }
  }
}

TEST(ParallelExecEquivalence, BlockCapOverflowMatchesSerial) {
  // More valid candidates than the block holds: the lanes branch must
  // roll the beyond-cap effects back out of the post-state.
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    Scenario s = UniformScenario(seed);
    s.config.max_txs_per_block = 5;
    SCOPED_TRACE("cap-overflow seed " + std::to_string(seed));
    const Address miner = Addr(0x99);
    Ledger serial_ledger(1, s.genesis, s.config);
    Result<Block> serial_built = serial_ledger.BuildBlock(miner, s.txs, 1);
    ASSERT_TRUE(serial_built.ok());
    ASSERT_EQ(serial_built->transactions.size(), 5u);
    for (const size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      Ledger ledger(1, s.genesis, s.config);
      ledger.SetExecPool(&pool);
      Result<Block> built = ledger.BuildBlock(miner, s.txs, 1);
      ASSERT_TRUE(built.ok());
      EXPECT_EQ(codec::EncodeBlock(*built), codec::EncodeBlock(*serial_built))
          << "overflow block diverged at " << threads << " threads";
    }
  }
}

// ------------------- conflict-schedule fuzz ------------------------------

/// Random synthetic footprints over a small address universe, so
/// conflicts are dense enough to matter.
std::vector<TxFootprint> FuzzFootprints(Rng* rng) {
  const size_t n = 4 + rng->UniformInt(28);
  std::vector<TxFootprint> fps(n);
  for (TxFootprint& fp : fps) {
    if (rng->Bernoulli(0.08)) continue;  // Unresolvable barrier.
    fp.resolvable = true;
    std::set<Address> writes;
    std::set<Address> reads;
    const size_t w = 1 + rng->UniformInt(3);
    for (size_t i = 0; i < w; ++i) {
      writes.insert(Addr(static_cast<uint8_t>(1 + rng->UniformInt(12))));
    }
    const size_t r = rng->UniformInt(3);
    for (size_t i = 0; i < r; ++i) {
      const Address addr = Addr(static_cast<uint8_t>(1 + rng->UniformInt(12)));
      if (writes.count(addr) == 0) reads.insert(addr);
    }
    fp.writes.assign(writes.begin(), writes.end());
    fp.reads.assign(reads.begin(), reads.end());
  }
  return fps;
}

bool SharesWrittenAccount(const TxFootprint& a, const TxFootprint& b) {
  std::set<Address> a_writes(a.writes.begin(), a.writes.end());
  std::set<Address> b_all(b.writes.begin(), b.writes.end());
  b_all.insert(b.reads.begin(), b.reads.end());
  for (const Address& addr : a_writes) {
    if (b_all.count(addr) > 0) return true;
  }
  std::set<Address> b_writes(b.writes.begin(), b.writes.end());
  for (const Address& addr : a.reads) {
    if (b_writes.count(addr) > 0) return true;
  }
  return false;
}

TEST(ConflictScheduleFuzz, NoLaneCoSchedulesConflictingTransactions) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const std::vector<TxFootprint> fps = FuzzFootprints(&rng);
    const LaneSchedule schedule = ScheduleLanes(fps);
    ASSERT_EQ(schedule.lane_of.size(), fps.size());
    for (size_t i = 0; i < fps.size(); ++i) {
      for (size_t j = i + 1; j < fps.size(); ++j) {
        // Unresolvable transactions never share a lane with anything.
        if (!fps[i].resolvable || !fps[j].resolvable) {
          EXPECT_NE(schedule.lane_of[i], schedule.lane_of[j])
              << "barrier co-scheduled: seed " << seed << " txs " << i << ","
              << j;
          // And they order the whole stream around themselves.
          if (!fps[i].resolvable) {
            EXPECT_LT(schedule.lane_of[i], schedule.lane_of[j]);
          }
          continue;
        }
        if (SharesWrittenAccount(fps[i], fps[j])) {
          EXPECT_LT(schedule.lane_of[i], schedule.lane_of[j])
              << "conflicting txs co-scheduled or reordered: seed " << seed
              << " txs " << i << "," << j;
        }
      }
    }
  }
}

/// Ids of `txs`, in order.
std::vector<Hash256> Ids(const std::vector<Transaction>& txs) {
  std::vector<Hash256> ids;
  for (const Transaction& tx : txs) ids.push_back(tx.Id());
  return ids;
}

/// Serial replay reference for the merge fuzz: greedy inclusion written
/// out independently of the executor, minus header assembly.
StateDB SerialReplay(const StateDB& genesis,
                     const std::vector<Transaction>& txs, const Address& miner,
                     const ChainConfig& config,
                     std::vector<Transaction>* included) {
  StateDB scratch = genesis;
  included->clear();
  for (const Transaction& tx : txs) {
    if (included->size() >= config.max_txs_per_block) break;
    const size_t trial = scratch.Snapshot();
    if (Ledger::ExecuteTransaction(tx, miner, config, &scratch).ok()) {
      EXPECT_TRUE(scratch.Commit(trial).ok());
      included->push_back(tx);
    } else {
      EXPECT_TRUE(scratch.RevertTo(trial).ok());
    }
  }
  return scratch;
}

/// Runs the executor at threads {1, 4} (the serial loop, then lanes)
/// and compares its state to SerialReplay account by account, not just
/// by root.
void ExpectExecutorMatchesSerialReplay(const StateDB& genesis,
                                       const std::vector<Transaction>& txs,
                                       const Address& miner,
                                       const ChainConfig& config) {
  std::vector<Transaction> serial_included;
  const StateDB serial =
      SerialReplay(genesis, txs, miner, config, &serial_included);
  for (const size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    StateDB merged = genesis;
    Result<std::vector<Transaction>> included =
        ExecuteCandidates(txs, miner, config, &pool, &merged);
    ASSERT_TRUE(included.ok()) << included.status().ToString();
    EXPECT_EQ(Ids(*included), Ids(serial_included)) << threads;
    EXPECT_EQ(merged.SnapshotDepth(), 0u) << threads;
    EXPECT_EQ(merged.Addresses(), serial.Addresses()) << threads;
    for (const Address& addr : serial.Addresses()) {
      const Account* expect = serial.Find(addr);
      const Account* got = merged.Find(addr);
      ASSERT_NE(got, nullptr) << addr.ToHex();
      EXPECT_EQ(got->balance, expect->balance) << addr.ToHex();
      EXPECT_EQ(got->nonce, expect->nonce) << addr.ToHex();
      EXPECT_EQ(got->storage, expect->storage) << addr.ToHex();
      EXPECT_EQ(got->code, expect->code) << addr.ToHex();
    }
    EXPECT_EQ(merged.StateRoot(), serial.StateRoot()) << threads;
  }
}

TEST(ConflictScheduleFuzz, ModificationLogMergeEqualsSerialReplay) {
  // Random overlapping transfer workloads with hostile candidates, then
  // the contract-mix shape. The serial loop runs candidates with no
  // bracket, so each failure below must leave no write behind.
  constexpr Amount kMax = ~Amount{0};
  const Address miner = Addr(0x99);
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("merge fuzz seed " + std::to_string(seed));
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
      // Some candidates carry a stale nonce or go to the miner (an
      // unresolvable footprint) to exercise failures and barriers.
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

/// What one ExecuteCandidates call under a caller-held snapshot left
/// behind, before the caller rolls it back.
struct InPlaceRun {
  std::vector<Hash256> included;
  std::vector<Address> touched;
  Hash256 root;
};

TEST(ParallelExecEquivalence, InPlaceUnderCallerSnapshot) {
  // The pipeline's calling pattern: the executor runs on a state the
  // caller already holds a snapshot on. Every branch must close the
  // brackets it opens — including the lanes branch's overflow rollback
  // (cap 5) — leave the same TouchedSince span as the serial loop, and stay
  // revertible by the caller.
  const Address miner = Addr(0x99);
  for (const int kind : {0, 3}) {
    for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
      for (const uint64_t cap : {5u, 1000u}) {
        SCOPED_TRACE(std::string(KindName(kind)) + " seed " +
                     std::to_string(seed) + " cap " + std::to_string(cap));
        Scenario s = MakeScenario(kind, seed);
        s.config.max_txs_per_block = cap;
        const Hash256 pre_root = s.genesis.StateRoot();
        std::vector<InPlaceRun> runs;
        for (const size_t threads : kThreadCounts) {
          ThreadPool pool(threads);
          StateDB state = s.genesis;
          const size_t outer = state.Snapshot();
          Result<std::vector<Transaction>> included =
              ExecuteCandidates(s.txs, miner, s.config, &pool, &state);
          ASSERT_TRUE(included.ok()) << included.status().ToString();
          EXPECT_EQ(state.SnapshotDepth(), 1u) << threads;
          Result<std::vector<Address>> touched = state.TouchedSince(outer);
          ASSERT_TRUE(touched.ok()) << touched.status().ToString();
          runs.push_back({Ids(*included), *touched, state.StateRoot()});
          ASSERT_TRUE(state.RevertTo(outer).ok());
          EXPECT_EQ(state.SnapshotDepth(), 0u) << threads;
          EXPECT_EQ(state.StateRoot(), pre_root) << threads;
        }
        for (size_t t = 1; t < runs.size(); ++t) {
          EXPECT_EQ(runs[t].included, runs[0].included) << kThreadCounts[t];
          EXPECT_EQ(runs[t].touched, runs[0].touched) << kThreadCounts[t];
          EXPECT_EQ(runs[t].root, runs[0].root) << kThreadCounts[t];
        }
      }
    }
  }
}

// ------------------- last_built_ reuse cache -----------------------------

TEST(ParallelExecEquivalence, LastBuiltReuseAfterParallelBuild) {
  // The post-state retained by a parallel build must satisfy an
  // immediate Append (hit path) and leave the tip equal to a serial
  // ledger's tip.
  ThreadPool pool(4);
  const Scenario s = ContractMixScenario(3);
  const Address miner = Addr(0x99);

  Ledger parallel_ledger(1, s.genesis, s.config);
  parallel_ledger.SetExecPool(&pool);
  Result<Block> built = parallel_ledger.BuildBlock(miner, s.txs, 1);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(parallel_ledger.Append(*built).ok());

  Ledger serial_ledger(1, s.genesis, s.config);
  Result<Block> serial_built = serial_ledger.BuildBlock(miner, s.txs, 1);
  ASSERT_TRUE(serial_built.ok());
  ASSERT_TRUE(serial_ledger.Append(*serial_built).ok());

  EXPECT_EQ(parallel_ledger.tip_hash(), serial_ledger.tip_hash());
  EXPECT_EQ(parallel_ledger.tip_state().StateRoot(),
            serial_ledger.tip_state().StateRoot());

  // And the chain keeps extending across reuse: a second block on top.
  Result<Block> next = parallel_ledger.BuildBlock(miner, s.txs, 2);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(parallel_ledger.Append(*next).ok());
  EXPECT_EQ(parallel_ledger.tip_number(), 2u);
}

}  // namespace
}  // namespace shardchain
