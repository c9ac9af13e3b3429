#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chain/snapshot.h"
#include "common/rng.h"
#include "contract/callgraph.h"
#include "contract/naive_classifier.h"
#include "contract/registry.h"
#include "sim/workload.h"

namespace shardchain {
namespace {

Address Addr(uint8_t tag) {
  Address a;
  a.bytes.fill(tag);
  return a;
}

// --------------------------- State snapshots ------------------------------

StateDB RichState() {
  StateDB state;
  state.Mint(Addr(1), 1000);
  state.Mint(Addr(2), 5);
  state.GetOrCreate(Addr(2)).nonce = 7;
  Result<Address> contract = ContractRegistry::Deploy(
      &state, Addr(3), contracts::Escrow(Addr(4)));
  EXPECT_TRUE(contract.ok());
  state.StorageSet(*contract, 0, 42);
  state.StorageSet(*contract, 9, -5);
  return state;
}

TEST(SnapshotTest, RoundTripPreservesRootAndContents) {
  const StateDB state = RichState();
  const Hash256 root = state.StateRoot();
  const Bytes wire = snapshot::Serialize(state);
  Result<StateDB> restored = snapshot::Deserialize(wire, root);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->StateRoot(), root);
  EXPECT_EQ(restored->BalanceOf(Addr(1)), 1000u);
  EXPECT_EQ(restored->NonceOf(Addr(2)), 7u);
  EXPECT_EQ(restored->AccountCount(), state.AccountCount());
}

TEST(SnapshotTest, EmptyStateRoundTrips) {
  StateDB empty;
  Result<StateDB> restored =
      snapshot::Deserialize(snapshot::Serialize(empty), empty.StateRoot());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->AccountCount(), 0u);
}

TEST(SnapshotTest, RootMismatchRejected) {
  const StateDB state = RichState();
  Hash256 wrong = state.StateRoot();
  wrong.bytes[0] ^= 1;
  EXPECT_TRUE(snapshot::Deserialize(snapshot::Serialize(state), wrong)
                  .status()
                  .IsCorruption());
}

TEST(SnapshotTest, TamperedBytesRejected) {
  const StateDB state = RichState();
  const Hash256 root = state.StateRoot();
  Bytes wire = snapshot::Serialize(state);
  // Flip a balance byte: structure still parses, root check catches it.
  wire[8 + 20 + 3] ^= 0x01;
  EXPECT_FALSE(snapshot::Deserialize(wire, root).ok());
}

TEST(SnapshotTest, TruncationRejectedCleanly) {
  const StateDB state = RichState();
  const Bytes wire = snapshot::Serialize(state);
  for (size_t cut = 0; cut < wire.size(); cut += 11) {
    Bytes prefix(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(snapshot::Deserialize(prefix, Hash256::Zero()).ok());
  }
}

TEST(SnapshotTest, GarbageNeverCrashes) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    Bytes junk(rng.UniformInt(200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.UniformInt(256));
    (void)snapshot::Deserialize(junk, Hash256::Zero());
  }
  SUCCEED();
}

/// The snapshot wire of `addrs`, read from `state`, in the given order;
/// `reverse_storage` writes each account's storage keys descending.
/// Canonical when `addrs` ascends without repeats and storage is not
/// reversed.
Bytes WireFor(const StateDB& state, const std::vector<Address>& addrs,
              bool reverse_storage) {
  Bytes out;
  AppendUint64(&out, addrs.size());
  for (const Address& addr : addrs) {
    const Account* account = state.Find(addr);
    out.insert(out.end(), addr.bytes.begin(), addr.bytes.end());
    AppendUint64(&out, account->balance);
    AppendUint64(&out, account->nonce);
    AppendUint64(&out, account->code.size());
    out.insert(out.end(), account->code.begin(), account->code.end());
    std::vector<std::pair<uint64_t, int64_t>> slots(account->storage.begin(),
                                                    account->storage.end());
    if (reverse_storage) std::reverse(slots.begin(), slots.end());
    AppendUint64(&out, slots.size());
    for (const auto& [key, value] : slots) {
      AppendUint64(&out, key);
      AppendUint64(&out, static_cast<uint64_t>(value));
    }
  }
  return out;
}

TEST(SnapshotTest, NonCanonicalOrderRejected) {
  // Each wire below decodes to the same accounts as the canonical one,
  // so only the order check can reject it: the root still matches.
  const StateDB state = RichState();
  const Hash256 root = state.StateRoot();
  const std::vector<Address> addrs = state.Addresses();
  ASSERT_EQ(WireFor(state, addrs, false), snapshot::Serialize(state));
  ASSERT_TRUE(snapshot::Deserialize(WireFor(state, addrs, false), root).ok());

  std::vector<Address> reversed(addrs.rbegin(), addrs.rend());
  EXPECT_TRUE(snapshot::Deserialize(WireFor(state, reversed, false), root)
                  .status()
                  .IsCorruption());

  std::vector<Address> duplicated = addrs;
  duplicated.insert(duplicated.begin() + 1, addrs[1]);
  EXPECT_TRUE(snapshot::Deserialize(WireFor(state, duplicated, false), root)
                  .status()
                  .IsCorruption());

  EXPECT_TRUE(snapshot::Deserialize(WireFor(state, addrs, true), root)
                  .status()
                  .IsCorruption());
}

TEST(SnapshotTest, SizeMatchesSerialization) {
  const StateDB state = RichState();
  EXPECT_EQ(snapshot::SizeOf(state), snapshot::Serialize(state).size());
}

// ------------------------- Naive classifier -------------------------------

TEST(NaiveClassifierTest, AgreesWithCallGraphOnRandomStreams) {
  Rng rng(2);
  WorkloadConfig wl;
  wl.num_transactions = 400;
  wl.num_contracts = 6;
  wl.maxshard_fraction = 0.3;
  const Workload w = GenerateWorkload(wl, &rng);

  CallGraph graph;
  NaiveHistoryClassifier naive;
  for (const Transaction& tx : w.transactions) {
    // Both classifiers must agree on every incoming transaction BEFORE
    // recording it (the miner's admission decision).
    Address g_contract, n_contract;
    EXPECT_EQ(graph.IsShardable(tx, &g_contract),
              naive.IsShardable(tx, &n_contract));
    EXPECT_EQ(graph.Classify(tx.sender), naive.Classify(tx.sender));
    graph.Record(tx);
    naive.Record(tx);
  }
  EXPECT_EQ(naive.HistorySize(), 400u);
}

TEST(NaiveClassifierTest, MatchesKnownClasses) {
  NaiveHistoryClassifier naive;
  Transaction call;
  call.kind = TxKind::kContractCall;
  call.sender = Addr(1);
  call.recipient = Addr(0x10);
  naive.Record(call);
  EXPECT_EQ(naive.Classify(Addr(1)), SenderClass::kSingleContract);

  call.recipient = Addr(0x11);
  naive.Record(call);
  EXPECT_EQ(naive.Classify(Addr(1)), SenderClass::kMultiContract);

  Transaction direct;
  direct.kind = TxKind::kDirectTransfer;
  direct.sender = Addr(2);
  direct.recipient = Addr(3);
  naive.Record(direct);
  EXPECT_EQ(naive.Classify(Addr(2)), SenderClass::kDirect);
  EXPECT_EQ(naive.Classify(Addr(9)), SenderClass::kNoHistory);
}

}  // namespace
}  // namespace shardchain
