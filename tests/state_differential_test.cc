// Randomized differential tests for the authenticated state layer
// (DESIGN.md §10).
//
// StateDB (one persistent account trie with saved-root snapshots) and
// the test-only ReferenceTrie (tests/reference_trie.h) are driven
// through long seeded write/erase/Snapshot/Revert/Commit sequences
// against deliberately naive reference models:
//
//   - ReferenceTrie vs std::map<Bytes, Bytes> + a rebuild-from-scratch
//     trie (equal contents, equal root bytes, valid proofs for present
//     and absent keys at every checkpoint);
//   - StateDB vs a plain account map whose snapshots are full copies and
//     whose write log carries one mark per snapshot (equal contents, a
//     root byte-identical to the reference trie over free-standing
//     account digests, valid account proofs, and TouchedSince equal to
//     the logged writes of every live snapshot span).
//
// Any divergence between the incremental path and the rebuild — a
// stale cached hash, a node written after it was shared, a leaf
// aliased across versions — fails here. The suites run under the
// ASan/UBSan and (via the shardchain_tests binary) release CI legs.

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "reference_trie.h"
#include "state/statedb.h"
#include "types/address.h"

namespace shardchain {
namespace {

// ------------------------------ Trie ----------------------------------

Bytes KeyFor(uint64_t n) {
  // Mix of short and long keys so leaf/extension/branch splits and
  // collapses all occur; low entropy in the first byte forces shared
  // prefixes (extension nodes).
  Bytes key;
  key.push_back(static_cast<uint8_t>(n % 7));
  key.push_back(static_cast<uint8_t>(n % 13));
  if (n % 3 != 0) key.push_back(static_cast<uint8_t>(n >> 8));
  if (n % 5 == 0) key.push_back(static_cast<uint8_t>(n >> 16));
  return key;
}

Bytes ValueFor(uint64_t n) {
  Bytes value;
  for (int i = 0; i < 1 + static_cast<int>(n % 9); ++i) {
    value.push_back(static_cast<uint8_t>(n >> (i * 4)));
  }
  return value;
}

Hash256 RebuildRoot(const std::map<Bytes, Bytes>& model) {
  ReferenceTrie scratch;
  for (const auto& [key, value] : model) scratch.Put(key, value);
  return scratch.RootHash();
}

void CheckTrieAgainstModel(const ReferenceTrie& trie,
                           const std::map<Bytes, Bytes>& model,
                           uint64_t probe_seed) {
  ASSERT_EQ(trie.Size(), model.size());
  // Root bytes must equal a from-scratch rebuild of the same contents.
  const Hash256 root = trie.RootHash();
  ASSERT_EQ(root, RebuildRoot(model)) << "incremental root diverged";
  // Entries come back sorted and complete.
  const auto entries = trie.Entries();
  ASSERT_EQ(entries.size(), model.size());
  auto it = model.begin();
  for (const auto& [key, value] : entries) {
    ASSERT_EQ(key, it->first);
    ASSERT_EQ(value, it->second);
    ++it;
  }
  // Proofs for a sample of present keys and for probing absent keys.
  Rng probe(probe_seed);
  for (int i = 0; i < 8; ++i) {
    const Bytes key = KeyFor(probe.Next() % 4096);
    const auto expected = trie.Get(key);
    auto model_it = model.find(key);
    ASSERT_EQ(expected.has_value(), model_it != model.end());
    if (expected.has_value()) {
      ASSERT_EQ(*expected, model_it->second);
    }
    const auto proof = trie.Prove(key);
    auto verified = mpt::VerifyProof(root, key, proof);
    ASSERT_TRUE(verified.ok()) << verified.status().ToString();
    ASSERT_EQ(*verified, expected) << "proof resolved the wrong value";
  }
}

TEST(StateDifferential, TrieMatchesMapThroughRandomOps) {
  for (uint64_t seed : {11ull, 22ull, 33ull}) {
    Rng rng(seed);
    ReferenceTrie trie;
    std::map<Bytes, Bytes> model;
    for (int step = 0; step < 1200; ++step) {
      const uint64_t n = rng.Next() % 4096;
      const Bytes key = KeyFor(n);
      if (rng.UniformInt(100) < 70) {
        Bytes value = ValueFor(rng.Next());
        model[key] = value;
        trie.Put(key, std::move(value));
      } else {
        const bool removed = trie.Delete(key);
        ASSERT_EQ(removed, model.erase(key) > 0);
      }
      if (step % 150 == 149) {
        CheckTrieAgainstModel(trie, model, seed * 1000 + step);
      }
    }
    CheckTrieAgainstModel(trie, model, seed);
  }
}

TEST(StateDifferential, TrieCopiesAreIndependentVersions) {
  Rng rng(4242);
  ReferenceTrie base;
  std::map<Bytes, Bytes> base_model;
  for (int i = 0; i < 300; ++i) {
    const Bytes key = KeyFor(rng.Next() % 2048);
    Bytes value = ValueFor(rng.Next());
    base_model[key] = value;
    base.Put(key, std::move(value));
  }
  const Hash256 base_root = base.RootHash();

  // An O(1) copy shares structure; divergent mutations on the copy
  // must never leak into the original (and vice versa).
  ReferenceTrie fork = base;
  std::map<Bytes, Bytes> fork_model = base_model;
  for (int i = 0; i < 300; ++i) {
    const Bytes key = KeyFor(rng.Next() % 2048);
    if (rng.UniformInt(2) == 0) {
      Bytes value = ValueFor(rng.Next());
      fork_model[key] = value;
      fork.Put(key, std::move(value));
    } else {
      fork.Delete(key);
      fork_model.erase(key);
    }
  }
  EXPECT_EQ(base.RootHash(), base_root) << "fork mutated the original";
  CheckTrieAgainstModel(base, base_model, 1);
  CheckTrieAgainstModel(fork, fork_model, 2);

  // And a chain of versions each sharing with its predecessor.
  std::vector<ReferenceTrie> versions;
  std::vector<Hash256> roots;
  ReferenceTrie head = base;
  for (int v = 0; v < 10; ++v) {
    head.Put(KeyFor(9000 + static_cast<uint64_t>(v)), ValueFor(v));
    versions.push_back(head);
    roots.push_back(head.RootHash());
  }
  for (int v = 0; v < 10; ++v) {
    EXPECT_EQ(versions[static_cast<size_t>(v)].RootHash(), roots[static_cast<size_t>(v)]);
  }
}

// ----------------------------- StateDB --------------------------------

Address AddrFor(uint64_t n) {
  Address a;
  a.bytes[0] = static_cast<uint8_t>(n);
  a.bytes[1] = static_cast<uint8_t>(n >> 8);
  a.bytes[19] = static_cast<uint8_t>(n * 31);
  return a;
}

/// The naive reference: plain account data, snapshots as full copies,
/// and a log of written addresses with one mark per live snapshot —
/// exactly the semantics the saved roots replace.
struct RefAccount {
  Amount balance = 0;
  uint64_t nonce = 0;
  Bytes code;
  std::map<uint64_t, int64_t> storage;
};

struct RefState {
  std::map<Address, RefAccount> accounts;
  std::vector<std::map<Address, RefAccount>> snapshots;
  std::vector<Address> log;
  std::vector<size_t> marks;

  /// Write access: logs `a` and creates it when absent.
  RefAccount& Get(const Address& a) {
    log.push_back(a);
    return accounts[a];
  }
  bool Erase(const Address& a) {
    if (accounts.erase(a) == 0) return false;
    log.push_back(a);
    return true;
  }
  size_t Snapshot() {
    snapshots.push_back(accounts);
    marks.push_back(log.size());
    return snapshots.size() - 1;
  }
  void RevertTo(size_t id) {
    accounts = snapshots[id];
    snapshots.resize(id);
    log.resize(marks[id]);
    marks.resize(id);
  }
  void Commit() {
    snapshots.pop_back();
    marks.pop_back();
  }
  /// The addresses logged since snapshot `id`, sorted and deduplicated,
  /// restricted to those present at the snapshot or now (an account
  /// created and erased inside the span has left no trace).
  std::vector<Address> TouchedSince(size_t id) const {
    std::vector<Address> out;
    for (size_t i = marks[id]; i < log.size(); ++i) {
      const Address& a = log[i];
      if (snapshots[id].count(a) > 0 || accounts.count(a) > 0) {
        out.push_back(a);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
};

/// Rebuild-from-scratch root: the reference trie over the digests of
/// free-standing accounts holding the model's contents. No StateDB
/// code is involved.
Hash256 RebuildRoot(const RefState& ref) {
  ReferenceTrie scratch;
  for (const auto& [addr, ref_account] : ref.accounts) {
    Account account;
    account.balance = ref_account.balance;
    account.nonce = ref_account.nonce;
    account.code = ref_account.code;
    account.storage = ref_account.storage;
    const Hash256 digest = account.Digest(addr);
    scratch.Put(Bytes(addr.bytes.begin(), addr.bytes.end()),
                Bytes(digest.bytes.begin(), digest.bytes.end()));
  }
  return scratch.RootHash();
}

void CheckStateAgainstModel(const StateDB& db, const RefState& ref) {
  ASSERT_EQ(db.AccountCount(), ref.accounts.size());
  std::vector<Address> addresses;
  for (const auto& [addr, account] : ref.accounts) {
    addresses.push_back(addr);
    ASSERT_EQ(db.BalanceOf(addr), account.balance);
    ASSERT_EQ(db.NonceOf(addr), account.nonce);
    const Account* held = db.Find(addr);
    ASSERT_NE(held, nullptr);
    ASSERT_EQ(held->code, account.code);
    ASSERT_EQ(held->storage, account.storage);
  }
  ASSERT_EQ(db.Addresses(), addresses);
  const Hash256 root = db.StateRoot();
  ASSERT_EQ(root, RebuildRoot(ref))
      << "incremental state root diverged from scratch rebuild";
  // Account proofs: a present and an absent address.
  if (!ref.accounts.empty()) {
    const Address present = ref.accounts.begin()->first;
    auto verified = StateDB::VerifyAccount(root, present,
                                           db.ProveAccount(present));
    ASSERT_TRUE(verified.ok()) << verified.status().ToString();
    ASSERT_TRUE(verified->has_value());
    ASSERT_EQ(**verified, db.Find(present)->Digest(present));
  }
  Address absent;
  absent.bytes.fill(0xfe);
  auto absent_proof = StateDB::VerifyAccount(root, absent,
                                             db.ProveAccount(absent));
  ASSERT_TRUE(absent_proof.ok()) << absent_proof.status().ToString();
  ASSERT_FALSE(absent_proof->has_value());
}

TEST(StateDifferential, StateDBMatchesModelThroughSnapshotsAndReverts) {
  for (uint64_t seed : {7ull, 77ull, 777ull}) {
    Rng rng(seed);
    StateDB db;
    RefState ref;
    std::vector<size_t> live_snaps;
    for (int step = 0; step < 900; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      const Address addr = AddrFor(rng.Next() % 64);
      switch (rng.UniformInt(11)) {
        case 0:
        case 1:
        case 2: {  // Mint.
          const Amount amount = 1 + rng.UniformInt(1000);
          db.Mint(addr, amount);
          ref.Get(addr).balance += amount;
          break;
        }
        case 3: {  // Transfer (may fail, and then writes nothing).
          const Address to = AddrFor(rng.Next() % 64);
          const Amount amount = 1 + rng.UniformInt(500);
          const bool ok = db.Transfer(addr, to, amount).ok();
          const auto held = ref.accounts.find(addr);
          const bool ref_ok =
              held != ref.accounts.end() && held->second.balance >= amount;
          ASSERT_EQ(ok, ref_ok);
          if (ok) {
            ref.Get(addr).balance -= amount;
            ref.Get(to).balance += amount;
          }
          break;
        }
        case 4: {  // Nonce bump through the mutable accessor.
          db.GetOrCreate(addr).nonce += 1;
          ref.Get(addr).nonce += 1;
          break;
        }
        case 5:
        case 6: {  // Contract storage write.
          const uint64_t key = rng.Next() % 16;
          const int64_t value = static_cast<int64_t>(rng.Next() % 1000);
          db.StorageSet(addr, key, value);
          ref.Get(addr).storage[key] = value;
          break;
        }
        case 7: {  // Snapshot.
          const size_t id = db.Snapshot();
          ASSERT_EQ(id, ref.Snapshot());
          live_snaps.push_back(id);
          break;
        }
        case 8: {  // Revert to a random live snapshot.
          if (live_snaps.empty()) break;
          const size_t pick = rng.UniformInt(live_snaps.size());
          const size_t id = live_snaps[pick];
          ASSERT_TRUE(db.RevertTo(id).ok());
          ref.RevertTo(id);
          live_snaps.resize(pick);
          // Ids at or above the reverted one are dead now.
          ASSERT_TRUE(db.RevertTo(id).IsOutOfRange());
          break;
        }
        case 9: {  // Erase (a no-op on an absent account).
          ASSERT_EQ(db.EraseAccount(addr), ref.Erase(addr));
          break;
        }
        default: {  // Commit the innermost snapshot.
          if (live_snaps.empty()) break;
          ASSERT_TRUE(db.Commit(live_snaps.back()).ok());
          ref.Commit();
          live_snaps.pop_back();
          break;
        }
      }
      for (const size_t id : live_snaps) {
        Result<std::vector<Address>> touched = db.TouchedSince(id);
        ASSERT_TRUE(touched.ok()) << touched.status().ToString();
        ASSERT_EQ(*touched, ref.TouchedSince(id)) << "snapshot " << id;
      }
      if (step % 90 == 89) CheckStateAgainstModel(db, ref);
    }
    CheckStateAgainstModel(db, ref);
  }
}

TEST(StateDifferential, CopiedStateDBForksIndependently) {
  StateDB base;
  for (uint64_t i = 0; i < 200; ++i) base.Mint(AddrFor(i), 1000 + i);
  const Hash256 base_root = base.StateRoot();

  StateDB fork = base;  // Shares the trie structurally.
  fork.Mint(AddrFor(3), 5);
  fork.GetOrCreate(AddrFor(7)).nonce = 9;
  EXPECT_NE(fork.StateRoot(), base_root);
  EXPECT_EQ(base.StateRoot(), base_root) << "fork wrote through the copy";

  // The fork's root equals a scratch rebuild of the fork's contents.
  RefState ref;
  for (uint64_t i = 0; i < 200; ++i) {
    ref.Get(AddrFor(i)).balance = 1000 + i;
  }
  ref.Get(AddrFor(3)).balance += 5;
  ref.Get(AddrFor(7)).nonce = 9;
  EXPECT_EQ(fork.StateRoot(), RebuildRoot(ref));
}

TEST(StateDifferential, OneLeafAtTwoDepthsInTwoVersions) {
  // A leaf caches its hash with the depth it was hashed at. Here one
  // leaf node sits at two depths in two live versions: a neighbour
  // inserted in the copy re-seats it deeper there only, then leaves
  // again. A cache read at the wrong depth fails a root below.
  StateDB base;
  RefState ref_base;
  for (uint64_t i = 0; i < 64; ++i) {
    base.Mint(AddrFor(i), 100 + i);
    ref_base.Get(AddrFor(i)).balance = 100 + i;
  }
  const Address leaf = AddrFor(5);
  Address neighbour = leaf;
  neighbour.bytes[18] ^= 0x01;  // Shares the first 37 nibbles.
  ASSERT_EQ(base.StateRoot(), RebuildRoot(ref_base));

  StateDB copy = base;
  RefState ref_copy = ref_base;
  auto check_both = [&](const char* step) {
    SCOPED_TRACE(step);
    ASSERT_EQ(base.StateRoot(), RebuildRoot(ref_base));
    ASSERT_EQ(copy.StateRoot(), RebuildRoot(ref_copy));
  };

  copy.Mint(neighbour, 7);  // `leaf` moves to depth 38 in the copy.
  ref_copy.Get(neighbour).balance += 7;
  check_both("neighbour inserted in the copy");

  ASSERT_TRUE(copy.EraseAccount(neighbour));  // Lifts `leaf` back.
  ASSERT_TRUE(ref_copy.Erase(neighbour));
  check_both("neighbour erased from the copy");

  copy.Mint(leaf, 1);  // The copy now has its own `leaf` node.
  ref_copy.Get(leaf).balance += 1;
  check_both("leaf written in the copy only");

  // Re-seat the base's node under the neighbour in the base, then make
  // each version re-hash the branch above its own `leaf`.
  base.Mint(neighbour, 3);
  ref_base.Get(neighbour).balance += 3;
  check_both("neighbour inserted in the base");
  base.Mint(AddrFor(4), 1);
  ref_base.Get(AddrFor(4)).balance += 1;
  copy.Mint(AddrFor(4), 2);
  ref_copy.Get(AddrFor(4)).balance += 2;
  check_both("siblings written in both");
}

TEST(StateDifferential, CommitRequiresInnermostSnapshot) {
  StateDB db;
  db.Mint(AddrFor(1), 100);
  const size_t outer = db.Snapshot();
  const size_t inner = db.Snapshot();
  EXPECT_TRUE(db.Commit(outer).IsInvalidArgument());
  EXPECT_TRUE(db.Commit(inner + 7).IsOutOfRange());
  EXPECT_TRUE(db.Commit(inner).ok());
  db.Mint(AddrFor(1), 1);
  EXPECT_TRUE(db.RevertTo(outer).ok());
  EXPECT_EQ(db.BalanceOf(AddrFor(1)), 100u);
  EXPECT_EQ(db.SnapshotDepth(), 0u);
}

}  // namespace
}  // namespace shardchain
