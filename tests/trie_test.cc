#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "reference_trie.h"

namespace shardchain {
namespace {

Bytes B(const std::string& s) { return Bytes(s.begin(), s.end()); }

// Builds "<prefix><n>" without std::string::operator+, which GCC 12
// misanalyzes when fully inlined at -O3 (spurious -Wrestrict /
// -Wstringop-overread, gcc PR 105651) — keeps -Werror builds clean.
Bytes Key(const char* prefix, uint64_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return B(s);
}

TEST(TrieTest, EmptyTrie) {
  ReferenceTrie trie;
  EXPECT_TRUE(trie.Empty());
  EXPECT_EQ(trie.Size(), 0u);
  EXPECT_TRUE(trie.RootHash().IsZero());
  EXPECT_FALSE(trie.Get(B("missing")).has_value());
}

TEST(TrieTest, SinglePutGet) {
  ReferenceTrie trie;
  trie.Put(B("key"), B("value"));
  EXPECT_EQ(trie.Size(), 1u);
  ASSERT_TRUE(trie.Get(B("key")).has_value());
  EXPECT_EQ(*trie.Get(B("key")), B("value"));
  EXPECT_FALSE(trie.RootHash().IsZero());
}

TEST(TrieTest, OverwriteKeepsSize) {
  ReferenceTrie trie;
  trie.Put(B("key"), B("v1"));
  const Hash256 h1 = trie.RootHash();
  trie.Put(B("key"), B("v2"));
  EXPECT_EQ(trie.Size(), 1u);
  EXPECT_EQ(*trie.Get(B("key")), B("v2"));
  EXPECT_NE(trie.RootHash(), h1);
}

TEST(TrieTest, PrefixKeysCoexist) {
  ReferenceTrie trie;
  trie.Put(B("do"), B("verb"));
  trie.Put(B("dog"), B("animal"));
  trie.Put(B("doge"), B("coin"));
  EXPECT_EQ(trie.Size(), 3u);
  EXPECT_EQ(*trie.Get(B("do")), B("verb"));
  EXPECT_EQ(*trie.Get(B("dog")), B("animal"));
  EXPECT_EQ(*trie.Get(B("doge")), B("coin"));
  EXPECT_FALSE(trie.Get(B("d")).has_value());
  EXPECT_FALSE(trie.Get(B("dogs")).has_value());
}

TEST(TrieTest, DivergentKeys) {
  ReferenceTrie trie;
  trie.Put(B("horse"), B("stallion"));
  trie.Put(B("house"), B("building"));
  EXPECT_EQ(*trie.Get(B("horse")), B("stallion"));
  EXPECT_EQ(*trie.Get(B("house")), B("building"));
}

TEST(TrieTest, RootIsOrderIndependent) {
  std::vector<std::pair<Bytes, Bytes>> kvs;
  for (int i = 0; i < 40; ++i) {
    kvs.emplace_back(Key("key-", i),
                     Key("val-", i * 7));
  }
  ReferenceTrie a;
  for (const auto& [k, v] : kvs) a.Put(k, v);
  ReferenceTrie b;
  for (auto it = kvs.rbegin(); it != kvs.rend(); ++it) b.Put(it->first, it->second);
  EXPECT_EQ(a.RootHash(), b.RootHash());
}

TEST(TrieTest, RootChangesWithAnyValue) {
  ReferenceTrie a;
  a.Put(B("k1"), B("x"));
  a.Put(B("k2"), B("y"));
  ReferenceTrie b;
  b.Put(B("k1"), B("x"));
  b.Put(B("k2"), B("z"));
  EXPECT_NE(a.RootHash(), b.RootHash());
}

TEST(TrieTest, DeleteRestoresPriorRoot) {
  ReferenceTrie trie;
  trie.Put(B("alpha"), B("1"));
  trie.Put(B("beta"), B("2"));
  const Hash256 before = trie.RootHash();
  trie.Put(B("gamma"), B("3"));
  EXPECT_NE(trie.RootHash(), before);
  EXPECT_TRUE(trie.Delete(B("gamma")));
  EXPECT_EQ(trie.RootHash(), before);
  EXPECT_EQ(trie.Size(), 2u);
}

TEST(TrieTest, DeleteMissingReturnsFalse) {
  ReferenceTrie trie;
  trie.Put(B("alpha"), B("1"));
  EXPECT_FALSE(trie.Delete(B("beta")));
  EXPECT_FALSE(trie.Delete(B("alphaa")));
  EXPECT_FALSE(trie.Delete(B("alph")));
  EXPECT_EQ(trie.Size(), 1u);
}

TEST(TrieTest, DeleteToEmpty) {
  ReferenceTrie trie;
  trie.Put(B("only"), B("1"));
  EXPECT_TRUE(trie.Delete(B("only")));
  EXPECT_TRUE(trie.Empty());
  EXPECT_TRUE(trie.RootHash().IsZero());
}

TEST(TrieTest, EntriesSortedByKey) {
  ReferenceTrie trie;
  trie.Put(B("zebra"), B("1"));
  trie.Put(B("ant"), B("2"));
  trie.Put(B("mole"), B("3"));
  trie.Put(B("an"), B("4"));
  const auto entries = trie.Entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_TRUE(std::is_sorted(
      entries.begin(), entries.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  EXPECT_EQ(entries[0].first, B("an"));
  EXPECT_EQ(entries[3].first, B("zebra"));
}

TEST(TrieTest, CopyIsDeepAndEqual) {
  ReferenceTrie a;
  a.Put(B("k1"), B("v1"));
  a.Put(B("k2"), B("v2"));
  ReferenceTrie b = a;
  EXPECT_EQ(a.RootHash(), b.RootHash());
  b.Put(B("k3"), B("v3"));
  EXPECT_NE(a.RootHash(), b.RootHash());
  EXPECT_FALSE(a.Get(B("k3")).has_value());
}

// -------------------------- Random fuzzing ------------------------------

class TrieFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrieFuzzTest, MatchesStdMapUnderRandomOps) {
  Rng rng(GetParam());
  ReferenceTrie trie;
  std::map<Bytes, Bytes> model;
  for (int op = 0; op < 600; ++op) {
    const uint64_t key_id = rng.UniformInt(64);
    const Bytes key = Key("key-", key_id);
    const uint32_t action = static_cast<uint32_t>(rng.UniformInt(3));
    if (action == 0) {  // Put.
      const Bytes value = Key("v", rng.UniformInt(1000));
      trie.Put(key, value);
      model[key] = value;
    } else if (action == 1) {  // Delete.
      EXPECT_EQ(trie.Delete(key), model.erase(key) > 0);
    } else {  // Get.
      auto it = model.find(key);
      auto got = trie.Get(key);
      EXPECT_EQ(got.has_value(), it != model.end());
      if (got.has_value() && it != model.end()) {
        EXPECT_EQ(*got, it->second);
      }
    }
    EXPECT_EQ(trie.Size(), model.size());
  }
  // Final contents identical and in order.
  const auto entries = trie.Entries();
  ASSERT_EQ(entries.size(), model.size());
  size_t i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(entries[i].first, k);
    EXPECT_EQ(entries[i].second, v);
    ++i;
  }
}

TEST_P(TrieFuzzTest, RootHashMatchesRebuild) {
  // Root after random inserts+deletes equals the root of a fresh trie
  // holding the surviving entries — history independence.
  Rng rng(GetParam() + 1000);
  ReferenceTrie trie;
  std::map<Bytes, Bytes> model;
  for (int op = 0; op < 300; ++op) {
    const Bytes key = Key("k", rng.UniformInt(48));
    if (rng.Bernoulli(0.7)) {
      const Bytes value = Key("v", rng.UniformInt(100));
      trie.Put(key, value);
      model[key] = value;
    } else {
      trie.Delete(key);
      model.erase(key);
    }
  }
  ReferenceTrie rebuilt;
  for (const auto& [k, v] : model) rebuilt.Put(k, v);
  EXPECT_EQ(trie.RootHash(), rebuilt.RootHash());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------- Proofs -----------------------------------

TEST(TrieProofTest, ProvesPresentKeys) {
  ReferenceTrie trie;
  for (int i = 0; i < 30; ++i) {
    trie.Put(Key("acct-", i), Key("bal-", i));
  }
  const Hash256 root = trie.RootHash();
  for (int i = 0; i < 30; ++i) {
    const Bytes key = Key("acct-", i);
    const auto proof = trie.Prove(key);
    auto verified = mpt::VerifyProof(root, key, proof);
    ASSERT_TRUE(verified.ok()) << verified.status().ToString();
    ASSERT_TRUE(verified->has_value());
    EXPECT_EQ(**verified, Key("bal-", i));
  }
}

TEST(TrieProofTest, ProvesAbsentKeys) {
  ReferenceTrie trie;
  trie.Put(B("alpha"), B("1"));
  trie.Put(B("beta"), B("2"));
  trie.Put(B("gamma"), B("3"));
  const Hash256 root = trie.RootHash();
  for (const char* missing : {"delta", "alphaa", "alp", "zeta"}) {
    const auto proof = trie.Prove(B(missing));
    auto verified = mpt::VerifyProof(root, B(missing), proof);
    ASSERT_TRUE(verified.ok())
        << missing << ": " << verified.status().ToString();
    EXPECT_FALSE(verified->has_value()) << missing;
  }
}

TEST(TrieProofTest, RejectsTamperedProof) {
  ReferenceTrie trie;
  trie.Put(B("key1"), B("value1"));
  trie.Put(B("key2"), B("value2"));
  auto proof = trie.Prove(B("key1"));
  ASSERT_FALSE(proof.empty());
  proof.back().encoded.back() ^= 0x01;
  EXPECT_FALSE(
      mpt::VerifyProof(trie.RootHash(), B("key1"), proof).ok());
}

TEST(TrieProofTest, RejectsProofAgainstWrongRoot) {
  ReferenceTrie trie;
  trie.Put(B("key1"), B("value1"));
  const auto proof = trie.Prove(B("key1"));
  Hash256 wrong = trie.RootHash();
  wrong.bytes[0] ^= 0xff;
  EXPECT_FALSE(mpt::VerifyProof(wrong, B("key1"), proof).ok());
}

TEST(TrieProofTest, CannotClaimAbsentKeyPresent) {
  // A proof for key A must not verify as a proof for key B.
  ReferenceTrie trie;
  trie.Put(B("aa"), B("1"));
  trie.Put(B("ab"), B("2"));
  const auto proof = trie.Prove(B("aa"));
  auto verified =
      mpt::VerifyProof(trie.RootHash(), B("ab"), proof);
  // Either rejected outright or resolves to "absent"/different value —
  // never to key aa's value under key ab... the branch hash walk fails.
  if (verified.ok() && verified->has_value()) {
    EXPECT_NE(**verified, B("1"));
  }
}

TEST(TrieProofTest, EmptyTrieProof) {
  ReferenceTrie trie;
  const auto proof = trie.Prove(B("anything"));
  EXPECT_TRUE(proof.empty());
  auto verified = mpt::VerifyProof(Hash256::Zero(),
                                                  B("anything"), proof);
  ASSERT_TRUE(verified.ok());
  EXPECT_FALSE(verified->has_value());
}

// ----------------------- Seeded proof fuzzing ------------------------

Bytes RandomKey(Rng* rng) {
  Bytes key(1 + rng->UniformInt(24));
  for (auto& b : key) b = static_cast<uint8_t>(rng->UniformInt(256));
  return key;
}

TEST(TrieProofFuzzTest, RandomKeysRoundTripPresenceAndAbsence) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(0x70726f6f66ull * seed);
    ReferenceTrie trie;
    std::map<Bytes, Bytes> expected;
    while (expected.size() < 200) {
      const Bytes key = RandomKey(&rng);
      Bytes value(1 + rng.UniformInt(16));
      for (auto& b : value) b = static_cast<uint8_t>(rng.UniformInt(256));
      trie.Put(key, value);
      expected[key] = value;
    }
    const Hash256 root = trie.RootHash();

    // Every inserted key proves present with its exact value.
    for (const auto& [key, value] : expected) {
      const auto proof = trie.Prove(key);
      auto verified = mpt::VerifyProof(root, key, proof);
      ASSERT_TRUE(verified.ok())
          << "seed " << seed << ": " << verified.status().ToString();
      ASSERT_TRUE(verified->has_value()) << "seed " << seed;
      EXPECT_EQ(**verified, value) << "seed " << seed;
    }

    // Fresh random keys (re-drawn if they collide) prove absent.
    int absent = 0;
    while (absent < 100) {
      const Bytes key = RandomKey(&rng);
      if (expected.count(key) > 0) continue;
      ++absent;
      const auto proof = trie.Prove(key);
      auto verified = mpt::VerifyProof(root, key, proof);
      ASSERT_TRUE(verified.ok())
          << "seed " << seed << ": " << verified.status().ToString();
      EXPECT_FALSE(verified->has_value()) << "seed " << seed;
    }
  }
}

TEST(TrieProofFuzzTest, CorruptedProofsNeverVerifyToOriginalValue) {
  // Flipping any byte of any node, truncating the proof, or dropping an
  // interior node must never leave a proof that still verifies to the
  // honest value. (Some corruptions may verify to "absent" or another
  // value on a disjoint path — that is fine; claiming the original
  // binding from mutated evidence is not.)
  Rng rng(0xc0de);
  ReferenceTrie trie;
  std::vector<Bytes> keys;
  for (int i = 0; i < 64; ++i) {
    const Bytes key = RandomKey(&rng);
    trie.Put(key, Key("val-", i));
    keys.push_back(key);
  }
  const Hash256 root = trie.RootHash();

  auto survives = [&root](const Bytes& key, const mpt::Proof& p,
                          const Bytes& honest) {
    auto verified = mpt::VerifyProof(root, key, p);
    return verified.ok() && verified->has_value() && **verified == honest;
  };

  int byte_flips = 0;
  for (size_t k = 0; k < keys.size(); k += 7) {
    const Bytes& key = keys[k];
    const auto proof = trie.Prove(key);
    auto verified = mpt::VerifyProof(root, key, proof);
    ASSERT_TRUE(verified.ok() && verified->has_value());
    const Bytes honest = **verified;

    // One random byte flipped in every node of the path.
    for (size_t n = 0; n < proof.size(); ++n) {
      auto mutated = proof;
      ASSERT_FALSE(mutated[n].encoded.empty());
      const size_t pos = rng.UniformInt(mutated[n].encoded.size());
      mutated[n].encoded[pos] ^= static_cast<uint8_t>(
          1 + rng.UniformInt(255));
      EXPECT_FALSE(survives(key, mutated, honest))
          << "byte flip in node " << n << " of key " << k << " survived";
      ++byte_flips;
    }

    // Truncated proof: the terminal node (and its value) is missing.
    if (!proof.empty()) {
      auto truncated = proof;
      truncated.pop_back();
      EXPECT_FALSE(survives(key, truncated, honest));
    }

    // An interior node dropped from the middle of the path.
    if (proof.size() >= 3) {
      auto gapped = proof;
      gapped.erase(gapped.begin() + static_cast<long>(gapped.size() / 2));
      EXPECT_FALSE(survives(key, gapped, honest));
    }
  }
  EXPECT_GT(byte_flips, 10) << "fuzz loop degenerated";
}

TEST(TrieProofTest, ProofSizeIsLogarithmic) {
  ReferenceTrie trie;
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    Bytes key(8);
    for (auto& b : key) b = static_cast<uint8_t>(rng.UniformInt(256));
    trie.Put(key, B("v"));
  }
  // Any fresh random key's proof touches only the path, far fewer nodes
  // than the entry count.
  Bytes probe(8, 0xab);
  const auto proof = trie.Prove(probe);
  EXPECT_LT(proof.size(), 12u);
}

}  // namespace
}  // namespace shardchain
