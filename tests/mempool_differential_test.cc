// Chunked-vs-legacy mempool differential suite (DESIGN.md §14): the
// chunked TxPool must be observably indistinguishable from the legacy
// single-ordered-map pool — element-wise equal admission statuses and
// byte-identical TopByFee emission — under 20 shuffled-arrival seeds
// with interleaved removals, block confirmations, and capacity
// evictions. Also pins the PR 1 fee-tie eviction determinism (retained
// set independent of arrival order), the legacy pool's batched
// RemoveAll (sweep and per-key paths), and batch signature
// verification at admission (one bad signature rejects only its tx;
// mismatched batch lengths admit nothing, in every build).

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/keys.h"
#include "legacy_pool.h"
#include "txpool/txpool.h"

namespace shardchain {
namespace {

Address RngAddr(Rng* rng) {
  Address a;
  for (auto& b : a.bytes) b = static_cast<uint8_t>(rng->Next());
  return a;
}

Transaction RandTx(Rng* rng, Amount fee_cap) {
  Transaction tx;
  tx.kind = TxKind::kDirectTransfer;
  tx.sender = RngAddr(rng);
  tx.recipient = RngAddr(rng);
  tx.value = 1 + rng->UniformInt(1000);
  // Small fee range on purpose: lots of fee ties, so the id tie-break
  // order is exercised constantly.
  tx.fee = 1 + rng->UniformInt(fee_cap);
  tx.nonce = rng->UniformInt(4);
  return tx;
}

Bytes Concat(const std::vector<Transaction>& txs) {
  Bytes out;
  for (const Transaction& tx : txs) {
    const Bytes enc = tx.Encode();
    out.insert(out.end(), enc.begin(), enc.end());
  }
  return out;
}

// ------------------- chunked vs legacy, shuffled arrivals ----------------

TEST(MempoolDifferential, ShuffledArrivalsMatchLegacy) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed * 733 + 5);
    // Tiny chunks force multi-chunk merges, recycling, and compaction.
    TxPool chunked(/*capacity=*/256, /*chunk_capacity=*/16);
    LegacyTxPool legacy(/*capacity=*/256);
    std::vector<Transaction> known;

    for (int step = 0; step < 600; ++step) {
      const uint32_t op = rng.UniformInt(100);
      if (op < 70 || known.empty()) {
        // Admission (with occasional duplicate re-adds).
        const bool dup = !known.empty() && rng.Bernoulli(0.2);
        const Transaction tx =
            dup ? known[rng.UniformInt(known.size())] : RandTx(&rng, 16);
        const Status a = chunked.Add(tx);
        const Status b = legacy.Add(tx);
        ASSERT_EQ(a.code(), b.code()) << "seed " << seed << " step " << step;
        if (a.ok() && !dup) known.push_back(tx);
      } else if (op < 85) {
        // Targeted removal (sometimes of an id already gone).
        const Transaction& victim = known[rng.UniformInt(known.size())];
        const Status a = chunked.Remove(victim.Id());
        const Status b = legacy.Remove(victim.Id());
        ASSERT_EQ(a.code(), b.code()) << "seed " << seed << " step " << step;
      } else {
        // Block confirmation: take the top slice from BOTH pools
        // (asserting emission equality on the way) and remove it.
        const size_t take = 1 + rng.UniformInt(12);
        const std::vector<Transaction> top_c = chunked.TopByFee(take);
        const std::vector<Transaction> top_l = legacy.TopByFee(take);
        ASSERT_EQ(Concat(top_c), Concat(top_l))
            << "seed " << seed << " step " << step;
        chunked.RemoveAll(top_l);
        legacy.RemoveAll(top_l);
      }
      ASSERT_EQ(chunked.Size(), legacy.Size());
    }
    EXPECT_EQ(Concat(chunked.All()), Concat(legacy.All())) << "seed " << seed;
  }
}

// PR 1 regression: with the pool at capacity, fee ties must be evicted
// by the full (fee desc, id asc) key — the retained set is a pure
// function of the tx set, never of arrival order. Holds for the
// chunked pool exactly as it did for the legacy pool.
TEST(MempoolDifferential, CapacityEvictionFeeTieDeterminism) {
  Rng gen(42);
  std::vector<Transaction> txs;
  for (int i = 0; i < 64; ++i) txs.push_back(RandTx(&gen, 3));

  Bytes reference;
  for (uint64_t order = 0; order < 20; ++order) {
    Rng shuffle_rng(order * 31 + 7);
    std::vector<Transaction> shuffled = txs;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[shuffle_rng.UniformInt(i)]);
    }
    TxPool chunked(/*capacity=*/16, /*chunk_capacity=*/4);
    LegacyTxPool legacy(/*capacity=*/16);
    for (const Transaction& tx : shuffled) {
      const Status a = chunked.Add(tx);
      const Status b = legacy.Add(tx);
      ASSERT_EQ(a.code(), b.code());
    }
    const Bytes retained = Concat(chunked.All());
    ASSERT_EQ(retained, Concat(legacy.All())) << "order " << order;
    if (order == 0) {
      reference = retained;
    } else {
      ASSERT_EQ(retained, reference) << "order " << order;
    }
  }
}

TEST(MempoolDifferential, AddBatchMatchesSequentialAdds) {
  Rng rng(9);
  std::vector<Transaction> txs;
  for (int i = 0; i < 80; ++i) txs.push_back(RandTx(&rng, 8));
  txs.push_back(txs[3]);  // Duplicate inside the batch.

  TxPool batched(/*capacity=*/48, /*chunk_capacity=*/8);
  TxPool sequential(/*capacity=*/48, /*chunk_capacity=*/8);
  const std::vector<Status> got = batched.AddBatch(txs);
  ASSERT_EQ(got.size(), txs.size());
  for (size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ(got[i].code(), sequential.Add(txs[i]).code()) << "index " << i;
  }
  EXPECT_EQ(Concat(batched.All()), Concat(sequential.All()));
}

// ------------------- legacy batched RemoveAll paths ----------------------

TEST(LegacyPoolBatchRemove, SweepPathMatchesPerTxRemoval) {
  Rng rng(11);
  LegacyTxPool batch_pool;
  LegacyTxPool single_pool;
  std::vector<Transaction> txs;
  for (int i = 0; i < 200; ++i) txs.push_back(RandTx(&rng, 10));
  for (const Transaction& tx : txs) {
    ASSERT_TRUE(batch_pool.Add(tx).ok());
    ASSERT_TRUE(single_pool.Add(tx).ok());
  }
  // A large confirmed fraction (includes some unpooled strangers, which
  // RemoveAll must skip): exercises the single-sweep path.
  std::vector<Transaction> confirmed(txs.begin(), txs.begin() + 150);
  confirmed.push_back(RandTx(&rng, 10));
  batch_pool.RemoveAll(confirmed);
  for (const Transaction& tx : confirmed) (void)single_pool.Remove(tx.Id());
  EXPECT_EQ(batch_pool.Size(), 50u);
  EXPECT_EQ(Concat(batch_pool.All()), Concat(single_pool.All()));
}

TEST(LegacyPoolBatchRemove, PerKeyPathMatchesPerTxRemoval) {
  Rng rng(13);
  LegacyTxPool batch_pool;
  LegacyTxPool single_pool;
  std::vector<Transaction> txs;
  for (int i = 0; i < 200; ++i) txs.push_back(RandTx(&rng, 10));
  for (const Transaction& tx : txs) {
    ASSERT_TRUE(batch_pool.Add(tx).ok());
    ASSERT_TRUE(single_pool.Add(tx).ok());
  }
  // A small confirmed set: exercises the per-key erase path.
  const std::vector<Transaction> confirmed(txs.begin(), txs.begin() + 5);
  batch_pool.RemoveAll(confirmed);
  for (const Transaction& tx : confirmed) (void)single_pool.Remove(tx.Id());
  EXPECT_EQ(batch_pool.Size(), 195u);
  EXPECT_EQ(Concat(batch_pool.All()), Concat(single_pool.All()));
}

// ------------------- signed batch admission ------------------------------

TEST(TxPoolSignedBatch, OneBadSignatureRejectsOnlyThatTx) {
  Rng rng(17);
  std::vector<Transaction> txs;
  std::vector<KeyPair> keys;
  for (int i = 0; i < 5; ++i) {
    txs.push_back(RandTx(&rng, 10));
    keys.push_back(KeyPair::FromSeed(1000 + i));
  }
  std::vector<Signature> sigs;
  std::vector<const PublicKey*> pks;
  std::vector<const Signature*> sig_ptrs;
  for (int i = 0; i < 5; ++i) {
    sigs.push_back(keys[i].Sign(txs[i].SigningDigest()));
  }
  // Forge exactly one signature.
  sigs[2].preimages[0].bytes[0] ^= 1;
  for (int i = 0; i < 5; ++i) {
    pks.push_back(&keys[i].public_key());
    sig_ptrs.push_back(&sigs[i]);
  }

  TxPool pool(/*capacity=*/64, /*chunk_capacity=*/8);
  const std::vector<Status> got =
      pool.AddSignedBatch(txs, pks, sig_ptrs, /*pool=*/nullptr);
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    if (i == 2) {
      EXPECT_TRUE(got[i].IsUnauthorized()) << got[i].message();
      EXPECT_FALSE(pool.Contains(txs[i].Id()));
    } else {
      EXPECT_TRUE(got[i].ok()) << got[i].message();
      EXPECT_TRUE(pool.Contains(txs[i].Id()));
    }
  }
  EXPECT_EQ(pool.Size(), 4u);
}

TEST(TxPoolSignedBatch, SigningDigestIsDomainSeparatedFromId) {
  Rng rng(19);
  const Transaction tx = RandTx(&rng, 10);
  EXPECT_NE(tx.SigningDigest(), tx.Id());
  // A signature over the id must not authenticate the admission digest.
  const KeyPair key = KeyPair::FromSeed(55);
  const Signature over_id = key.Sign(tx.Id());
  EXPECT_FALSE(Verify(key.public_key(), tx.SigningDigest(), over_id));
  EXPECT_TRUE(Verify(key.public_key(), tx.Id(), over_id));
}

TEST(TxPoolSignedBatch, MismatchedLengthsAdmitNothingInEveryBuild) {
  Rng rng(29);
  std::vector<Transaction> txs;
  std::vector<KeyPair> keys;
  std::vector<Signature> sigs;
  std::vector<Hash256> digests;
  for (int i = 0; i < 4; ++i) {
    txs.push_back(RandTx(&rng, 10));
    keys.push_back(KeyPair::FromSeed(2000 + i));
    digests.push_back(txs[i].SigningDigest());
    sigs.push_back(keys[i].Sign(digests[i]));
  }
  std::vector<const PublicKey*> pks;
  std::vector<const Signature*> sig_ptrs;
  std::vector<const Hash256*> digest_ptrs;
  for (int i = 0; i < 4; ++i) {
    pks.push_back(&keys[i].public_key());
    sig_ptrs.push_back(&sigs[i]);
    digest_ptrs.push_back(&digests[i]);
  }
  const std::vector<const PublicKey*> short_pks(pks.begin(), pks.end() - 1);
  const std::vector<const Signature*> short_sigs(sig_ptrs.begin(),
                                                 sig_ptrs.end() - 1);
  const std::vector<const Hash256*> short_digests(digest_ptrs.begin(),
                                                  digest_ptrs.end() - 1);

  // Every signature is valid, so only the length check can reject.
  TxPool pool(/*capacity=*/64, /*chunk_capacity=*/8);
  using Args = std::pair<const std::vector<const PublicKey*>*,
                         const std::vector<const Signature*>*>;
  for (const Args& args : {Args{&short_pks, &sig_ptrs},
                           Args{&pks, &short_sigs}}) {
    const std::vector<Status> got =
        pool.AddSignedBatch(txs, *args.first, *args.second, /*pool=*/nullptr);
    ASSERT_EQ(got.size(), txs.size());
    for (const Status& st : got) {
      EXPECT_TRUE(st.IsInvalidArgument()) << st.message();
    }
    EXPECT_EQ(pool.Size(), 0u);
  }

  const std::vector<uint8_t> none(pks.size(), 0);
  EXPECT_EQ(VerifyBatch(pks, short_digests, sig_ptrs, nullptr), none);
  EXPECT_EQ(VerifyBatch(pks, digest_ptrs, short_sigs, nullptr), none);
  EXPECT_EQ(VerifyBatch(pks, digest_ptrs, sig_ptrs, nullptr),
            std::vector<uint8_t>(pks.size(), 1));
}

// ------------------- chunk lifecycle -------------------------------------

TEST(TxPoolChunks, ConfirmationRecyclesChunks) {
  TxPool pool(/*capacity=*/1 << 20, /*chunk_capacity=*/8);
  Rng rng(23);
  std::vector<Transaction> txs;
  for (int i = 0; i < 64; ++i) txs.push_back(RandTx(&rng, 10));
  for (const Transaction& tx : txs) ASSERT_TRUE(pool.Add(tx).ok());
  EXPECT_EQ(pool.ChunkCount(), 8u);

  pool.RemoveAll(txs);
  EXPECT_TRUE(pool.Empty());
  EXPECT_EQ(pool.ChunkCount(), 0u);

  // Recycled chunks are reused rather than re-allocated.
  for (const Transaction& tx : txs) ASSERT_TRUE(pool.Add(tx).ok());
  EXPECT_EQ(pool.ChunkCount(), 8u);
  EXPECT_EQ(pool.Size(), 64u);
}

TEST(TxPoolChunks, PartialConfirmationCompactsMostlyDeadChunks) {
  TxPool pool(/*capacity=*/1 << 20, /*chunk_capacity=*/8);
  Rng rng(29);
  std::vector<Transaction> txs;
  for (int i = 0; i < 32; ++i) txs.push_back(RandTx(&rng, 10));
  for (const Transaction& tx : txs) ASSERT_TRUE(pool.Add(tx).ok());

  // Confirm 7 of every 8: each chunk crosses the compaction threshold.
  std::vector<Transaction> confirmed;
  for (size_t i = 0; i < txs.size(); ++i) {
    if (i % 8 != 0) confirmed.push_back(txs[i]);
  }
  pool.RemoveAll(confirmed);
  EXPECT_EQ(pool.Size(), 4u);
  for (size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ(pool.Contains(txs[i].Id()), i % 8 == 0);
  }
  // Emission still sees exactly the survivors, in fee order.
  LegacyTxPool reference;
  for (size_t i = 0; i < txs.size(); i += 8) {
    ASSERT_TRUE(reference.Add(txs[i]).ok());
  }
  EXPECT_EQ(Concat(pool.All()), Concat(reference.All()));
}

}  // namespace
}  // namespace shardchain
