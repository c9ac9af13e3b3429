// Pipelined-vs-serial block production equivalence (ctest label:
// parallel, runs under the TSan CI leg): BlockPipeline must emit
// byte-identical block encodings, state roots, and residual pool
// contents to the serial select → build → append → remove loop, across
// commit-queue depths {1, 2, 4} and seeded workloads with fee ties,
// nonce chains, and invalid candidates. Also units for the AsyncWorker
// pipelining primitive (FIFO order, backpressure, error poisoning) and
// the crypto VerifyBatch thread-count invariance (DESIGN.md §14).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chain/ledger.h"
#include "chain/pipeline.h"
#include "common/rng.h"
#include "core/sharding_system.h"
#include "crypto/keys.h"
#include "parallel/async_worker.h"
#include "parallel/thread_pool.h"
#include "txpool/txpool.h"
#include "types/codec.h"

namespace shardchain {
namespace {

const size_t kThreadCounts[] = {1, 2, 4, 8};
const size_t kQueueDepths[] = {1, 2, 4};
constexpr uint64_t kNumSeeds = 10;

Address Addr(uint8_t tag) {
  Address a;
  a.bytes.fill(tag);
  return a;
}

Address RngAddr(Rng* rng) {
  Address a;
  for (auto& b : a.bytes) b = static_cast<uint8_t>(rng->Next());
  return a;
}

Bytes Concat(const std::vector<Transaction>& txs) {
  Bytes out;
  for (const Transaction& tx : txs) {
    const Bytes enc = tx.Encode();
    out.insert(out.end(), enc.begin(), enc.end());
  }
  return out;
}

// ------------------------- AsyncWorker units -----------------------------

TEST(AsyncWorkerTest, RunsTasksInSubmissionOrder) {
  std::vector<int> seen;
  {
    AsyncWorker worker(/*max_queued=*/4);
    for (int i = 0; i < 100; ++i) {
      worker.Submit([i, out = &seen] { out->push_back(i); });
    }
    worker.WaitIdle();
  }
  ASSERT_EQ(seen.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(seen[i], i);
}

TEST(AsyncWorkerTest, BoundedQueueAppliesBackpressure) {
  AsyncWorker worker(/*max_queued=*/1);
  for (int i = 0; i < 8; ++i) {
    worker.Submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); });
    // Submit returns only once the queue has room: at most one task
    // waiting plus one in flight, however fast the producer runs.
    EXPECT_LE(worker.Pending(), 2u);
  }
  worker.WaitIdle();
  EXPECT_EQ(worker.Pending(), 0u);
}

TEST(AsyncWorkerTest, ErrorPoisonsQueueAndRethrowsAtWaitIdle) {
  std::atomic<bool> gate{false};
  std::atomic<int> ran{0};
  AsyncWorker worker(/*max_queued=*/4);
  // Hold the worker busy so the next two tasks are definitely queued
  // together when the thrower poisons the queue.
  worker.Submit([g = &gate] {
    while (!g->load()) std::this_thread::yield();
  });
  worker.Submit([] { throw std::runtime_error("stage failed"); });
  worker.Submit([r = &ran] { r->fetch_add(1); });
  gate.store(true);
  EXPECT_THROW(worker.WaitIdle(), std::runtime_error);
  // The task queued behind the failure was dropped, not run on state
  // the failed stage left behind.
  EXPECT_EQ(ran.load(), 0);
  // The error is consumed; the worker is reusable afterwards.
  worker.Submit([r = &ran] { r->fetch_add(1); });
  worker.WaitIdle();
  EXPECT_EQ(ran.load(), 1);
}

// -------------------- crypto VerifyBatch invariance ----------------------

TEST(VerifyBatchTest, ThreadCountInvariantAndPerElement) {
  std::vector<KeyPair> keys;
  std::vector<Hash256> digests;
  std::vector<Signature> sigs;
  for (int i = 0; i < 13; ++i) {
    keys.push_back(KeyPair::FromSeed(300 + i));
    Sha256 h;
    h.Update("msg");
    h.Update(std::string(1, static_cast<char>('a' + i)));
    digests.push_back(h.Finalize());
    sigs.push_back(keys[i].Sign(digests[i]));
  }
  // Forge two signatures at fixed positions.
  sigs[4].preimages[17].bytes[3] ^= 0x40;
  sigs[9].preimages[0].bytes[0] ^= 0x01;

  std::vector<const PublicKey*> pks;
  std::vector<const Hash256*> digest_ptrs;
  std::vector<const Signature*> sig_ptrs;
  for (int i = 0; i < 13; ++i) {
    pks.push_back(&keys[i].public_key());
    digest_ptrs.push_back(&digests[i]);
    sig_ptrs.push_back(&sigs[i]);
  }

  const std::vector<uint8_t> serial =
      VerifyBatch(pks, digest_ptrs, sig_ptrs, nullptr);
  ASSERT_EQ(serial.size(), 13u);
  for (int i = 0; i < 13; ++i) {
    EXPECT_EQ(serial[i], (i == 4 || i == 9) ? 0 : 1) << "index " << i;
  }
  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_EQ(VerifyBatch(pks, digest_ptrs, sig_ptrs, &pool), serial)
        << "threads " << threads;
  }
}

// ----------------- pipelined vs serial block production ------------------

/// A seeded workload: funded senders with nonce chains and fee ties,
/// plus invalid candidates (unfunded senders, out-of-order nonces) that
/// must be skipped identically by both paths.
struct Scenario {
  StateDB genesis;
  std::vector<Transaction> txs;
  ChainConfig config;
};

Scenario MakeScenario(uint64_t seed) {
  Rng rng(seed * 6151 + 3);
  Scenario s;
  s.config.max_txs_per_block = 8;
  std::vector<Address> senders;
  for (int i = 0; i < 24; ++i) {
    senders.push_back(RngAddr(&rng));
    s.genesis.Mint(senders.back(), 100'000);
  }
  for (const Address& sender : senders) {
    const uint64_t chain_len = 1 + rng.UniformInt(3);
    for (uint64_t nonce = 0; nonce < chain_len; ++nonce) {
      Transaction tx;
      tx.kind = TxKind::kDirectTransfer;
      tx.sender = sender;
      tx.recipient = senders[rng.UniformInt(senders.size())];
      tx.value = 1 + rng.UniformInt(500);
      tx.fee = 1 + rng.UniformInt(6);  // Heavy fee ties.
      tx.nonce = nonce;
      s.txs.push_back(tx);
    }
  }
  // Invalid candidates: unfunded strangers and hopeless nonces.
  for (int i = 0; i < 6; ++i) {
    Transaction tx;
    tx.kind = TxKind::kDirectTransfer;
    tx.sender = rng.Bernoulli(0.5) ? RngAddr(&rng)
                                   : senders[rng.UniformInt(senders.size())];
    tx.recipient = RngAddr(&rng);
    tx.value = 10;
    tx.fee = 1 + rng.UniformInt(6);
    tx.nonce = 40 + rng.UniformInt(5);
    s.txs.push_back(tx);
  }
  // Shuffle arrivals.
  for (size_t i = s.txs.size(); i > 1; --i) {
    std::swap(s.txs[i - 1], s.txs[rng.UniformInt(i)]);
  }
  return s;
}

struct Outcome {
  std::vector<Bytes> blocks;  ///< codec-encoded, height order.
  Hash256 root;               ///< Tip state root.
  Bytes residual_pool;        ///< Unconfirmed remainder, fee order.
};

constexpr size_t kBlocksToMine = 8;
const Address kMiner = Addr(0xaa);

Outcome MineSerial(const Scenario& s) {
  Ledger ledger(/*shard_id=*/3, s.genesis, s.config);
  TxPool pool(/*capacity=*/1 << 20, /*chunk_capacity=*/16);
  for (const Transaction& tx : s.txs) (void)pool.Add(tx);
  Outcome out;
  for (size_t b = 0; b < kBlocksToMine; ++b) {
    std::vector<Transaction> cands = pool.TopByFee(s.config.max_txs_per_block);
    const Block built = ledger.BuildBlock(
        kMiner, std::move(cands),
        static_cast<uint64_t>(ledger.tip_number() + 1));
    EXPECT_TRUE(ledger.Append(built).ok());
    pool.RemoveAll(built.transactions);
    out.blocks.push_back(codec::EncodeBlock(built));
  }
  out.root = ledger.tip_state().StateRoot();
  out.residual_pool = Concat(pool.All());
  return out;
}

Outcome MinePipelined(const Scenario& s, size_t queue_depth) {
  Ledger ledger(/*shard_id=*/3, s.genesis, s.config);
  TxPool pool(/*capacity=*/1 << 20, /*chunk_capacity=*/16);
  for (const Transaction& tx : s.txs) (void)pool.Add(tx);
  BlockPipeline pipeline(&ledger, &pool, PipelineConfig{queue_depth});
  Result<PipelineResult> produced = pipeline.Run(kMiner, kBlocksToMine);
  EXPECT_TRUE(produced.ok()) << produced.status().message();
  Outcome out;
  for (const Hash256& hash : produced->hashes) {
    const Block* block = ledger.Find(hash);
    EXPECT_NE(block, nullptr);
    out.blocks.push_back(codec::EncodeBlock(*block));
  }
  out.root = ledger.tip_state().StateRoot();
  out.residual_pool = Concat(pool.All());
  return out;
}

TEST(PipelineEquivalenceTest, BlockBytesMatchSerialAcrossThreadsAndDepths) {
  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    const Scenario s = MakeScenario(seed);
    const Outcome reference = MineSerial(s);
    ASSERT_EQ(reference.blocks.size(), kBlocksToMine);
    // The pipeline must match the serial loop at every commit-queue depth.
    for (size_t depth : kQueueDepths) {
      const Outcome pipelined = MinePipelined(s, depth);
      ASSERT_EQ(pipelined.blocks, reference.blocks)
          << "seed " << seed << " depth " << depth;
      ASSERT_EQ(pipelined.root, reference.root)
          << "seed " << seed << " depth " << depth;
      ASSERT_EQ(pipelined.residual_pool, reference.residual_pool)
          << "seed " << seed << " depth " << depth;
    }
  }
}

// Draining a backlog over MANY more blocks than the candidate supply:
// trailing empty blocks, pool exhaustion, and failed-candidate
// retention must all round-trip identically.
TEST(PipelineEquivalenceTest, DrainsBacklogIdenticallyIncludingEmptyBlocks) {
  const Scenario s = MakeScenario(99);
  Ledger serial_ledger(3, s.genesis, s.config);
  TxPool serial_pool(1 << 20, 16);
  Ledger piped_ledger(3, s.genesis, s.config);
  TxPool piped_pool(1 << 20, 16);
  for (const Transaction& tx : s.txs) {
    (void)serial_pool.Add(tx);
    (void)piped_pool.Add(tx);
  }
  constexpr size_t kRounds = 20;  // Far beyond the backlog.
  std::vector<Hash256> serial_hashes;
  for (size_t b = 0; b < kRounds; ++b) {
    std::vector<Transaction> cands =
        serial_pool.TopByFee(s.config.max_txs_per_block);
    const Block built = serial_ledger.BuildBlock(
        kMiner, std::move(cands),
        static_cast<uint64_t>(serial_ledger.tip_number() + 1));
    Result<Hash256> appended = serial_ledger.Append(built);
    ASSERT_TRUE(appended.ok());
    serial_hashes.push_back(*appended);
    serial_pool.RemoveAll(built.transactions);
  }
  BlockPipeline pipeline(&piped_ledger, &piped_pool);
  Result<PipelineResult> produced = pipeline.Run(kMiner, kRounds);
  ASSERT_TRUE(produced.ok()) << produced.status().message();
  EXPECT_EQ(produced->hashes, serial_hashes);
  EXPECT_EQ(piped_ledger.tip_hash(), serial_ledger.tip_hash());
  EXPECT_EQ(piped_ledger.CanonicalEmptyBlocks(),
            serial_ledger.CanonicalEmptyBlocks());
  EXPECT_EQ(Concat(piped_pool.All()), Concat(serial_pool.All()));
}

// ------------------- system-level pipelined mining -----------------------

ShardingSystemConfig SystemConfig(size_t threads) {
  ShardingSystemConfig config;
  config.chain.max_txs_per_block = 8;
  config.parallel = ParallelConfig{threads};
  return config;
}

TEST(PipelineEquivalenceTest, MineBlocksPipelinedMatchesMineBlockLoop) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ShardingSystem serial_sys(SystemConfig(1), /*seed=*/77);
    ShardingSystem piped_sys(SystemConfig(threads), /*seed=*/77);
    for (int i = 0; i < 4; ++i) {
      serial_sys.AddMiner();
      piped_sys.AddMiner();
    }
    Rng rng(505);
    std::vector<Transaction> txs;
    for (int i = 0; i < 40; ++i) {
      const Address sender = RngAddr(&rng);
      serial_sys.Mint(sender, 50'000);
      piped_sys.Mint(sender, 50'000);
      Transaction tx;
      tx.kind = TxKind::kDirectTransfer;
      tx.sender = sender;
      tx.recipient = Addr(static_cast<uint8_t>(rng.UniformInt(5)));
      tx.value = 1 + rng.UniformInt(100);
      tx.fee = 1 + rng.UniformInt(5);
      tx.nonce = 0;
      txs.push_back(tx);
    }
    ASSERT_TRUE(serial_sys.BeginEpoch(1).ok());
    ASSERT_TRUE(piped_sys.BeginEpoch(1).ok());

    // Batch submission must be status-equal to the sequential loop.
    std::vector<Status> serial_status;
    for (const Transaction& tx : txs) {
      Result<ShardId> routed = serial_sys.SubmitTransaction(tx);
      serial_status.push_back(routed.ok() ? Status::OK() : routed.status());
    }
    const std::vector<Status> batch_status =
        piped_sys.SubmitTransactionBatch(txs);
    ASSERT_EQ(batch_status.size(), serial_status.size());
    for (size_t i = 0; i < txs.size(); ++i) {
      EXPECT_EQ(batch_status[i].code(), serial_status[i].code());
    }
    ASSERT_EQ(piped_sys.PendingPerShard(), serial_sys.PendingPerShard());

    constexpr size_t kBlocks = 6;
    for (NodeId miner : serial_sys.LiveMiners()) {
      std::vector<Hash256> serial_hashes;
      for (size_t b = 0; b < kBlocks; ++b) {
        Result<Hash256> mined = serial_sys.MineBlock(miner);
        ASSERT_TRUE(mined.ok()) << mined.status().message();
        serial_hashes.push_back(*mined);
      }
      Result<std::vector<Hash256>> piped =
          piped_sys.MineBlocksPipelined(miner, kBlocks);
      ASSERT_TRUE(piped.ok()) << piped.status().message();
      EXPECT_EQ(*piped, serial_hashes) << "miner " << miner;
    }
    EXPECT_EQ(piped_sys.PendingPerShard(), serial_sys.PendingPerShard());
    for (ShardId shard = 0; shard < serial_sys.ShardCount(); ++shard) {
      const Ledger* a = serial_sys.ShardLedger(shard);
      const Ledger* b = piped_sys.ShardLedger(shard);
      if (a == nullptr || b == nullptr) {
        EXPECT_EQ(a == nullptr, b == nullptr);
        continue;
      }
      EXPECT_EQ(b->tip_hash(), a->tip_hash()) << "shard " << shard;
      EXPECT_EQ(b->tip_state().StateRoot(), a->tip_state().StateRoot());
    }
  }
}

}  // namespace
}  // namespace shardchain
