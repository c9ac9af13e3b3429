// Micro-benchmarks (google-benchmark) for the substrate primitives:
// hashing, signatures, Merkle trees, the contract VM, the transaction
// pool, and both game algorithms. These are not paper figures; they
// document the cost model of the library.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "contract/assembler.h"
#include "contract/registry.h"
#include "core/merging_game.h"
#include "core/selection_game.h"
#include "crypto/keys.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/vrf.h"
#include "state/statedb.h"
#include "txpool/txpool.h"

namespace {

using namespace shardchain;

// The short lengths are the shapes the system hashes most: a Lamport
// preimage (32), an account digest's input (52), a Merkle pair (64), a
// trie leaf (81), a transaction encoding (89) and a trie branch (522).
void BM_Sha256(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256Digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)
    ->Arg(32)
    ->Arg(52)
    ->Arg(64)
    ->Arg(81)
    ->Arg(89)
    ->Arg(522)
    ->Arg(1024)
    ->Arg(65536);

void BM_HashPair(benchmark::State& state) {
  const Hash256 a = Sha256Digest("left");
  const Hash256 b = Sha256Digest("right");
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashPair(a, b));
  }
}
BENCHMARK(BM_HashPair);

// A batch of distinct 32-byte messages, the shape of a Lamport verify
// (256) and keygen (512): sixteen per pass on AVX-512.
void BM_Sha256Digest32Many(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Hash256> in(n);
  for (size_t i = 0; i < n; ++i) in[i] = Sha256Digest(std::to_string(i));
  std::vector<Hash256> out(n);
  for (auto _ : state) {
    Sha256Digest32Many(in.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256Digest32Many)->Arg(256);

void BM_LamportKeygen(benchmark::State& state) {
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyPair::FromSeed(++seed));
  }
}
BENCHMARK(BM_LamportKeygen);

void BM_LamportSign(benchmark::State& state) {
  KeyPair kp = KeyPair::FromSeed(1);
  const Hash256 msg = Sha256Digest("message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.Sign(msg));
  }
}
BENCHMARK(BM_LamportSign);

void BM_LamportVerify(benchmark::State& state) {
  KeyPair kp = KeyPair::FromSeed(2);
  const Hash256 msg = Sha256Digest("message");
  const Signature sig = kp.Sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Verify(kp.public_key(), msg, sig));
  }
}
BENCHMARK(BM_LamportVerify);

void BM_VrfEvaluate(benchmark::State& state) {
  KeyPair kp = KeyPair::FromSeed(3);
  const Hash256 seed = Sha256Digest("epoch");
  for (auto _ : state) {
    benchmark::DoNotOptimize(VrfEvaluate(kp, seed));
  }
}
BENCHMARK(BM_VrfEvaluate);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<Hash256> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(Sha256Digest("leaf" + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleRoot(leaves));
  }
}
BENCHMARK(BM_MerkleRoot)->Arg(10)->Arg(100)->Arg(1000);

void BM_VmConditionalTransfer(benchmark::State& state) {
  StateDB db;
  Address recipient;
  recipient.bytes.fill(2);
  const ContractProgram program =
      contracts::ConditionalTransfer(recipient, 1u << 30);
  Address caller;
  caller.bytes.fill(1);
  db.Mint(caller, ~uint64_t{0} >> 1);
  CallContext ctx;
  ctx.contract = Address::ForContract(caller, 0);
  ctx.caller = caller;
  ctx.call_value = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Vm::Execute(program, ctx, &db));
  }
}
BENCHMARK(BM_VmConditionalTransfer);

void BM_TxPoolAddRemove(benchmark::State& state) {
  Rng rng(4);
  std::vector<Transaction> txs;
  for (int64_t i = 0; i < state.range(0); ++i) {
    Transaction tx;
    tx.fee = rng.UniformRange(1, 1000);
    tx.nonce = static_cast<uint64_t>(i);
    txs.push_back(tx);
  }
  for (auto _ : state) {
    TxPool pool;
    for (const auto& tx : txs) benchmark::DoNotOptimize(pool.Add(tx).ok());
    benchmark::DoNotOptimize(pool.TopByFee(10));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TxPoolAddRemove)->Arg(100)->Arg(1000);

void BM_SelectionGame(benchmark::State& state) {
  Rng fee_rng(5);
  std::vector<Amount> fees;
  for (int64_t i = 0; i < state.range(0); ++i) {
    fees.push_back(fee_rng.Binomial(200, 0.5) + 1);
  }
  const size_t miners = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    Rng rng(6);
    benchmark::DoNotOptimize(RunSelectionGame(fees, miners, {10, 1000}, &rng));
  }
}
BENCHMARK(BM_SelectionGame)->Args({200, 9})->Args({1000, 50});

void BM_MergingGame(benchmark::State& state) {
  Rng size_rng(7);
  std::vector<uint64_t> sizes;
  for (int64_t i = 0; i < state.range(0); ++i) {
    sizes.push_back(static_cast<uint64_t>(size_rng.UniformRange(1, 9)));
  }
  MergingGameConfig config;
  config.min_shard_size = 20;
  config.subslots = 16;
  config.max_slots = 100;
  for (auto _ : state) {
    Rng rng(8);
    benchmark::DoNotOptimize(RunOneTimeMerge(sizes, config, &rng));
  }
}
BENCHMARK(BM_MergingGame)->Arg(8)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
