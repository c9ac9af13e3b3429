// Sharded chunked mempool + pipelined block production (DESIGN.md
// §14): end-to-end throughput of draining a million-transaction queued
// backlog into blocks, serial select → build → append → remove loop vs
// BlockPipeline (execution overlapped with Merkle-commit on an async
// worker) at commit-queue depths 1/2/4. The backlog is 4100 senders x
// 256-deep nonce chains (1,049,600 direct transfers) with fees aligned
// so every TopByFee slice is executable — the drain measures steady
// production, not retry churn.
//
// The bench is also a correctness gate, run BEFORE any timing: at gate
// scale every queue depth must produce byte-identical block encodings,
// the same tip state root, and the same residual pool as the serial
// loop — including trailing empty blocks — and the harness aborts on
// divergence. The full-scale timed runs re-assert the same identity
// over a running digest of all encoded blocks.
//
// Pipelining buys overlap, not parallel execution: with one hardware
// thread the pipelined cells are expected to roughly match serial
// (bookkeeping, nothing to overlap onto). The JSON records
// hardware_concurrency so single-core CI numbers read as what they
// are.
//
// Admission is measured separately (TxPool::AddBatch of the full
// backlog), and batched Lamport signature verification (the
// AddSignedBatch admission path) is measured on a small signed batch —
// at 8 KiB per signature, a million *signed* transactions is not a
// realistic resident workload, so sig-verify throughput is reported in
// sigs/sec and composes analytically.
//
// Emits BENCH_pipeline.json into the working directory for CI artifact
// collection.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/emit_json.h"
#include "chain/ledger.h"
#include "chain/pipeline.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "parallel/thread_pool.h"
#include "txpool/txpool.h"
#include "types/codec.h"

namespace shardchain {
namespace {

using Clock = std::chrono::steady_clock;  // detlint:allow(wall-clock): bench timing

// Full-scale drain: strictly over a million queued transactions.
constexpr size_t kSenders = 4100;
constexpr uint64_t kNoncesPerSender = 256;
constexpr size_t kBacklog = kSenders * kNoncesPerSender;  // 1,049,600
constexpr size_t kBlockTxs = 4096;
constexpr size_t kRounds = (kBacklog + kBlockTxs - 1) / kBlockTxs;  // 257
constexpr size_t kPoolCapacity = size_t{1} << 21;
constexpr size_t kChunkCapacity = 4096;
const size_t kQueueDepths[] = {1, 2, 4};

// Gate scale: small enough to run every depth pre-timing, shaped the
// same way, plus two trailing rounds past exhaustion so empty-block
// production is part of the identity check.
constexpr size_t kGateSenders = 96;
constexpr uint64_t kGateNonces = 8;
constexpr size_t kGateBlockTxs = 64;
constexpr size_t kGateRounds = kGateSenders * kGateNonces / kGateBlockTxs + 2;

// Signed-admission micro-measurement.
constexpr size_t kSigBatch = 48;
const size_t kSigThreadCounts[] = {1, 2, 4, 8};
constexpr double kMinSeconds = 0.2;

Address BenchAddr(uint64_t n) {
  Address a;
  a.bytes[0] = static_cast<uint8_t>(n);
  a.bytes[1] = static_cast<uint8_t>(n >> 8);
  a.bytes[2] = static_cast<uint8_t>(n >> 16);
  a.bytes[19] = static_cast<uint8_t>(n * 131);
  return a;
}

const Address kMiner = BenchAddr(999'999);

struct Workload {
  StateDB genesis;
  std::vector<Transaction> txs;  ///< Admission order.
  ChainConfig config;
};

/// `senders` nonce chains of depth `nonces`. Fee = nonces - nonce keeps
/// the fee order aligned with every sender's nonce order, so each
/// TopByFee slice executes without a single nonce rejection: within a
/// candidate slice greedy inclusion runs in fee order, and a nonce-k tx
/// can only rank into the top `block_txs` after every still-pooled
/// lower nonce of its sender (which carries a strictly higher fee).
Workload MakeWorkload(size_t senders, uint64_t nonces, size_t block_txs) {
  Workload w;
  w.config.max_txs_per_block = block_txs;
  w.txs.reserve(senders * nonces);
  for (size_t i = 0; i < senders; ++i) {
    const Address sender = BenchAddr(i);
    w.genesis.Mint(sender, 1'000'000);
    for (uint64_t nonce = 0; nonce < nonces; ++nonce) {
      Transaction tx;
      tx.kind = TxKind::kDirectTransfer;
      tx.sender = sender;
      // Bounded recipient set: state size stays ~#senders accounts, so
      // per-block StateDB snapshots cost what they would on a real
      // shard, and the backlog — not the account count — is the scale
      // knob.
      tx.recipient = BenchAddr(1'000'000 + (i % 64));
      tx.value = 1;
      tx.fee = static_cast<Amount>(nonces - nonce);
      tx.nonce = nonce;
      w.txs.push_back(tx);
    }
  }
  return w;
}

struct DrainOutcome {
  double admit_sec = 0.0;
  double drain_sec = 0.0;
  size_t confirmed = 0;
  size_t residual = 0;
  Hash256 blocks_digest;  ///< SHA-256 over all encoded blocks, in order.
  Hash256 root;           ///< Tip state root after the drain.
  std::vector<Bytes> blocks;  ///< Filled only when keep_blocks.
};

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The serial baseline: the ShardingSystem::MineBlock loop — TopByFee,
/// BuildBlock, Append, RemoveAll — one round per block.
DrainOutcome DrainSerial(const Workload& w, size_t rounds, bool keep_blocks) {
  Ledger ledger(/*shard_id=*/1, w.genesis, w.config);
  TxPool pool(kPoolCapacity, kChunkCapacity);
  DrainOutcome out;
  const auto admit_start = Clock::now();
  for (const Status& s : pool.AddBatch(w.txs)) {
    if (!s.ok()) std::abort();  // Synthetic workload must admit fully.
  }
  out.admit_sec = Seconds(admit_start, Clock::now());
  Sha256 digest;
  const auto drain_start = Clock::now();
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<Transaction> cands = pool.TopByFee(w.config.max_txs_per_block);
    const Block built = ledger.BuildBlock(
        kMiner, std::move(cands),
        static_cast<uint64_t>(ledger.tip_number() + 1));
    if (!ledger.Append(built).ok()) {
      std::fprintf(stderr, "FATAL: serial drain failed at round %zu\n", round);
      std::exit(1);
    }
    pool.RemoveAll(built.transactions);
    out.confirmed += built.transactions.size();
    const Bytes enc = codec::EncodeBlock(built);
    digest.Update(enc);
    if (keep_blocks) out.blocks.push_back(enc);
  }
  out.drain_sec = Seconds(drain_start, Clock::now());
  out.blocks_digest = digest.Finalize();
  out.root = ledger.tip_state().StateRoot();
  out.residual = pool.Size();
  return out;
}

DrainOutcome DrainPipelined(const Workload& w, size_t rounds,
                            size_t queue_depth, bool keep_blocks) {
  Ledger ledger(/*shard_id=*/1, w.genesis, w.config);
  TxPool pool(kPoolCapacity, kChunkCapacity);
  DrainOutcome out;
  const auto admit_start = Clock::now();
  for (const Status& s : pool.AddBatch(w.txs)) {
    if (!s.ok()) std::abort();  // Synthetic workload must admit fully.
  }
  out.admit_sec = Seconds(admit_start, Clock::now());
  BlockPipeline pipeline(&ledger, &pool, PipelineConfig{queue_depth});
  const auto drain_start = Clock::now();
  Result<PipelineResult> produced = pipeline.Run(kMiner, rounds);
  out.drain_sec = Seconds(drain_start, Clock::now());
  if (!produced.ok() || produced->hashes.size() != rounds) {
    std::fprintf(stderr, "FATAL: pipelined drain failed (depth %zu): %s\n",
                 queue_depth, produced.status().message().c_str());
    std::exit(1);
  }
  out.confirmed = produced->txs_confirmed;
  Sha256 digest;
  for (const Hash256& hash : produced->hashes) {
    const Block* block = ledger.Find(hash);
    if (block == nullptr) {
      std::fprintf(stderr, "FATAL: pipelined block missing from ledger\n");
      std::exit(1);
    }
    const Bytes enc = codec::EncodeBlock(*block);
    digest.Update(enc);
    if (keep_blocks) out.blocks.push_back(enc);
  }
  out.blocks_digest = digest.Finalize();
  out.root = ledger.tip_state().StateRoot();
  out.residual = pool.Size();
  return out;
}

/// Pre-timing identity gate: every queue depth must reproduce the
/// serial blocks byte-for-byte at gate scale, empty trailing blocks
/// included. Exits on divergence — a mismatch here is a consensus
/// fork, and timing a fork is meaningless.
void RunIdentityGate() {
  const Workload w = MakeWorkload(kGateSenders, kGateNonces, kGateBlockTxs);
  const DrainOutcome serial =
      DrainSerial(w, kGateRounds, /*keep_blocks=*/true);
  for (const size_t depth : kQueueDepths) {
    const DrainOutcome piped =
        DrainPipelined(w, kGateRounds, depth, /*keep_blocks=*/true);
    for (size_t b = 0; b < kGateRounds; ++b) {
      if (piped.blocks[b] != serial.blocks[b]) {
        std::fprintf(stderr,
                     "FATAL: pipelined block %zu != serial block (queue depth "
                     "%zu) — consensus-visible divergence\n",
                     b, depth);
        std::exit(1);
      }
    }
    if (piped.root != serial.root || piped.residual != serial.residual) {
      std::fprintf(stderr,
                   "FATAL: pipelined post-state diverges from serial (queue "
                   "depth %zu)\n",
                   depth);
      std::exit(1);
    }
  }
  std::printf(
      "identity gate: %zu blocks x %zu queue depths byte-identical to the "
      "serial loop (incl. 2 empty blocks)\n",
      kGateRounds, std::size(kQueueDepths));
}

double MeasureOpsPerSec(const std::function<uint64_t()>& op) {
  uint64_t sink = op();  // Warm-up.
  size_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    sink ^= op();
    ++iters;
    elapsed = Seconds(start, Clock::now());
  } while (elapsed < kMinSeconds);
  if (sink == 0xdeadbeefdeadbeefull) std::printf("(unlikely checksum)\n");
  return static_cast<double>(iters) / elapsed;
}

struct SigCell {
  size_t threads = 0;  ///< 0 = serial (no pool).
  double sigs_per_sec = 0.0;
};

/// Batched Lamport verification throughput — the admission-path crypto
/// AddSignedBatch runs per batch. Serial and pooled results were
/// asserted bitwise-equal per element by the equivalence suite; here
/// only throughput is measured.
std::vector<SigCell> MeasureSigVerify() {
  std::vector<KeyPair> keys;
  std::vector<Hash256> digests;
  std::vector<Signature> sigs;
  keys.reserve(kSigBatch);
  for (size_t i = 0; i < kSigBatch; ++i) {
    keys.push_back(KeyPair::FromSeed(9000 + i));
    Sha256 h;
    h.Update("bench_pipeline.sig");
    h.Update(std::string(1, static_cast<char>(i)));
    digests.push_back(h.Finalize());
    sigs.push_back(keys[i].Sign(digests[i]));
  }
  std::vector<const PublicKey*> pks;
  std::vector<const Hash256*> digest_ptrs;
  std::vector<const Signature*> sig_ptrs;
  for (size_t i = 0; i < kSigBatch; ++i) {
    pks.push_back(&keys[i].public_key());
    digest_ptrs.push_back(&digests[i]);
    sig_ptrs.push_back(&sigs[i]);
  }
  std::vector<SigCell> cells;
  const auto run = [&](ThreadPool* pool) {
    const std::vector<uint8_t> ok = VerifyBatch(pks, digest_ptrs, sig_ptrs,
                                                pool);
    uint64_t sum = 0;
    for (const uint8_t v : ok) sum += v;
    if (sum != kSigBatch) {
      std::fprintf(stderr, "FATAL: sig batch failed verification\n");
      std::exit(1);
    }
    return sum;
  };
  bench::Row({"threads", "sigs/sec"});
  const double serial_ops = MeasureOpsPerSec([&] { return run(nullptr); });
  cells.push_back(SigCell{0, serial_ops * kSigBatch});
  bench::Row({"serial", bench::Fmt(serial_ops * kSigBatch, 0)});
  for (const size_t threads : kSigThreadCounts) {
    ThreadPool pool(threads);
    const double ops = MeasureOpsPerSec([&] { return run(&pool); });
    cells.push_back(SigCell{threads, ops * kSigBatch});
    bench::Row({std::to_string(threads), bench::Fmt(ops * kSigBatch, 0)});
  }
  return cells;
}

struct DrainCell {
  std::string mode;
  size_t queue_depth = 0;
  double admit_txs_per_sec = 0.0;
  double drain_sec = 0.0;
  double txs_per_sec = 0.0;
  double speedup = 0.0;
};

int Run() {
  bench::Banner(
      "BENCH pipelined block production over a 1M-tx backlog "
      "(DESIGN.md §14)",
      "chunked mempool admission + pipelined select/execute/commit drain "
      "a million queued transactions; blocks byte-identical to the serial "
      "loop (asserted pre-timing and re-checked at full scale)");

  RunIdentityGate();

  std::printf("building backlog: %zu txs (%zu senders x %llu nonces)...\n",
              kBacklog, kSenders,
              static_cast<unsigned long long>(kNoncesPerSender));
  const Workload w = MakeWorkload(kSenders, kNoncesPerSender, kBlockTxs);

  std::vector<DrainCell> cells;
  bench::Row({"mode", "depth", "admit tx/s", "drain sec", "tx/s", "speedup"});

  const DrainOutcome serial = DrainSerial(w, kRounds, /*keep_blocks=*/false);
  if (serial.confirmed != kBacklog || serial.residual != 0) {
    std::fprintf(stderr, "FATAL: serial drain left %zu txs unconfirmed\n",
                 kBacklog - serial.confirmed + serial.residual);
    return 1;
  }
  DrainCell serial_cell;
  serial_cell.mode = "serial";
  serial_cell.admit_txs_per_sec = kBacklog / serial.admit_sec;
  serial_cell.drain_sec = serial.drain_sec;
  serial_cell.txs_per_sec = kBacklog / serial.drain_sec;
  serial_cell.speedup = 1.0;
  cells.push_back(serial_cell);
  bench::Row({"serial", "-", bench::Fmt(serial_cell.admit_txs_per_sec, 0),
              bench::Fmt(serial.drain_sec, 2),
              bench::Fmt(serial_cell.txs_per_sec, 0), "1.0x"});

  for (const size_t depth : kQueueDepths) {
    const DrainOutcome piped =
        DrainPipelined(w, kRounds, depth, /*keep_blocks=*/false);
    // Full-scale identity re-check: same blocks, same post-state, same
    // (empty) pool — over the entire million-tx drain.
    if (piped.blocks_digest != serial.blocks_digest ||
        piped.root != serial.root || piped.residual != serial.residual) {
      std::fprintf(stderr,
                   "FATAL: full-scale pipelined drain diverges from serial "
                   "(queue depth %zu)\n",
                   depth);
      return 1;
    }
    DrainCell cell;
    cell.mode = "pipelined";
    cell.queue_depth = depth;
    cell.admit_txs_per_sec = kBacklog / piped.admit_sec;
    cell.drain_sec = piped.drain_sec;
    cell.txs_per_sec = kBacklog / piped.drain_sec;
    cell.speedup = serial.drain_sec / piped.drain_sec;
    cells.push_back(cell);
    bench::Row({"pipelined", std::to_string(depth),
                bench::Fmt(cell.admit_txs_per_sec, 0),
                bench::Fmt(piped.drain_sec, 2),
                bench::Fmt(cell.txs_per_sec, 0),
                bench::Fmt(cell.speedup, 2) + "x"});
  }
  std::printf("\nbatched Lamport signature verification (batch=%zu):\n",
              kSigBatch);
  const std::vector<SigCell> sig_cells = MeasureSigVerify();

  bench::Json doc = bench::Json::Object();
  doc.Set("bench", bench::Json::Str("pipeline"));
  doc.Set("identity_gate",
          bench::Json::Str(
              "pipelined drain byte-identical to the serial mine loop at "
              "every queue depth — blocks (incl. empty), tip state root, "
              "residual pool — asserted pre-timing at gate scale and "
              "re-checked over the full million-tx drain"));
  doc.Set("backlog_txs", bench::Json::Int(static_cast<int64_t>(kBacklog)));
  doc.Set("block_txs", bench::Json::Int(static_cast<int64_t>(kBlockTxs)));
  doc.Set("blocks", bench::Json::Int(static_cast<int64_t>(kRounds)));
  // Interpretation context: pipelining overlaps production with
  // commitment, so speedup > 1x needs a second hardware thread to run
  // the commit worker on.
  doc.Set("hardware_concurrency",
          bench::Json::Int(static_cast<int64_t>(
              std::thread::hardware_concurrency())));
  bench::Json arr = bench::Json::Array();
  for (const DrainCell& c : cells) {
    bench::Json row = bench::Json::Object();
    row.Set("mode", bench::Json::Str(c.mode));
    row.Set("queue_depth",
            bench::Json::Int(static_cast<int64_t>(c.queue_depth)));
    row.Set("admit_txs_per_sec", bench::Json::Num(c.admit_txs_per_sec));
    row.Set("drain_sec", bench::Json::Num(c.drain_sec));
    row.Set("txs_per_sec", bench::Json::Num(c.txs_per_sec));
    row.Set("speedup_vs_serial", bench::Json::Num(c.speedup));
    arr.Push(std::move(row));
  }
  doc.Set("results", std::move(arr));
  bench::Json sig_arr = bench::Json::Array();
  for (const SigCell& c : sig_cells) {
    bench::Json row = bench::Json::Object();
    row.Set("threads", bench::Json::Int(static_cast<int64_t>(c.threads)));
    row.Set("sigs_per_sec", bench::Json::Num(c.sigs_per_sec));
    sig_arr.Push(std::move(row));
  }
  doc.Set("sig_verify_batch", bench::Json::Int(kSigBatch));
  doc.Set("sig_verify", std::move(sig_arr));
  const std::string path = "BENCH_pipeline.json";
  if (!bench::WriteJsonFile(path, doc)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace shardchain

int main() { return shardchain::Run(); }
