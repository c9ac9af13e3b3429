#ifndef SHARDCHAIN_CHAIN_PIPELINE_H_
#define SHARDCHAIN_CHAIN_PIPELINE_H_

#include <cstddef>
#include <vector>

#include "chain/ledger.h"
#include "common/result.h"
#include "txpool/txpool.h"

namespace shardchain {

/// \brief Pipeline knobs. Local performance only — like ParallelConfig,
/// never consensus-visible: any setting yields byte-identical blocks.
struct PipelineConfig {
  /// How many executed-but-uncommitted blocks may queue in front of the
  /// commit worker before selection/execution stalls (backpressure).
  size_t max_queued_blocks = 2;
};

/// \brief What a pipeline run produced.
struct PipelineResult {
  /// Appended block hashes, in height order (one per requested block).
  std::vector<Hash256> hashes;
  /// Transactions confirmed across all produced blocks.
  size_t txs_confirmed = 0;
};

/// \brief Pipelined block production: overlap select → execute with the
/// previous block's Merkle commit (DESIGN.md §14).
///
/// The serial mine loop per block is
///   select (TopByFee) → execute candidates → state root → append,
/// where the state-root derivation is the dominant per-block cost at
/// scale (O(dirty · depth) hashing). BlockPipeline splits the loop into
/// two stages:
///
///  - the CALLING thread selects block N+1's candidates and packs them
///    in place on a persistent execution state with the block executor
///    (Ledger::ExecuteCandidates, the same code as Ledger::BuildBlock),
///    then value-snapshots the block's account delta (TouchedSince);
///  - an AsyncWorker (parallel/async_worker.h) replays each delta onto
///    a shadow commit state, derives the state root, finalizes the
///    header (parent hash chaining is worker-local, FIFO), and keeps an
///    O(1) copy of the post-state for the ledger node.
///
/// Determinism argument (§14): selection/execution for block N+1 reads
/// only the execution state and the pool — never the in-flight root —
/// and the execution state's account contents after block N equal the
/// serial path's tip post-state contents by induction (same greedy
/// code, same inputs). The commit worker replays exactly the accounts
/// TouchedSince reported, so the shadow state's contents — and therefore
/// the root, a pure function of contents (DESIGN.md §10) — match the
/// serial path's. The worker is a single FIFO thread, so header
/// chaining and append order are the submission order. Hence blocks are
/// byte-identical to the serial loop at any queue depth
/// (tests/pipeline_equivalence_test.cc pins this).
///
/// The ledger and pool must not be accessed externally while Run() is
/// in flight (Run itself is synchronous; the worker only touches state
/// it owns, so this is the ordinary single-caller rule, not a lock).
class BlockPipeline {
 public:
  /// Neither pointer is owned; both must outlive the pipeline.
  BlockPipeline(Ledger* ledger, TxPool* pool, PipelineConfig config = {});

  /// Mines exactly `count` blocks on the ledger tip — byte-identical to
  /// `count` iterations of the serial select/build/append/remove loop
  /// (empty blocks included, matching ShardingSystem::MineBlock's
  /// timestamp = block-number convention). Included transactions leave
  /// the pool; failed candidates stay pooled, as in the serial loop.
  [[nodiscard]] Result<PipelineResult> Run(const Address& miner,
                                           size_t count);

 private:
  Ledger* ledger_;
  TxPool* pool_;
  PipelineConfig config_;
};

}  // namespace shardchain

#endif  // SHARDCHAIN_CHAIN_PIPELINE_H_
