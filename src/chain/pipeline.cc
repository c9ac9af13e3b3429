#include "chain/pipeline.h"

#include <exception>
#include <utility>

#include "parallel/async_worker.h"

namespace shardchain {

namespace {

/// A block finalized by the commit worker, awaiting its ledger append.
struct Prepared {
  Block block;
  StateDB post_state;
};

}  // namespace

BlockPipeline::BlockPipeline(Ledger* ledger, TxPool* pool,
                             PipelineConfig config)
    : ledger_(ledger), pool_(pool), config_(config) {}

// flowlint: deterministic-root — consensus entry point (DESIGN.md §14)
Result<PipelineResult> BlockPipeline::Run(const Address& miner, size_t count) {
  PipelineResult result;
  if (count == 0) return result;
  const ChainConfig& config = ledger_->config();

  // Stage-local states. exec_state is the selector/executor's working
  // copy; commit_state is the worker's shadow replica. Both are O(1)
  // forks of the tip: the first copy hashes it, both share its nodes,
  // and each clones what it writes.
  StateDB exec_state = ledger_->tip_state();
  StateDB commit_state = ledger_->tip_state();

  // Written only by the commit worker after initialization; read by the
  // producer only after WaitIdle (the worker's mutex orders both).
  std::vector<Prepared> prepared;
  prepared.reserve(count);
  Hash256 prev_hash = ledger_->tip_hash();
  const uint64_t start_height = ledger_->tip_number();

  {
    AsyncWorker committer(config_.max_queued_blocks);
    for (size_t round = 0; round < count; ++round) {
      // Greedy inclusion in place on exec_state: the block executor
      // BuildBlock also packs with (DESIGN.md §13).
      // parlint:allow(unbalanced-snapshot): delta-collection bracket, always committed, never reverted
      const size_t outer = exec_state.Snapshot();
      std::vector<Transaction> included = Ledger::ExecuteCandidates(
          pool_->TopByFee(config.max_txs_per_block), miner, config,
          &exec_state);
      exec_state.Mint(miner, config.block_reward);

      // Value-snapshot this block's account delta for the worker (a
      // failed candidate leaves no write, so TouchedSince is exactly
      // the surviving write set). The worker replays values,
      // not shared nodes: hashing a version the producer also reads
      // would write hash caches on nodes the producer clones.
      std::vector<Address> touched;
      SHARDCHAIN_ASSIGN_OR_RETURN(touched, exec_state.TouchedSince(outer));
      SHARDCHAIN_RETURN_IF_ERROR(exec_state.Commit(outer));
      std::vector<std::pair<Address, Account>> delta;
      delta.reserve(touched.size());
      for (const Address& addr : touched) {
        // Null would mean the account was erased since the outer
        // snapshot, which execution never does.
        const Account* account = exec_state.Find(addr);
        if (account == nullptr) {
          return Status::Internal("touched account erased during execution");
        }
        delta.emplace_back(addr, *account);
      }
      pool_->RemoveAll(included);

      Block block;
      block.header.number = start_height + round + 1;
      block.header.shard_id = ledger_->shard_id();
      block.header.miner = miner;
      // The simulator's convention (ShardingSystem::MineBlock):
      // timestamp = block number on the virtual clock.
      block.header.timestamp = block.header.number;
      block.transactions = std::move(included);
      result.txs_confirmed += block.transactions.size();

      // Commit stage: replay the delta, derive the root, finalize the
      // header (FIFO chaining via worker-local prev_hash). Explicit
      // captures only — the closure owns its inputs by value and the
      // worker-confined state by pointer.
      committer.Submit([block = std::move(block), delta = std::move(delta),
                        commit = &commit_state, out = &prepared,
                        prev = &prev_hash]() mutable {
        for (const auto& [addr, account] : delta) {
          commit->ApplyAccount(addr, account);
        }
        block.header.parent_hash = *prev;
        block.header.tx_root = block.ComputeTxRoot();
        block.header.state_root = commit->StateRoot();
        *prev = block.header.Hash();
        // StateRoot just hashed commit_state, so this O(1) copy shares
        // its nodes; the next block's writes clone what they touch.
        StateDB post = *commit;
        out->push_back(Prepared{std::move(block), std::move(post)});
      });
    }
    try {
      committer.WaitIdle();
    } catch (const std::exception& e) {
      return Status::Internal(std::string("pipeline commit stage failed: ") +
                              e.what());
    }
  }

  // Record the finished blocks in height order. Cheap: AppendExecuted
  // skips re-execution and root re-derivation.
  result.hashes.reserve(prepared.size());
  for (Prepared& p : prepared) {
    Hash256 hash;
    SHARDCHAIN_ASSIGN_OR_RETURN(
        hash, ledger_->AppendExecuted(p.block, std::move(p.post_state)));
    result.hashes.push_back(hash);
  }
  return result;
}

}  // namespace shardchain
