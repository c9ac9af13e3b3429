#ifndef SHARDCHAIN_CHAIN_LEDGER_H_
#define SHARDCHAIN_CHAIN_LEDGER_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "contract/registry.h"
#include "state/statedb.h"
#include "types/block.h"
#include "types/transaction.h"

namespace shardchain {

class ThreadPool;

/// \brief Chain-level parameters.
struct ChainConfig {
  Amount block_reward = 2'000'000'000;  ///< Paid per block, empty or not.
  uint64_t max_txs_per_block = 10;      ///< Paper: gas limit 0x300000 ≈ 10 txs.
  bool check_pow = false;               ///< Verify header hash vs difficulty.
};

/// \brief Per-shard ledger: a block tree with longest-chain fork choice,
/// full transaction execution, and per-block post-state tracking.
///
/// "Blocks are recorded by all the miners locally in the form of linked
/// lists, called ledgers" (Sec. II-A). Each miner in a shard owns a
/// Ledger restricted to that shard's transactions; MaxShard miners'
/// ledgers cover everything.
class Ledger {
 public:
  /// Creates the ledger with an implicit genesis block over
  /// `genesis_state`.
  Ledger(ShardId shard_id, StateDB genesis_state, ChainConfig config = {});

  ShardId shard_id() const { return shard_id_; }
  const ChainConfig& config() const { return config_; }

  /// Hash of the genesis block.
  const Hash256& genesis_hash() const { return genesis_hash_; }

  /// Current canonical tip (longest chain; ties keep the earlier tip).
  const Hash256& tip_hash() const { return tip_hash_; }
  uint64_t tip_number() const;

  /// State after executing the canonical chain.
  const StateDB& tip_state() const;

  /// Validates and stores `block`:
  ///  - parent must be known; number must be parent.number + 1;
  ///  - header.shard_id must equal this ledger's shard (Sec. III-C);
  ///  - at most max_txs_per_block transactions, checked before the body
  ///    is hashed; tx_root must match the body; optional PoW check;
  ///  - every transaction must execute successfully on the parent state
  ///    (fees + block reward credited to the miner).
  /// The block BuildBlock just returned (same header hash, equal body)
  /// is recorded from the retained copy: its tx root and post-state were
  /// derived from that body, so neither is computed again.
  /// On success the block joins the tree and fork choice may advance
  /// the tip. Returns the block hash.
  [[nodiscard]] Result<Hash256> Append(const Block& block);

  /// Trusted-producer append (chain/pipeline.h): records `block` with
  /// `post_state` as its executed post-state, skipping re-execution and
  /// the second StateRoot() derivation. The caller vouches that
  /// `post_state` is exactly the result of executing the block on its
  /// parent state and that `block.header.state_root` was derived from
  /// it — the same trust Append already extends to BuildBlock's retained
  /// post-state. Structural validation (parent link, number, tx root,
  /// shard id, PoW) still runs.
  [[nodiscard]] Result<Hash256> AppendExecuted(const Block& block,
                                              StateDB post_state);

  /// Convenience: builds a valid block on the current tip from `txs`,
  /// executing them to fill in the roots. Candidates are packed by
  /// ExecuteCandidates: each one that executes is kept, in order, up to
  /// max_txs_per_block, mirroring a miner dropping invalid txs while
  /// packing, so building cannot fail. Does not append. The block and
  /// its executed post-state are retained, so Append of this very block
  /// skips re-execution, the tx-root hash and the second StateRoot()
  /// derivation.
  [[nodiscard]] Block BuildBlock(const Address& miner,
                                 std::vector<Transaction> txs,
                                 uint64_t timestamp) const;

  /// Does nothing: blocks execute on one thread (DESIGN.md §13). Kept
  /// for the benchmark harness in perfbench/, which still calls it and
  /// changes only together with the benchmark; nothing in src/ does.
  void SetExecPool(ThreadPool* /*pool*/) {}

  bool Contains(const Hash256& block_hash) const;
  const Block* Find(const Hash256& block_hash) const;

  /// Number of blocks on the canonical chain, genesis included.
  size_t CanonicalLength() const;

  /// Canonical chain from genesis to tip.
  std::vector<Hash256> CanonicalChain() const;

  /// Count of empty (transaction-free) blocks on the canonical chain,
  /// genesis excluded — the waste metric of Fig. 3b/3c.
  size_t CanonicalEmptyBlocks() const;

  /// Total number of transactions confirmed on the canonical chain.
  size_t CanonicalTxCount() const;

  /// Addresses the canonical chain has touched (senders, recipients,
  /// input accounts, coinbases), sorted ascending — the set whose
  /// authoritative state lives on THIS shard's chain and must be handed
  /// off when the shard's accounts migrate (DESIGN.md §12).
  std::vector<Address> TouchedAddresses() const;

  /// Cross-shard migration receive side: overwrites `addr` in the tip
  /// post-state with verified handed-off contents. Callers MUST have
  /// checked the handoff proof first (core/migration.h VerifyHandoff);
  /// the ledger only applies the state change.
  [[nodiscard]] Status ImportAccount(const Address& addr,
                                     const Account& account);

  /// Cross-shard migration send side: removes `addr` from the tip
  /// post-state after its authoritative home moved to another shard.
  [[nodiscard]] Status EvictAccount(const Address& addr);

  /// Executes one transaction against `state`: nonce check, fee charge
  /// to `miner`, then the value transfer / contract call / deploy. Mints
  /// no block reward. On failure `state` holds the same accounts as
  /// before the call: a direct transfer checks its nonce and `fee +
  /// value` before its first write and cannot fail after it; a call or
  /// deploy runs its fee and action in one snapshot bracket.
  [[nodiscard]] static Status ExecuteTransaction(const Transaction& tx,
                                                 const Address& miner,
                                                 StateDB* state);

  /// The block executor (DESIGN.md §13), behind BuildBlock and the
  /// BlockPipeline producer: greedy inclusion in place (Sec. IV-B).
  /// Keeps, in candidate order, each candidate that executes on
  /// `*state`, up to `config.max_txs_per_block`, and returns the kept
  /// transactions. `*state` ends holding their effects and fee credits,
  /// with no block reward; the caller mints that. A failed candidate
  /// leaves `*state` as it found it, so this opens no snapshot and
  /// composes with one the caller holds open.
  [[nodiscard]] static std::vector<Transaction> ExecuteCandidates(
      std::vector<Transaction> candidates, const Address& miner,
      const ChainConfig& config, StateDB* state);

 private:
  struct Node {
    Block block;
    StateDB post_state;
    uint64_t height = 0;
  };

  /// The most recent BuildBlock result.
  struct Built {
    Hash256 hash;  ///< Header hash: binds parent, tx root and state root.
    Block block;
    StateDB post_state;
  };

  /// The parent of `block`, once the block passes every check Append
  /// lists that needs no execution. `check_tx_root` is false only for a
  /// body whose tx root this ledger computed itself (BuildBlock).
  [[nodiscard]] Result<const Node*> Admit(const Hash256& hash,
                                          const Block& block,
                                          bool check_tx_root) const;

  /// Stores `node` under `hash`; fork choice may advance the tip.
  Hash256 Record(const Hash256& hash, Node node);

  /// Consumed by Append when the same block comes straight back, so
  /// the build→append path executes and hashes the block once, not
  /// twice. Mutable: retaining it is a cache, not an observable state
  /// change of the const BuildBlock.
  mutable std::optional<Built> last_built_;

  ShardId shard_id_;
  ChainConfig config_;
  Hash256 genesis_hash_;
  Hash256 tip_hash_;
  /// Keyed lookups and parent-hash walks only — the block tree is
  /// never iterated in bucket order, so fork choice stays a pure
  /// function of Append order (determinism audit, see tools/detlint).
  // detlint:allow(unordered-container): lookup-only index, never iterated
  std::unordered_map<Hash256, Node> nodes_;
};

}  // namespace shardchain

#endif  // SHARDCHAIN_CHAIN_LEDGER_H_
