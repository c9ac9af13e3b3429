#ifndef SHARDCHAIN_TXPOOL_TXPOOL_H_
#define SHARDCHAIN_TXPOOL_TXPOOL_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "types/transaction.h"

namespace shardchain {

/// \brief A fee-ordered pool of unconfirmed transactions, stored in
/// fixed-size chunks (DESIGN.md §14).
///
/// This is what each miner "keeps track of" (Sec. II-B): miners pick
/// the highest-fee transactions first, which is exactly the behaviour
/// that serializes confirmation in the non-sharded baseline and that
/// the intra-shard congestion game (Alg. 2) replaces.
///
/// Layout (speedex-style chunked mempool): transactions live in chunks
/// that own them outright; a confirmation bitmap per chunk turns
/// `RemoveAll` into batch mark-and-compact instead of per-tx ordered-map
/// erases; admission is batchable (`AddBatch`, with signatures verified
/// through crypto VerifyBatch in `AddSignedBatch`); emission merges
/// lazily-sorted per-chunk runs through a k-way heap so `TopByFee`
/// bytes are identical to the legacy single-map pool (`LegacyTxPool`,
/// kept in tests/legacy_pool.h and pinned by
/// tests/mempool_differential_test.cc).
///
/// Observable semantics — accepted/rejected statuses, eviction choice,
/// emission order — are a function of the arrival sequence only, never
/// of chunk placement.
class TxPool {
 public:
  /// Caps the pool; adding beyond it evicts the cheapest transaction
  /// (or rejects the incoming one if it is the cheapest).
  /// `chunk_capacity` is internal layout only (never consensus-visible).
  explicit TxPool(size_t capacity = 1 << 20, size_t chunk_capacity = 1024);

  /// Adds a transaction. Fails with AlreadyExists on duplicate id, or
  /// FailedPrecondition if the pool is full of higher-ranked txs (fee
  /// desc, id asc — the same total order emission uses, so the
  /// retained set is independent of arrival order).
  [[nodiscard]] Status Add(const Transaction& tx);

  /// Batch admission. Statuses are element-wise identical to calling
  /// `Add` sequentially in vector order (so capacity-eviction races
  /// inside one batch resolve exactly as the legacy pool would).
  [[nodiscard]] std::vector<Status> AddBatch(
      const std::vector<Transaction>& txs);

  /// Batch admission with signature verification: `sigs[i]` must be a
  /// signature by `pks[i]` over `txs[i].SigningDigest()`. Signatures
  /// are checked through crypto VerifyBatch (parallel when `pool` is
  /// non-null); a bad signature rejects only its own transaction with
  /// Unauthorized, the rest of the batch proceeds as in `AddBatch`.
  /// When `pks` or `sigs` differs in length from `txs`, every
  /// transaction gets InvalidArgument and none is admitted.
  [[nodiscard]] std::vector<Status> AddSignedBatch(
      const std::vector<Transaction>& txs,
      const std::vector<const PublicKey*>& pks,
      const std::vector<const Signature*>& sigs, ThreadPool* pool);

  /// Removes a transaction by id; returns NotFound if absent.
  [[nodiscard]] Status Remove(const Hash256& id);

  /// Removes every transaction contained in `confirmed` (called when a
  /// block is accepted). Batch path: mark each confirmed slot dead in
  /// its chunk's bitmap, then compact/recycle only the touched chunks.
  void RemoveAll(const std::vector<Transaction>& confirmed);

  bool Contains(const Hash256& id) const;
  size_t Size() const { return size_; }
  bool Empty() const { return size_ == 0; }

  /// The `n` highest-fee transactions (ties broken by id for
  /// determinism), best first. n may exceed Size(). Byte-identical to
  /// the legacy pool's ordered-map walk.
  std::vector<Transaction> TopByFee(size_t n) const;

  /// All pooled transactions in fee order (best first).
  std::vector<Transaction> All() const { return TopByFee(size_); }

  /// Number of live chunks (introspection for tests/bench).
  size_t ChunkCount() const;

 private:
  /// Orders by fee descending, then id ascending — a deterministic
  /// total order shared by all miners. `a < b` means a ranks higher.
  struct FeeKey {
    Amount fee;
    Hash256 id;
    friend bool operator<(const FeeKey& a, const FeeKey& b) {
      if (a.fee != b.fee) return a.fee > b.fee;
      return a.id < b.id;
    }
  };

  /// A fixed-capacity slab of transactions. Slots are append-only
  /// between compactions; `dead` is the confirmation bitmap.
  struct Chunk {
    std::vector<Transaction> txs;
    std::vector<Hash256> ids;    ///< Cached tx ids, parallel to txs.
    std::vector<uint8_t> dead;   ///< 1 = confirmed/removed, skip on emit.
    size_t live = 0;

    /// Slot indices in FeeKey order (best first), lazily rebuilt after
    /// appends; dead slots are skipped at merge time so marking dead
    /// does not invalidate it.
    mutable std::vector<uint32_t> order;
    mutable bool order_valid = true;

    /// Worst (cheapest-ranked) live FeeKey and its slot; lazily
    /// recomputed. Drives O(#chunks) capacity eviction.
    mutable FeeKey worst{};
    mutable uint32_t worst_slot = 0;
    mutable bool worst_valid = true;  // vacuously, while empty

    /// Whether this chunk is on the open_ list (has spare slots).
    bool open = true;
  };

  struct Locator {
    uint32_t chunk;
    uint32_t slot;
  };

  void Insert(const Transaction& tx, const Hash256& id);
  void MarkDead(const Locator& loc);
  /// Recycles/compacts a chunk after batch removals.
  void SweepChunk(uint32_t ci);
  /// Index of the chunk holding the globally worst live FeeKey.
  uint32_t WorstChunk() const;
  static void EnsureOrder(const Chunk& c);
  static void EnsureWorst(const Chunk& c);

  size_t capacity_;
  size_t chunk_capacity_;
  size_t size_ = 0;
  /// Chunks are only ever iterated by ascending index (deterministic).
  std::vector<Chunk> chunks_;
  /// Chunks with spare slots, most recently freed last.
  std::vector<uint32_t> open_;
  // detlint:allow(unordered-container): lookup-only index, never iterated
  std::unordered_map<Hash256, Locator> by_id_;
};

}  // namespace shardchain

#endif  // SHARDCHAIN_TXPOOL_TXPOOL_H_
