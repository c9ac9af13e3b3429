#ifndef SHARDCHAIN_TESTS_LEGACY_POOL_H_
#define SHARDCHAIN_TESTS_LEGACY_POOL_H_

#include <cstddef>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "crypto/sha256.h"
#include "types/transaction.h"

namespace shardchain {

/// \brief The original single-ordered-map mempool, kept as the
/// executable specification for the chunked `TxPool` (DESIGN.md §14).
///
/// tests/mempool_differential_test.cc drives both pools with identical
/// arrival sequences and asserts element-wise equal admission statuses
/// and byte-identical `TopByFee` output. Test-only: it compiles into
/// the test binary, not the library.
///
/// Its one historical performance bug — `RemoveAll` doing a
/// O(confirmed x log n) per-tx map erase — is fixed here with a batch
/// removal path (resolve ids, sort the fee keys, erase in one ordered
/// sweep); the observable state after removal is unchanged.
class LegacyTxPool {
 public:
  /// Caps the pool; adding beyond it evicts the cheapest transaction
  /// (or rejects the incoming one if it is the cheapest).
  explicit LegacyTxPool(size_t capacity = 1 << 20) : capacity_(capacity) {}

  /// Adds a transaction. Fails with AlreadyExists on duplicate id, or
  /// FailedPrecondition if the pool is full of higher-ranked txs (fee
  /// desc, id asc — the same total order emission uses, so the
  /// retained set is independent of arrival order).
  [[nodiscard]] Status Add(const Transaction& tx);

  /// Removes a transaction by id; returns NotFound if absent.
  [[nodiscard]] Status Remove(const Hash256& id);

  /// Removes every transaction contained in `confirmed` (called when a
  /// block is accepted). Batched: sorts the resolved fee keys and
  /// erases them in a single ordered sweep when the confirmed set is a
  /// large fraction of the pool, falling back to per-key erase when it
  /// is small (where m log n beats an O(n) walk).
  void RemoveAll(const std::vector<Transaction>& confirmed);

  bool Contains(const Hash256& id) const;
  size_t Size() const { return by_id_.size(); }
  bool Empty() const { return by_id_.empty(); }

  /// The `n` highest-fee transactions (ties broken by id for
  /// determinism), best first. n may exceed Size().
  std::vector<Transaction> TopByFee(size_t n) const;

  /// All pooled transactions in fee order (best first).
  std::vector<Transaction> All() const { return TopByFee(by_id_.size()); }

 private:
  /// Orders by fee descending, then id ascending — a deterministic
  /// total order shared by all miners.
  struct FeeKey {
    Amount fee;
    Hash256 id;
    friend bool operator<(const FeeKey& a, const FeeKey& b) {
      if (a.fee != b.fee) return a.fee > b.fee;
      return a.id < b.id;
    }
  };

  size_t capacity_;
  /// All emission (TopByFee/All) walks by_fee_, whose FeeKey order is a
  /// deterministic total order; by_id_ is a lookup-only index and is
  /// never iterated (determinism audit, see tools/detlint).
  std::map<FeeKey, Transaction> by_fee_;
  // detlint:allow(unordered-container): lookup-only index, never iterated
  std::unordered_map<Hash256, FeeKey> by_id_;
};

}  // namespace shardchain

#endif  // SHARDCHAIN_TESTS_LEGACY_POOL_H_
