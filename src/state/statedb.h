#ifndef SHARDCHAIN_STATE_STATEDB_H_
#define SHARDCHAIN_STATE_STATEDB_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "state/account.h"
#include "state/trie.h"
#include "types/address.h"
#include "types/transaction.h"

namespace shardchain {

/// \brief The world state: one persistent Merkle Patricia trie keyed by
/// address whose leaves hold the accounts (DESIGN.md §10).
///
/// In the sharded system each shard's miners hold a StateDB restricted
/// to their shard's accounts; MaxShard miners hold the full state
/// (Sec. III-A).
///
/// Versions share structure. Nodes are reference-counted, and a write
/// walks down from the root cloning every node another version can
/// reach before it changes it, so no node reachable from a copy or a
/// snapshot is ever written:
///   - copying a StateDB is O(1): the copy shares the root;
///   - Snapshot/RevertTo/Commit save, restore and drop a root;
///   - a write copies O(depth) shared nodes, and StateRoot() re-hashes
///     only the nodes written since the last call;
///   - TouchedSince diffs two roots, skipping the subtrees they share.
/// The root is a pure function of the contents: byte-identical to a
/// from-scratch build of the same accounts, whatever the history
/// (pinned by tests/vectors/state*.hex and the differential tests).
///
/// References: a reference from GetOrCreate or Find stays valid across
/// writes to other accounts. It does not survive Snapshot, RevertTo,
/// copying or assigning the StateDB, or EraseAccount of that account;
/// a write through a stale GetOrCreate reference would reach a shared
/// version.
class StateDB {
 public:
  StateDB() = default;
  /// Hashes the source first, so its nodes are never written after
  /// they are shared (copies may then be read and written from
  /// different threads), then shares its root. The copy starts with no
  /// live snapshots. Several threads may copy one StateDB at once only
  /// after StateRoot() has hashed it: the copy's hashing then only
  /// reads.
  StateDB(const StateDB& other);
  StateDB& operator=(const StateDB& other);
  StateDB(StateDB&&) = default;
  StateDB& operator=(StateDB&&) = default;

  /// Read access. Missing accounts read as empty (balance 0, nonce 0).
  const Account* Find(const Address& addr) const;
  Amount BalanceOf(const Address& addr) const;
  uint64_t NonceOf(const Address& addr) const;
  bool IsContract(const Address& addr) const;

  /// Mutable access, creating the account if absent. The sole mutation
  /// choke point: it makes the account's leaf and the nodes above it
  /// private to this version and invalidates their cached hashes.
  Account& GetOrCreate(const Address& addr);

  /// Credits `amount` to `addr` (minting; used for genesis funding and
  /// block/shard rewards).
  void Mint(const Address& addr, Amount amount);

  /// Moves `amount` from `from` to `to`. Fails with FailedPrecondition
  /// on insufficient balance, having written nothing: a failed transfer
  /// creates neither account. Does not touch nonces.
  Status Transfer(const Address& from, const Address& to, Amount amount);

  /// Deploys contract `code` at `addr`. Fails if an account with code
  /// already exists there.
  Status DeployContract(const Address& addr, Bytes code);

  /// Contract storage access (creates the account if needed).
  int64_t StorageGet(const Address& addr, uint64_t key) const;
  void StorageSet(const Address& addr, uint64_t key, int64_t value);

  /// Removes `addr` entirely (cross-shard migration: the account's
  /// authoritative home moved away). Returns false when absent.
  bool EraseAccount(const Address& addr);

  /// Saves the current root as a revert point. O(1). Snapshot ids are
  /// monotonically increasing and invalidated by RevertTo to an earlier
  /// snapshot.
  size_t Snapshot();

  /// Restores the root saved by `snapshot_id` and invalidates it along
  /// with all later snapshots. O(1).
  Status RevertTo(size_t snapshot_id);

  /// Discards the innermost snapshot, keeping its writes. Fails unless
  /// `snapshot_id` is the most recent live snapshot.
  Status Commit(size_t snapshot_id);

  /// Outstanding (live) snapshot count — 0 when no revert point exists.
  size_t SnapshotDepth() const { return snapshots_.size(); }

  /// Addresses whose account was written, created or erased since
  /// `snapshot_id` was taken, sorted: the accounts that differ between
  /// the saved root and the current one, by leaf identity. Reads never
  /// count, so this is exactly the write set; an account created and
  /// then erased inside the span is absent from both roots and is not
  /// reported. Fails when the snapshot is not live.
  Result<std::vector<Address>> TouchedSince(size_t snapshot_id) const;

  /// Overwrites `addr` with `account` wholesale (creating it if absent).
  /// The merge-commit primitive for replaying account modification logs.
  void ApplyAccount(const Address& addr, const Account& account);

  /// Authenticated commitment over all accounts: the root of a Merkle
  /// Patricia trie keyed by address, with account digests as values.
  /// Hashes only the nodes written since the previous call.
  Hash256 StateRoot() const;

  /// Merkle Patricia proof that `addr` has the returned digest under
  /// the current StateRoot (or is absent). Verify with VerifyAccount.
  mpt::Proof ProveAccount(const Address& addr) const;

  /// Verifies an account proof against a state root. Returns the
  /// proven account digest, or nullopt if the account is proven absent.
  static Result<std::optional<Hash256>> VerifyAccount(
      const Hash256& state_root, const Address& addr, const mpt::Proof& proof);

  size_t AccountCount() const { return live_.accounts; }

  /// All addresses in deterministic (sorted) order.
  std::vector<Address> Addresses() const;

 private:
  struct Node;  // A leaf, extension or branch (statedb.cc).
  struct Trie;  // The node algorithms (statedb.cc).
  using NodePtr = std::shared_ptr<Node>;

  /// One version of the state: a root and its account count.
  struct Version {
    NodePtr root;
    size_t accounts = 0;
  };

  Version live_;
  /// Saved versions, one per live snapshot.
  std::vector<Version> snapshots_;
};

}  // namespace shardchain

#endif  // SHARDCHAIN_STATE_STATEDB_H_
