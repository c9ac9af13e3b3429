#ifndef SHARDCHAIN_STATE_ACCOUNT_H_
#define SHARDCHAIN_STATE_ACCOUNT_H_

#include <cstdint>
#include <map>

#include "common/hex.h"
#include "types/address.h"
#include "types/transaction.h"

namespace shardchain {

/// \brief An account in the world state: externally owned (EOA) or a
/// smart contract (code non-empty).
///
/// Contract accounts "record a transaction and the conditions under
/// which that transaction is valid" (Sec. II-A); the conditions live in
/// `code` as contract-VM bytecode and the parameters in `storage`.
struct Account {
  Amount balance = 0;
  uint64_t nonce = 0;
  Bytes code;                            ///< Empty for EOAs.
  std::map<uint64_t, int64_t> storage;   ///< Contract key/value store.

  bool IsContract() const { return !code.empty(); }

  /// Deterministic digest of the account contents (state-root leaf).
  ///
  /// The result is cached under a validity flag so StateDB's
  /// incremental StateRoot() never re-hashes untouched accounts; the
  /// trie derives each leaf's hash from it (DESIGN.md §10).
  /// Cache invariant: every mutable access to an account held by a
  /// StateDB goes through StateDB::GetOrCreate, which calls
  /// MarkDigestDirty() before handing out the reference; the cache is
  /// only ever valid for the address the account lives at. Code that
  /// mutates a free-standing Account directly must call
  /// MarkDigestDirty() itself before re-reading Digest().
  Hash256 Digest(const Address& addr) const;

  /// Invalidates the cached digest; the next Digest() recomputes.
  void MarkDigestDirty() const { digest_valid_ = false; }

 private:
  // Derived cache, recomputed from the serialized members on demand;
  // deliberately excluded from the wire format (EncodeAccountState
  // re-derives it on the destination shard, DESIGN.md §11).
  // codeclint:allow(codec-missing-field): digest memo cache, not state
  mutable Hash256 digest_cache_;
  // codeclint:allow(codec-missing-field): cache validity flag, not state
  mutable bool digest_valid_ = false;
};

}  // namespace shardchain

#endif  // SHARDCHAIN_STATE_ACCOUNT_H_
