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

  /// Deterministic digest of the account contents: the value of the
  /// account's state-trie leaf. A pure function of `addr` and the
  /// members above; the trie caches the leaf's node hash, not this
  /// (DESIGN.md §10).
  Hash256 Digest(const Address& addr) const;
};

}  // namespace shardchain

#endif  // SHARDCHAIN_STATE_ACCOUNT_H_
