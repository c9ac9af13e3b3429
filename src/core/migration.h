#ifndef SHARDCHAIN_CORE_MIGRATION_H_
#define SHARDCHAIN_CORE_MIGRATION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "state/statedb.h"
#include "types/address.h"
#include "types/block.h"

namespace shardchain {

/// \brief Authenticated cross-shard account handoff (Shard Scheduler
/// style migration): the full account contents plus a Merkle Patricia
/// proof that exactly these contents — their digest — sit under the
/// source shard's pre-migration state root. A destination miner needs
/// no access to the source shard's ledger to accept the account: the
/// proof verifies against the publicly gossiped root alone.
struct HandoffRecord {
  Address addr;
  ShardId source = kMaxShardId;
  ShardId dest = kMaxShardId;
  /// Source shard's state root the proof is anchored to.
  Hash256 source_root;
  /// The migrating account's full contents.
  Account account;
  /// Proof that Digest(account) is addr's leaf under `source_root`.
  mpt::Proof proof;
};

/// \brief All handoffs of one epoch in canonical order — the unit the
/// determinism gate compares byte-for-byte across runs.
struct MigrationPlan {
  uint64_t epoch = 0;
  std::vector<HandoffRecord> handoffs;
};

/// Builds a handoff for `addr` out of the source shard's tip state.
/// NotFound when the account never materialized there (nothing to
/// move — the destination keeps its genesis view).
Result<HandoffRecord> BuildHandoff(const StateDB& source_state, ShardId source,
                                   ShardId dest, const Address& addr);

/// Verifies a handoff: recomputes the carried account's digest from its
/// contents (ignoring any cached digest) and checks the trie proof pins
/// exactly that digest for `addr` under `source_root` via
/// mpt::VerifyProof. Unauthorized on any mismatch.
Status VerifyHandoff(const HandoffRecord& record);

/// Canonical plan order: (source, dest, addr) ascending. Applied before
/// encoding so a plan's bytes are independent of the arrival order the
/// individual migrations were triggered in.
void CanonicalizeMigrationPlan(MigrationPlan* plan);

namespace codec {

/// Canonical account bytes: balance, nonce, length-prefixed code, then
/// the storage map in key order (values as two's-complement u64).
Bytes EncodeAccountState(const Account& account);
Result<Account> DecodeAccountState(const Bytes& data);

Bytes EncodeHandoffRecord(const HandoffRecord& record);
Result<HandoffRecord> DecodeHandoffRecord(const Bytes& data);

Bytes EncodeMigrationPlan(const MigrationPlan& plan);
Result<MigrationPlan> DecodeMigrationPlan(const Bytes& data);

}  // namespace codec

}  // namespace shardchain

#endif  // SHARDCHAIN_CORE_MIGRATION_H_
