#ifndef SHARDCHAIN_CHAIN_SNAPSHOT_H_
#define SHARDCHAIN_CHAIN_SNAPSHOT_H_

#include "common/result.h"
#include "state/statedb.h"

namespace shardchain {

/// \brief State snapshot sync.
///
/// The paper's future work includes reducing "the storage overhead of
/// miners in the MaxShard". A prerequisite for any pruning or
/// fast-sync scheme is a canonical, verifiable state snapshot: a miner
/// joining a shard downloads the snapshot bytes from a peer and checks
/// them against the state root committed in a block header instead of
/// replaying history. This module provides exactly that:
///
///   Bytes wire = snapshot::Serialize(state);
///   Result<StateDB> restored = snapshot::Deserialize(wire, expected_root);
namespace snapshot {

/// Canonical byte serialization of the full world state (accounts in
/// address order; balances, nonces, code, storage).
Bytes Serialize(const StateDB& state);

/// Parses a snapshot and verifies its StateRoot against
/// `expected_root` (pass Hash256::Zero() to skip verification).
/// Corrupted or tampered snapshots are rejected, and so are
/// non-canonical ones: addresses and storage keys must be strictly
/// ascending, as Serialize writes them.
[[nodiscard]] Result<StateDB> Deserialize(const Bytes& wire,
                                          const Hash256& expected_root);

/// Size in bytes a shard miner must download/store for `state` — the
/// quantity the storage analysis (analysis/storage.h) reasons about.
size_t SizeOf(const StateDB& state);

}  // namespace snapshot

}  // namespace shardchain

#endif  // SHARDCHAIN_CHAIN_SNAPSHOT_H_
