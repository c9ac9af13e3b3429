#ifndef SHARDCHAIN_CHAIN_EXECUTOR_H_
#define SHARDCHAIN_CHAIN_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "chain/ledger.h"
#include "common/result.h"
#include "state/statedb.h"
#include "types/address.h"
#include "types/transaction.h"

namespace shardchain {

class ThreadPool;

/// \brief The block executor (DESIGN.md §13): the one greedy-inclusion
/// path behind Ledger::BuildBlock and the BlockPipeline producer.
///
/// A miner packs a block by trying fee-ordered candidates and keeping
/// each one that executes (Sec. IV-B). The executor runs that rule
/// either as a serial loop or on conflict-graph *lanes*: it derives a
/// per-transaction account footprint, colors the conflict graph
/// (a transaction's lane is strictly after every earlier transaction it
/// conflicts with), executes each lane's transactions against the
/// merged state of all earlier lanes, and merges the recorded account
/// modification logs in canonical candidate order. Inclusion decisions,
/// transaction order, and the resulting state are bitwise identical on
/// both branches at every thread count — the differential suite in
/// tests/parallel_exec_equivalence_test.cc is the gate.

/// Account read/write sets of one candidate transaction, derived
/// statically from the transaction shape and (for contract calls) the
/// callee's code in the pre-state (contract/analyzer.h footprints).
///
/// `resolvable == false` means the footprint could not be bounded —
/// contract deploys (the deployed address depends on the in-block
/// nonce), calls whose target program is absent or undecodable in the
/// pre-state, and any transaction touching the miner account (whose
/// balance accretes fees from every merged transaction). Unresolvable
/// transactions execute as serial barriers: strictly after everything
/// before them and strictly before everything after.
struct TxFootprint {
  bool resolvable = false;
  /// Accounts the transaction may read without writing, sorted and
  /// deduplicated, disjoint from `writes`.
  std::vector<Address> reads;
  /// Accounts the transaction may create or mutate (writes imply
  /// reads), sorted and deduplicated. Never contains the miner — the
  /// per-transaction fee credit merges as an additive delta instead.
  std::vector<Address> writes;
};

/// Derives `tx`'s footprint against `pre_state` (the block's parent
/// post-state; contract code is immutable once deployed, so the
/// pre-state program is the program every execution sees).
TxFootprint DeriveFootprint(const Transaction& tx, const StateDB& pre_state,
                            const Address& miner);

/// \brief Lane assignment for one candidate list.
struct LaneSchedule {
  /// Per-candidate lane index. Lanes execute in index order; merging a
  /// lane's modification log happens before the next lane runs.
  std::vector<uint32_t> lane_of;
  /// Per-lane candidate indices, ascending within each lane.
  std::vector<std::vector<uint32_t>> lanes;
  /// Per-candidate flag: 1 when the footprint was unresolvable and the
  /// transaction runs as a width-1 serial barrier.
  std::vector<uint8_t> serialized;
};

/// Order-respecting greedy coloring: candidate i lands on the lowest
/// lane strictly greater than the lane of every earlier candidate j
/// with writes_j ∩ (reads_i ∪ writes_i) ≠ ∅ or writes_i ∩ reads_j ≠ ∅
/// (the symmetric conflict test the fuzz suite asserts). Two
/// transactions in the same lane therefore never share a written
/// account, so they can execute against the same merged base in any
/// order. Unresolvable candidates get a fresh lane above everything
/// scheduled so far and raise the floor for everything after.
LaneSchedule ScheduleLanes(const std::vector<TxFootprint>& footprints);

/// Greedy inclusion in place: keeps, in candidate order, each candidate
/// that executes on `*state`, up to `config.max_txs_per_block`, and
/// returns the kept transactions. `*state` ends holding their effects
/// and fee credits — no block reward; the caller mints that.
///
/// The serial loop runs when `pool` is null, has one thread, or the
/// caller is already inside a parallel region (ParallelChunks' inline
/// conditions); otherwise the candidates run on lanes. Either way every
/// bracket this opens on `*state` is closed again, so it composes with
/// a snapshot the caller holds open around the call.
///
/// Fails only on internal invariant violations (a written account
/// outside the derived footprint, a snapshot bracket error) — a
/// candidate that fails to execute is simply left out.
[[nodiscard]] Result<std::vector<Transaction>> ExecuteCandidates(
    std::vector<Transaction> candidates, const Address& miner,
    const ChainConfig& config, ThreadPool* pool, StateDB* state);

}  // namespace shardchain

#endif  // SHARDCHAIN_CHAIN_EXECUTOR_H_
