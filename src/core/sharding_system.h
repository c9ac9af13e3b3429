#ifndef SHARDCHAIN_CORE_SHARDING_SYSTEM_H_
#define SHARDCHAIN_CORE_SHARDING_SYSTEM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "chain/ledger.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/churn.h"
#include "core/epoch.h"
#include "core/merging_game.h"
#include "core/migration.h"
#include "core/miner_assignment.h"
#include "core/shard_formation.h"
#include "core/unification.h"
#include "crypto/keys.h"
#include "net/network.h"
#include "parallel/thread_pool.h"
#include "txpool/txpool.h"

namespace shardchain {

/// \brief Top-level configuration of the sharding system.
struct ShardingSystemConfig {
  ChainConfig chain;
  /// G: the shard reward credited to every small-shard miner when a
  /// merge satisfies Eq. 1 (Sec. IV-A1).
  Amount shard_reward = 50;
  MergingGameConfig merge;
  SelectionGameConfig select;
  /// Local execution knob: how many threads the system's deterministic
  /// pool uses for the epoch's VRF evaluations (one by default). Never
  /// serialized, never part of UnifiedParameters — at any setting every
  /// output byte matches `threads = 1` (DESIGN.md §9).
  ParallelConfig parallel;
};

/// \brief One shard's locally computed transaction assignment.
struct ShardSelectionPlan {
  ShardId shard = 0;
  /// The unified inputs the plan was derived from (per-shard randomness,
  /// the shard's fee vector in canonical pool order, its miner count).
  UnifiedParameters params;
  SelectionResult plan;
};

/// \brief Lifecycle of a miner under churn (DESIGN.md §12).
enum class MinerStatus : uint8_t {
  kPending = 0,   ///< Joined; enters candidacy at the next boundary.
  kActive = 1,    ///< Serving normally.
  kRetiring = 2,  ///< Serves out the current epoch, departs at the boundary.
  kDeparted = 3,  ///< Gone (crashed or retired); never serves again.
};

/// \brief The full distributed sharding system (Sec. III): contract-
/// centric shard formation, VRF leader election, verifiable miner
/// assignment, per-shard ledgers with real transaction execution, and
/// game-driven merging — the public API the examples build on.
///
/// The intended lifecycle:
///   1. setup: AddMiner / Mint / DeployContract (builds genesis state);
///   2. BeginEpoch: leader election + miner-to-shard assignment;
///   3. flow: SubmitTransaction routes txs to shard pools; MineBlock
///      lets an assigned miner pack and commit a block, with the
///      Sec. III-C receive-side verifications applied;
///   4. optionally MergeSmallShards between epochs.
///
/// Churn (DESIGN.md §12): JoinMiner/RetireMiner/CrashMiner (or a drawn
/// schedule via ApplyChurn) change the population. Joins and retires
/// take effect at the next epoch boundary through the normal candidacy
/// flow; crashes are immediate — a shard left without live miners is
/// merged into the MaxShard with an authenticated state handoff instead
/// of stalling, and EpochDegraded() tells callers when to cut the epoch
/// short via BeginFallbackEpoch.
class ShardingSystem {
 public:
  ShardingSystem(ShardingSystemConfig config, uint64_t seed);

  // --- Setup (before the first epoch) ---------------------------------

  /// Creates an immediately active miner with a fresh Lamport key pair;
  /// returns its NodeId. Setup-time API: use JoinMiner for mid-run
  /// entry.
  NodeId AddMiner();

  /// Funds an account in the genesis state. Shard ledgers snapshot the
  /// genesis state at the moment the shard forms, so fund accounts
  /// before submitting the transactions that create their shard.
  void Mint(const Address& account, Amount amount);

  /// Deploys a contract into the genesis state.
  Result<Address> DeployContract(const Address& creator,
                                 const ContractProgram& program);

  size_t MinerCount() const { return miners_.size(); }

  // --- Churn (miner population dynamics, DESIGN.md §12) ---------------

  /// Registers a miner that enters candidacy and assignment at the NEXT
  /// epoch boundary (it cannot mine or verify blocks before that).
  NodeId JoinMiner();

  /// Voluntary leave: the miner serves out the current epoch and is
  /// excluded from the next epoch's candidacy and assignment.
  Status RetireMiner(NodeId miner);

  /// Crash-stop, effective immediately: the miner stops serving
  /// mid-epoch. Shards left without any live miner are merged into the
  /// MaxShard with an authenticated state handoff so their transactions
  /// keep confirming instead of stalling.
  Status CrashMiner(NodeId miner);

  /// Applies a drawn churn schedule (core/churn.h) in order.
  Status ApplyChurn(const std::vector<ChurnEvent>& events);

  /// True for miners currently serving (kActive or kRetiring).
  bool MinerLive(NodeId miner) const;
  size_t LiveMinerCount() const;
  /// NodeIds of live miners, ascending.
  std::vector<NodeId> LiveMiners() const;
  /// kDeparted for an id this system never issued.
  MinerStatus StatusOfMiner(NodeId miner) const;

  /// True when the current epoch lost its leader to a crash or over
  /// half of the population it started with — callers should end it
  /// early via BeginFallbackEpoch (graceful degradation, DESIGN.md §8).
  bool EpochDegraded() const;

  // --- Epochs ----------------------------------------------------------

  /// Advances one epoch: activates pending joiners and departs retiring
  /// miners, then runs VRF leader election over the live miners on the
  /// chained epoch seed (see EpochManager) and assigns every live miner
  /// to a shard using the current transaction fractions. Counts the
  /// leader's broadcast on the network. `epoch_nonce` is kept for API
  /// compatibility and folded into nothing — the seed chain alone
  /// determines the randomness.
  Status BeginEpoch(uint64_t epoch_nonce);

  /// Graceful degradation (the liveness safety net): starts an epoch in
  /// which EVERY live miner serves the MaxShard and fully validates —
  /// the paper's catch-all shard as safe mode. Used when no verified
  /// leader broadcast (unified parameters) arrived by the epoch
  /// deadline, or when churn degraded the epoch (EpochDegraded):
  /// instead of stalling, all miners derive the same leaderless
  /// randomness from the seed chain and proceed with unsharded
  /// validation for one epoch. The seed chain stays unbroken, so the
  /// next BeginEpoch elects a leader normally.
  Status BeginFallbackEpoch();

  /// True while the current epoch is a MaxShard fallback epoch.
  bool CurrentEpochIsFallback() const { return fallback_epoch_; }

  /// The epoch history (randomness chaining, leader records).
  const EpochManager& epochs() const { return epochs_; }

  bool EpochActive() const { return epoch_active_; }
  NodeId leader() const { return leader_; }
  const Hash256& epoch_randomness() const { return randomness_; }
  /// Current shard of a miner (kUnassignedShard once departed, or for an
  /// unknown id).
  ShardId ShardOfMiner(NodeId miner) const;
  std::vector<NodeId> MinersOfShard(ShardId shard) const;

  // --- Transaction flow -------------------------------------------------

  /// Routes a transaction to its shard (Sec. III-A) and pools it there.
  /// Counts the user's gossip on the network. When the sender's
  /// authoritative home shard differs from the routed shard (its
  /// contract set changed — e.g. a second contract demoted it to the
  /// MaxShard, Sec. II-C), the account migrates first under an
  /// authenticated handoff (DESIGN.md §12).
  Result<ShardId> SubmitTransaction(const Transaction& tx);

  /// Batch admission: routes and pools each transaction exactly as
  /// SubmitTransaction would, in vector order — element-wise identical
  /// statuses (routing, migration, and capacity-eviction races resolve
  /// the same way). The batch entry point for backlog feeders.
  std::vector<Status> SubmitTransactionBatch(
      const std::vector<Transaction>& txs);

  /// Lets `miner` pack pending transactions of her shard into a block,
  /// append it to the shard ledger, and gossip it. Fails with
  /// Unauthorized if the miner's claimed shard does not re-derive
  /// (the Sec. III-C check every receiver also performs) or the miner
  /// is not currently serving (pending joiner / departed).
  Result<Hash256> MineBlock(NodeId miner);

  /// Pipelined mining (chain/pipeline.h): packs, commits, and gossips
  /// `count` consecutive blocks for `miner`'s shard, overlapping each
  /// block's Merkle commit with the next block's selection/execution.
  /// Byte-identical to calling MineBlock `count` times — same blocks,
  /// same pool evolution, same gossip — just faster wall-clock
  /// (tests/pipeline_equivalence_test.cc). Returns the block hashes in
  /// height order.
  Result<std::vector<Hash256>> MineBlocksPipelined(NodeId miner, size_t count);

  /// Receive-side verification a miner applies to a foreign block
  /// (Sec. III-C): the header's coinbase must be a serving miner's
  /// (`Address::FromHash` of its fingerprint), that miner must really
  /// belong to the block's ShardID, and the body must match the tx
  /// root.
  Status VerifyIncomingBlock(const Block& block) const;

  /// Full wire-level receive path: decode the block bytes, run the
  /// Sec. III-C verifications, and append to the shard ledger. This is
  /// what a miner does with a gossiped block. Returns the block hash.
  Result<Hash256> ReceiveBlockBytes(const Bytes& wire);

  // --- Cross-shard migration (DESIGN.md §12) ----------------------------

  /// Moves one account between shards under an authenticated handoff:
  /// builds a trie proof against the source shard's current root,
  /// verifies it, and imports at the destination. The source-side
  /// eviction is DEFERRED to the next epoch boundary, so every handoff
  /// leaving one shard within an epoch anchors to the same source root
  /// — migration plans stay byte-identical across arrival orders.
  /// NotFound when the account never materialized on the source chain.
  Result<HandoffRecord> MigrateAccount(const Address& addr, ShardId source,
                                       ShardId dest);

  /// Receive side: verifies a handoff (proof against the carried source
  /// root, which must also match the source ledger's current root when
  /// this node holds that ledger) and imports the account at the
  /// destination. A tampered handoff is rejected with Unauthorized and
  /// the epoch continues — rejection never halts the system.
  Status ApplyHandoff(const HandoffRecord& record);

  /// Degradation path for a shard with no live miners: migrates every
  /// account materialized on its chain into the MaxShard (each under a
  /// verified handoff anchored to the shard's pre-migration root),
  /// moves its pending pool, and aliases the shard to the MaxShard.
  /// Returns the applied plan.
  Result<MigrationPlan> MigrateShardToMaxShard(ShardId shard);

  /// Every handoff applied since construction, in application order.
  const std::vector<HandoffRecord>& MigrationLog() const {
    return migration_log_;
  }

  /// The current epoch's handoffs in canonical (source, dest, addr)
  /// order — byte-identical across arrival orders and thread counts
  /// once encoded (core/migration.h codec).
  MigrationPlan EpochMigrationPlan() const;

  // --- Shard state -------------------------------------------------------

  size_t ShardCount() const { return formation_.ShardCount(); }
  std::vector<uint64_t> PendingPerShard() const;
  const Ledger* ShardLedger(ShardId shard) const;
  const TxPool* ShardPool(ShardId shard) const;
  const ShardFormation& formation() const { return formation_; }
  Network& network() { return net_; }
  const Network& network() const { return net_; }

  // --- Inter-shard merging ------------------------------------------------

  /// Runs the unified merge plan over the currently small shards
  /// (pending size < L), moves their pools, miners, AND authenticated
  /// account state into merged shards, and credits the shard reward to
  /// every small-shard miner of a formed group (Sec. IV-A). Returns the
  /// merge plan.
  IterativeMergeResult MergeSmallShards();

  /// Computes every live shard's transaction-selection plan (Alg. 2)
  /// from public data: per-shard randomness derived from the epoch
  /// randomness and the shard id, the shard's pending fees in canonical
  /// pool order, and its miner count. The result is ordered by shard
  /// id.
  std::vector<ShardSelectionPlan> ComputeShardSelectionPlans() const;

  /// The system's deterministic thread pool (nullptr unless
  /// config.parallel.threads > 1).
  ThreadPool* pool() const { return pool_.get(); }

  /// Shard rewards credited so far to a miner (0 for an unknown id).
  Amount ShardRewardOf(NodeId miner) const;

 private:
  struct MinerRecord {
    KeyPair keys;
    Hash256 id;  // Public-key fingerprint.
    ShardId shard = kMaxShardId;
    Amount shard_rewards = 0;
    MinerStatus status = MinerStatus::kActive;
  };

  struct ShardState {
    std::unique_ptr<Ledger> ledger;
    TxPool pool;
    /// Routing alias: after a merge, transactions of this shard flow to
    /// `merged_into` instead.
    std::optional<ShardId> merged_into;
  };

  /// A miner cleared to pack: its resolved shard, that shard's state,
  /// and the coinbase its fees and rewards go to.
  struct Packer {
    ShardId shard = kMaxShardId;
    ShardState* state = nullptr;
    Address coinbase;
  };

  ShardState& GetOrCreateShard(ShardId shard);
  ShardId ResolveShard(ShardId shard) const;

  /// The checks MineBlock and MineBlocksPipelined run before packing: an
  /// active epoch (FailedPrecondition), a known miner (InvalidArgument)
  /// that is serving, neither a pending joiner nor departed
  /// (Unauthorized), and the Sec. III-C shard membership every receiver
  /// also checks.
  Result<Packer> AdmitPacker(NodeId miner);

  /// Epoch-boundary churn: pending joiners activate, retiring miners
  /// depart (and leave the network's membership view).
  void ActivateBoundaryChurn();

  /// The boundary both epoch kinds open with: deferred evictions land,
  /// boundary churn applies, and the live miners are returned
  /// (FailedPrecondition when none is left).
  Result<std::vector<NodeId>> OpenBoundary();

  /// The tail both epoch kinds close with: assigns `live` from
  /// randomness_ and fractions_, re-registers each miner under its true
  /// NodeId, and resets the per-epoch fields.
  void AssignEpoch(const std::vector<NodeId>& live, bool fallback);

  /// Moves every account materialized on `source`'s canonical chain
  /// into `target` under handoffs anchored to `source`'s pre-migration
  /// root (all proofs are built against that one root, then verified
  /// and applied).
  Status MigrateShardState(ShardId source, ShardId target);

  /// Folds `source` into `target`: its state first (MigrateShardState),
  /// then its pool, then the `merged_into` alias. Miners are the
  /// caller's.
  Status MergeShardInto(ShardId source, ShardId target);

  /// Merges every live shard that lost all its live miners into the
  /// MaxShard (called after a crash).
  void RecoverOrphanedShards();

  /// Verified-handoff application: import at dest, schedule the
  /// source-side eviction for the next boundary, append to the log.
  /// Callers must have verified `record`.
  void ApplyVerifiedHandoff(const HandoffRecord& record);

  /// Applies the deferred source-side evictions (shard id, then address
  /// order) at the epoch boundary.
  void FlushPendingEvictions();

  ShardingSystemConfig config_;
  /// Created once from config_.parallel for the VRF evaluations; stays
  /// null for threads <= 1 so the serial path has zero pool overhead.
  std::unique_ptr<ThreadPool> pool_;
  Rng rng_;
  StateDB genesis_state_;
  ShardFormation formation_;
  Network net_;
  std::vector<MinerRecord> miners_;
  std::map<ShardId, ShardState> shards_;

  /// Authoritative home shard per sender, updated on migration. Ordered
  /// map: iteration never feeds consensus, but determinism by default.
  std::map<Address, ShardId> home_;
  std::vector<HandoffRecord> migration_log_;
  /// Source-side evictions awaiting the next epoch boundary: migrating
  /// an account out must not change the source root mid-epoch (other
  /// handoffs from the same shard anchor to it).
  std::map<ShardId, std::set<Address>> pending_evictions_;
  /// migration_log_ size at the last epoch boundary — the current
  /// epoch's handoffs are the suffix.
  size_t epoch_log_start_ = 0;

  bool epoch_active_ = false;
  bool fallback_epoch_ = false;
  NodeId leader_ = 0;
  /// The current epoch's leader crash-stopped mid-epoch.
  bool leader_crashed_ = false;
  /// Live population at the last epoch boundary (degradation baseline).
  size_t epoch_population_ = 0;
  Hash256 randomness_;
  std::vector<double> fractions_;
  EpochManager epochs_{Sha256Digest("shardchain.genesis.v1")};
};

}  // namespace shardchain

#endif  // SHARDCHAIN_CORE_SHARDING_SYSTEM_H_
