#include "core/sharding_system.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "chain/pipeline.h"
#include "types/codec.h"

namespace shardchain {

ShardingSystem::ShardingSystem(ShardingSystemConfig config, uint64_t seed)
    : config_(std::move(config)), rng_(seed) {
  if (config_.parallel.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.parallel.threads);
  }
}

NodeId ShardingSystem::AddMiner() {
  KeyPair keys = KeyPair::Generate(&rng_);
  const Hash256 id = keys.public_key().Fingerprint();
  const NodeId node = static_cast<NodeId>(miners_.size());
  miners_.push_back(MinerRecord{std::move(keys), id, kMaxShardId, 0,
                                MinerStatus::kActive});
  net_.Register(node, kMaxShardId);
  return node;
}

void ShardingSystem::Mint(const Address& account, Amount amount) {
  genesis_state_.Mint(account, amount);
}

Result<Address> ShardingSystem::DeployContract(
    const Address& creator, const ContractProgram& program) {
  return ContractRegistry::Deploy(&genesis_state_, creator, program);
}

// --- Churn -----------------------------------------------------------

NodeId ShardingSystem::JoinMiner() {
  KeyPair keys = KeyPair::Generate(&rng_);
  const Hash256 id = keys.public_key().Fingerprint();
  const NodeId node = static_cast<NodeId>(miners_.size());
  miners_.push_back(MinerRecord{std::move(keys), id, kMaxShardId, 0,
                                MinerStatus::kPending});
  // Not on the network until activation at the next boundary.
  return node;
}

Status ShardingSystem::RetireMiner(NodeId miner) {
  if (miner >= miners_.size()) {
    return Status::InvalidArgument("unknown miner");
  }
  MinerRecord& m = miners_[miner];
  if (m.status == MinerStatus::kDeparted) {
    return Status::FailedPrecondition("miner already departed");
  }
  if (m.status == MinerStatus::kPending) {
    // Never served: drop it outright at the next boundary.
    m.status = MinerStatus::kDeparted;
    return Status::OK();
  }
  m.status = MinerStatus::kRetiring;
  return Status::OK();
}

Status ShardingSystem::CrashMiner(NodeId miner) {
  if (miner >= miners_.size()) {
    return Status::InvalidArgument("unknown miner");
  }
  MinerRecord& m = miners_[miner];
  if (m.status == MinerStatus::kDeparted) {
    return Status::FailedPrecondition("miner already departed");
  }
  const bool was_serving = m.status == MinerStatus::kActive ||
                           m.status == MinerStatus::kRetiring;
  m.status = MinerStatus::kDeparted;
  net_.Unregister(miner);
  if (epoch_active_ && was_serving) {
    if (miner == leader_) leader_crashed_ = true;
    RecoverOrphanedShards();
  }
  return Status::OK();
}

Status ShardingSystem::ApplyChurn(const std::vector<ChurnEvent>& events) {
  for (const ChurnEvent& event : events) {
    switch (event.kind) {
      case ChurnEventKind::kJoin:
        (void)JoinMiner();
        break;
      case ChurnEventKind::kRetire:
        SHARDCHAIN_RETURN_IF_ERROR(RetireMiner(event.node));
        break;
      case ChurnEventKind::kCrash:
        SHARDCHAIN_RETURN_IF_ERROR(CrashMiner(event.node));
        break;
    }
  }
  return Status::OK();
}

bool ShardingSystem::MinerLive(NodeId miner) const {
  if (miner >= miners_.size()) return false;
  const MinerStatus s = miners_[miner].status;
  return s == MinerStatus::kActive || s == MinerStatus::kRetiring;
}

size_t ShardingSystem::LiveMinerCount() const {
  size_t count = 0;
  for (size_t i = 0; i < miners_.size(); ++i) {
    if (MinerLive(static_cast<NodeId>(i))) ++count;
  }
  return count;
}

std::vector<NodeId> ShardingSystem::LiveMiners() const {
  std::vector<NodeId> out;
  for (size_t i = 0; i < miners_.size(); ++i) {
    const NodeId m = static_cast<NodeId>(i);
    if (MinerLive(m)) out.push_back(m);
  }
  return out;
}

MinerStatus ShardingSystem::StatusOfMiner(NodeId miner) const {
  if (miner >= miners_.size()) return MinerStatus::kDeparted;
  return miners_[miner].status;
}

bool ShardingSystem::EpochDegraded() const {
  if (!epoch_active_) return false;
  if (leader_crashed_ && !fallback_epoch_) return true;
  return 2 * LiveMinerCount() < epoch_population_;
}

void ShardingSystem::ActivateBoundaryChurn() {
  for (size_t i = 0; i < miners_.size(); ++i) {
    MinerRecord& m = miners_[i];
    if (m.status == MinerStatus::kPending) {
      m.status = MinerStatus::kActive;
      net_.Register(static_cast<NodeId>(i), kMaxShardId);
    } else if (m.status == MinerStatus::kRetiring) {
      m.status = MinerStatus::kDeparted;
      net_.Unregister(static_cast<NodeId>(i));
    }
  }
}

// --- Epochs ----------------------------------------------------------

Result<std::vector<NodeId>> ShardingSystem::OpenBoundary() {
  FlushPendingEvictions();
  ActivateBoundaryChurn();
  std::vector<NodeId> live = LiveMiners();
  if (live.empty()) {
    return Status::FailedPrecondition("no live miners");
  }
  return live;
}

void ShardingSystem::AssignEpoch(const std::vector<NodeId>& live,
                                 bool fallback) {
  // Everyone derives their shard from public data. Registration routes
  // through the true NodeIds, NOT the candidate positions: under churn
  // the live set has holes, and positional registration would pin a
  // stale node onto another miner's shard (the stale-shard bug class).
  std::vector<Hash256> ids;
  ids.reserve(live.size());
  for (NodeId m : live) ids.push_back(miners_[m].id);
  const std::vector<ShardId> assignment =
      AssignAllMiners(randomness_, ids, fractions_, /*net=*/nullptr);
  for (size_t c = 0; c < live.size(); ++c) {
    miners_[live[c]].shard = assignment[c];
    net_.Register(live[c], assignment[c]);
  }
  epoch_active_ = true;
  fallback_epoch_ = fallback;
  leader_crashed_ = false;
  epoch_population_ = live.size();
  epoch_log_start_ = migration_log_.size();
}

Status ShardingSystem::BeginEpoch(uint64_t epoch_nonce) {
  (void)epoch_nonce;  // The chained epoch seed supersedes the nonce.
  std::vector<NodeId> live;
  SHARDCHAIN_ASSIGN_OR_RETURN(live, OpenBoundary());
  // Epoch seed chains from history (EpochManager): public and
  // grind-resistant.
  const Hash256 seed = epochs_.NextSeed();

  // Leader election: every live miner evaluates her VRF; lowest valid
  // ticket wins (Sec. III-B / Omniledger). The evaluations are
  // independent per key, so they run as one batch over the pool.
  std::vector<const KeyPair*> keys;
  keys.reserve(live.size());
  for (NodeId m : live) keys.push_back(&miners_[m].keys);
  std::vector<VrfOutput> vrfs = VrfEvaluateBatch(keys, seed, pool_.get());
  std::vector<LeaderCandidate> candidates;
  candidates.reserve(live.size());
  for (size_t c = 0; c < live.size(); ++c) {
    candidates.push_back(LeaderCandidate{miners_[live[c]].keys.public_key(),
                                         std::move(vrfs[c])});
  }

  // Fractions come from the MaxShard's view of routed transactions.
  fractions_ = formation_.Fractions();

  Result<EpochRecord> record = epochs_.Advance(candidates, fractions_);
  if (!record.ok()) return record.status();
  // leader_index ranks within the candidate (live) set; map it back to
  // the true NodeId — with no churn, live[c] == c and this is identity.
  leader_ = live[record->leader_index];
  randomness_ = record->randomness;
  AssignEpoch(live, /*fallback=*/false);

  // Leader broadcast of (randomness, fractions): one message per node.
  net_.Broadcast(leader_, MsgKind::kLeaderBroadcast);
  return Status::OK();
}

Status ShardingSystem::BeginFallbackEpoch() {
  std::vector<NodeId> live;
  SHARDCHAIN_ASSIGN_OR_RETURN(live, OpenBoundary());
  Result<EpochRecord> record = epochs_.AdvanceFallback();
  if (!record.ok()) return record.status();
  randomness_ = record->randomness;
  fractions_ = record->fractions;
  leader_ = 0;  // Meaningless in a leaderless epoch.

  // The single 100% fraction routes every draw to the MaxShard; the
  // assignment still runs so membership checks verify as usual. No
  // leader broadcast: the fallback needs no message to agree on.
  AssignEpoch(live, /*fallback=*/true);
  return Status::OK();
}

ShardId ShardingSystem::ShardOfMiner(NodeId miner) const {
  if (!MinerLive(miner)) return kUnassignedShard;
  return ResolveShard(miners_[miner].shard);
}

std::vector<NodeId> ShardingSystem::MinersOfShard(ShardId shard) const {
  std::vector<NodeId> out;
  for (size_t i = 0; i < miners_.size(); ++i) {
    const NodeId m = static_cast<NodeId>(i);
    if (!MinerLive(m)) continue;
    if (ResolveShard(miners_[i].shard) == ResolveShard(shard)) {
      out.push_back(m);
    }
  }
  return out;
}

ShardId ShardingSystem::ResolveShard(ShardId shard) const {
  // Follow merge aliases to the surviving shard.
  auto it = shards_.find(shard);
  while (it != shards_.end() && it->second.merged_into.has_value()) {
    shard = *it->second.merged_into;
    it = shards_.find(shard);
  }
  return shard;
}

ShardingSystem::ShardState& ShardingSystem::GetOrCreateShard(ShardId shard) {
  auto it = shards_.find(shard);
  if (it == shards_.end()) {
    ShardState state;
    state.ledger =
        std::make_unique<Ledger>(shard, genesis_state_, config_.chain);
    it = shards_.emplace(shard, std::move(state)).first;
  }
  return it->second;
}

Result<ShardId> ShardingSystem::SubmitTransaction(const Transaction& tx) {
  const ShardId routed = formation_.Route(tx);
  const ShardId shard = ResolveShard(routed);

  // Sender-home tracking: when the routed shard moves — the sender's
  // contract set changed (shard → MaxShard) or a popularity shift
  // re-routed its contract — the authoritative account state follows
  // under an authenticated handoff before the transaction pools.
  auto home_it = home_.find(tx.sender);
  if (home_it == home_.end()) {
    home_.emplace(tx.sender, shard);
  } else if (ResolveShard(home_it->second) != shard) {
    const ShardId from = ResolveShard(home_it->second);
    Result<HandoffRecord> moved = MigrateAccount(tx.sender, from, shard);
    // NotFound: the account never materialized on the source chain —
    // the destination's genesis view is still authoritative.
    if (!moved.ok() &&
        moved.status().code() != Status::Code::kNotFound) {
      return moved.status();
    }
    home_it->second = shard;
  }

  ShardState& state = GetOrCreateShard(shard);
  SHARDCHAIN_RETURN_IF_ERROR(state.pool.Add(tx));
  // The user's broadcast reaches every miner; miners of other shards
  // discard it after the routing check.
  if (net_.NodeCount() > 1) {
    net_.MulticastShard(0, shard, MsgKind::kTxGossip);
  }
  return shard;
}

Result<ShardingSystem::Packer> ShardingSystem::AdmitPacker(NodeId miner) {
  if (!epoch_active_) {
    return Status::FailedPrecondition("no active epoch");
  }
  if (miner >= miners_.size()) {
    return Status::InvalidArgument("unknown miner");
  }
  const MinerRecord& record = miners_[miner];
  if (record.status == MinerStatus::kPending) {
    return Status::Unauthorized("miner enters at the next epoch boundary");
  }
  if (record.status == MinerStatus::kDeparted) {
    return Status::Unauthorized("miner has departed");
  }
  // The membership check every receiver would also run (Sec. III-C):
  // proves this miner may pack for this ShardID.
  SHARDCHAIN_RETURN_IF_ERROR(VerifyShardMembership(
      randomness_, record.id, fractions_, record.shard));
  const ShardId shard = ResolveShard(record.shard);
  return Packer{shard, &GetOrCreateShard(shard),
                Address::FromHash(record.id)};
}

Result<Hash256> ShardingSystem::MineBlock(NodeId miner) {
  Packer packer;
  SHARDCHAIN_ASSIGN_OR_RETURN(packer, AdmitPacker(miner));
  ShardState& state = *packer.state;
  const Block block = state.ledger->BuildBlock(
      packer.coinbase, state.pool.TopByFee(config_.chain.max_txs_per_block),
      static_cast<uint64_t>(state.ledger->tip_number() + 1));
  Result<Hash256> appended = state.ledger->Append(block);
  if (!appended.ok()) return appended.status();
  state.pool.RemoveAll(block.transactions);
  net_.MulticastShard(miner, packer.shard, MsgKind::kBlockGossip);
  return appended;
}

std::vector<Status> ShardingSystem::SubmitTransactionBatch(
    const std::vector<Transaction>& txs) {
  std::vector<Status> out;
  out.reserve(txs.size());
  for (const Transaction& tx : txs) {
    Result<ShardId> routed = SubmitTransaction(tx);
    out.push_back(routed.ok() ? Status::OK() : routed.status());
  }
  return out;
}

Result<std::vector<Hash256>> ShardingSystem::MineBlocksPipelined(NodeId miner,
                                                                 size_t count) {
  // One admission covers the whole run: membership cannot change inside
  // a synchronous call.
  Packer packer;
  SHARDCHAIN_ASSIGN_OR_RETURN(packer, AdmitPacker(miner));
  BlockPipeline pipeline(packer.state->ledger.get(), &packer.state->pool);
  PipelineResult produced;
  SHARDCHAIN_ASSIGN_OR_RETURN(produced, pipeline.Run(packer.coinbase, count));
  for (size_t i = 0; i < produced.hashes.size(); ++i) {
    net_.MulticastShard(miner, packer.shard, MsgKind::kBlockGossip);
  }
  return produced.hashes;
}

Result<Hash256> ShardingSystem::ReceiveBlockBytes(const Bytes& wire) {
  Block block;
  SHARDCHAIN_ASSIGN_OR_RETURN(block, codec::DecodeBlock(wire));
  SHARDCHAIN_RETURN_IF_ERROR(VerifyIncomingBlock(block));
  auto it = shards_.find(ResolveShard(block.header.shard_id));
  if (it == shards_.end()) {
    return Status::NotFound("no local ledger for the block's shard");
  }
  Result<Hash256> appended = it->second.ledger->Append(block);
  if (!appended.ok()) return appended.status();
  it->second.pool.RemoveAll(block.transactions);
  return appended;
}

Status ShardingSystem::VerifyIncomingBlock(const Block& block) const {
  if (!epoch_active_) {
    return Status::FailedPrecondition("no active epoch");
  }
  // 1. Is the packer a currently serving miner? The header's coinbase
  //    names it: the miner whose fingerprint hashes to that address.
  //    The miner set is part of the leader's broadcast (Sec. IV-C), so
  //    every receiver knows it — including who departed or has not
  //    entered yet.
  const MinerRecord* packer = nullptr;
  for (const MinerRecord& m : miners_) {
    if (Address::FromHash(m.id) == block.header.miner) {
      packer = &m;
      break;
    }
  }
  if (packer == nullptr) {
    return Status::Unauthorized("block coinbase is not a registered miner");
  }
  if (packer->status == MinerStatus::kPending ||
      packer->status == MinerStatus::kDeparted) {
    return Status::Unauthorized("packer is not serving this epoch");
  }
  // 2. Does the packer really correspond to the ShardID in the header?
  SHARDCHAIN_RETURN_IF_ERROR(VerifyShardMembership(
      randomness_, packer->id, fractions_, block.header.shard_id));
  // 3. Structural integrity of the body against the header.
  if (block.header.tx_root != block.ComputeTxRoot()) {
    return Status::Corruption("tx root does not match block body");
  }
  return Status::OK();
}

// --- Cross-shard migration -------------------------------------------

void ShardingSystem::ApplyVerifiedHandoff(const HandoffRecord& record) {
  ShardState& dest = GetOrCreateShard(ResolveShard(record.dest));
  Status imported = dest.ledger->ImportAccount(record.addr, record.account);
  assert(imported.ok());
  (void)imported;
  // Eviction is deferred to the boundary: removing the leaf now would
  // move the source root mid-epoch, and every other handoff leaving
  // this shard this epoch anchors its proof to that root.
  pending_evictions_[record.source].insert(record.addr);
  migration_log_.push_back(record);
}

void ShardingSystem::FlushPendingEvictions() {
  // Ordered maps/sets: evictions land in (shard, address) order on
  // every node regardless of the order migrations were triggered in.
  for (const auto& [shard, addrs] : pending_evictions_) {
    auto it = shards_.find(shard);
    if (it == shards_.end() || it->second.merged_into.has_value()) continue;
    for (const Address& addr : addrs) {
      (void)it->second.ledger->EvictAccount(addr);
    }
  }
  pending_evictions_.clear();
}

Result<HandoffRecord> ShardingSystem::MigrateAccount(const Address& addr,
                                                     ShardId source,
                                                     ShardId dest) {
  source = ResolveShard(source);
  dest = ResolveShard(dest);
  if (source == dest) {
    return Status::InvalidArgument("source and destination coincide");
  }
  auto it = shards_.find(source);
  if (it == shards_.end()) {
    return Status::NotFound("no ledger for the source shard");
  }
  HandoffRecord record;
  SHARDCHAIN_ASSIGN_OR_RETURN(
      record, BuildHandoff(it->second.ledger->tip_state(), source, dest, addr));
  SHARDCHAIN_RETURN_IF_ERROR(VerifyHandoff(record));
  ApplyVerifiedHandoff(record);
  return record;
}

Status ShardingSystem::ApplyHandoff(const HandoffRecord& record) {
  SHARDCHAIN_RETURN_IF_ERROR(VerifyHandoff(record));
  // When this node holds the source ledger, the proof must bind to its
  // CURRENT root — a replayed handoff from an older root is stale.
  auto src_it = shards_.find(record.source);
  if (src_it != shards_.end() && !src_it->second.merged_into.has_value()) {
    if (src_it->second.ledger->tip_state().StateRoot() != record.source_root) {
      return Status::Unauthorized("handoff root is stale");
    }
  }
  ApplyVerifiedHandoff(record);
  return Status::OK();
}

Status ShardingSystem::MigrateShardState(ShardId source, ShardId target) {
  auto it = shards_.find(source);
  if (it == shards_.end()) return Status::OK();  // Nothing materialized.
  const Ledger& ledger = *it->second.ledger;
  // All proofs anchor to the ONE pre-migration root; evictions are
  // deferred to the boundary, so nothing moves that root mid-batch.
  const auto pending = pending_evictions_.find(source);
  std::vector<HandoffRecord> batch;
  for (const Address& addr : ledger.TouchedAddresses()) {
    // Already migrated out earlier this epoch (eviction pending): the
    // destination copy is authoritative; re-exporting the stale source
    // leaf would roll it back.
    if (pending != pending_evictions_.end() && pending->second.count(addr)) {
      continue;
    }
    Result<HandoffRecord> record =
        BuildHandoff(ledger.tip_state(), source, target, addr);
    if (!record.ok()) {
      if (record.status().code() == Status::Code::kNotFound) continue;
      return record.status();
    }
    SHARDCHAIN_RETURN_IF_ERROR(VerifyHandoff(*record));
    batch.push_back(std::move(*record));
  }
  for (const HandoffRecord& record : batch) {
    ApplyVerifiedHandoff(record);
  }
  return Status::OK();
}

Status ShardingSystem::MergeShardInto(ShardId source, ShardId target) {
  // Authenticated state handoff BEFORE the pool moves: senders with
  // advanced nonces on the source chain keep passing the nonce check
  // on the target instead of silently dropping.
  SHARDCHAIN_RETURN_IF_ERROR(MigrateShardState(source, target));
  ShardState& from = shards_.at(source);
  ShardState& to = GetOrCreateShard(target);
  for (const Transaction& tx : from.pool.All()) {
    (void)to.pool.Add(tx);
  }
  from.pool.RemoveAll(from.pool.All());
  from.merged_into = target;
  return Status::OK();
}

Result<MigrationPlan> ShardingSystem::MigrateShardToMaxShard(ShardId shard) {
  shard = ResolveShard(shard);
  if (shard == kMaxShardId) {
    return Status::InvalidArgument("the MaxShard cannot migrate into itself");
  }
  auto it = shards_.find(shard);
  if (it == shards_.end()) {
    return Status::NotFound("unknown shard");
  }

  MigrationPlan plan;
  plan.epoch = epochs_.EpochCount();
  const size_t log_start = migration_log_.size();
  SHARDCHAIN_RETURN_IF_ERROR(MergeShardInto(shard, kMaxShardId));
  plan.handoffs.assign(migration_log_.begin() + log_start,
                       migration_log_.end());
  CanonicalizeMigrationPlan(&plan);

  // Surviving miners and routing follow the state and the pool.
  for (size_t i = 0; i < miners_.size(); ++i) {
    const NodeId m = static_cast<NodeId>(i);
    if (!MinerLive(m)) continue;
    if (miners_[i].shard == shard) {
      miners_[i].shard = kMaxShardId;
      net_.Register(m, kMaxShardId);
    }
  }
  return plan;
}

void ShardingSystem::RecoverOrphanedShards() {
  // A shard is orphaned when no live miner serves it anymore. Instead
  // of letting its transactions stall until the next boundary, its
  // authenticated state and pool degrade into the MaxShard (which the
  // remaining population always serves as catch-all).
  std::vector<ShardId> orphans;
  for (const auto& [shard, state] : shards_) {
    if (shard == kMaxShardId || state.merged_into.has_value()) continue;
    bool any_live = false;
    for (size_t i = 0; i < miners_.size() && !any_live; ++i) {
      const NodeId m = static_cast<NodeId>(i);
      any_live = MinerLive(m) && ResolveShard(miners_[i].shard) == shard;
    }
    if (!any_live) orphans.push_back(shard);
  }
  for (ShardId shard : orphans) {
    (void)MigrateShardToMaxShard(shard);
  }
}

MigrationPlan ShardingSystem::EpochMigrationPlan() const {
  MigrationPlan plan;
  plan.epoch = epochs_.EpochCount();
  plan.handoffs.assign(migration_log_.begin() +
                           static_cast<std::ptrdiff_t>(epoch_log_start_),
                       migration_log_.end());
  CanonicalizeMigrationPlan(&plan);
  return plan;
}

// --- Shard state ------------------------------------------------------

std::vector<uint64_t> ShardingSystem::PendingPerShard() const {
  std::vector<uint64_t> out(formation_.ShardCount(), 0);
  for (const auto& [shard, state] : shards_) {
    if (state.merged_into.has_value()) continue;
    const ShardId resolved = ResolveShard(shard);
    if (resolved < out.size()) {
      out[resolved] += state.pool.Size();
    }
  }
  return out;
}

const Ledger* ShardingSystem::ShardLedger(ShardId shard) const {
  auto it = shards_.find(ResolveShard(shard));
  return it == shards_.end() ? nullptr : it->second.ledger.get();
}

const TxPool* ShardingSystem::ShardPool(ShardId shard) const {
  auto it = shards_.find(ResolveShard(shard));
  return it == shards_.end() ? nullptr : &it->second.pool;
}

IterativeMergeResult ShardingSystem::MergeSmallShards() {
  // Small shards: live (unmerged) shards whose pending pool is below L.
  std::vector<ShardId> small_ids;
  std::vector<uint64_t> sizes;
  for (const auto& [shard, state] : shards_) {
    if (state.merged_into.has_value()) continue;
    if (shard == kMaxShardId) continue;  // The MaxShard never merges.
    const uint64_t pending = state.pool.Size();
    if (pending < config_.merge.min_shard_size) {
      small_ids.push_back(shard);
      sizes.push_back(pending);
    }
  }

  // Unified parameters: the plan is derived from the epoch randomness,
  // so every miner computes the same one.
  UnifiedParameters params;
  params.randomness = randomness_;
  params.shard_sizes = sizes;
  params.num_miners = LiveMinerCount();
  params.merge_config = config_.merge;
  const IterativeMergeResult plan = ComputeMergePlan(params);

  for (const std::vector<size_t>& group : plan.new_shards) {
    if (group.empty()) continue;
    // The surviving shard is the lowest id in the group.
    ShardId target = small_ids[group[0]];
    for (size_t idx : group) target = std::min(target, small_ids[idx]);

    for (size_t idx : group) {
      const ShardId source = small_ids[idx];
      if (source == target) continue;
      Status merged = MergeShardInto(source, target);
      assert(merged.ok());
      (void)merged;
    }
    // Shard reward: every (serving) miner of a merged small shard gets
    // G (Sec. IV-A1), credited system-side like the block reward.
    for (size_t i = 0; i < miners_.size(); ++i) {
      if (!MinerLive(static_cast<NodeId>(i))) continue;
      MinerRecord& m = miners_[i];
      for (size_t idx : group) {
        if (m.shard == small_ids[idx]) {
          m.shard_rewards += config_.shard_reward;
          break;
        }
      }
    }
    // Miners of merged shards now serve the surviving shard. Only live
    // miners re-register — a departed miner's stale shard id must not
    // resurface in the network's membership view (stale-shard bug
    // class, DESIGN.md §12).
    for (size_t i = 0; i < miners_.size(); ++i) {
      const NodeId m = static_cast<NodeId>(i);
      if (!MinerLive(m)) continue;
      for (size_t idx : group) {
        if (miners_[i].shard == small_ids[idx]) miners_[i].shard = target;
      }
      net_.Register(m, miners_[i].shard);
    }
  }
  return plan;
}

// flowlint: deterministic-root — consensus entry point (DESIGN.md §7)
std::vector<ShardSelectionPlan> ShardingSystem::ComputeShardSelectionPlans()
    const {
  // Live shards in id order (std::map iteration), so the output order
  // is canonical regardless of scheduling.
  std::vector<ShardId> live;
  for (const auto& [shard, state] : shards_) {
    if (state.merged_into.has_value()) continue;
    live.push_back(shard);
  }
  std::vector<size_t> miners_per_shard(live.size(), 0);
  for (size_t i = 0; i < miners_.size(); ++i) {
    if (!MinerLive(static_cast<NodeId>(i))) continue;
    const ShardId resolved = ResolveShard(miners_[i].shard);
    for (size_t k = 0; k < live.size(); ++k) {
      if (live[k] == resolved) {
        ++miners_per_shard[k];
        break;
      }
    }
  }

  std::vector<ShardSelectionPlan> plans(live.size());
  for (size_t k = 0; k < live.size(); ++k) {
    const ShardId shard = live[k];
    ShardSelectionPlan& out = plans[k];
    out.shard = shard;

    // Per-shard randomness: public, derived from the epoch randomness
    // and the shard id alone.
    Sha256 h;
    h.Update("shardchain.shardplan.v1");
    h.Update(randomness_.bytes.data(), randomness_.bytes.size());
    h.Update(std::to_string(shard));
    out.params.randomness = h.Finalize();

    // The shard's fee vector in canonical pool order (fee desc, id asc)
    // — the same total order every miner's pool emits.
    const TxPool& pool_of_shard = shards_.at(shard).pool;
    const std::vector<Transaction> txs =
        pool_of_shard.TopByFee(pool_of_shard.Size());
    out.params.tx_fees.reserve(txs.size());
    for (const Transaction& tx : txs) out.params.tx_fees.push_back(tx.fee);

    out.params.num_miners = miners_per_shard[k];
    out.params.merge_config = config_.merge;
    out.params.select_config = config_.select;
    out.plan = ComputeSelectionPlan(out.params);
  }
  return plans;
}

Amount ShardingSystem::ShardRewardOf(NodeId miner) const {
  return miner < miners_.size() ? miners_[miner].shard_rewards : 0;
}

}  // namespace shardchain
