#include "chain/executor.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "contract/analyzer.h"
#include "contract/registry.h"
#include "parallel/parallel.h"

namespace shardchain {

namespace {

/// Cap on the number of forked views per lane. The chunk decomposition
/// is a function of the lane size and this constant only (§9 rule 1),
/// so the fork count — and every byte downstream — is thread-count
/// independent.
constexpr size_t kMaxChunksPerLane = 16;

/// One executed candidate's contribution, read off its snapshot bracket:
/// absolute post-images of every written account (the account
/// modification log) plus the fee credited to the miner as an additive
/// delta. Replaying `mods` then minting `fee` in canonical candidate
/// order reproduces the serial post-state exactly.
struct TxEffect {
  bool ok = false;
  std::vector<std::pair<Address, Account>> mods;
  Amount fee = 0;
};

/// Runs `tx` on `state` inside a snapshot bracket and, when it
/// executes, records its modification log into `eff`.
///
/// A barrier (`fp == nullptr`) runs strictly after every earlier
/// candidate, so it records every written account, the miner included,
/// with fee 0: its miner post-image already holds the fee. A resolvable
/// candidate leaves the miner out and records its fee as a delta, so
/// its log still replays in canonical order when lane order diverges
/// from it; a write outside `fp->writes` is an Internal error.
///
/// `commit` keeps a success on `state` (barriers and single-chunk lanes,
/// run directly on the merged state); otherwise the success is reverted
/// and lives on only in `eff` (fork chunks). A failure always reverts.
Status ExecuteAndRecord(const Transaction& tx, const TxFootprint* fp,
                        const Address& miner, const ChainConfig& config,
                        bool commit, StateDB* state, TxEffect* eff) {
  const size_t trial = state->Snapshot();
  if (!Ledger::ExecuteTransaction(tx, miner, config, state).ok()) {
    return state->RevertTo(trial);
  }
  std::vector<Address> touched;
  SHARDCHAIN_ASSIGN_OR_RETURN(touched, state->TouchedSince(trial));
  eff->mods.reserve(touched.size());
  for (const Address& addr : touched) {
    if (fp != nullptr) {
      if (addr == miner) continue;
      if (!std::binary_search(fp->writes.begin(), fp->writes.end(), addr)) {
        return Status::Internal(
            "execution write set escaped the derived footprint: account " +
            addr.ToHex());
      }
    }
    const Account* post = state->Find(addr);
    if (post == nullptr) {
      // Execution never erases accounts, so every written address
      // must have a live post-image.
      return Status::Internal("written account lost its post-image");
    }
    eff->mods.emplace_back(addr, *post);
  }
  eff->fee = fp != nullptr ? tx.fee : 0;
  eff->ok = true;
  return commit ? state->Commit(trial) : state->RevertTo(trial);
}

/// Replays one effect onto `state`: post-images first, then the fee
/// delta. Mint runs even for fee 0 so the miner account springs into
/// existence exactly when the serial loop would have created it.
void MergeEffect(const TxEffect& eff, const Address& miner, StateDB* state) {
  for (const auto& [addr, account] : eff.mods) {
    state->ApplyAccount(addr, account);
  }
  state->Mint(miner, eff.fee);
}

}  // namespace

TxFootprint DeriveFootprint(const Transaction& tx, const StateDB& pre_state,
                            const Address& miner) {
  TxFootprint fp;
  std::set<Address> reads(tx.input_accounts.begin(), tx.input_accounts.end());
  std::set<Address> writes;
  writes.insert(tx.sender);
  switch (tx.kind) {
    case TxKind::kDirectTransfer:
      writes.insert(tx.recipient);
      break;
    case TxKind::kContractDeploy:
      // The deployed address hashes the sender's nonce *at execution
      // time*, which depends on every earlier in-block transaction of
      // that sender — unresolvable before scheduling.
      return fp;
    case TxKind::kContractCall: {
      Result<ContractProgram> program =
          ContractRegistry::Load(pre_state, tx.recipient);
      // Target absent (or undecodable) in the pre-state: the call could
      // only succeed after an in-block deploy, so serialize it.
      if (!program.ok()) return fp;
      std::optional<PartyFootprint> parties = AnalyzePartyFootprint(*program);
      if (!parties.has_value()) return fp;
      writes.insert(tx.recipient);
      if (parties->all_parties) {
        for (const Address& party : program->parties) writes.insert(party);
      } else {
        for (uint8_t index : parties->party_indices) {
          if (index < program->parties.size()) {
            reads.insert(program->parties[index]);
          }
        }
      }
      break;
    }
  }
  // The miner account accretes a fee from every merged transaction, so
  // any transaction reading or writing it must see the fully-merged
  // balance: serialize.
  if (writes.count(miner) > 0 || reads.count(miner) > 0) return fp;
  for (const Address& addr : writes) reads.erase(addr);
  fp.resolvable = true;
  fp.reads.assign(reads.begin(), reads.end());
  fp.writes.assign(writes.begin(), writes.end());
  return fp;
}

LaneSchedule ScheduleLanes(const std::vector<TxFootprint>& footprints) {
  LaneSchedule schedule;
  const size_t n = footprints.size();
  schedule.lane_of.resize(n, 0);
  schedule.serialized.assign(n, 0);
  size_t num_lanes = 0;
  // Deepest lane so far writing / reading each address. std::map keeps
  // this deterministic by construction; it is only probed, never
  // iterated.
  std::map<Address, uint32_t> last_write_lane;
  std::map<Address, uint32_t> last_read_lane;
  // Minimum lane for the next candidate; raised past every serial
  // barrier so unresolvable transactions order against everything.
  uint32_t floor = 0;
  for (size_t i = 0; i < n; ++i) {
    const TxFootprint& fp = footprints[i];
    if (!fp.resolvable) {
      // Fresh lane above everything scheduled so far; everything after
      // lands strictly above it.
      const uint32_t lane = static_cast<uint32_t>(num_lanes);
      schedule.lane_of[i] = lane;
      schedule.serialized[i] = 1;
      num_lanes = lane + 1;
      floor = lane + 1;
      continue;
    }
    uint32_t lane = floor;
    for (const Address& addr : fp.writes) {
      auto w = last_write_lane.find(addr);
      if (w != last_write_lane.end()) lane = std::max(lane, w->second + 1);
      auto r = last_read_lane.find(addr);
      if (r != last_read_lane.end()) lane = std::max(lane, r->second + 1);
    }
    for (const Address& addr : fp.reads) {
      auto w = last_write_lane.find(addr);
      if (w != last_write_lane.end()) lane = std::max(lane, w->second + 1);
    }
    schedule.lane_of[i] = lane;
    num_lanes = std::max(num_lanes, static_cast<size_t>(lane) + 1);
    for (const Address& addr : fp.writes) {
      auto [it, inserted] = last_write_lane.try_emplace(addr, lane);
      if (!inserted) it->second = std::max(it->second, lane);
    }
    for (const Address& addr : fp.reads) {
      auto [it, inserted] = last_read_lane.try_emplace(addr, lane);
      if (!inserted) it->second = std::max(it->second, lane);
    }
  }
  schedule.lanes.resize(num_lanes);
  for (size_t i = 0; i < n; ++i) {
    schedule.lanes[schedule.lane_of[i]].push_back(static_cast<uint32_t>(i));
  }
  return schedule;
}

Result<std::vector<Transaction>> ExecuteCandidates(
    std::vector<Transaction> candidates, const Address& miner,
    const ChainConfig& config, ThreadPool* pool, StateDB* state) {
  const size_t cap = config.max_txs_per_block;
  std::vector<Transaction> included;
  if (pool == nullptr || pool->thread_count() <= 1 ||
      ThreadPool::InParallelRegion()) {
    // Serial greedy loop. A candidate that fails leaves the state as it
    // found it (ExecuteTransaction's contract), so it needs no bracket,
    // and with no saved root pinning them, the nodes a candidate clones
    // stay private: later candidates write them in place, and each
    // path is cloned once per block.
    for (Transaction& tx : candidates) {
      if (included.size() >= cap) break;
      if (Ledger::ExecuteTransaction(tx, miner, config, state).ok()) {
        included.push_back(std::move(tx));
      }
    }
    return included;
  }

  const size_t n = candidates.size();
  std::vector<TxFootprint> footprints;
  footprints.reserve(n);
  for (const Transaction& tx : candidates) {
    footprints.push_back(DeriveFootprint(tx, *state, miner));
  }
  const LaneSchedule schedule = ScheduleLanes(footprints);

  // Lanes execute every candidate, so a block that overflows the cap
  // rolls back to here (below).
  const size_t entry = state->Snapshot();
  std::vector<TxEffect> effects(n);
  for (const std::vector<uint32_t>& lane : schedule.lanes) {
    const size_t m = lane.size();
    if (m == 1) {
      // A width-1 lane (every barrier is one) has a single chunk, so it
      // runs directly on the merged state with no fork: its candidate
      // sees exactly the effects of the earlier lanes either way.
      const uint32_t idx = lane[0];
      const TxFootprint* fp =
          schedule.serialized[idx] != 0 ? nullptr : &footprints[idx];
      SHARDCHAIN_RETURN_IF_ERROR(ExecuteAndRecord(candidates[idx], fp, miner,
                                                  config, /*commit=*/true,
                                                  state, &effects[idx]));
      continue;
    }

    // Hash the merged state once, serially, so the concurrent per-chunk
    // forks below share only hashed nodes and never write them
    // (DESIGN.md §10).
    (void)state->StateRoot();
    const size_t grain = (m + kMaxChunksPerLane - 1) / kMaxChunksPerLane;
    std::vector<Status> chunk_status(NumChunks(m, grain), Status::OK());
    const StateDB& base = *state;
    ParallelChunks(
        pool, m, grain,
        [&candidates, &lane, &miner, &config, &base, &footprints, &effects,
         &chunk_status](size_t begin, size_t end, size_t c) {
          // A chunk-private O(1) fork of the lane base: it shares the
          // base's nodes and clones the ones it writes. Each trial
          // reverts, so every candidate in the chunk sees exactly the
          // lane base, never its chunk neighbours, and the shared base
          // stays read-only inside the region (§9 rule 2).
          StateDB fork = base;
          for (size_t k = begin; k < end && chunk_status[c].ok(); ++k) {
            const uint32_t idx = lane[k];
            // flowlint:allow(parallel-body-effects): snapshot brackets run on a chunk-private fork
            chunk_status[c] = ExecuteAndRecord(
                candidates[idx], &footprints[idx], miner, config,
                /*commit=*/false, &fork, &effects[idx]);
          }
        });
    for (const Status& st : chunk_status) {
      SHARDCHAIN_RETURN_IF_ERROR(st);
    }
    // Merge this lane's modification logs left-to-right in canonical
    // candidate order before the next lane executes against them.
    for (const uint32_t idx : lane) {
      if (effects[idx].ok) MergeEffect(effects[idx], miner, state);
    }
  }

  // Inclusion: the first `cap` successes in canonical order, exactly
  // the prefix the serial loop keeps.
  size_t succeeded = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!effects[i].ok) continue;
    if (++succeeded <= cap) included.push_back(std::move(candidates[i]));
  }
  if (succeeded <= cap) {
    SHARDCHAIN_RETURN_IF_ERROR(state->Commit(entry));
    return included;
  }
  // The block overflowed: `*state` carries effects of successes beyond
  // the cap, which the serial loop never executes. Roll back and replay
  // only the included logs (their post-images are base-independent
  // across non-conflicting merges, so this equals the serial state).
  SHARDCHAIN_RETURN_IF_ERROR(state->RevertTo(entry));
  for (size_t i = 0, replayed = 0; replayed < included.size(); ++i) {
    if (!effects[i].ok) continue;
    MergeEffect(effects[i], miner, state);
    ++replayed;
  }
  return included;
}

}  // namespace shardchain
