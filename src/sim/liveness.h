#ifndef SHARDCHAIN_SIM_LIVENESS_H_
#define SHARDCHAIN_SIM_LIVENESS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/beacon.h"
#include "core/churn.h"
#include "core/epoch.h"
#include "core/miner_assignment.h"
#include "crypto/keys.h"
#include "net/faults.h"
#include "net/gossip.h"
#include "sim/event_queue.h"

namespace shardchain {

/// \brief Timing of one simulated epoch (all instants are sim seconds
/// from the epoch start; every miner uses the same constants, so phase
/// boundaries are common knowledge — no clock synchronisation is
/// modelled).
struct LivenessConfig {
  size_t num_miners = 16;
  GossipConfig gossip;
  /// Commit phase closes (beacon deadline #1).
  double beacon_commit_close = 1.0;
  /// Reveal phase closes and the beacon finalizes (beacon deadline #2).
  double beacon_reveal_close = 2.0;
  /// Reveals Finalize needs; below it the beacon degrades to the seed
  /// chain instead of stalling the epoch.
  size_t min_reveals = 1;
  /// View v's leader broadcasts at ViewBroadcastTime(v); a view change
  /// happens every `view_timeout` seconds without an accepted
  /// broadcast.
  double view_timeout = 2.0;
  /// Failover budget: views 0..max_views-1 may broadcast; after that
  /// the epoch can only end in the MaxShard fallback.
  size_t max_views = 3;
  /// Every live miner decides at this instant: lowest received view,
  /// or the MaxShard fallback when none arrived.
  double decision_deadline = 12.0;

  /// When view v's leader checks its inbox and (if still empty)
  /// publishes its broadcast.
  double ViewBroadcastTime(size_t view) const {
    return beacon_reveal_close + 0.1 +
           static_cast<double>(view) * view_timeout;
  }
};

/// \brief One miner's verdict at the epoch's decision deadline.
struct MinerDecision {
  bool live = false;      ///< Alive at the decision deadline.
  bool fallback = false;  ///< No verified broadcast arrived in time.
  uint32_t view = 0;      ///< Accepted view (meaningful iff !fallback).
  /// Byte-identity oracle: canonical encoding of the accepted unified
  /// parameters followed by the locally recomputed merge plan (both via
  /// the PR-1 codec). Empty on fallback.
  Bytes plan;
  /// Epoch randomness the miner proceeds with: the accepted broadcast's
  /// (beacon-mixed) randomness, or the shared leaderless fallback
  /// derivation.
  Hash256 randomness;
};

/// \brief Everything one simulated epoch produced.
struct EpochOutcome {
  uint64_t epoch_number = 0;
  Hash256 seed;
  std::vector<MinerDecision> decisions;  ///< Indexed by miner NodeId.
  /// Beacon participants that committed but never revealed; they are
  /// excluded from the NEXT epoch's candidate set.
  std::vector<NodeId> withholders;
  /// True when Finalize failed at the reveal deadline (fewer than
  /// min_reveals); the epoch then runs on the seed chain alone.
  bool beacon_degraded = false;
  size_t broadcasts_published = 0;
  /// True when every live miner reached the identical decision — the
  /// core chaos invariant (identical plan bytes, or identical
  /// fallback). Always check this in tests.
  bool converged = false;
  /// Gossip-layer recovery cost of this epoch.
  uint64_t retransmissions = 0;
  uint64_t repair_sends = 0;
  uint64_t messages_lost = 0;
  /// Sim time when the earliest-view broadcast that won had reached
  /// every live miner (0 when the epoch fell back).
  double recovery_latency = 0.0;
};

/// \brief Discrete-event simulation of the epoch pipeline under
/// faults: commit-reveal beacon with deadlines, VRF leader election
/// with view-change failover, leader broadcast over lossy gossip, and
/// the MaxShard fallback when liveness cannot be restored in time.
///
/// SIMULATOR SHORTCUTS (documented, deliberate): VRF tickets and the
/// beacon transcript are treated as common knowledge (as if gossiped a
/// round earlier), so the ranking of failover candidates and the
/// beacon output are known to every miner; what travels over the
/// faulty gossip overlay — and what faults can therefore split — is
/// the leader's unified-parameter broadcast, exactly the message the
/// paper's Sec. IV-C scheme hinges on.
class EpochLivenessSim {
 public:
  EpochLivenessSim(const LivenessConfig& config, uint64_t seed);

  size_t MinerCount() const { return miners_.size(); }
  const LivenessConfig& config() const { return config_; }
  const EpochManager& epochs() const { return epochs_; }
  GossipNetwork& gossip() { return gossip_; }

  /// Miners barred from candidacy in the next epoch (last epoch's
  /// beacon withholders).
  const std::vector<NodeId>& excluded() const { return excluded_; }

  // --- Churn (DESIGN.md §12) -----------------------------------------

  /// A fresh miner joining at the next epoch boundary: new keys from
  /// the sim's seeded stream, gossip overlay rebuilt deterministically
  /// for the larger population. Returns its NodeId.
  NodeId Join();

  /// Permanent departure (voluntary leave, or a crash discovered at the
  /// boundary): excluded from candidacy, beacon, and decisions of every
  /// subsequent epoch.
  void Depart(NodeId miner);

  bool IsDeparted(NodeId miner) const;
  size_t LiveMinerCount() const;

  /// Live (non-departed) miner ids, ascending — the population churn
  /// schedules are drawn over.
  std::vector<NodeId> LiveMiners() const;

  /// Applies one epoch's drawn churn schedule (core/churn.h): joins and
  /// retires take effect now (next RunEpoch sees them); crash events
  /// become crash-stop entries in `faults` at `when × decision_deadline`
  /// so the victim dies mid-epoch, and the victim departs permanently
  /// after the next RunEpoch returns.
  void ApplyChurn(const std::vector<ChurnEvent>& events, FaultConfig* faults);

  /// Adds crash-at-zero entries for every already-departed miner, so a
  /// FaultPlan built from `faults` silences them in the gossip overlay
  /// too (a departed miner must not relay or repair).
  void AppendDepartureCrashes(FaultConfig* faults) const;

  /// Failover order for the NEXT epoch: miner ids ranked by VRF ticket
  /// on the upcoming seed, excluded miners removed. ranking[0] is the
  /// would-be leader, ranking[v] the leader after v view changes.
  /// Exposed so chaos schedules can target specific leaders.
  std::vector<NodeId> NextRanking() const;

  /// Runs one epoch under `faults` (nullptr = perfect network) and
  /// advances the epoch chain with the converged outcome.
  EpochOutcome RunEpoch(FaultPlan* faults);

 private:
  struct Miner {
    KeyPair keys;
    Hash256 id;
  };
  /// A verified broadcast a miner holds, keyed by view in its inbox.
  struct Accepted {
    Bytes params_encoding;
    Hash256 randomness;
  };

  /// Candidates (non-excluded miners) for the next epoch plus the
  /// candidate-index → miner-id mapping.
  void BuildCandidates(std::vector<LeaderCandidate>* candidates,
                       std::vector<NodeId>* cand_to_miner) const;
  Bytes BeaconShare(NodeId miner, const Hash256& seed) const;

  LivenessConfig config_;
  Rng rng_;
  std::vector<Miner> miners_;
  GossipNetwork gossip_;
  EpochManager epochs_{Sha256Digest("shardchain.liveness.genesis.v1")};
  std::vector<NodeId> excluded_;
  /// departed_[m]: miner m left for good (indexed by NodeId).
  std::vector<bool> departed_;
  /// Mid-epoch crash victims of the current churn schedule; they depart
  /// permanently once the epoch they crash in has run.
  std::vector<NodeId> crashing_this_epoch_;
};

}  // namespace shardchain

#endif  // SHARDCHAIN_SIM_LIVENESS_H_
