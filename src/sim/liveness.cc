#include "sim/liveness.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/hex.h"
#include "core/unification.h"
#include "core/unification_codec.h"
#include "crypto/vrf.h"
#include "types/codec.h"

namespace shardchain {

namespace {

/// Fractions the leader would broadcast in a healthy epoch; fixed so
/// the chaos invariant depends only on message delivery, not workload.
const std::vector<double> kEpochFractions = {40.0, 35.0, 25.0};

/// The broadcast randomness: the leader's VRF value mixed with the
/// beacon output (zero when the beacon degraded). Receivers recompute
/// this from public data to verify the broadcast binds to the epoch.
Hash256 MixRandomness(const Hash256& vrf_value, const Hash256& beacon_out) {
  Sha256 h;
  h.Update("shardchain.liveness.mix.v1");
  h.Update(vrf_value.bytes.data(), vrf_value.bytes.size());
  h.Update(beacon_out.bytes.data(), beacon_out.bytes.size());
  return h.Finalize();
}

/// The unified parameters a view leader broadcasts: a small synthetic
/// workload derived from the epoch seed (identical for every would-be
/// leader except the randomness, which binds to the leader's VRF).
UnifiedParameters SyntheticParams(const Hash256& seed,
                                  const Hash256& vrf_value,
                                  const Hash256& beacon_out,
                                  size_t num_miners) {
  UnifiedParameters params;
  params.randomness = MixRandomness(vrf_value, beacon_out);
  for (size_t i = 0; i < 4; ++i) {
    params.shard_sizes.push_back(1 + seed.bytes[i] % 37);
  }
  for (size_t i = 4; i < 10; ++i) {
    params.tx_fees.push_back(static_cast<Amount>(1 + seed.bytes[i] % 19));
  }
  params.num_miners = num_miners;
  return params;
}

}  // namespace

EpochLivenessSim::EpochLivenessSim(const LivenessConfig& config, uint64_t seed)
    : config_(config),
      rng_(seed),
      gossip_(config.num_miners, config.gossip, &rng_) {
  miners_.reserve(config.num_miners);
  for (size_t i = 0; i < config.num_miners; ++i) {
    KeyPair keys = KeyPair::Generate(&rng_);
    const Hash256 id = keys.public_key().Fingerprint();
    miners_.push_back(Miner{std::move(keys), id});
  }
  departed_.resize(config.num_miners, false);
}

NodeId EpochLivenessSim::Join() {
  KeyPair keys = KeyPair::Generate(&rng_);
  const Hash256 id = keys.public_key().Fingerprint();
  const NodeId node = static_cast<NodeId>(miners_.size());
  miners_.push_back(Miner{std::move(keys), id});
  departed_.push_back(false);
  // The overlay is sized at construction; rebuild it for the larger
  // population. The rebuild draws from the sim's seeded stream, so two
  // runs replaying the same join sequence get identical overlays.
  gossip_ = GossipNetwork(miners_.size(), config_.gossip, &rng_);
  return node;
}

void EpochLivenessSim::Depart(NodeId miner) {
  if (miner < departed_.size()) departed_[miner] = true;
}

bool EpochLivenessSim::IsDeparted(NodeId miner) const {
  return miner < departed_.size() && departed_[miner];
}

size_t EpochLivenessSim::LiveMinerCount() const {
  size_t count = 0;
  for (size_t i = 0; i < miners_.size(); ++i) {
    if (!departed_[i]) ++count;
  }
  return count;
}

std::vector<NodeId> EpochLivenessSim::LiveMiners() const {
  std::vector<NodeId> out;
  for (size_t i = 0; i < miners_.size(); ++i) {
    if (!departed_[i]) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

void EpochLivenessSim::ApplyChurn(const std::vector<ChurnEvent>& events,
                                  FaultConfig* faults) {
  for (const ChurnEvent& event : events) {
    switch (event.kind) {
      case ChurnEventKind::kJoin:
        (void)Join();
        break;
      case ChurnEventKind::kRetire:
        Depart(event.node);
        break;
      case ChurnEventKind::kCrash:
        // Dies mid-epoch: the fault plan silences it from `when` on;
        // the permanent departure lands after the epoch has run.
        if (faults != nullptr) {
          faults->crashes.emplace_back(
              event.node, event.when * config_.decision_deadline);
        }
        crashing_this_epoch_.push_back(event.node);
        break;
    }
  }
}

void EpochLivenessSim::AppendDepartureCrashes(FaultConfig* faults) const {
  for (size_t i = 0; i < departed_.size(); ++i) {
    if (departed_[i]) {
      faults->crashes.emplace_back(static_cast<NodeId>(i), 0.0);
    }
  }
}

void EpochLivenessSim::BuildCandidates(
    std::vector<LeaderCandidate>* candidates,
    std::vector<NodeId>* cand_to_miner) const {
  const Hash256 seed = epochs_.NextSeed();
  for (size_t i = 0; i < miners_.size(); ++i) {
    const NodeId m = static_cast<NodeId>(i);
    if (departed_[i]) continue;  // Churned out for good.
    if (std::find(excluded_.begin(), excluded_.end(), m) != excluded_.end()) {
      continue;  // Last epoch's beacon withholders sit this one out.
    }
    const KeyPair& keys = miners_[i].keys;
    candidates->push_back(
        LeaderCandidate{keys.public_key(), VrfEvaluate(keys, seed)});
    cand_to_miner->push_back(m);
  }
}

Bytes EpochLivenessSim::BeaconShare(NodeId miner, const Hash256& seed) const {
  Bytes share;
  for (char c : std::string_view("shardchain.liveness.share.v1")) {
    share.push_back(static_cast<uint8_t>(c));
  }
  AppendUint32(&share, miner);
  share.insert(share.end(), seed.bytes.begin(), seed.bytes.end());
  return share;
}

std::vector<NodeId> EpochLivenessSim::NextRanking() const {
  std::vector<LeaderCandidate> candidates;
  std::vector<NodeId> cand_to_miner;
  BuildCandidates(&candidates, &cand_to_miner);
  Result<std::vector<size_t>> ranked =
      RankCandidates(candidates, epochs_.NextSeed());
  std::vector<NodeId> out;
  if (!ranked.ok()) return out;  // No candidates: nobody can lead.
  out.reserve(ranked->size());
  for (size_t c : *ranked) out.push_back(cand_to_miner[c]);
  return out;
}

EpochOutcome EpochLivenessSim::RunEpoch(FaultPlan* faults) {
  const size_t n = miners_.size();
  const Hash256 seed = epochs_.NextSeed();

  EpochOutcome out;
  out.epoch_number = epochs_.EpochCount() + 1;
  out.seed = seed;
  out.decisions.resize(n);

  std::vector<LeaderCandidate> candidates;
  std::vector<NodeId> cand_to_miner;
  BuildCandidates(&candidates, &cand_to_miner);
  Result<std::vector<size_t>> ranked_r = RankCandidates(candidates, seed);
  // Failover order as miner ids; each miner's VRF value is common
  // knowledge (simulator shortcut, see class comment).
  std::vector<NodeId> ranked;
  std::map<NodeId, Hash256> vrf_value;
  if (ranked_r.ok()) {
    for (size_t c : *ranked_r) ranked.push_back(cand_to_miner[c]);
    for (size_t c = 0; c < candidates.size(); ++c) {
      vrf_value[cand_to_miner[c]] = candidates[c].vrf.value;
    }
  }

  EventQueue queue;
  gossip_.SetFaultPlan(faults);
  const uint64_t retrans0 = gossip_.Retransmissions();
  const uint64_t repair0 = gossip_.RepairSends();
  const uint64_t lost0 = gossip_.MessagesLost();

  // --- Beacon phases, closed by deadline timers ----------------------
  RandomnessBeacon beacon(config_.min_reveals);
  Hash256 beacon_out;  // Stays zero when the beacon degrades.
  bool degraded = false;
  for (size_t i = 0; i < n; ++i) {
    const NodeId m = static_cast<NodeId>(i);
    if (departed_[i]) continue;  // Departed miners play no part.
    // Commits and reveals spread evenly inside their phases, so a crash
    // instant inside a phase splits participants into committed /
    // not-committed (and revealed / withholding) sets.
    const double tc = config_.beacon_commit_close *
                      static_cast<double>(i + 1) / static_cast<double>(n + 2);
    const double tr = config_.beacon_commit_close +
                      (config_.beacon_reveal_close -
                       config_.beacon_commit_close) *
                          static_cast<double>(i + 1) /
                          static_cast<double>(n + 2);
    queue.ScheduleAt(tc, [this, &queue, &beacon, faults, m, seed] {
      if (faults != nullptr && faults->IsCrashed(m, queue.Now())) return;
      (void)beacon.Commit(m, RandomnessBeacon::CommitmentFor(
                                 BeaconShare(m, seed)));
    });
    queue.ScheduleAt(tr, [this, &queue, &beacon, faults, m, seed] {
      if (faults != nullptr && faults->IsCrashed(m, queue.Now())) return;
      (void)beacon.Reveal(m, BeaconShare(m, seed));
    });
  }
  queue.ScheduleAt(config_.beacon_commit_close,
                   [&beacon] { (void)beacon.CloseCommits(); });
  queue.ScheduleAt(config_.beacon_reveal_close,
                   [&beacon, &beacon_out, &degraded] {
                     Result<Hash256> fin = beacon.Finalize();
                     if (fin.ok()) {
                       beacon_out = *fin;
                     } else {
                       degraded = true;  // Proceed on the seed chain.
                     }
                   });

  // --- Broadcast receipt: verify and file by view --------------------
  std::vector<std::map<uint32_t, Accepted>> inbox(n);
  std::map<uint32_t, double> view_last_arrival;
  gossip_.SetHandler([&](NodeId node, const Bytes& payload, SimTime when) {
    codec::Reader reader(payload);
    Result<uint32_t> view = reader.ReadU32();
    Result<uint32_t> leader = reader.ReadU32();
    if (!view.ok() || !leader.ok()) return;
    Result<Bytes> body = reader.ReadBytes(reader.remaining());
    if (!body.ok()) return;
    Result<UnifiedParameters> params = codec::DecodeUnifiedParameters(*body);
    if (!params.ok()) return;
    // Acceptance checks (each receiver): the claimed view/leader pair
    // matches the public VRF ranking, and the broadcast randomness
    // binds the leader's VRF value to the beacon output.
    if (*view >= ranked.size() || ranked[*view] != *leader) return;
    if (params->randomness !=
        MixRandomness(vrf_value[*leader], beacon_out)) {
      return;
    }
    inbox[node][*view] = Accepted{*body, params->randomness};
    double& last = view_last_arrival[*view];
    last = std::max(last, when);
  });

  // --- View-change schedule: ranked[v] broadcasts at its slot unless
  // it already holds a verified lower-view broadcast ------------------
  const size_t views = std::min(config_.max_views, ranked.size());
  for (size_t v = 0; v < views; ++v) {
    queue.ScheduleAt(config_.ViewBroadcastTime(v), [&, v] {
      const NodeId leader = ranked[v];
      if (faults != nullptr && faults->IsCrashed(leader, queue.Now())) return;
      if (!inbox[leader].empty()) return;  // A lower view already won.
      const UnifiedParameters params =
          SyntheticParams(seed, vrf_value[leader], beacon_out, n);
      Bytes payload;
      AppendUint32(&payload, static_cast<uint32_t>(v));
      AppendUint32(&payload, leader);
      const Bytes enc = codec::EncodeUnifiedParameters(params);
      payload.insert(payload.end(), enc.begin(), enc.end());
      gossip_.Publish(leader, std::move(payload), &queue);
      ++out.broadcasts_published;
    });
  }

  // --- Decision: lowest received view, else MaxShard fallback --------
  queue.ScheduleAt(config_.decision_deadline, [&] {
    for (size_t i = 0; i < n; ++i) {
      const NodeId m = static_cast<NodeId>(i);
      MinerDecision& d = out.decisions[i];
      if (departed_[i]) continue;  // Not live; decides nothing.
      if (faults != nullptr && faults->IsCrashed(m, queue.Now())) continue;
      d.live = true;
      if (inbox[i].empty()) {
        d.fallback = true;
        d.randomness = EpochManager::FallbackRandomness(seed);
        continue;
      }
      const auto& [view, accepted] = *inbox[i].begin();  // Lowest view.
      d.view = view;
      d.randomness = accepted.randomness;
      // The byte-identity oracle: the accepted parameter encoding plus
      // the merge plan this miner recomputes from it locally.
      d.plan = accepted.params_encoding;
      Result<UnifiedParameters> params =
          codec::DecodeUnifiedParameters(accepted.params_encoding);
      if (params.ok()) {
        const Bytes plan_enc =
            codec::EncodeMergePlan(ComputeMergePlan(*params));
        d.plan.insert(d.plan.end(), plan_enc.begin(), plan_enc.end());
      }
    }
  });

  queue.RunAll();

  // The handler and fault plan reference this frame; detach before
  // returning.
  gossip_.SetHandler(GossipNetwork::Handler{});
  gossip_.SetFaultPlan(nullptr);

  out.beacon_degraded = degraded;
  out.withholders = beacon.Withholders();
  out.retransmissions = gossip_.Retransmissions() - retrans0;
  out.repair_sends = gossip_.RepairSends() - repair0;
  out.messages_lost = gossip_.MessagesLost() - lost0;

  // --- Convergence check and chain advance ---------------------------
  const MinerDecision* ref = nullptr;
  bool converged = true;
  for (const MinerDecision& d : out.decisions) {
    if (!d.live) continue;
    if (ref == nullptr) {
      ref = &d;
      continue;
    }
    if (d.fallback != ref->fallback || d.plan != ref->plan ||
        d.randomness != ref->randomness ||
        (!d.fallback && d.view != ref->view)) {
      converged = false;
    }
  }
  out.converged = converged;  // Vacuously true with no live miner.
  if (ref != nullptr && !ref->fallback && converged) {
    (void)epochs_.Advance(candidates, kEpochFractions, ref->view);
    out.recovery_latency = view_last_arrival[ref->view];
  } else {
    // No live miner, a split (should not happen — tests assert), or a
    // unanimous fallback: the chain records a leaderless epoch.
    (void)epochs_.AdvanceFallback();
  }

  // Beacon withholders lose candidacy for the next epoch.
  excluded_ = out.withholders;
  // Mid-epoch crash victims of this epoch's churn schedule are gone for
  // good from the next epoch on.
  for (NodeId m : crashing_this_epoch_) Depart(m);
  crashing_this_epoch_.clear();
  return out;
}

}  // namespace shardchain
