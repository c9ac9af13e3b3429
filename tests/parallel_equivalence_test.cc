// Differential serial-vs-parallel suite (ctest label: parallel): the
// VRF evaluation batch, the only consensus input that still fans out
// over the pool, is computed at thread counts {1, 2, 3, 4, 7, 8} and
// asserted identical to the serial result. The games take no pool, but
// their merge and selection plans, computed for twenty seeds side by
// side on worker threads at each of those counts, must encode to the
// serial bytes and leave the decoded broadcast unchanged; a whole
// ShardingSystem epoch — merge plan, per-shard parameters and
// selection plans — must encode to the same bytes at every thread
// count. This is the Sec. IV-C requirement in executable form: a
// miner's plan bytes may not depend on how many cores the machine has.
// Concurrent StateDB forks, mutated on pool threads, must match a
// serial replay while their shared base stays untouched.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sharding_system.h"
#include "core/unification.h"
#include "core/unification_codec.h"
#include "crypto/vrf.h"
#include "parallel/parallel.h"
#include "parallel/thread_pool.h"
#include "seeded_params.h"
#include "state/statedb.h"

namespace shardchain {
namespace {

const size_t kThreadCounts[] = {1, 2, 3, 4, 7, 8};
constexpr uint64_t kNumSeeds = 20;

/// Asserts that `plan(seed)` gives each seed's serial bytes when the
/// seeds run side by side, one per task, on a pool of every thread
/// count. The games take no pool, but a miner may run them on any
/// thread and beside other work.
template <typename Plan>
void ExpectSerialBytesOnEveryPool(const Plan& plan, const char* what) {
  std::vector<Bytes> serial;
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    serial.push_back(plan(seed));
  }
  for (const size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    std::vector<Bytes> on_pool(kNumSeeds);
    ParallelFor(&pool, kNumSeeds,
                [&plan, &on_pool](size_t i) { on_pool[i] = plan(i + 1); });
    for (size_t i = 0; i < kNumSeeds; ++i) {
      ASSERT_EQ(on_pool[i], serial[i])
          << what << " bytes diverged: seed " << i + 1 << ", " << threads
          << " threads";
    }
  }
}

TEST(ParallelEquivalence, MergePlanBytesMatchSerialAtEveryThreadCount) {
  ExpectSerialBytesOnEveryPool(
      [](uint64_t seed) {
        return codec::EncodeMergePlan(ComputeMergePlan(ParamsForSeed(seed)));
      },
      "merge plan");
}

TEST(ParallelEquivalence, SelectionPlanBytesMatchSerialAtEveryThreadCount) {
  ExpectSerialBytesOnEveryPool(
      [](uint64_t seed) {
        return codec::EncodeSelectionPlan(
            ComputeSelectionPlan(ParamsForSeed(seed)));
      },
      "selection plan");
}

TEST(ParallelEquivalence, UnifiedParameterBytesRoundTripUnchanged) {
  // Every thread decodes the broadcast to a value that must re-encode
  // to the same bytes after both plans are computed from it — plan
  // computation may never mutate its inputs.
  const auto round_trip = [](uint64_t seed) {
    const Bytes wire = codec::EncodeUnifiedParameters(ParamsForSeed(seed));
    Result<UnifiedParameters> decoded = codec::DecodeUnifiedParameters(wire);
    if (!decoded.ok()) return Bytes();
    (void)ComputeMergePlan(*decoded);
    (void)ComputeSelectionPlan(*decoded);
    return codec::EncodeUnifiedParameters(*decoded);
  };
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    ASSERT_EQ(round_trip(seed),
              codec::EncodeUnifiedParameters(ParamsForSeed(seed)))
        << "parameters mutated: seed " << seed;
  }
  ExpectSerialBytesOnEveryPool(round_trip, "unified parameter");
}

TEST(ParallelEquivalence, VrfBatchesMatchSerial) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    Rng rng(seed ^ 0xabcdefull);
    KeyPair key = KeyPair::Generate(&rng);
    const Hash256 vseed = Sha256Digest("vrf." + std::to_string(seed));
    const VrfOutput vrf = VrfEvaluate(key, vseed);
    std::vector<const KeyPair*> keys(5, &key);

    for (const size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      const std::vector<VrfOutput> evals =
          VrfEvaluateBatch(keys, vseed, &pool);
      ASSERT_EQ(evals.size(), keys.size()) << threads << " threads";
      for (const VrfOutput& e : evals) {
        ASSERT_EQ(e.value, vrf.value) << threads << " threads";
        ASSERT_EQ(e.proof, vrf.proof) << threads << " threads";
      }
    }
  }
}

TEST(ParallelEquivalence, ShardingSystemEpochIdenticalAcrossThreadCounts) {
  // Whole-system differential: drive identical workloads through one
  // system per thread count and compare every consensus-visible output.
  auto run = [](size_t threads) {
    ShardingSystemConfig config;
    config.parallel.threads = threads;
    ShardingSystem sys(config, /*seed=*/99);
    for (int m = 0; m < 6; ++m) sys.AddMiner();
    EXPECT_TRUE(sys.BeginEpoch(0).ok());
    // Shardable workload: each user only ever calls one contract, so
    // shards form around the 4 contracts (Sec. III-A) and the merge
    // plan and the per-shard plans have real work to do.
    Rng rng(1234);
    for (int t = 0; t < 60; ++t) {
      Transaction tx;
      const uint64_t c = rng.UniformInt(4);
      tx.kind = TxKind::kContractCall;
      tx.recipient =
          Address::FromHash(Sha256Digest("contract." + std::to_string(c)));
      tx.sender = Address::FromHash(Sha256Digest(
          "user." + std::to_string(c * 8 + rng.UniformInt(8))));
      tx.value = 1 + rng.UniformInt(50);
      tx.fee = 1 + rng.UniformInt(30);
      tx.nonce = static_cast<uint64_t>(t);
      (void)sys.SubmitTransaction(tx);
    }
    std::vector<Bytes> out;
    out.push_back(
        codec::EncodeMergePlan(sys.MergeSmallShards()));
    for (const ShardSelectionPlan& p : sys.ComputeShardSelectionPlans()) {
      out.push_back(codec::EncodeUnifiedParameters(p.params));
      out.push_back(codec::EncodeSelectionPlan(p.plan));
    }
    return out;
  };
  const std::vector<Bytes> serial = run(1);
  EXPECT_FALSE(serial.empty());
  for (const size_t threads : kThreadCounts) {
    ASSERT_EQ(run(threads), serial) << threads << " threads";
  }
}

// ------------------- concurrent state forks ------------------------------

constexpr uint64_t kForkBaseAccounts = 400;
constexpr size_t kForks = 32;
constexpr int kForkOps = 300;

Address ForkBaseAddr(uint64_t n) {
  Address a;
  a.bytes[0] = static_cast<uint8_t>(n * 37);
  a.bytes[1] = static_cast<uint8_t>(n >> 3);
  a.bytes[19] = static_cast<uint8_t>(n);
  return a;
}

StateDB ForkBase() {
  StateDB base;
  for (uint64_t n = 0; n < kForkBaseAccounts; ++n) {
    base.Mint(ForkBaseAddr(n), 1000 + n);
    if (n % 5 == 0) base.StorageSet(ForkBaseAddr(n), n % 7, 11);
  }
  return base;
}

/// Fork `fork`'s scripted writes, a pure function of its id: credits,
/// storage writes, fresh accounts one byte away from a base account
/// (they split a leaf the fork shares with the base, re-seating it far
/// below the depth the base hashed it at), erasures and a
/// snapshot/revert. Returns the root every 50 ops and at the end.
std::vector<Hash256> RunForkOps(uint64_t fork, StateDB* db, bool* ok) {
  Rng rng(0xf0f0 + fork);
  std::vector<Hash256> roots;
  bool snap_open = false;
  size_t snap = 0;
  for (int op = 0; op < kForkOps; ++op) {
    const Address addr = ForkBaseAddr(rng.UniformInt(kForkBaseAccounts));
    switch (rng.UniformInt(6)) {
      case 0:
        db->Mint(addr, 1 + rng.UniformInt(100));
        break;
      case 1:
        db->StorageSet(addr, rng.UniformInt(8),
                       static_cast<int64_t>(rng.Next() % 1000));
        break;
      case 2: {
        Address fresh = addr;
        fresh.bytes[18] = static_cast<uint8_t>(1 + fork);
        db->Mint(fresh, 5);
        break;
      }
      case 3:
        (void)db->EraseAccount(addr);
        break;
      case 4:
        if (!snap_open) snap = db->Snapshot();
        snap_open = true;
        break;
      default:
        if (snap_open) *ok = *ok && db->RevertTo(snap).ok();
        snap_open = false;
        break;
    }
    if (op % 50 == 49) roots.push_back(db->StateRoot());
  }
  roots.push_back(db->StateRoot());
  return roots;
}

TEST(ParallelEquivalence, ConcurrentStateForksMatchSerialReplay) {
  // Forks share the base's nodes and clone what they write. Copying,
  // writing and hashing them on pool threads must never write a node
  // another fork or the base can reach (TSan runs this suite): every
  // fork's roots equal a serial replay on an independently built base,
  // and the base root never moves.
  const StateDB base = ForkBase();
  const Hash256 base_root = base.StateRoot();
  std::vector<std::vector<Hash256>> serial(kForks);
  for (size_t f = 0; f < kForks; ++f) {
    StateDB replay = ForkBase();
    bool ok = true;
    serial[f] = RunForkOps(f, &replay, &ok);
    ASSERT_TRUE(ok) << "fork " << f;
  }
  for (const size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::vector<Hash256>> roots(kForks);
    std::vector<uint8_t> ok(kForks, 1);
    ParallelFor(&pool, kForks, [&base, &roots, &ok](size_t f) {
      StateDB fork = base;
      bool fork_ok = true;
      roots[f] = RunForkOps(f, &fork, &fork_ok);
      ok[f] = fork_ok ? 1 : 0;
    });
    ASSERT_EQ(base.StateRoot(), base_root) << "threads " << threads;
    for (size_t f = 0; f < kForks; ++f) {
      ASSERT_EQ(ok[f], 1) << "threads " << threads << " fork " << f;
      ASSERT_EQ(roots[f], serial[f]) << "threads " << threads << " fork "
                                     << f;
    }
  }
}

}  // namespace
}  // namespace shardchain
