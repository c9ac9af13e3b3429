// Golden-vector pinning of the unification codec outputs: five fixed
// scenarios whose encoded unified parameters, merge plan, and
// selection plan are committed as hex snapshots under tests/vectors/.
// Any change to the codecs, the games' RNG consumption, or the
// parallel chunking that shifts a single byte fails here — exactly the
// changes that would fork miners in deployment (Sec. IV-C).
//
// Regenerate deliberately with:
//   SHARDCHAIN_REGEN_VECTORS=1 ./shardchain_tests
//   --gtest_filter='GoldenVectors.*'

#include <array>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "core/unification.h"
#include "core/unification_codec.h"
#include "seeded_params.h"

namespace shardchain {
namespace {

#ifndef SHARDCHAIN_TEST_VECTOR_DIR
#error "SHARDCHAIN_TEST_VECTOR_DIR must point at tests/vectors"
#endif

/// The five pinned scenarios. Every field is a literal or derived from
/// a fixed-seed Rng, so the inputs can never drift.
UnifiedParameters Scenario(int k) {
  UnifiedParameters params;
  params.randomness = Sha256Digest("golden.scenario." + std::to_string(k));
  switch (k) {
    case 0:
      // Degenerate: nothing to merge, nothing to select.
      break;
    case 1:
      // Two small shards that can just reach L together; one miner.
      params.shard_sizes = {12, 9};
      params.tx_fees = {5, 5, 3};
      params.num_miners = 1;
      break;
    case 2: {
      // A typical mid-size epoch.
      params.shard_sizes = {3, 7, 11, 15, 19, 8};
      Rng rng(2222);
      for (int t = 0; t < 30; ++t) {
        params.tx_fees.push_back(static_cast<Amount>(1 + rng.Zipf(40, 1.2)));
      }
      params.num_miners = 5;
      params.select_config.capacity = 6;
      break;
    }
    case 3: {
      // Ample shards with minimal-coalition preference.
      params.shard_sizes = {18, 17, 16, 15, 14, 13, 12, 11, 10, 9};
      params.merge_config.prefer_minimal_coalition = true;
      Rng rng(3333);
      for (int t = 0; t < 100; ++t) {
        params.tx_fees.push_back(static_cast<Amount>(1 + rng.UniformInt(25)));
      }
      params.num_miners = 8;
      break;
    }
    default: {
      // Stress: capacity above the tx count, heavy fee ties.
      params.shard_sizes = {1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 4, 6};
      params.tx_fees = {7, 7, 7, 7, 2, 2, 9};
      params.num_miners = 11;
      params.select_config.capacity = 50;
      params.merge_config.subslots = 16;
      break;
    }
  }
  return params;
}

std::array<std::string, 3> ComputeHexLines(const UnifiedParameters& params) {
  return {HexEncode(codec::EncodeUnifiedParameters(params)),
          HexEncode(codec::EncodeMergePlan(ComputeMergePlan(params))),
          HexEncode(codec::EncodeSelectionPlan(ComputeSelectionPlan(params)))};
}

std::string VectorPath(int k) {
  return std::string(SHARDCHAIN_TEST_VECTOR_DIR) + "/scenario" +
         std::to_string(k) + ".hex";
}

void CheckScenario(int k) {
  const std::array<std::string, 3> lines = ComputeHexLines(Scenario(k));
  const std::string path = VectorPath(k);
  if (std::getenv("SHARDCHAIN_REGEN_VECTORS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const std::string& line : lines) out << line << "\n";
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden vector " << path
                         << " (regenerate with SHARDCHAIN_REGEN_VECTORS=1)";
  const char* kLabels[3] = {"unified parameters", "merge plan",
                            "selection plan"};
  for (int i = 0; i < 3; ++i) {
    std::string expected;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, expected)))
        << path << " truncated at line " << i;
    EXPECT_EQ(lines[i], expected)
        << kLabels[i] << " bytes changed for scenario " << k
        << " — a consensus-visible encoding moved";
  }
}

TEST(GoldenVectors, Scenario0EmptyInputs) { CheckScenario(0); }
TEST(GoldenVectors, Scenario1TwoShardsOneMiner) { CheckScenario(1); }
TEST(GoldenVectors, Scenario2TypicalEpoch) { CheckScenario(2); }
TEST(GoldenVectors, Scenario3AmpleMinimalCoalition) { CheckScenario(3); }
TEST(GoldenVectors, Scenario4StressTiesAndOvercapacity) { CheckScenario(4); }

TEST(GoldenVectors, TwentySeedPlanDigestsArePinned) {
  // Each seed's broadcast goes through the wire first, as a miner
  // receives it; computing both plans must leave it unchanged. The
  // digests cover every plan byte of all twenty seeds.
  Sha256 merge;
  Sha256 select;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Bytes wire = codec::EncodeUnifiedParameters(ParamsForSeed(seed));
    Result<UnifiedParameters> params = codec::DecodeUnifiedParameters(wire);
    ASSERT_TRUE(params.ok()) << "seed " << seed;
    merge.Update(codec::EncodeMergePlan(ComputeMergePlan(*params)));
    select.Update(codec::EncodeSelectionPlan(ComputeSelectionPlan(*params)));
    ASSERT_EQ(codec::EncodeUnifiedParameters(*params), wire)
        << "parameters mutated: seed " << seed;
  }
  EXPECT_EQ(merge.Finalize().ToHex(),
            "0364d91d23e8e16cdc884974b5ab63c798797786a1a47d8e36b9eed42460ef56");
  EXPECT_EQ(select.Finalize().ToHex(),
            "9cdf88e2f48b5a2a41ad1f69268233e4bf292fd260b4fd2afce96a0a5d6ee6ed");
}

}  // namespace
}  // namespace shardchain
