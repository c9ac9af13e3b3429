// Golden-vector pinning of built blocks: five fixed block-building
// scenarios whose encoded block bytes and state roots are committed as
// hex snapshots under tests/vectors/block{0..4}.hex, so the vectors
// gate the codec and the block executor's semantics (DESIGN.md §13). A
// shifted byte here is a consensus fork in deployment.
//
// Regenerate deliberately with:
//   SHARDCHAIN_REGEN_VECTORS=1 ./shardchain_tests
//   --gtest_filter='BlockVectors.*'

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chain/ledger.h"
#include "common/hex.h"
#include "contract/registry.h"
#include "contract/vm.h"
#include "types/codec.h"

namespace shardchain {
namespace {

#ifndef SHARDCHAIN_TEST_VECTOR_DIR
#error "SHARDCHAIN_TEST_VECTOR_DIR must point at tests/vectors"
#endif

Address Addr(uint8_t tag) {
  Address a;
  a.bytes.fill(tag);
  return a;
}

Transaction Pay(const Address& from, const Address& to, Amount value,
                Amount fee, uint64_t nonce = 0) {
  Transaction tx;
  tx.kind = TxKind::kDirectTransfer;
  tx.sender = from;
  tx.recipient = to;
  tx.value = value;
  tx.fee = fee;
  tx.nonce = nonce;
  return tx;
}

struct BlockScenario {
  StateDB genesis;
  std::vector<Transaction> txs;
  ChainConfig config;
};

/// The five pinned scenarios. Every address, amount, and payload is a
/// literal, so the inputs can never drift.
BlockScenario Scenario(int k) {
  BlockScenario s;
  switch (k) {
    case 0:
      // Degenerate: empty candidate list, reward-only block.
      s.genesis.Mint(Addr(0x01), 100);
      break;
    case 1: {
      // Simple independent transfers.
      for (uint8_t i = 1; i <= 8; ++i) s.genesis.Mint(Addr(i), 1'000);
      for (uint8_t i = 1; i <= 8; ++i) {
        s.txs.push_back(Pay(Addr(i), Addr(0x40 + i), 10 * i, i));
      }
      break;
    }
    case 2: {
      // Transfers plus conditional/unconditional contract calls.
      const Address owner = Addr(0x01);
      s.genesis.Mint(owner, 10'000);
      s.genesis.Mint(Addr(0x02), 5'000);
      s.genesis.Mint(Addr(0x03), 5'000);
      Result<Address> uncond = ContractRegistry::Deploy(
          &s.genesis, owner, contracts::UnconditionalTransfer(Addr(0x70)));
      Result<Address> cond = ContractRegistry::Deploy(
          &s.genesis, owner, contracts::ConditionalTransfer(Addr(0x71), 50));
      EXPECT_TRUE(uncond.ok() && cond.ok());
      Transaction call_uncond = Pay(Addr(0x02), *uncond, 120, 4);
      call_uncond.kind = TxKind::kContractCall;
      Transaction call_cond = Pay(Addr(0x03), *cond, 80, 4);
      call_cond.kind = TxKind::kContractCall;
      s.txs.push_back(Pay(owner, Addr(0x02), 33, 2, /*nonce=*/2));
      s.txs.push_back(call_uncond);
      s.txs.push_back(call_cond);
      s.txs.push_back(Pay(Addr(0x02), Addr(0x03), 7, 1, /*nonce=*/1));
      break;
    }
    case 3: {
      // Capacity overflow plus invalid candidates skipped in place.
      s.config.max_txs_per_block = 4;
      for (uint8_t i = 1; i <= 8; ++i) s.genesis.Mint(Addr(i), 200);
      s.txs.push_back(Pay(Addr(1), Addr(0x50), 20, 2));
      s.txs.push_back(Pay(Addr(2), Addr(0x51), 9'999, 2));  // Unfundable.
      s.txs.push_back(Pay(Addr(3), Addr(0x52), 21, 2));
      s.txs.push_back(Pay(Addr(4), Addr(0x53), 22, 2, /*nonce=*/7));  // Bad.
      s.txs.push_back(Pay(Addr(5), Addr(0x54), 23, 2));
      s.txs.push_back(Pay(Addr(6), Addr(0x55), 24, 2));
      s.txs.push_back(Pay(Addr(7), Addr(0x56), 25, 2));  // Beyond the cap.
      s.txs.push_back(Pay(Addr(8), Addr(0x57), 26, 2));  // Beyond the cap.
      break;
    }
    default: {
      // In-block deploys mixed with escrow traffic.
      const Address owner = Addr(0x01);
      s.genesis.Mint(owner, 20'000);
      s.genesis.Mint(Addr(0x02), 3'000);
      s.genesis.Mint(Addr(0x03), 3'000);
      Result<Address> escrow = ContractRegistry::Deploy(
          &s.genesis, owner, contracts::Escrow(Addr(0x72)));
      EXPECT_TRUE(escrow.ok());
      Transaction deploy = Pay(Addr(0x02), Address{}, 0, 5);
      deploy.kind = TxKind::kContractDeploy;
      deploy.payload = contracts::UnconditionalTransfer(Addr(0x73)).Serialize();
      Transaction fund_escrow = Pay(Addr(0x03), *escrow, 150, 3);
      fund_escrow.kind = TxKind::kContractCall;
      fund_escrow.payload = Vm::EncodeArgs({0});
      s.txs.push_back(Pay(owner, Addr(0x02), 40, 2, /*nonce=*/1));
      s.txs.push_back(deploy);
      s.txs.push_back(fund_escrow);
      s.txs.push_back(Pay(Addr(0x02), Addr(0x03), 11, 1, /*nonce=*/1));
      break;
    }
  }
  return s;
}

std::string VectorPath(int k) {
  return std::string(SHARDCHAIN_TEST_VECTOR_DIR) + "/block" +
         std::to_string(k) + ".hex";
}

void CheckScenario(int k) {
  const BlockScenario s = Scenario(k);
  const Address miner = Addr(0x99);

  Ledger ledger(1, s.genesis, s.config);
  const Block built = ledger.BuildBlock(miner, s.txs, /*timestamp=*/7);

  const std::string block_hex = HexEncode(codec::EncodeBlock(built));
  const std::string root_hex = HexEncode(built.header.state_root.bytes.data(),
                                         built.header.state_root.bytes.size());

  const std::string path = VectorPath(k);
  if (std::getenv("SHARDCHAIN_REGEN_VECTORS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << block_hex << "\n" << root_hex << "\n";
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden vector " << path
                         << " (regenerate with SHARDCHAIN_REGEN_VECTORS=1)";
  std::string expected_block;
  std::string expected_root;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, expected_block)));
  ASSERT_TRUE(static_cast<bool>(std::getline(in, expected_root)));
  EXPECT_EQ(block_hex, expected_block)
      << "block bytes changed for scenario " << k
      << " — a consensus-visible encoding moved";
  EXPECT_EQ(root_hex, expected_root)
      << "state root changed for scenario " << k;
}

TEST(BlockVectors, Scenario0EmptyBlock) { CheckScenario(0); }
TEST(BlockVectors, Scenario1IndependentTransfers) { CheckScenario(1); }
TEST(BlockVectors, Scenario2ContractCalls) { CheckScenario(2); }
TEST(BlockVectors, Scenario3OverflowAndInvalid) { CheckScenario(3); }
TEST(BlockVectors, Scenario4DeploysAndEscrow) { CheckScenario(4); }

}  // namespace
}  // namespace shardchain
