#include "chain/ledger.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>

namespace shardchain {

namespace {

/// PoW validity: the header hash, read as a 64-bit big-endian prefix,
/// must be below UINT64_MAX / difficulty.
bool PowValid(const BlockHeader& header) {
  if (header.difficulty <= 1) return true;
  const uint64_t target = ~uint64_t{0} / header.difficulty;
  return header.Hash().Prefix64() <= target;
}

/// A contract call or deploy: the fee to `miner`, then the action.
Status PayFeeAndAct(const Transaction& tx, const Address& miner,
                    StateDB* state) {
  SHARDCHAIN_RETURN_IF_ERROR(state->Transfer(tx.sender, miner, tx.fee));
  if (tx.kind == TxKind::kContractCall) {
    return ContractRegistry::Call(state, tx).status();
  }
  Result<ContractProgram> program = ContractProgram::Deserialize(tx.payload);
  if (!program.ok()) return program.status();
  const Address addr =
      Address::ForContract(tx.sender, state->NonceOf(tx.sender));
  return state->DeployContract(addr, program->Serialize());
}

}  // namespace

Ledger::Ledger(ShardId shard_id, StateDB genesis_state, ChainConfig config)
    : shard_id_(shard_id), config_(config) {
  Node genesis;
  genesis.block.header.shard_id = shard_id;
  genesis.block.header.state_root = genesis_state.StateRoot();
  genesis.post_state = std::move(genesis_state);
  genesis.height = 0;
  genesis_hash_ = genesis.block.header.Hash();
  tip_hash_ = genesis_hash_;
  nodes_.emplace(genesis_hash_, std::move(genesis));
}

uint64_t Ledger::tip_number() const { return nodes_.at(tip_hash_).height; }

const StateDB& Ledger::tip_state() const {
  return nodes_.at(tip_hash_).post_state;
}

Status Ledger::ExecuteTransaction(const Transaction& tx, const Address& miner,
                                  StateDB* state) {
  assert(state != nullptr);
  if (tx.nonce != state->NonceOf(tx.sender)) {
    return Status::FailedPrecondition("nonce mismatch for sender " +
                                      tx.sender.ToHex());
  }
  // fee + value, compared without wrapping.
  const Amount balance = state->BalanceOf(tx.sender);
  if (tx.fee > balance || tx.value > balance - tx.fee) {
    return Status::FailedPrecondition("sender cannot cover fee + value");
  }
  if (tx.kind == TxKind::kDirectTransfer) {
    // The check above covers both transfers, so neither can fail.
    if (!state->Transfer(tx.sender, miner, tx.fee).ok() ||
        !state->Transfer(tx.sender, tx.recipient, tx.value).ok()) {
      return Status::Internal("checked direct transfer failed");
    }
  } else {
    // A call or deploy can fail after its fee is paid: one bracket
    // takes the fee back with the action.
    const size_t bracket = state->Snapshot();
    const Status acted = PayFeeAndAct(tx, miner, state);
    SHARDCHAIN_RETURN_IF_ERROR(acted.ok() ? state->Commit(bracket)
                                          : state->RevertTo(bracket));
    SHARDCHAIN_RETURN_IF_ERROR(acted);
  }
  state->GetOrCreate(tx.sender).nonce += 1;
  return Status::OK();
}

std::vector<Transaction> Ledger::ExecuteCandidates(
    std::vector<Transaction> candidates, const Address& miner,
    const ChainConfig& config, StateDB* state) {
  // No bracket per candidate: a failure leaves the state as it found
  // it, and with no saved root pinning them, the nodes a candidate
  // clones stay private, so later candidates write them in place and
  // each path is cloned once per block.
  std::vector<Transaction> included;
  for (Transaction& tx : candidates) {
    if (included.size() >= config.max_txs_per_block) break;
    if (ExecuteTransaction(tx, miner, state).ok()) {
      included.push_back(std::move(tx));
    }
  }
  return included;
}

Result<const Ledger::Node*> Ledger::Admit(const Hash256& hash,
                                          const Block& block,
                                          bool check_tx_root) const {
  if (nodes_.count(hash) > 0) {
    return Status::AlreadyExists("block already recorded");
  }
  auto parent_it = nodes_.find(block.header.parent_hash);
  if (parent_it == nodes_.end()) {
    return Status::NotFound("unknown parent block");
  }
  const Node& parent = parent_it->second;
  const BlockHeader& h = block.header;
  if (h.shard_id != shard_id_) {
    return Status::Unauthorized("block carries foreign ShardID " +
                                std::to_string(h.shard_id));
  }
  if (h.number != parent.height + 1) {
    return Status::InvalidArgument("block number does not extend parent");
  }
  // Count before hashing: an overfull block is rejected without
  // encoding and hashing its whole body.
  if (block.transactions.size() > config_.max_txs_per_block) {
    return Status::InvalidArgument("block exceeds transaction limit");
  }
  if (check_tx_root && h.tx_root != block.ComputeTxRoot()) {
    return Status::Corruption("tx root does not match block body");
  }
  if (config_.check_pow && !PowValid(h)) {
    return Status::Unauthorized("proof-of-work below difficulty");
  }
  return &parent;
}

Hash256 Ledger::Record(const Hash256& hash, Node node) {
  const uint64_t height = node.height;
  nodes_.emplace(hash, std::move(node));
  // Longest-chain rule; strictly longer chains win so the earlier tip
  // is kept on ties (every miner breaks ties identically by arrival).
  if (height > nodes_.at(tip_hash_).height) tip_hash_ = hash;
  return hash;
}

Result<Hash256> Ledger::Append(const Block& block) {
  const Hash256 hash = block.header.Hash();
  // The block BuildBlock just returned: the header hash binds parent,
  // tx root and state root, and the tx root was computed from this very
  // body, so the body is not hashed again.
  const bool built = last_built_.has_value() && last_built_->hash == hash &&
                     last_built_->block.transactions == block.transactions;
  const Node* parent = nullptr;
  SHARDCHAIN_ASSIGN_OR_RETURN(parent,
                              Admit(hash, block, /*check_tx_root=*/!built));
  Node node;
  node.height = parent->height + 1;
  if (built) {
    // Record the retained copy and its post-state instead of
    // re-executing the block and re-deriving the root.
    node.block = std::move(last_built_->block);
    node.post_state = std::move(last_built_->post_state);
    last_built_.reset();
  } else {
    node.post_state = parent->post_state;
    for (const Transaction& tx : block.transactions) {
      SHARDCHAIN_RETURN_IF_ERROR(
          ExecuteTransaction(tx, block.header.miner, &node.post_state));
    }
    node.post_state.Mint(block.header.miner, config_.block_reward);
    if (block.header.state_root != node.post_state.StateRoot()) {
      return Status::Corruption("state root mismatch after execution");
    }
    node.block = block;
  }
  return Record(hash, std::move(node));
}

Result<Hash256> Ledger::AppendExecuted(const Block& block,
                                       StateDB post_state) {
  const Hash256 hash = block.header.Hash();
  const Node* parent = nullptr;
  SHARDCHAIN_ASSIGN_OR_RETURN(parent,
                              Admit(hash, block, /*check_tx_root=*/true));
  Node node;
  node.block = block;
  node.post_state = std::move(post_state);
  node.height = parent->height + 1;
  return Record(hash, std::move(node));
}

// flowlint: deterministic-root — consensus entry point (DESIGN.md §7)
Block Ledger::BuildBlock(const Address& miner, std::vector<Transaction> txs,
                         uint64_t timestamp) const {
  const Node& tip = nodes_.at(tip_hash_);
  Block block;
  block.header.parent_hash = tip_hash_;
  block.header.number = tip.height + 1;
  block.header.shard_id = shard_id_;
  block.header.miner = miner;
  block.header.timestamp = timestamp;

  StateDB scratch = tip.post_state;
  block.transactions =
      ExecuteCandidates(std::move(txs), miner, config_, &scratch);
  scratch.Mint(miner, config_.block_reward);

  block.header.tx_root = block.ComputeTxRoot();
  block.header.state_root = scratch.StateRoot();
  // Retain the block and its executed post-state so an immediate Append
  // of this very block (the common mine-then-record path) records them
  // as they are.
  last_built_.emplace(Built{block.header.Hash(), block, std::move(scratch)});
  return block;
}

bool Ledger::Contains(const Hash256& block_hash) const {
  return nodes_.count(block_hash) > 0;
}

const Block* Ledger::Find(const Hash256& block_hash) const {
  auto it = nodes_.find(block_hash);
  return it == nodes_.end() ? nullptr : &it->second.block;
}

size_t Ledger::CanonicalLength() const {
  return nodes_.at(tip_hash_).height + 1;
}

std::vector<Hash256> Ledger::CanonicalChain() const {
  std::vector<Hash256> chain;
  Hash256 cursor = tip_hash_;
  for (;;) {
    chain.push_back(cursor);
    const Node& node = nodes_.at(cursor);
    if (node.height == 0) break;
    cursor = node.block.header.parent_hash;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

size_t Ledger::CanonicalEmptyBlocks() const {
  size_t empty = 0;
  for (const Hash256& hash : CanonicalChain()) {
    const Node& node = nodes_.at(hash);
    if (node.height > 0 && node.block.IsEmpty()) ++empty;
  }
  return empty;
}

size_t Ledger::CanonicalTxCount() const {
  size_t count = 0;
  for (const Hash256& hash : CanonicalChain()) {
    count += nodes_.at(hash).block.transactions.size();
  }
  return count;
}

std::vector<Address> Ledger::TouchedAddresses() const {
  std::set<Address> touched;
  for (const Hash256& hash : CanonicalChain()) {
    const Node& node = nodes_.at(hash);
    if (node.height > 0) touched.insert(node.block.header.miner);
    for (const Transaction& tx : node.block.transactions) {
      touched.insert(tx.sender);
      touched.insert(tx.recipient);
      for (const Address& input : tx.input_accounts) touched.insert(input);
    }
  }
  return std::vector<Address>(touched.begin(), touched.end());
}

Status Ledger::ImportAccount(const Address& addr, const Account& account) {
  Node& tip = nodes_.at(tip_hash_);
  tip.post_state.ApplyAccount(addr, account);
  // The tip post-state changed under any cached built block.
  last_built_.reset();
  return Status::OK();
}

Status Ledger::EvictAccount(const Address& addr) {
  Node& tip = nodes_.at(tip_hash_);
  if (!tip.post_state.EraseAccount(addr)) {
    return Status::NotFound("account not present at tip");
  }
  last_built_.reset();
  return Status::OK();
}

}  // namespace shardchain
