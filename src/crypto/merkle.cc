#include "crypto/merkle.h"

#include <cassert>

namespace shardchain {

namespace {

/// One reduction step: next[i] = H(prev[2i] ‖ prev[2i+1]) with the odd
/// tail paired with itself.
std::vector<Hash256> ReduceLevel(const std::vector<Hash256>& prev) {
  std::vector<Hash256> next((prev.size() + 1) / 2);
  for (size_t i = 0; i < next.size(); ++i) {
    const Hash256& left = prev[2 * i];
    const Hash256& right = (2 * i + 1 < prev.size()) ? prev[2 * i + 1] : left;
    next[i] = HashPair(left, right);
  }
  return next;
}

}  // namespace

MerkleTree::MerkleTree(std::vector<Hash256> leaves) {
  if (leaves.empty()) {
    root_ = Hash256::Zero();
    return;
  }
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    levels_.push_back(ReduceLevel(levels_.back()));
  }
  root_ = levels_.back()[0];
}

MerkleProof MerkleTree::Prove(size_t index) const {
  assert(!levels_.empty() && index < levels_[0].size());
  MerkleProof proof;
  size_t pos = index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    const std::vector<Hash256>& nodes = levels_[level];
    const size_t sibling_pos = (pos % 2 == 0) ? pos + 1 : pos - 1;
    MerkleStep step;
    // Odd tail: the node is paired with itself.
    step.sibling =
        sibling_pos < nodes.size() ? nodes[sibling_pos] : nodes[pos];
    step.sibling_on_left = (pos % 2 == 1);
    proof.push_back(step);
    pos /= 2;
  }
  return proof;
}

Hash256 MerkleRoot(const std::vector<Hash256>& leaves) {
  if (leaves.empty()) return Hash256::Zero();
  std::vector<Hash256> level = leaves;
  while (level.size() > 1) level = ReduceLevel(level);
  return level[0];
}

bool MerkleVerify(const Hash256& leaf, const MerkleProof& proof,
                  const Hash256& root) {
  Hash256 acc = leaf;
  for (const MerkleStep& step : proof) {
    acc = step.sibling_on_left ? HashPair(step.sibling, acc)
                               : HashPair(acc, step.sibling);
  }
  return acc == root;
}

}  // namespace shardchain
