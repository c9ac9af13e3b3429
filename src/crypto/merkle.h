#ifndef SHARDCHAIN_CRYPTO_MERKLE_H_
#define SHARDCHAIN_CRYPTO_MERKLE_H_

#include <cstdint>
#include <vector>

#include "crypto/sha256.h"

namespace shardchain {

/// \brief One step of a Merkle inclusion proof.
struct MerkleStep {
  Hash256 sibling;
  bool sibling_on_left = false;  ///< True if the sibling hashes first.
};

/// \brief A Merkle inclusion proof: the path from a leaf to the root.
using MerkleProof = std::vector<MerkleStep>;

/// \brief Binary Merkle tree over a list of leaf digests.
///
/// Used for block transaction roots and state commitments. Odd nodes at
/// a level are paired with themselves (the Bitcoin convention). An empty
/// tree has root Hash256::Zero().
class MerkleTree {
 public:
  /// Builds the full tree; O(n) space, O(n) time.
  explicit MerkleTree(std::vector<Hash256> leaves);

  const Hash256& root() const { return root_; }
  size_t leaf_count() const { return levels_.empty() ? 0 : levels_[0].size(); }

  /// Returns the inclusion proof for leaf `index` (must be < leaf_count).
  MerkleProof Prove(size_t index) const;

 private:
  std::vector<std::vector<Hash256>> levels_;  // levels_[0] == leaves.
  Hash256 root_;
};

/// Computes just the root of `leaves` without materializing the tree.
Hash256 MerkleRoot(const std::vector<Hash256>& leaves);

/// Verifies that `leaf` at the position encoded by `proof` hashes up to
/// `root`.
bool MerkleVerify(const Hash256& leaf, const MerkleProof& proof,
                  const Hash256& root);

}  // namespace shardchain

#endif  // SHARDCHAIN_CRYPTO_MERKLE_H_
