#ifndef SHARDCHAIN_TESTS_REFERENCE_TRIE_H_
#define SHARDCHAIN_TESTS_REFERENCE_TRIE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/hex.h"
#include "crypto/sha256.h"
#include "state/trie.h"

namespace shardchain {

/// \brief Test-only reference: a generic persistent Merkle Patricia trie
/// from byte-string keys to byte-string values, on the node encoding of
/// state/trie.h.
///
/// StateDB is the production trie; it is specialized to fixed-length
/// address keys and account leaves. This one is written independently
/// of it, with variable-length keys, branch values and functional
/// (path-copying) updates, so the differential tests can check
/// StateDB's roots and proofs against a second implementation of the
/// same commitment (tests/state_differential_test.cc, trie_test.cc).
///
/// Nodes are held by `std::shared_ptr` and never written once shared:
/// `Put`/`Delete` copy the O(depth) spine and share every untouched
/// subtree, so copying a trie is O(1). The copy constructor hashes the
/// source before sharing.
class ReferenceTrie {
 public:
  using ProofNode = mpt::ProofNode;
  using Proof = mpt::Proof;

  ReferenceTrie() = default;
  ReferenceTrie(const ReferenceTrie& other);
  ReferenceTrie& operator=(const ReferenceTrie& other);
  ReferenceTrie(ReferenceTrie&&) = default;
  ReferenceTrie& operator=(ReferenceTrie&&) = default;

  /// Inserts or overwrites `key` with `value`.
  void Put(const Bytes& key, Bytes value);

  /// The stored value, or nullopt.
  std::optional<Bytes> Get(const Bytes& key) const;

  /// Removes `key`; returns true if it was present.
  bool Delete(const Bytes& key);

  bool Contains(const Bytes& key) const { return Get(key).has_value(); }

  size_t Size() const { return size_; }
  bool Empty() const { return size_ == 0; }

  /// Root commitment; hashes are cached per node.
  Hash256 RootHash() const;

  /// All (key, value) pairs in lexicographic key order.
  std::vector<std::pair<Bytes, Bytes>> Entries() const;

  /// Builds a proof for `key` (present or absent); check it with
  /// mpt::VerifyProof.
  Proof Prove(const Bytes& key) const;

 private:
  struct Node;
  using NodePtr = std::shared_ptr<Node>;

  struct Node {
    enum class Kind : uint8_t { kLeaf, kExtension, kBranch };
    Kind kind = Kind::kLeaf;

    // kLeaf: path = remaining nibbles, value set.
    // kExtension: path = shared nibbles, children[0] used as the child.
    // kBranch: children[0..15], optional value.
    std::vector<uint8_t> path;
    Bytes value;
    bool has_value = false;
    std::array<NodePtr, 16> children;

    mutable Hash256 cached_hash;
    mutable bool hash_valid = false;
  };

  /// Fresh node copying `src`'s fields but sharing its children. The
  /// copy starts hash-invalid.
  static NodePtr ShallowCopy(const Node& src);

  static Bytes Serialize(const Node& node);
  static Hash256 HashOf(const Node& node);
  static NodePtr Insert(const NodePtr& node,
                        const std::vector<uint8_t>& nibbles, size_t depth,
                        Bytes value, bool* added);
  static const Node* Find(const Node* node,
                          const std::vector<uint8_t>& nibbles, size_t depth);
  static NodePtr Remove(const NodePtr& node,
                        const std::vector<uint8_t>& nibbles, size_t depth,
                        bool* removed);
  /// Collapses single-child branches / chained extensions after delete.
  /// `node` must be freshly created (unshared); children may be shared.
  static NodePtr Normalize(NodePtr node);
  static void CollectEntries(const Node* node, std::vector<uint8_t>* prefix,
                             std::vector<std::pair<Bytes, Bytes>>* out);

  NodePtr root_;
  size_t size_ = 0;
};

}  // namespace shardchain

#endif  // SHARDCHAIN_TESTS_REFERENCE_TRIE_H_
