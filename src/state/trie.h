#ifndef SHARDCHAIN_STATE_TRIE_H_
#define SHARDCHAIN_STATE_TRIE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/hex.h"
#include "common/result.h"
#include "crypto/sha256.h"

namespace shardchain {

/// \brief Node encoding and proof verification of the Merkle Patricia
/// trie that commits the account state (DESIGN.md §10).
///
/// The trie is radix-16 over key nibbles, high nibble first. Each node
/// hashes to SHA-256 of its encoding, whose first byte is its kind:
///   - leaf (0): remaining key nibbles + value;
///   - extension (1): shared nibble run + the child's hash;
///   - branch (2): 16 child hashes (zero = empty slot) + a value flag
///     and length-prefixed value stored at this exact key.
/// The empty trie hashes to Hash256::Zero(). StateDB is the one trie
/// built on this encoding (20-byte address keys, 32-byte account digest
/// values); tests/vectors/state*.hex pin its bytes, and a proof built
/// by StateDB::ProveAccount verifies here without access to the state.
/// VerifyProof reads the whole encoding, branch values included, so it
/// also checks proofs of tries with keys of different lengths.
namespace mpt {

/// One node of a proof: the encoding of a node on the path from the
/// root towards the key.
struct ProofNode {
  Bytes encoded;
};
using Proof = std::vector<ProofNode>;

/// The node encodings. Named Serialize*, not Encode*: these are trie
/// nodes, not records with a codec.
Bytes SerializeLeaf(std::span<const uint8_t> path,
                    std::span<const uint8_t> value);
Bytes SerializeExtension(std::span<const uint8_t> path, const Hash256& child);
/// Encodes an empty value (flag 0, length 0): keys of one length, as in
/// the account trie, never store a value in a branch.
Bytes SerializeBranch(const std::array<Hash256, 16>& children);

/// Verifies a proof against a root hash. Returns the proven value
/// (nullopt = proven absent), or an error if the proof is invalid or
/// does not match the root.
Result<std::optional<Bytes>> VerifyProof(const Hash256& root, const Bytes& key,
                                         const Proof& proof);

}  // namespace mpt
}  // namespace shardchain

#endif  // SHARDCHAIN_STATE_TRIE_H_
