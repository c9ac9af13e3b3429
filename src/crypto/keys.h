#ifndef SHARDCHAIN_CRYPTO_KEYS_H_
#define SHARDCHAIN_CRYPTO_KEYS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "parallel/thread_pool.h"

namespace shardchain {

/// \brief Lamport one-time signature public key.
///
/// SUBSTITUTION NOTE (see DESIGN.md §2): the paper's go-Ethereum
/// prototype uses secp256k1 ECDSA. The sharding protocol only needs
/// (a) stable identities derived from keys and (b) signatures anyone
/// can verify. Lamport signatures give exactly that from SHA-256 alone:
/// the secret key is 2x256 random preimages, the public key their
/// hashes, and a signature reveals one preimage per digest bit.
/// Verification is fully public; forgery requires inverting SHA-256.
/// (One-time use suffices: simulated actors sign logically independent
/// statements and the security experiments model adversaries at the
/// protocol level, not the signature level.)
struct PublicKey {
  /// hash[i][b] commits to the preimage revealed when digest bit i == b.
  std::array<std::array<Hash256, 2>, 256> hashes;

  /// Compact identity: SHA-256 over the full commitment array. This is
  /// what addresses and VRF identities are derived from.
  Hash256 Fingerprint() const;

  std::string ToHex() const { return Fingerprint().ToHex(); }

  friend bool operator==(const PublicKey& a, const PublicKey& b) {
    return a.hashes == b.hashes;
  }
};

/// \brief A Lamport signature: one revealed preimage per digest bit.
struct Signature {
  std::array<Hash256, 256> preimages;

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.preimages == b.preimages;
  }
};

/// \brief A secret/public key pair.
///
/// Heap-backed (the raw material is 32 KiB); move-only to make the
/// ownership of secret material explicit.
class KeyPair {
 public:
  /// Derives a key pair from an RNG stream.
  static KeyPair Generate(Rng* rng);

  /// Derives a key pair from an explicit 64-bit seed (reproducible test
  /// fixtures).
  static KeyPair FromSeed(uint64_t seed);

  KeyPair(KeyPair&&) = default;
  KeyPair& operator=(KeyPair&&) = default;
  KeyPair(const KeyPair&) = delete;
  KeyPair& operator=(const KeyPair&) = delete;

  const PublicKey& public_key() const { return *public_; }

  /// Signs a 256-bit message digest.
  Signature Sign(const Hash256& message_digest) const;

 private:
  struct Secret {
    /// preimages[2 * i + b] hashes to the public key's hashes[i][b].
    std::array<Hash256, 512> preimages;
  };

  KeyPair(std::unique_ptr<Secret> secret, std::unique_ptr<PublicKey> pk)
      : secret_(std::move(secret)), public_(std::move(pk)) {}

  std::unique_ptr<Secret> secret_;
  std::unique_ptr<PublicKey> public_;
};

/// Verifies `sig` over `message_digest` against `pk`: for every digest
/// bit i with value b, SHA-256(sig.preimages[i]) must equal
/// pk.hashes[i][b].
bool Verify(const PublicKey& pk, const Hash256& message_digest,
            const Signature& sig);

/// Batch verification for mempool admission: ok[i] = Verify(*pks[i],
/// *digests[i], *sigs[i]). Independent per element — one forged
/// signature flips only its own slot. Deterministic for any pool per
/// §9 (index i writes only slot i). When `digests` or `sigs` differs in
/// length from `pks`, every slot of the `pks.size()` result is 0.
std::vector<uint8_t> VerifyBatch(const std::vector<const PublicKey*>& pks,
                                 const std::vector<const Hash256*>& digests,
                                 const std::vector<const Signature*>& sigs,
                                 ThreadPool* pool);

/// Extracts bit `i` (0 = most significant bit of byte 0) of a digest.
inline int DigestBit(const Hash256& d, int i) {
  return (d.bytes[i / 8] >> (7 - (i % 8))) & 1;
}

}  // namespace shardchain

#endif  // SHARDCHAIN_CRYPTO_KEYS_H_
