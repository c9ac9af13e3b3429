#ifndef SHARDCHAIN_CRYPTO_VRF_H_
#define SHARDCHAIN_CRYPTO_VRF_H_

#include <cstdint>
#include <vector>

#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "parallel/thread_pool.h"

namespace shardchain {

/// \brief Verifiable random function output: a pseudo-random value plus
/// a proof binding it to (public key, seed).
///
/// SUBSTITUTION NOTE (DESIGN.md §2): the paper cites Micali et al.'s
/// VRF for leader election (as in Omniledger). We build the VRF from
/// the Lamport signature scheme in keys.h: the proof is a signature
/// over H("vrf" ‖ seed) and the output is the hash of that signature.
/// This yields the two properties the protocol uses — uniqueness (one
/// valid output per key/seed) and public verifiability — from SHA-256
/// alone.
struct VrfOutput {
  Hash256 value;   ///< Pseudo-random output, uniform over 256 bits.
  Signature proof; ///< Lamport signature over the seed digest.
};

/// Evaluates the VRF for `seed` under `key`.
VrfOutput VrfEvaluate(const KeyPair& key, const Hash256& seed);

/// Verifies that `out` is the unique VRF output of `pk` on `seed`.
bool VrfVerify(const PublicKey& pk, const Hash256& seed,
               const VrfOutput& out);

/// Batch evaluation: out[i] = VrfEvaluate(*keys[i], seed). Each
/// evaluation is a pure function of (key, seed), so the batch fans out
/// over `pool` with every slot written exactly once — results are
/// positionally identical to the serial loop at any thread count.
std::vector<VrfOutput> VrfEvaluateBatch(const std::vector<const KeyPair*>& keys,
                                        const Hash256& seed, ThreadPool* pool);

/// Maps a VRF value to a lottery ticket in [0, 1). Leader election picks
/// the miner with the smallest ticket (Sec. III-B / Omniledger style).
double VrfTicket(const Hash256& value);

/// Convenience: the digest that VRF proofs sign for a given seed.
Hash256 VrfSeedDigest(const Hash256& seed);

}  // namespace shardchain

#endif  // SHARDCHAIN_CRYPTO_VRF_H_
