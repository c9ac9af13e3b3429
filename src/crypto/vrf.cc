#include "crypto/vrf.h"

#include "parallel/parallel.h"

namespace shardchain {

namespace {

/// The VRF value: SHA-256 over the proof's 256 revealed preimages in
/// order, with no padding between them.
Hash256 ProofValue(const Signature& proof) {
  static_assert(sizeof(proof.preimages) == 256 * sizeof(Hash256));
  return Sha256Digest(reinterpret_cast<const uint8_t*>(proof.preimages.data()),
                      sizeof(proof.preimages));
}

}  // namespace

Hash256 VrfSeedDigest(const Hash256& seed) {
  Sha256 h;
  h.Update("shardchain.vrf.v1");
  h.Update(seed.bytes.data(), seed.bytes.size());
  return h.Finalize();
}

VrfOutput VrfEvaluate(const KeyPair& key, const Hash256& seed) {
  VrfOutput out;
  out.proof = key.Sign(VrfSeedDigest(seed));
  out.value = ProofValue(out.proof);
  return out;
}

bool VrfVerify(const PublicKey& pk, const Hash256& seed,
               const VrfOutput& out) {
  return Verify(pk, VrfSeedDigest(seed), out.proof) &&
         ProofValue(out.proof) == out.value;
}

std::vector<VrfOutput> VrfEvaluateBatch(const std::vector<const KeyPair*>& keys,
                                        const Hash256& seed,
                                        ThreadPool* pool) {
  std::vector<VrfOutput> out(keys.size());
  ParallelFor(pool, keys.size(), [&out, &keys, &seed](size_t i) {
    out[i] = VrfEvaluate(*keys[i], seed);
  });
  return out;
}

double VrfTicket(const Hash256& value) {
  // Top 53 bits -> [0, 1), matching Rng::UniformDouble's precision.
  return static_cast<double>(value.Prefix64() >> 11) * 0x1.0p-53;
}

}  // namespace shardchain
