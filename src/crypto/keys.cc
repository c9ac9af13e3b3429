#include "crypto/keys.h"

#include "parallel/parallel.h"

namespace shardchain {

Hash256 PublicKey::Fingerprint() const {
  // The 512 commitments in order, with no padding between them.
  static_assert(sizeof(hashes) == 512 * sizeof(Hash256));
  return Sha256Digest(reinterpret_cast<const uint8_t*>(hashes.data()),
                      sizeof(hashes));
}

KeyPair KeyPair::Generate(Rng* rng) {
  auto secret = std::make_unique<Secret>();
  for (Hash256& pre : secret->preimages) {
    for (int w = 0; w < 4; ++w) {
      const uint64_t r = rng->Next();
      for (int j = 0; j < 8; ++j) {
        pre.bytes[w * 8 + j] = static_cast<uint8_t>(r >> (56 - 8 * j));
      }
    }
  }
  std::array<Hash256, 512> digests;
  Sha256Digest32Many(secret->preimages.data(), digests.size(),
                     digests.data());
  auto pk = std::make_unique<PublicKey>();
  for (int i = 0; i < 256; ++i) {
    pk->hashes[i] = {digests[2 * i], digests[2 * i + 1]};
  }
  return KeyPair(std::move(secret), std::move(pk));
}

KeyPair KeyPair::FromSeed(uint64_t seed) {
  Rng rng(seed);
  return Generate(&rng);
}

Signature KeyPair::Sign(const Hash256& message_digest) const {
  Signature sig;
  for (int i = 0; i < 256; ++i) {
    sig.preimages[i] =
        secret_->preimages[2 * i + DigestBit(message_digest, i)];
  }
  return sig;
}

bool Verify(const PublicKey& pk, const Hash256& message_digest,
            const Signature& sig) {
  std::array<Hash256, 256> digests;
  Sha256Digest32Many(sig.preimages.data(), digests.size(), digests.data());
  for (int i = 0; i < 256; ++i) {
    if (digests[i] != pk.hashes[i][DigestBit(message_digest, i)]) {
      return false;
    }
  }
  return true;
}

std::vector<uint8_t> VerifyBatch(const std::vector<const PublicKey*>& pks,
                                 const std::vector<const Hash256*>& digests,
                                 const std::vector<const Signature*>& sigs,
                                 ThreadPool* pool) {
  std::vector<uint8_t> ok(pks.size(), 0);
  if (digests.size() != pks.size() || sigs.size() != pks.size()) return ok;
  ParallelFor(pool, pks.size(), [&ok, &pks, &digests, &sigs](size_t i) {
    ok[i] = Verify(*pks[i], *digests[i], *sigs[i]) ? 1 : 0;
  });
  return ok;
}

}  // namespace shardchain
