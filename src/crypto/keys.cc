#include "crypto/keys.h"

#include "parallel/parallel.h"

namespace shardchain {

namespace {

/// Each Verify hashes 8 KiB of preimages; a few per chunk amortizes
/// dispatch (same grain reasoning as kVrfGrain in vrf.cc).
constexpr size_t kVerifyGrain = 4;

}  // namespace

Hash256 PublicKey::Fingerprint() const {
  Sha256 h;
  for (const auto& pair : hashes) {
    h.Update(pair[0].bytes.data(), pair[0].bytes.size());
    h.Update(pair[1].bytes.data(), pair[1].bytes.size());
  }
  return h.Finalize();
}

KeyPair KeyPair::Generate(Rng* rng) {
  auto secret = std::make_unique<Secret>();
  auto pk = std::make_unique<PublicKey>();
  for (int i = 0; i < 256; ++i) {
    for (int b = 0; b < 2; ++b) {
      Hash256& pre = secret->preimages[i][b];
      for (int w = 0; w < 4; ++w) {
        const uint64_t r = rng->Next();
        for (int j = 0; j < 8; ++j) {
          pre.bytes[w * 8 + j] = static_cast<uint8_t>(r >> (56 - 8 * j));
        }
      }
      pk->hashes[i][b] = Sha256Digest(pre.bytes.data(), pre.bytes.size());
    }
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
    sig.preimages[i] = secret_->preimages[i][DigestBit(message_digest, i)];
  }
  return sig;
}

bool Verify(const PublicKey& pk, const Hash256& message_digest,
            const Signature& sig) {
  for (int i = 0; i < 256; ++i) {
    const int b = DigestBit(message_digest, i);
    const Hash256 expected = Sha256Digest(sig.preimages[i].bytes.data(),
                                          sig.preimages[i].bytes.size());
    if (expected != pk.hashes[i][b]) return false;
  }
  return true;
}

std::vector<uint8_t> VerifyBatch(const std::vector<const PublicKey*>& pks,
                                 const std::vector<const Hash256*>& digests,
                                 const std::vector<const Signature*>& sigs,
                                 ThreadPool* pool) {
  std::vector<uint8_t> ok(pks.size(), 0);
  if (digests.size() != pks.size() || sigs.size() != pks.size()) return ok;
  ParallelFor(pool, pks.size(), kVerifyGrain,
              [&ok, &pks, &digests, &sigs](size_t i) {
                ok[i] = Verify(*pks[i], *digests[i], *sigs[i]) ? 1 : 0;
              });
  return ok;
}

}  // namespace shardchain
