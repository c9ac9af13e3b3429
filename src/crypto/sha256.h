#ifndef SHARDCHAIN_CRYPTO_SHA256_H_
#define SHARDCHAIN_CRYPTO_SHA256_H_

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/hex.h"

namespace shardchain {

/// \brief A 256-bit hash digest (value type, ordered, hashable).
struct Hash256 {
  std::array<uint8_t, 32> bytes{};

  /// The all-zero digest; used as the genesis parent hash.
  static Hash256 Zero() { return Hash256{}; }

  bool IsZero() const {
    for (uint8_t b : bytes) {
      if (b != 0) return false;
    }
    return true;
  }

  /// Lowercase hex, no prefix.
  std::string ToHex() const { return HexEncode(bytes.data(), bytes.size()); }

  /// First 8 bytes as a big-endian integer; handy as a well-mixed
  /// 64-bit fingerprint (e.g. PoW target comparison, randomness seeds).
  uint64_t Prefix64() const {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | bytes[i];
    return v;
  }

  friend auto operator<=>(const Hash256&, const Hash256&) = default;
};

/// \brief Incremental SHA-256 (FIPS 180-4), implemented from scratch.
///
/// Usage: `Sha256 h; h.Update(a); h.Update(b); Hash256 d = h.Finalize();`
/// or the one-shot helpers below. Tested against the NIST vectors in
/// tests/crypto_test.cc. When CPUID reports the x86-64 SHA extensions,
/// blocks compress on them, and `Finalize`, `Sha256Digest` and `HashPair`
/// pad the last block in registers; otherwise portable C++ runs. When it
/// reports AVX-512, `Sha256Digest32Many` hashes sixteen messages per
/// pass. Every body gives the same digests, and no setting chooses
/// between them (DESIGN.md §15).
class Sha256 {
 public:
  Sha256();

  /// Absorbs `len` bytes. May be called repeatedly.
  void Update(const uint8_t* data, size_t len);
  void Update(std::string_view data);
  void Update(const Bytes& data);

  /// Pads, finishes, and returns the digest. The hasher must not be
  /// updated afterwards (reset by constructing a new one).
  Hash256 Finalize();

 private:
  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[64];
  size_t buffer_len_ = 0;
};

/// One-shot SHA-256 of a byte span.
Hash256 Sha256Digest(const uint8_t* data, size_t len);
Hash256 Sha256Digest(std::string_view data);
Hash256 Sha256Digest(const Bytes& data);

/// SHA-256 of the concatenation of two digests; the node combiner for
/// Merkle trees.
Hash256 HashPair(const Hash256& a, const Hash256& b);

/// Batch SHA-256 of `n` 32-byte messages: out[i] = Sha256Digest(in[i])
/// for every i < n, the shape of Lamport keygen and verify. On a CPU with
/// AVX-512 each whole group of 16 is hashed in one pass (DESIGN.md §15).
/// `in` and `out` must not overlap.
void Sha256Digest32Many(const Hash256* in, size_t n, Hash256* out);

}  // namespace shardchain

/// std::hash support so Hash256 can key unordered containers.
template <>
struct std::hash<shardchain::Hash256> {
  size_t operator()(const shardchain::Hash256& h) const noexcept {
    return static_cast<size_t>(h.Prefix64());
  }
};

#endif  // SHARDCHAIN_CRYPTO_SHA256_H_
