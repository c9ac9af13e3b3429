#ifndef SHARDCHAIN_CRYPTO_SHA256_INTERNAL_H_
#define SHARDCHAIN_CRYPTO_SHA256_INTERNAL_H_

// The two bodies of SHA-256 behind `Sha256`, `Sha256Digest` and
// `HashPair` (DESIGN.md §15): the block compression in portable C++, and
// on x86-64 the same compression plus a one-shot digest through the SHA
// extensions. Private to src/crypto/sha256.cc and the tests that compare
// the bodies; no public header includes this file.

#include <cstddef>
#include <cstdint>

#include "crypto/sha256.h"

namespace shardchain::sha256_internal {

/// FIPS 180-4 compression of `nblocks` consecutive 64-byte blocks at
/// `data` (any alignment) into `state`, in scalar C++. The fallback on
/// CPUs without the SHA extensions, and the reference for the other body.
void CompressPortable(uint32_t state[8], const uint8_t* data, size_t nblocks);

/// True when CPUID reports the SHA extensions (leaf 7 EBX bit 29),
/// SSSE3 (leaf 1 ECX bit 9) and SSE4.1 (leaf 1 ECX bit 19). Always false
/// off x86-64.
bool CpuHasShaNi();

#if defined(__x86_64__)
/// The same compression through the x86-64 SHA extensions. Call only
/// when `CpuHasShaNi()`.
void CompressShaNi(uint32_t state[8], const uint8_t* data, size_t nblocks);

/// SHA-256 of `len` bytes at `data` through the SHA extensions, with the
/// state, the padded last block and the digest held in registers; it
/// reads no byte outside [data, data + len), and `data` may be null when
/// `len` is 0. What `Sha256Digest` runs when `CpuHasShaNi()`; call only
/// then.
Hash256 DigestShaNi(const uint8_t* data, size_t len);
#endif

}  // namespace shardchain::sha256_internal

#endif  // SHARDCHAIN_CRYPTO_SHA256_INTERNAL_H_
