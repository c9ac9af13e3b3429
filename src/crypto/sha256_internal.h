#ifndef SHARDCHAIN_CRYPTO_SHA256_INTERNAL_H_
#define SHARDCHAIN_CRYPTO_SHA256_INTERNAL_H_

// The three bodies of SHA-256 behind `Sha256`, `Sha256Digest`,
// `HashPair` and `Sha256Digest32Many` (DESIGN.md §15): the block
// compression in portable C++; on x86-64 the same compression plus a
// one-shot digest through the SHA extensions; and sixteen 32-byte
// digests at once in the lanes of AVX-512 registers. Private to
// src/crypto/sha256.cc and the tests that compare the bodies; no public
// header includes this file.

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

/// True when CPUID reports AVX512F and AVX512BW (leaf 7 EBX bits 16 and
/// 30) and OSXSAVE (leaf 1 ECX bit 27), and XGETBV shows the OS saving
/// the SSE, AVX, opmask and ZMM state (XCR0 bits 1, 2, 5, 6 and 7).
/// Always false off x86-64.
bool CpuHasAvx512();

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

/// out[i] = SHA-256 of the 32 bytes in[i], for i in [0, 16), each
/// message in one 32-bit lane of sixteen-lane AVX-512 vectors. Reads
/// in[0..15] and writes out[0..15], nothing else; the two must not
/// overlap. What `Sha256Digest32Many` runs on each whole group of 16
/// when `CpuHasAvx512()`; call only then.
void Digest32x16Avx512(const Hash256* in, Hash256* out);
#endif

}  // namespace shardchain::sha256_internal

#endif  // SHARDCHAIN_CRYPTO_SHA256_INTERNAL_H_
