#include "crypto/sha256.h"

#include <cstring>
#include <utility>

#include "crypto/sha256_internal.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace shardchain {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// The initial hash value (FIPS 180-4 §5.3.3), a first.
constexpr uint32_t kInitialState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                       0xa54ff53a, 0x510e527f, 0x9b05688c,
                                       0x1f83d9ab, 0x5be0cd19};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void ProcessBlock(uint32_t state[8], const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const uint32_t s0 =
        Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const uint32_t s1 =
        Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const uint32_t ch = (e & f) ^ (~e & g);
    const uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)

/// Whether CPUID reported the SHA extensions, read once. Every entry point
/// branches on it, and both sides of each branch compute the same digests
/// (DESIGN.md §15).
bool UseShaNi() {
  static const bool kShaNi = sha256_internal::CpuHasShaNi();
  return kShaNi;
}

/// XCR0, the register state the OS saves on a context switch.
__attribute__((target("xsave"))) uint64_t ReadXcr0() { return _xgetbv(0); }

/// Whether CPUID reported AVX-512, read once like `UseShaNi`; only
/// `Sha256Digest32Many` branches on it.
bool UseAvx512() {
  static const bool kAvx512 = sha256_internal::CpuHasAvx512();
  return kAvx512;
}

// The SHA-NI code below keeps a block as four vectors of big-endian
// message words. A one-shot digest loads whole blocks straight from the
// input, assembles the padded tail in registers and stores the digest
// from registers: nothing is staged in memory, which is where a short
// digest's time went (DESIGN.md §15).

#define SHA_NI_INLINE \
  __attribute__((target("sha,ssse3,sse4.1"), always_inline)) inline

/// The state in two registers as {a,b,e,f} and {c,d,g,h} (lane 3 first),
/// the layout sha256rnds2 works on.
struct ShaNiState {
  __m128i abef;
  __m128i cdgh;
};

/// Byte 16 is 0x80, the rest zero: the 16 bytes at `kPadByte + 16 - i`
/// hold 0x80 at byte i and zeros elsewhere.
constexpr uint8_t kPadByte[32] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};

SHA_NI_INLINE __m128i ByteSwapWords(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL));
}

SHA_NI_INLINE __m128i LoadWords(const uint8_t* p) {
  return ByteSwapWords(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// The 64 rounds of one block on the state, plus the feed-forward of the
/// input state. Each group of four rounds adds its constants to one
/// message vector and runs two rnds2 steps; sha256msg1/msg2 extend the
/// schedule one vector ahead.
SHA_NI_INLINE void ShaNiRounds(ShaNiState& state, __m128i w0, __m128i w1,
                               __m128i w2, __m128i w3) {
  __m128i abef = state.abef;
  __m128i cdgh = state.cdgh;
  __m128i w[4] = {w0, w1, w2, w3};
  for (int g = 0; g < 16; ++g) {
    const __m128i wk = _mm_add_epi32(
        w[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                      &kRoundConstants[4 * g])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    if (g < 12) {
      // Schedule vector g+4 from vectors g..g+3: msg1 adds the σ0
      // terms, the alignr supplies W[t-7], msg2 adds the σ1 terms.
      const __m128i m1 = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
      const __m128i m2 = _mm_add_epi32(
          m1, _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
      w[g % 4] = _mm_sha256msg2_epu32(m2, w[(g + 3) % 4]);
    }
  }
  state.abef = _mm_add_epi32(state.abef, abef);
  state.cdgh = _mm_add_epi32(state.cdgh, cdgh);
}

/// The initial hash value (FIPS 180-4 §5.3.3) in the register layout.
SHA_NI_INLINE ShaNiState InitialState() {
  return {_mm_set_epi64x(0x6a09e667bb67ae85LL, 0x510e527f9b05688cLL),
          _mm_set_epi64x(0x3c6ef372a54ff53aLL, 0x1f83d9ab5be0cd19LL)};
}

SHA_NI_INLINE ShaNiState LoadState(const uint32_t state[8]) {
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  return {_mm_alignr_epi8(cdab, efgh, 8), _mm_blend_epi16(efgh, cdab, 0xF0)};
}

/// Writes the state back as eight words, a first (`byte_swap` false), or
/// as the 32 digest bytes, each word big-endian (`byte_swap` true).
SHA_NI_INLINE void StoreState(const ShaNiState& state, bool byte_swap,
                              void* out) {
  const __m128i feba = _mm_shuffle_epi32(state.abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(state.cdgh, 0xB1);
  __m128i abcd = _mm_blend_epi16(feba, dchg, 0xF0);
  __m128i efgh = _mm_alignr_epi8(dchg, feba, 8);
  if (byte_swap) {
    abcd = ByteSwapWords(abcd);
    efgh = ByteSwapWords(efgh);
  }
  _mm_storeu_si128(static_cast<__m128i*>(out), abcd);
  _mm_storeu_si128(static_cast<__m128i*>(out) + 1, efgh);
}

/// Bytes [0, n) at `p` in the low bytes of a vector and zeros above,
/// n <= 16, reading no byte outside [p, p + n): two overlapping 8- or
/// 4-byte loads, or three single bytes below 4.
SHA_NI_INLINE __m128i LoadPartial(const uint8_t* p, size_t n) {
  uint64_t lo = 0;
  if (n >= 8) {
    uint64_t hi = 0;
    std::memcpy(&lo, p, 8);
    if (n > 8) {
      std::memcpy(&hi, p + n - 8, 8);
      hi >>= 8 * (16 - n);
    }
    return _mm_set_epi64x(static_cast<long long>(hi),
                          static_cast<long long>(lo));
  }
  if (n >= 4) {
    uint32_t first = 0;
    uint32_t last = 0;
    std::memcpy(&first, p, 4);
    std::memcpy(&last, p + n - 4, 4);
    lo = first | ((uint64_t{last} >> (8 * (8 - n))) << 32);
  } else if (n > 0) {
    lo = p[0] | (uint64_t{p[n / 2]} << (8 * (n / 2))) |
         (uint64_t{p[n - 1]} << (8 * (n - 1)));
  }
  return _mm_cvtsi64_si128(static_cast<long long>(lo));
}

/// Message vector `lo / 16` of the padded last block for an `r`-byte
/// tail at `tail` (r < 64): the tail's bytes, then 0x80 at byte r.
SHA_NI_INLINE __m128i TailWords(const uint8_t* tail, size_t r, size_t lo) {
  __m128i v = _mm_setzero_si128();
  if (r >= lo + 16) {
    v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tail + lo));
  } else if (r > lo) {
    v = LoadPartial(tail + lo, r - lo);
  }
  if (r >= lo && r < lo + 16) {
    v = _mm_or_si128(v, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                            kPadByte + 16 - (r - lo))));
  }
  return ByteSwapWords(v);
}

/// Pads and compresses the last `r` (< 64) bytes of a `bit_len`-bit
/// message: the tail, the 0x80 byte, zeros and the 64-bit length go
/// into one block, or two when fewer than 8 bytes remain after the 0x80.
SHA_NI_INLINE void ShaNiFinish(ShaNiState& state, const uint8_t* tail,
                               size_t r, uint64_t bit_len) {
  __m128i w0 = TailWords(tail, r, 0);
  __m128i w1 = TailWords(tail, r, 16);
  __m128i w2 = TailWords(tail, r, 32);
  __m128i w3 = TailWords(tail, r, 48);
  if (r >= 56) {
    ShaNiRounds(state, w0, w1, w2, w3);
    w0 = w1 = w2 = w3 = _mm_setzero_si128();
  }
  // Words 14 and 15 are the high and low halves of the length.
  const __m128i length = _mm_set_epi64x(
      static_cast<long long>((bit_len << 32) | (bit_len >> 32)), 0);
  ShaNiRounds(state, w0, w1, w2, _mm_or_si128(w3, length));
}

/// SHA-256 of the 64 bytes `a || b`; the second block is the padding
/// alone, folded to constants: 0x80, zeros and the length 512.
__attribute__((target("sha,ssse3,sse4.1"))) Hash256 HashPairShaNi(
    const Hash256& a, const Hash256& b) {
  ShaNiState state = InitialState();
  ShaNiRounds(state, LoadWords(a.bytes.data()), LoadWords(a.bytes.data() + 16),
              LoadWords(b.bytes.data()), LoadWords(b.bytes.data() + 16));
  ShaNiRounds(state, _mm_set_epi32(0, 0, 0, INT32_MIN), _mm_setzero_si128(),
              _mm_setzero_si128(), _mm_set_epi32(512, 0, 0, 0));
  Hash256 out;
  StoreState(state, true, out.bytes.data());
  return out;
}

/// `Sha256::Finalize` on the SHA-NI body: the buffered tail of `r`
/// bytes is padded in registers.
__attribute__((target("sha,ssse3,sse4.1"))) Hash256 FinishShaNi(
    const uint32_t words[8], const uint8_t* tail, size_t r,
    uint64_t bit_len) {
  ShaNiState state = LoadState(words);
  ShaNiFinish(state, tail, r, bit_len);
  Hash256 out;
  StoreState(state, true, out.bytes.data());
  return out;
}

// The AVX-512 code below hashes sixteen 32-byte messages at once: lane
// i of every vector belongs to message i, so one vector instruction does
// the same step of sixteen compressions. A 32-byte message is one block
// whose words 8-15 are padding, the same constants in every lane.

#define AVX512_INLINE \
  __attribute__((target("avx512f,avx512bw"), always_inline)) inline

// GCC 12's unmasked rotate, shift and gather intrinsics pass an
// undefined source vector that -Werror=uninitialized rejects; the
// masked forms below take an explicit zero source and a full mask.
constexpr __mmask16 kAllLanes = 0xFFFF;

template <int N>
AVX512_INLINE __m512i Ror512(__m512i x) {
  return _mm512_maskz_ror_epi32(kAllLanes, x, N);
}

template <int N>
AVX512_INLINE __m512i Shr512(__m512i x) {
  return _mm512_maskz_srli_epi32(kAllLanes, x, N);
}

AVX512_INLINE __m512i Splat(uint32_t v) {
  return _mm512_set1_epi32(static_cast<int>(v));
}

AVX512_INLINE __m512i Add(__m512i a, __m512i b) {
  return _mm512_add_epi32(a, b);
}

/// a ^ b ^ c in one ternary-logic instruction.
AVX512_INLINE __m512i Xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0x96);
}

AVX512_INLINE __m512i ByteSwapWords512(__m512i v) {
  return _mm512_shuffle_epi8(
      v, _mm512_set4_epi32(0x0c0d0e0f, 0x08090a0b, 0x04050607, 0x00010203));
}

/// Where message i of a group starts, 32 * i bytes, in the 4-byte units
/// the gathers and scatters scale by.
AVX512_INLINE __m512i MessageOffsets() {
  return _mm512_set_epi32(120, 112, 104, 96, 88, 80, 72, 64, 56, 48, 40, 32,
                          24, 16, 8, 0);
}

/// One round on sixteen lanes: `kw` is K[t] + W[t], and the state
/// {a..h} = s[0..7] shifts down by one word.
AVX512_INLINE void Round512(__m512i s[8], __m512i kw) {
  const __m512i sigma1 = Xor3(Ror512<6>(s[4]), Ror512<11>(s[4]),
                              Ror512<25>(s[4]));
  // Ch(e, f, g) = e ? f : g, and Maj(a, b, c) the bitwise majority.
  const __m512i ch = _mm512_ternarylogic_epi32(s[4], s[5], s[6], 0xCA);
  const __m512i t1 = Add(Add(s[7], sigma1), Add(ch, kw));
  const __m512i sigma0 = Xor3(Ror512<2>(s[0]), Ror512<13>(s[0]),
                              Ror512<22>(s[0]));
  const __m512i maj = _mm512_ternarylogic_epi32(s[0], s[1], s[2], 0xE8);
  const __m512i t2 = Add(sigma0, maj);
  s[7] = s[6];
  s[6] = s[5];
  s[5] = s[4];
  s[4] = Add(s[3], t1);
  s[3] = s[2];
  s[2] = s[1];
  s[1] = s[0];
  s[0] = Add(t1, t2);
}

/// Round T, first extending the schedule when T >= 16: W[T] replaces
/// W[T-16] in the ring of the last sixteen words.
template <int T>
AVX512_INLINE void Step512(__m512i s[8], __m512i w[16]) {
  if constexpr (T >= 16) {
    const __m512i w15 = w[(T + 1) % 16];
    const __m512i w2 = w[(T + 14) % 16];
    const __m512i sigma0 =
        Xor3(Ror512<7>(w15), Ror512<18>(w15), Shr512<3>(w15));
    const __m512i sigma1 =
        Xor3(Ror512<17>(w2), Ror512<19>(w2), Shr512<10>(w2));
    w[T % 16] = Add(Add(w[T % 16], sigma0), Add(w[(T + 9) % 16], sigma1));
  }
  Round512(s, Add(w[T % 16], Splat(kRoundConstants[T])));
}

/// All 64 rounds, expanded at compile time so that every index into the
/// state and the ring is a constant and both stay in registers.
template <int... T>
AVX512_INLINE void Rounds512(__m512i s[8], __m512i w[16],
                             std::integer_sequence<int, T...>) {
  (Step512<T>(s, w), ...);
}

#endif  // defined(__x86_64__)

/// Runs whichever body CPUID selected; both compute the same FIPS 180-4
/// compression, so the choice never reaches a digest.
void Compress(uint32_t state[8], const uint8_t* data, size_t nblocks) {
#if defined(__x86_64__)
  if (UseShaNi()) {
    sha256_internal::CompressShaNi(state, data, nblocks);
    return;
  }
#endif
  sha256_internal::CompressPortable(state, data, nblocks);
}

}  // namespace

namespace sha256_internal {

void CompressPortable(uint32_t state[8], const uint8_t* data,
                      size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) ProcessBlock(state, data);
}

bool CpuHasShaNi() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return ssse3 && sse41 && (ebx & (1u << 29)) != 0;
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if ((ecx & (1u << 27)) == 0) return false;  // No OSXSAVE, so no XGETBV.
  // SSE, AVX, opmask, and the upper and extra ZMM registers.
  constexpr uint64_t kZmmState = (1u << 1) | (1u << 2) | (1u << 5) |
                                 (1u << 6) | (1u << 7);
  if ((ReadXcr0() & kZmmState) != kZmmState) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 16)) != 0 && (ebx & (1u << 30)) != 0;
#else
  return false;
#endif
}

#if defined(__x86_64__)

__attribute__((target("sha,ssse3,sse4.1"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* data, size_t nblocks) {
  ShaNiState regs = LoadState(state);
  for (; nblocks > 0; --nblocks, data += 64) {
    ShaNiRounds(regs, LoadWords(data), LoadWords(data + 16),
                LoadWords(data + 32), LoadWords(data + 48));
  }
  StoreState(regs, false, state);
}

__attribute__((target("sha,ssse3,sse4.1"))) Hash256 DigestShaNi(
    const uint8_t* data, size_t len) {
  ShaNiState state = InitialState();
  if (len == 32) {
    // A Lamport preimage: one block, its padding folded to constants.
    ShaNiRounds(state, LoadWords(data), LoadWords(data + 16),
                _mm_set_epi32(0, 0, 0, INT32_MIN),
                _mm_set_epi32(256, 0, 0, 0));
  } else {
    const size_t whole = len / 64;
    for (size_t i = 0; i < whole; ++i, data += 64) {
      ShaNiRounds(state, LoadWords(data), LoadWords(data + 16),
                  LoadWords(data + 32), LoadWords(data + 48));
    }
    ShaNiFinish(state, data, len % 64, uint64_t{len} * 8);
  }
  Hash256 out;
  StoreState(state, true, out.bytes.data());
  return out;
}

#undef SHA_NI_INLINE

__attribute__((target("avx512f,avx512bw"))) void Digest32x16Avx512(
    const Hash256* in, Hash256* out) {
  static_assert(sizeof(Hash256) == 32);
  // Word j of lane i is at byte 32 * i + 4 * j of the group.
  const __m512i offsets = MessageOffsets();
  const auto* src = reinterpret_cast<const uint8_t*>(in);
  __m512i w[16];
  for (int j = 0; j < 8; ++j) {
    w[j] = ByteSwapWords512(_mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), kAllLanes, offsets, src + 4 * j, 4));
  }
  // The padding: 0x80 after the message, zeros, the bit length 256.
  w[8] = Splat(0x80000000);
  for (int j = 9; j < 15; ++j) w[j] = _mm512_setzero_si512();
  w[15] = Splat(256);

  __m512i s[8];
  for (int j = 0; j < 8; ++j) s[j] = Splat(kInitialState[j]);
  Rounds512(s, w, std::make_integer_sequence<int, 64>());

  auto* dst = reinterpret_cast<uint8_t*>(out);
  for (int j = 0; j < 8; ++j) {
    _mm512_mask_i32scatter_epi32(
        dst + 4 * j, kAllLanes, offsets,
        ByteSwapWords512(Add(s[j], Splat(kInitialState[j]))), 4);
  }
}

#undef AVX512_INLINE

#endif  // defined(__x86_64__)

}  // namespace sha256_internal

Sha256::Sha256() { std::memcpy(state_, kInitialState, sizeof(state_)); }

void Sha256::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      Compress(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  const size_t whole = len / 64;
  if (whole > 0) {
    Compress(state_, data, whole);
    data += whole * 64;
    len -= whole * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

void Sha256::Update(std::string_view data) {
  Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
}

void Sha256::Update(const Bytes& data) { Update(data.data(), data.size()); }

Hash256 Sha256::Finalize() {
  const uint64_t bit_len = total_len_ * 8;
#if defined(__x86_64__)
  if (UseShaNi()) return FinishShaNi(state_, buffer_, buffer_len_, bit_len);
#endif
  // Append 0x80, then zeros, then the 64-bit big-endian length; the
  // length field spills into a second block when fewer than 8 bytes
  // remain after the 0x80.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Compress(state_, buffer_, 1);

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out.bytes[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out.bytes[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out.bytes[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Hash256 Sha256Digest(const uint8_t* data, size_t len) {
#if defined(__x86_64__)
  if (UseShaNi()) return sha256_internal::DigestShaNi(data, len);
#endif
  Sha256 h;
  h.Update(data, len);
  return h.Finalize();
}

Hash256 Sha256Digest(std::string_view data) {
  return Sha256Digest(reinterpret_cast<const uint8_t*>(data.data()),
                      data.size());
}

Hash256 Sha256Digest(const Bytes& data) {
  return Sha256Digest(data.data(), data.size());
}

void Sha256Digest32Many(const Hash256* in, size_t n, Hash256* out) {
  size_t i = 0;
#if defined(__x86_64__)
  if (UseAvx512()) {
    for (; i + 16 <= n; i += 16) {
      sha256_internal::Digest32x16Avx512(in + i, out + i);
    }
  }
#endif
  for (; i < n; ++i) {
    out[i] = Sha256Digest(in[i].bytes.data(), in[i].bytes.size());
  }
}

Hash256 HashPair(const Hash256& a, const Hash256& b) {
#if defined(__x86_64__)
  if (UseShaNi()) return HashPairShaNi(a, b);
#endif
  Sha256 h;
  h.Update(a.bytes.data(), a.bytes.size());
  h.Update(b.bytes.data(), b.bytes.size());
  return h.Finalize();
}

}  // namespace shardchain
