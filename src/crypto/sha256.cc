#include "crypto/sha256.h"

#include <cstring>

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

/// Runs whichever body CPUID selected; both compute the same FIPS 180-4
/// compression, so the choice never reaches a digest (DESIGN.md §15).
void Compress(uint32_t state[8], const uint8_t* data, size_t nblocks) {
#if defined(__x86_64__)
  static const bool kShaNi = sha256_internal::CpuHasShaNi();
  if (kShaNi) {
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

#if defined(__x86_64__)

// The state lives in two registers as {a,b,e,f} and {c,d,g,h} (lane 3
// first), the layout sha256rnds2 works on. Each group of four rounds adds
// its constants to one 4-word message vector and runs two rnds2 steps;
// sha256msg1/msg2 extend the schedule one vector ahead.
__attribute__((target("sha,ssse3,sse4.1"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* data, size_t nblocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          kByteSwap);
    }
    for (int g = 0; g < 16; ++g) {
      const __m128i wk = _mm_add_epi32(
          w[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        &kRoundConstants[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (g < 12) {
        // Schedule vector g+4 from vectors g..g+3: msg1 adds the σ0
        // terms, the alignr supplies W[t-7], msg2 adds the σ1 terms.
        const __m128i w1 = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
        const __m128i w2 = _mm_add_epi32(
            w1, _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
        w[g % 4] = _mm_sha256msg2_epu32(w2, w[(g + 3) % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // defined(__x86_64__)

}  // namespace sha256_internal

Sha256::Sha256() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

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
  Sha256 h;
  h.Update(data, len);
  return h.Finalize();
}

Hash256 Sha256Digest(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

Hash256 Sha256Digest(const Bytes& data) {
  return Sha256Digest(data.data(), data.size());
}

Hash256 HashPair(const Hash256& a, const Hash256& b) {
  Sha256 h;
  h.Update(a.bytes.data(), a.bytes.size());
  h.Update(b.bytes.data(), b.bytes.size());
  return h.Finalize();
}

}  // namespace shardchain
