#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace shardchain {

namespace {

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t ChunkSeed(uint64_t base, uint64_t index) {
  uint64_t state = base;
  (void)SplitMix64(&state);
  state ^= index;
  return SplitMix64(&state);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (uint64_t& word : s_) word = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range.
  if (span == 0) return static_cast<int64_t>(Next());
  return lo + static_cast<int64_t>(UniformInt(span));
}

double Rng::UniformDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Exponential(double mean) {
  assert(mean > 0.0);
  double u;
  do {
    u = UniformDouble();
  } while (u == 0.0);
  return -mean * std::log(u);
}

uint32_t Rng::Binomial(uint32_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (n <= 64) {
    uint32_t successes = 0;
    for (uint32_t i = 0; i < n; ++i) successes += Bernoulli(p) ? 1 : 0;
    return successes;
  }
  // Normal approximation with continuity correction, clamped to [0, n].
  const double mu = static_cast<double>(n) * p;
  const double sigma = std::sqrt(mu * (1.0 - p));
  // Box-Muller transform.
  double u1;
  do {
    u1 = UniformDouble();
  } while (u1 == 0.0);
  const double u2 = UniformDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * 3.14159265358979323846 * u2);
  double x = std::floor(mu + sigma * z + 0.5);
  if (x < 0.0) x = 0.0;
  if (x > static_cast<double>(n)) x = static_cast<double>(n);
  return static_cast<uint32_t>(x);
}

uint32_t Rng::Zipf(uint32_t n, double s) {
  assert(n > 0 && s > 0.0);
  // Inverse-CDF over the normalized Zipf mass. O(n) per draw is fine for
  // workload generation (done once per transaction batch).
  double h = 0.0;
  for (uint32_t k = 1; k <= n; ++k) h += 1.0 / std::pow(k, s);
  double u = UniformDouble() * h;
  double acc = 0.0;
  for (uint32_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(k, s);
    if (u <= acc) return k;
  }
  return n;
}

Rng Rng::Fork() {
  // A child stream seeded from two draws of the parent keeps the parent
  // and child sequences statistically independent.
  uint64_t seed = Next() ^ Rotl(Next(), 31);
  return Rng(seed);
}

}  // namespace shardchain
