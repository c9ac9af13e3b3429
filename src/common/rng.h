#ifndef SHARDCHAIN_COMMON_RNG_H_
#define SHARDCHAIN_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace shardchain {

/// \brief Deterministic pseudo-random generator (xoshiro256** seeded via
/// SplitMix64) plus the sampling distributions the simulator needs.
///
/// Every source of randomness in the library flows through an `Rng`
/// carrying an explicit seed, so simulations, games and tests are fully
/// reproducible. Satisfies the UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four-word state from `seed` via SplitMix64 so that any
  /// 64-bit seed (including 0) yields a well-mixed state.
  explicit Rng(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  /// Next raw 64 bits.
  uint64_t operator()() { return Next(); }
  uint64_t Next();

  /// Uniform integer in [0, bound), bias-free (rejection sampling).
  /// `bound` must be > 0.
  uint64_t UniformInt(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Bernoulli trial with success probability p in [0, 1].
  bool Bernoulli(double p);

  /// Exponentially distributed double with the given mean (> 0). Used to
  /// model Proof-of-Work block-interval races.
  double Exponential(double mean);

  /// Binomial sample: number of successes in n trials of probability p.
  /// Exact inversion for small n, normal approximation for large n.
  uint32_t Binomial(uint32_t n, double p);

  /// Zipf-distributed integer in [1, n] with exponent `s` (> 0). Models
  /// skewed smart-contract popularity.
  uint32_t Zipf(uint32_t n, double s);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Derives an independent child generator; used to hand each simulated
  /// miner its own stream without correlating draws.
  Rng Fork();

 private:
  uint64_t s_[4];
};

/// SplitMix64 step: advances *state and returns the next output. Exposed
/// because it is also the hash-mixing core used in a few places.
uint64_t SplitMix64(uint64_t* state);

/// Deterministic per-chunk seed: SplitMix64 over (base, index) — the
/// same construction FaultPlan::Mix uses — so a chunk's RNG stream
/// depends only on its logical index. The merging game's chunked
/// serial loops draw from it, which pins their bytes (DESIGN.md §9).
uint64_t ChunkSeed(uint64_t base, uint64_t index);

}  // namespace shardchain

#endif  // SHARDCHAIN_COMMON_RNG_H_
