// Fixture for the flowlint self-test: the contract-compliant twin of
// hazards.cc. Deterministic helpers below an annotated root, a
// parallel body that only touches its disjoint slice, and a required
// entry point carrying its annotation — the flowlint_clean_fixture
// CTest case expects a clean exit. Never compiled into any target.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fixture {

struct ThreadPool;
template <typename B>
void ParallelFor(ThreadPool*, size_t, const B&);

inline uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  return h * 0xff51afd7ed558ccdull;
}

inline uint64_t PackCandidates(uint64_t h) { return Mix(h) + 1; }

// flowlint: deterministic-root
inline uint64_t BuildDigest(uint64_t h) {
  return PackCandidates(h) * 0x9e3779b97f4a7c15ull;
}

inline double Scale(double x) { return 2.0 * x; }

inline void ScaleAll(ThreadPool* pool, std::vector<double>* out) {
  ParallelFor(pool, out->size(), [out](size_t i) {
    (*out)[i] = Scale((*out)[i]);
  });
}

// flowlint: deterministic-root
inline uint64_t RunSelectionGame(uint64_t seed) {
  return Mix(seed * 6364136223846793005ull + 1442695040888963407ull);
}

}  // namespace fixture
