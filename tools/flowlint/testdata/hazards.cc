// Fixture for the flowlint self-test: rules 1–3 must each fire at
// least once in this file, UNSUPPRESSED (rule 4, taint-summary-drift,
// needs a --summaries file and has its own fixtures under drift/). The
// flowlint_detects_hazards CTest case runs the scanner over this file
// and expects a nonzero exit. Never compiled into any target.

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace fixture {

struct ThreadPool;
template <typename B>
void ParallelFor(ThreadPool*, size_t, const B&);

struct Journal {
  size_t Snapshot();
  bool Commit(size_t id);
  bool RevertTo(size_t id);
};

// Rule: consensus-reaches-nondet — StampMicros reads the wall clock,
// PackCandidates calls it, and the annotated root sits two calls
// above: the 3-hop chain BuildDigest → PackCandidates → StampMicros →
// system_clock.
inline int64_t StampMicros() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

inline uint64_t PackCandidates(uint64_t h) {
  return h ^ static_cast<uint64_t>(StampMicros());
}

// flowlint: deterministic-root
inline uint64_t BuildDigest(uint64_t h) {
  return PackCandidates(h) * 0x9e3779b97f4a7c15ull;
}

// Rule: parallel-body-effects — TryApply brackets the journal; calling
// it from a ParallelFor lambda smuggles snapshot ops into a parallel
// region.
inline bool TryApply(Journal* j) {
  const size_t snap = j->Snapshot();
  if (!j->Commit(snap)) {
    j->RevertTo(snap);
    return false;
  }
  return true;
}

inline size_t ApplyAll(ThreadPool* pool, Journal* j, size_t n) {
  size_t applied = 0;
  ParallelFor(pool, n, [j, &applied](size_t i) {
    (void)i;
    if (TryApply(j)) ++applied;
  });
  return applied;
}

// Rule: unannotated-root — a required consensus entry point defined
// without its deterministic-root annotation.
inline uint64_t RunSelectionGame(uint64_t seed) {
  return seed * 6364136223846793005ull + 1442695040888963407ull;
}

}  // namespace fixture
