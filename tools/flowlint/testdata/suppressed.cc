// Fixture for the flowlint self-test: the same hazard patterns as
// hazards.cc, but every finding carries a flowlint:allow() waiver —
// the flowlint_honors_suppressions CTest case expects a clean exit,
// and the same run under --check-waivers must stay clean because
// every waiver here suppresses a real finding. Never compiled into
// any target.

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

inline int64_t StampMicros() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

inline uint64_t PackCandidates(uint64_t h) {
  return h ^ static_cast<uint64_t>(StampMicros());
}

// flowlint: deterministic-root
// flowlint:allow(consensus-reaches-nondet): fixture — stamp is display-only
inline uint64_t BuildDigest(uint64_t h) {
  return PackCandidates(h) * 0x9e3779b97f4a7c15ull;
}

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
    // flowlint:allow(parallel-body-effects): fixture — journal is lock-free
    if (TryApply(j)) ++applied;
  });
  return applied;
}

// flowlint:allow(unannotated-root): fixture exercising the waiver path
inline uint64_t RunSelectionGame(uint64_t seed) {
  return seed * 6364136223846793005ull + 1442695040888963407ull;
}

}  // namespace fixture
