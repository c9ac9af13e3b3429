// Fixture for the parlint self-test: the same shapes as hazards.cc
// written the contract-compliant way — explicit captures, per-chunk
// ChunkSeed streams, disjoint writes, balanced snapshot brackets, no
// raw threading. The parlint_clean_fixture CTest case expects a clean
// exit with ZERO findings (nothing here even needs a waiver). This
// file is never compiled into any target.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fixture {

struct ThreadPool;
struct Rng {
  explicit Rng(uint64_t seed);
  double UniformDouble();
};
uint64_t ChunkSeed(uint64_t base, uint64_t index);
template <typename B>
void ParallelFor(ThreadPool*, size_t, size_t, const B&);
template <typename B>
void ParallelChunks(ThreadPool*, size_t, size_t, const B&);

// Disjoint writes with an explicit capture list: every lane owns slot
// i and nothing else.
inline void ScaleInPlace(ThreadPool* pool, std::vector<double>* out) {
  ParallelFor(pool, out->size(), 64, [out](size_t i) {
    (*out)[i] = 2.0 * (*out)[i];
  });
}

// Per-chunk slot accumulation: chunk c writes (*slots)[c] only.
inline void ChunkTotals(ThreadPool* pool, const std::vector<double>& xs,
                        std::vector<double>* slots) {
  ParallelChunks(pool, xs.size(), 64,
                 [&xs, slots](size_t begin, size_t end, size_t chunk) {
                   double acc = 0.0;
                   for (size_t i = begin; i < end; ++i) acc += xs[i];
                   (*slots)[chunk] = acc;
                 });
}

// Randomized chunk work seeded through ChunkSeed: stream depends on
// the chunk index alone, never on scheduling.
inline void FillNoise(ThreadPool* pool, uint64_t base,
                      std::vector<double>* out) {
  ParallelChunks(pool, out->size(), 64,
                 [out, base](size_t begin, size_t end, size_t chunk) {
                   Rng rng(ChunkSeed(base, chunk));
                   for (size_t i = begin; i < end; ++i) {
                     (*out)[i] = rng.UniformDouble();
                   }
                 });
}

struct Journal {
  size_t Snapshot();
  bool Commit(size_t id);
  bool RevertTo(size_t id);
};

bool TryApply(Journal* state);

// The §10 bracket: the snapshot id reaches Commit on the success path
// and RevertTo on the failure path.
inline bool BalancedSnapshot(Journal* state) {
  const size_t snap = state->Snapshot();
  if (TryApply(state)) {
    (void)state->Commit(snap);
    return true;
  }
  (void)state->RevertTo(snap);
  return false;
}

}  // namespace fixture
