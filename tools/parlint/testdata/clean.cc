// Fixture for the parlint self-test: the same shapes as hazards.cc
// written the contract-compliant way — threads only through
// ParallelFor, each index writing its own slot, balanced snapshot
// brackets. The parlint_clean_fixture CTest case expects a clean
// exit with ZERO findings (nothing here even needs a waiver). This
// file is never compiled into any target.

#include <cstddef>
#include <vector>

namespace fixture {

struct ThreadPool;
template <typename B>
void ParallelFor(ThreadPool*, size_t, const B&);

// Index i writes slot i and nothing else.
inline void ScaleInPlace(ThreadPool* pool, std::vector<double>* out) {
  ParallelFor(pool, out->size(), [out](size_t i) {
    (*out)[i] = 2.0 * (*out)[i];
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
