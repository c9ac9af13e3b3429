// Fixture for the parlint --check-waivers self-test: perfectly clean
// code carrying waivers that suppress nothing. A plain scan exits 0;
// the parlint_flags_stale_waivers CTest case runs with --check-waivers
// and expects a nonzero exit with one `stale-waiver` finding per
// entry. This file is never compiled into any target.

#include <cstddef>

namespace fixture {

struct Journal {
  size_t Snapshot();
  bool Commit(size_t id);
  bool RevertTo(size_t id);
};

bool TryApply(Journal* state);

// parlint:allow(unbalanced-snapshot): left behind after a cleanup
inline bool BalancedSnapshot(Journal* state) {
  const size_t snap = state->Snapshot();
  if (TryApply(state)) {
    (void)state->Commit(snap);
    return true;
  }
  (void)state->RevertTo(snap);  // parlint:allow(raw-threading)
  return false;
}

}  // namespace fixture
