// Fixture for the parlint self-test: the same hazard patterns as
// hazards.cc, but every one carries a parlint:allow() waiver — the
// parlint_honors_suppressions CTest case expects a clean exit, and the
// same run under --check-waivers must stay clean because every waiver
// here suppresses a real finding. This file is never compiled into any
// target.

#include <cstddef>

namespace fixture {

// parlint:allow(raw-threading): fixture exercising the waiver path
inline std::mutex g_lock;

// parlint:allow(raw-threading): scratch buffer audited, never observable
thread_local int tl_scratch = 0;

inline int AsyncSum() {
  auto task = std::async([] { return 41; });  // parlint:allow(raw-threading)
  return task.get() + 1;
}

struct Journal {
  size_t Snapshot();
  bool Commit(size_t id);
};

inline void CommitOnly(Journal* state) {
  // parlint:allow(unbalanced-snapshot): infallible path, no rollback
  const size_t snap = state->Snapshot();
  (void)state->Commit(snap);
}

}  // namespace fixture
