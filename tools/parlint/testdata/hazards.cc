// Fixture for the parlint self-test: every rule must fire at least
// once in this file, UNSUPPRESSED. The parlint_detects_hazards CTest
// case runs the scanner over this file and expects a nonzero exit.
// This file is never compiled into any target (parlint is a token
// scanner; the declarations below only need to look like shardchain
// code, not link against it).

#include <cstddef>

namespace fixture {

// Rule: raw-threading — concurrency primitives outside src/parallel/.
inline std::mutex g_lock;
inline std::atomic<int> g_counter{0};
inline std::once_flag g_once;
thread_local int tl_scratch = 0;

inline void SpawnWorker() {
  std::thread worker([] {});
  worker.join();
}

inline int FutureSum(std::promise<int>& result) {
  std::future<int> pending = result.get_future();
  auto task = std::async([] { return 41; });
  std::call_once(g_once, [] {});
  return task.get() + pending.get();
}

struct Journal {
  size_t Snapshot();
  bool Commit(size_t id);
  bool RevertTo(size_t id);
};

// Rule: unbalanced-snapshot — the id never reaches Commit or RevertTo.
inline bool LeakySnapshot(Journal* state) {
  const size_t snap = state->Snapshot();
  (void)snap;
  return true;
}

// Rule: unbalanced-snapshot — committed on the happy path but no
// RevertTo anywhere: the failure path leaks the bracket.
inline void CommitOnly(Journal* state) {
  const size_t snap = state->Snapshot();
  (void)state->Commit(snap);
}

// Rule: unbalanced-snapshot — the id is discarded outright.
inline void DiscardedSnapshot(Journal* state) {
  state->Snapshot();
}

}  // namespace fixture
