// Parallel scaling of the thread pool's two call sites (DESIGN.md §9):
// batches per second by thread count for VRF evaluation over 32 keys
// and Lamport signature verification over 128 — each at the size it
// runs at. Every kernel produces identical results at every thread
// count (asserted here against the serial run before timing, so the
// bench doubles as a CI identity gate); the only thing the thread knob
// may change is speed.
//
// Emits BENCH_parallel.json into the working directory for CI
// artifact collection.

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/emit_json.h"
#include "common/rng.h"
#include "crypto/keys.h"
#include "crypto/vrf.h"
#include "parallel/thread_pool.h"

namespace shardchain {
namespace {

using Clock = std::chrono::steady_clock;  // detlint:allow(wall-clock): bench timing

const size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr double kMinSeconds = 0.25;

struct KernelResult {
  std::string name;
  size_t threads = 1;
  double ops_per_sec = 0.0;
  double speedup = 1.0;
};

/// Times `op` (which must consume its result via the returned checksum
/// so the optimizer cannot elide work): runs for >= kMinSeconds and
/// returns invocations per second.
double MeasureOpsPerSec(const std::function<uint64_t()>& op) {
  uint64_t sink = op();  // Warm-up (and first correctness pass).
  size_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    sink ^= op();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < kMinSeconds);
  // Keep `sink` observable.
  if (sink == 0xdeadbeefdeadbeefull) std::printf("(unlikely checksum)\n");
  return static_cast<double>(iters) / elapsed;
}

/// A kernel exposes one operation parameterized by a pool; the harness
/// verifies parallel output equals serial output, then times it at
/// every thread count.
struct Kernel {
  std::string name;
  std::function<uint64_t(ThreadPool*)> op;
};

/// `n` Lamport key pairs from a fixed seed.
std::vector<KeyPair> MakeKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<KeyPair> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(KeyPair::Generate(&rng));
  return keys;
}

uint64_t FlagChecksum(const std::vector<uint8_t>& flags) {
  uint64_t h = 0;
  for (uint8_t v : flags) h = h * 31 + v;
  return h;
}

/// The pool's two call sites in src/, each at the size it runs at.
std::vector<Kernel> BuildKernels() {
  std::vector<Kernel> kernels;

  // --- VRF batch evaluation: one per miner at an epoch switch ------
  // (perfbench sharded_epochs registers 32 miners).
  {
    auto keys = std::make_shared<std::vector<KeyPair>>(MakeKeys(32, 404));
    const Hash256 seed = Sha256Digest("bench.parallel.vrf.eval");
    kernels.push_back({"vrf_evaluate_batch_32", [keys, seed](ThreadPool* pool) {
                         std::vector<const KeyPair*> ptrs;
                         for (const KeyPair& k : *keys) ptrs.push_back(&k);
                         uint64_t h = 0;
                         for (const VrfOutput& out :
                              VrfEvaluateBatch(ptrs, seed, pool)) {
                           h = h * 31 + out.value.Prefix64();
                         }
                         return h;
                       }});
  }

  // --- Signed admission: one AddSignedBatch of 128 signatures --------
  // (perfbench signed_stream's batch).
  {
    struct SigFixture {
      std::vector<KeyPair> keys;
      std::vector<Hash256> digests;
      std::vector<Signature> sigs;
    };
    auto fx = std::make_shared<SigFixture>();
    fx->keys = MakeKeys(128, 606);
    for (size_t i = 0; i < fx->keys.size(); ++i) {
      fx->digests.push_back(Sha256Digest("tx." + std::to_string(i)));
      fx->sigs.push_back(fx->keys[i].Sign(fx->digests.back()));
    }
    // One forged slot, so the identity gate also checks positions.
    fx->sigs[77] = fx->keys[77].Sign(Sha256Digest("forged"));
    kernels.push_back({"verify_batch_128", [fx](ThreadPool* pool) {
                         std::vector<const PublicKey*> pks;
                         std::vector<const Hash256*> digests;
                         std::vector<const Signature*> sigs;
                         for (size_t i = 0; i < fx->keys.size(); ++i) {
                           pks.push_back(&fx->keys[i].public_key());
                           digests.push_back(&fx->digests[i]);
                           sigs.push_back(&fx->sigs[i]);
                         }
                         return FlagChecksum(
                             VerifyBatch(pks, digests, sigs, pool));
                       }});
  }
  return kernels;
}

}  // namespace
}  // namespace shardchain

int main() {
  using namespace shardchain;
  using bench::Fmt;

  bench::Banner(
      "BENCH parallel scaling (DESIGN.md §9)",
      "deterministic parallelism: identical bytes at every thread count; "
      "speed is the only degree of freedom");
  std::printf("hardware_concurrency = %u\n",
              std::thread::hardware_concurrency());

  std::vector<KernelResult> results;
  for (const Kernel& kernel : BuildKernels()) {
    // Correctness gate before timing: parallel bytes == serial bytes.
    const uint64_t serial_sum = kernel.op(nullptr);
    for (const size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      if (kernel.op(&pool) != serial_sum) {
        std::fprintf(stderr, "FATAL: %s diverged at %zu threads\n",
                     kernel.name.c_str(), threads);
        return 1;
      }
    }

    bench::Row({"kernel", "threads", "ops/sec", "speedup"});
    double baseline = 0.0;
    for (const size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      ThreadPool* p = threads == 1 ? nullptr : &pool;
      KernelResult r;
      r.name = kernel.name;
      r.threads = threads;
      r.ops_per_sec = MeasureOpsPerSec([&] { return kernel.op(p); });
      if (threads == 1) baseline = r.ops_per_sec;
      r.speedup = baseline > 0.0 ? r.ops_per_sec / baseline : 1.0;
      results.push_back(r);
      bench::Row({kernel.name, std::to_string(threads),
                  Fmt(r.ops_per_sec, 2), Fmt(r.speedup, 2)});
    }
    std::printf("\n");
  }

  bench::Json doc = bench::Json::Object();
  doc.Set("bench", bench::Json::Str("parallel_scaling"));
  doc.Set("hardware_concurrency",
          bench::Json::Int(std::thread::hardware_concurrency()));
  doc.Set("determinism",
          bench::Json::Str("all kernels byte-identical to threads=1"));
  bench::Json arr = bench::Json::Array();
  for (const KernelResult& r : results) {
    bench::Json row = bench::Json::Object();
    row.Set("kernel", bench::Json::Str(r.name));
    row.Set("threads", bench::Json::Int(static_cast<int64_t>(r.threads)));
    row.Set("ops_per_sec", bench::Json::Num(r.ops_per_sec));
    row.Set("speedup_vs_serial", bench::Json::Num(r.speedup));
    arr.Push(std::move(row));
  }
  doc.Set("results", std::move(arr));
  const std::string path = "BENCH_parallel.json";
  if (!bench::WriteJsonFile(path, doc)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
