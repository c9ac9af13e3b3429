// State-commitment scaling (DESIGN.md §10): cost of the persistent
// account trie vs the pre-incremental baseline, by account count, for
// the hot operations the chain performs per block:
//
//   root_update      — mutate a fixed number of accounts, re-derive the
//                      state root. old: rebuild the whole trie with
//                      fresh digests (O(n)); new: re-hash only the
//                      written paths (O(dirty · depth)).
//   snapshot_revert  — take a revert point, write, roll back. old: copy
//                      a std::map<Address, Account> of the accounts out
//                      and back; new: save and restore a root (O(1)).
//   block_build      — pack a 10-tx block on a funded state. old:
//                      per-candidate StateDB copy + from-scratch root;
//                      new: snapshot trials + incremental root.
//   fork             — what a block pays to fork its parent's state, at
//                      10k, 100k and 1M accounts. old: copy the account
//                      map (what a StateDB copy cost before the trie held
//                      the accounts); new: copy the StateDB, write one
//                      account and derive the root. The row also records
//                      resident bytes per account: the ru_maxrss growth
//                      while the state is built, divided by the account
//                      count.
//
// The bench is also a correctness gate: before any timing, every
// scenario asserts the incremental root is byte-identical to the
// from-scratch rebuild (the consensus invariant the optimization must
// preserve) and aborts on divergence.
//
// Emits BENCH_state.json into the working directory for CI artifact
// collection.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/emit_json.h"
#include "chain/ledger.h"
#include "state/statedb.h"
#include "types/address.h"

namespace shardchain {
namespace {

using Clock = std::chrono::steady_clock;  // detlint:allow(wall-clock): bench timing

const size_t kAccountCounts[] = {100, 1000, 10000};
/// The fork scenario alone runs at 1M accounts, which keeps CI time small.
const size_t kForkAccountCounts[] = {10000, 100000, 1000000};
constexpr size_t kTouchedPerRoot = 64;  ///< Dirty accounts per root update.
constexpr size_t kTouchedPerSnap = 16;  ///< Writes inside a snapshot span.
constexpr double kMinSeconds = 0.2;

Address BenchAddr(uint64_t n) {
  Address a;
  a.bytes[0] = static_cast<uint8_t>(n);
  a.bytes[1] = static_cast<uint8_t>(n >> 8);
  a.bytes[2] = static_cast<uint8_t>(n >> 16);
  a.bytes[19] = static_cast<uint8_t>(n * 131);
  return a;
}

/// The pre-incremental StateRoot(): copy every account into a fresh
/// StateDB, so every node and account digest is computed anew.
/// Byte-identical to StateDB::StateRoot() over the same contents — the
/// identity gates below enforce exactly that.
Hash256 RootFromScratch(const StateDB& db) {
  StateDB fresh;
  for (const Address& addr : db.Addresses()) {
    fresh.GetOrCreate(addr) = *db.Find(addr);
  }
  return fresh.StateRoot();
}

/// The accounts as the plain map a StateDB copy used to duplicate.
std::map<Address, Account> AccountMap(const StateDB& db) {
  std::map<Address, Account> out;
  for (const Address& addr : db.Addresses()) out.emplace(addr, *db.Find(addr));
  return out;
}

/// Peak resident set so far, in bytes.
int64_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // Linux: KiB.
}

StateDB FundedState(size_t accounts) {
  StateDB db;
  for (uint64_t i = 0; i < accounts; ++i) {
    db.Mint(BenchAddr(i), 1'000'000 + i);
  }
  return db;
}

/// Times `op` for >= kMinSeconds and returns invocations per second.
/// `op` must fold its result into the returned checksum so the work
/// cannot be elided.
double MeasureOpsPerSec(const std::function<uint64_t()>& op) {
  uint64_t sink = op();  // Warm-up.
  size_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    sink ^= op();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < kMinSeconds);
  if (sink == 0xdeadbeefdeadbeefull) std::printf("(unlikely checksum)\n");
  return static_cast<double>(iters) / elapsed;
}

struct ScenarioResult {
  std::string scenario;
  size_t accounts = 0;
  double old_ops_per_sec = 0.0;
  double new_ops_per_sec = 0.0;
  double speedup = 0.0;
  int64_t bytes_per_account = -1;  ///< fork rows only.
};

void Report(std::vector<ScenarioResult>* out, const std::string& scenario,
            size_t accounts, double old_ops, double new_ops,
            int64_t bytes_per_account = -1) {
  ScenarioResult r;
  r.scenario = scenario;
  r.accounts = accounts;
  r.old_ops_per_sec = old_ops;
  r.new_ops_per_sec = new_ops;
  r.speedup = old_ops > 0.0 ? new_ops / old_ops : 0.0;
  r.bytes_per_account = bytes_per_account;
  out->push_back(r);
  bench::Row({scenario, std::to_string(accounts), bench::Fmt(old_ops, 2),
              bench::Fmt(new_ops, 2), bench::Fmt(r.speedup, 1) + "x",
              bytes_per_account >= 0 ? std::to_string(bytes_per_account)
                                     : "-"});
}

[[noreturn]] void IdentityFailure(const char* scenario, size_t accounts) {
  std::fprintf(stderr,
               "FATAL: incremental root != from-scratch root (%s, %zu "
               "accounts) — consensus-visible divergence\n",
               scenario, accounts);
  std::exit(1);
}

// ------------------------- root_update --------------------------------

void BenchRootUpdate(size_t accounts, std::vector<ScenarioResult>* out) {
  StateDB db = FundedState(accounts);
  (void)db.StateRoot();
  uint64_t cursor = 0;
  auto mutate_batch = [&] {
    for (size_t j = 0; j < kTouchedPerRoot; ++j) {
      db.Mint(BenchAddr((cursor + j * 7) % accounts), 1);
    }
    cursor += 1;
  };

  // Identity gate: after several mutation batches, the incremental
  // root must equal the from-scratch rebuild, byte for byte.
  for (int round = 0; round < 3; ++round) {
    mutate_batch();
    if (db.StateRoot() != RootFromScratch(db)) {
      IdentityFailure("root_update", accounts);
    }
  }

  const double new_ops = MeasureOpsPerSec([&] {
    mutate_batch();
    return db.StateRoot().Prefix64();
  });
  const double old_ops = MeasureOpsPerSec([&] {
    mutate_batch();
    return RootFromScratch(db).Prefix64();
  });
  Report(out, "root_update", accounts, old_ops, new_ops);
}

// ------------------------ snapshot_revert -----------------------------

void BenchSnapshotRevert(size_t accounts, std::vector<ScenarioResult>* out) {
  StateDB db = FundedState(accounts);
  const Hash256 base_root = db.StateRoot();
  auto touch = [&](StateDB* target) {
    for (size_t j = 0; j < kTouchedPerSnap; ++j) {
      target->Mint(BenchAddr(j * 11 % accounts), 3);
    }
  };

  // Identity gate: a revert must land back on the base root.
  {
    const size_t snap = db.Snapshot();
    touch(&db);
    if (!db.RevertTo(snap).ok() || db.StateRoot() != base_root) {
      IdentityFailure("snapshot_revert", accounts);
    }
  }

  const double new_ops = MeasureOpsPerSec([&] {
    const size_t snap = db.Snapshot();
    touch(&db);
    if (!db.RevertTo(snap).ok()) IdentityFailure("revert", accounts);
    return static_cast<uint64_t>(snap);
  });
  std::map<Address, Account> plain = AccountMap(db);
  const double old_ops = MeasureOpsPerSec([&] {
    // The pre-trie Snapshot(): copy every account out...
    std::map<Address, Account> backup = plain;
    for (size_t j = 0; j < kTouchedPerSnap; ++j) {
      plain[BenchAddr(j * 11 % accounts)].balance += 3;
    }
    plain = backup;  // ...and RevertTo(): copy them all back.
    return static_cast<uint64_t>(backup.size());
  });
  Report(out, "snapshot_revert", accounts, old_ops, new_ops);
}

// -------------------------- block_build -------------------------------

std::vector<Transaction> BlockTxs(size_t accounts) {
  std::vector<Transaction> txs;
  for (uint64_t i = 0; i < 10; ++i) {
    Transaction tx;
    tx.kind = TxKind::kDirectTransfer;
    tx.sender = BenchAddr(i);
    tx.recipient = BenchAddr((i + accounts / 2) % accounts);
    tx.value = 10 + i;
    tx.fee = 2;
    tx.nonce = 0;
    txs.push_back(tx);
  }
  return txs;
}

/// The pre-snapshot BuildBlock inner loop: every candidate transaction
/// executes on a full copy of the scratch state, and the final root is
/// a from-scratch rebuild.
Hash256 OldStyleBuild(const Ledger& ledger, const Address& miner,
                      const std::vector<Transaction>& txs) {
  StateDB scratch = ledger.tip_state();
  size_t included = 0;
  for (const Transaction& tx : txs) {
    if (included >= ledger.config().max_txs_per_block) break;
    StateDB trial = scratch;
    if (Ledger::ExecuteTransaction(tx, miner, &trial).ok()) {
      scratch = std::move(trial);
      ++included;
    }
  }
  scratch.Mint(miner, ledger.config().block_reward);
  return RootFromScratch(scratch);
}

void BenchBlockBuild(size_t accounts, std::vector<ScenarioResult>* out) {
  Ledger ledger(1, FundedState(accounts));
  const Address miner = BenchAddr(accounts - 1);
  const std::vector<Transaction> txs = BlockTxs(accounts);

  // Identity gate: the snapshot-trial build must commit to the same root as
  // the copy-everything build.
  const Block built = ledger.BuildBlock(miner, txs, /*timestamp=*/1);
  if (built.transactions.size() != txs.size() ||
      built.header.state_root != OldStyleBuild(ledger, miner, txs)) {
    IdentityFailure("block_build", accounts);
  }

  const double new_ops = MeasureOpsPerSec([&] {
    return ledger.BuildBlock(miner, txs, 1).header.state_root.Prefix64();
  });
  const double old_ops = MeasureOpsPerSec(
      [&] { return OldStyleBuild(ledger, miner, txs).Prefix64(); });
  Report(out, "block_build", accounts, old_ops, new_ops);
}

// ----------------------------- fork ----------------------------------

/// A funded state for one fork row, and the resident bytes per account
/// its build added to the peak RSS.
struct ForkBase {
  size_t accounts = 0;
  StateDB db;
  int64_t bytes_per_account = 0;
};

ForkBase BuildForkBase(size_t accounts) {
  ForkBase base;
  base.accounts = accounts;
  const int64_t rss_before = PeakRssBytes();
  base.db = FundedState(accounts);
  (void)base.db.StateRoot();
  base.bytes_per_account =
      (PeakRssBytes() - rss_before) / static_cast<int64_t>(accounts);
  return base;
}

void BenchFork(const ForkBase& base, std::vector<ScenarioResult>* out) {
  const size_t accounts = base.accounts;
  const StateDB& db = base.db;
  uint64_t cursor = 0;
  auto fork_and_write = [&] {
    StateDB fork = db;
    fork.Mint(BenchAddr(cursor++ % accounts), 1);
    return fork;
  };

  // Identity gate: a fork's incremental root equals the from-scratch
  // rebuild of its contents, and forking never moves the base root.
  const Hash256 base_root = db.StateRoot();
  {
    StateDB fork = fork_and_write();
    if (fork.StateRoot() != RootFromScratch(fork) ||
        db.StateRoot() != base_root) {
      IdentityFailure("fork", accounts);
    }
  }

  const double new_ops = MeasureOpsPerSec(
      [&] { return fork_and_write().StateRoot().Prefix64(); });
  const std::map<Address, Account> plain = AccountMap(db);
  const double old_ops = MeasureOpsPerSec([&] {
    std::map<Address, Account> copy = plain;
    return static_cast<uint64_t>(copy.size());
  });
  Report(out, "fork", accounts, old_ops, new_ops, base.bytes_per_account);
}

}  // namespace
}  // namespace shardchain

int main() {
  using namespace shardchain;

  bench::Banner(
      "BENCH state scaling (DESIGN.md §10)",
      "persistent account trie: root update O(dirty*depth) not O(n); "
      "snapshots and forks share the root, not copy the accounts; roots "
      "byte-identical");

  std::vector<ScenarioResult> results;
  const std::vector<std::string> header = {
      "scenario", "accounts", "old/sec", "new/sec", "speedup", "bytes/acct"};
  {
    // Every fork base is built before anything else is allocated and
    // stays alive, so each build's peak-RSS growth is its own footprint.
    std::vector<ForkBase> bases;
    for (const size_t accounts : kForkAccountCounts) {
      bases.push_back(BuildForkBase(accounts));
    }
    bench::Row(header);
    for (const ForkBase& base : bases) BenchFork(base, &results);
    std::printf("\n");
  }
  for (const size_t accounts : kAccountCounts) {
    bench::Row(header);
    BenchRootUpdate(accounts, &results);
    BenchSnapshotRevert(accounts, &results);
    BenchBlockBuild(accounts, &results);
    std::printf("\n");
  }

  bench::Json doc = bench::Json::Object();
  doc.Set("bench", bench::Json::Str("state_scaling"));
  doc.Set("identity_gate",
          bench::Json::Str("incremental root byte-identical to from-scratch "
                           "rebuild in every scenario (asserted pre-timing)"));
  doc.Set("touched_per_root_update",
          bench::Json::Int(static_cast<int64_t>(kTouchedPerRoot)));
  doc.Set("writes_per_snapshot_span",
          bench::Json::Int(static_cast<int64_t>(kTouchedPerSnap)));
  bench::Json arr = bench::Json::Array();
  for (const ScenarioResult& r : results) {
    bench::Json row = bench::Json::Object();
    row.Set("scenario", bench::Json::Str(r.scenario));
    row.Set("accounts", bench::Json::Int(static_cast<int64_t>(r.accounts)));
    row.Set("old_ops_per_sec", bench::Json::Num(r.old_ops_per_sec));
    row.Set("new_ops_per_sec", bench::Json::Num(r.new_ops_per_sec));
    row.Set("speedup", bench::Json::Num(r.speedup));
    if (r.bytes_per_account >= 0) {
      row.Set("bytes_per_account", bench::Json::Int(r.bytes_per_account));
    }
    arr.Push(std::move(row));
  }
  doc.Set("results", std::move(arr));
  const std::string path = "BENCH_state.json";
  if (!bench::WriteJsonFile(path, doc)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
