#include "txpool/txpool.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace shardchain {

TxPool::TxPool(size_t capacity, size_t chunk_capacity)
    : capacity_(capacity),
      chunk_capacity_(chunk_capacity == 0 ? 1 : chunk_capacity) {}

Status TxPool::Add(const Transaction& tx) {
  const Hash256 id = tx.Id();
  if (by_id_.count(id) > 0) {
    return Status::AlreadyExists("transaction already pooled");
  }
  const FeeKey key{tx.fee, id};
  if (size_ >= capacity_) {
    // The cheapest live entry is the max over per-chunk worst keys.
    // Compare full FeeKeys, not bare fees: deciding fee ties by arrival
    // order would make the retained set depend on gossip timing, and a
    // full pool would then feed different tx_fees into the unified
    // parameters on different miners (tests/determinism_harness_test.cc
    // and the PR 1 regression in tests/mempool_differential_test.cc).
    if (size_ == 0) {
      return Status::FailedPrecondition(
          "pool full of transactions ranked higher");
    }
    const uint32_t wi = WorstChunk();
    Chunk& c = chunks_[wi];
    if (!(key < c.worst)) {
      return Status::FailedPrecondition(
          "pool full of transactions ranked higher");
    }
    by_id_.erase(c.ids[c.worst_slot]);
    MarkDead(Locator{wi, c.worst_slot});
    SweepChunk(wi);
  }
  Insert(tx, id);
  return Status::OK();
}

std::vector<Status> TxPool::AddBatch(const std::vector<Transaction>& txs) {
  std::vector<Status> out;
  out.reserve(txs.size());
  for (const Transaction& tx : txs) out.push_back(Add(tx));
  return out;
}

std::vector<Status> TxPool::AddSignedBatch(
    const std::vector<Transaction>& txs,
    const std::vector<const PublicKey*>& pks,
    const std::vector<const Signature*>& sigs, ThreadPool* pool) {
  if (pks.size() != txs.size() || sigs.size() != txs.size()) {
    return std::vector<Status>(
        txs.size(), Status::InvalidArgument(
                        "signed batch: txs, keys and signatures differ in "
                        "length"));
  }
  std::vector<Hash256> digests(txs.size());
  std::vector<const Hash256*> digest_ptrs(txs.size());
  for (size_t i = 0; i < txs.size(); ++i) {
    digests[i] = txs[i].SigningDigest();
    digest_ptrs[i] = &digests[i];
  }
  const std::vector<uint8_t> ok = VerifyBatch(pks, digest_ptrs, sigs, pool);
  std::vector<Status> out;
  out.reserve(txs.size());
  for (size_t i = 0; i < txs.size(); ++i) {
    if (!ok[i]) {
      out.push_back(Status::Unauthorized("bad transaction signature"));
      continue;
    }
    out.push_back(Add(txs[i]));
  }
  return out;
}

Status TxPool::Remove(const Hash256& id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return Status::NotFound("transaction not pooled");
  const Locator loc = it->second;
  by_id_.erase(it);
  MarkDead(loc);
  SweepChunk(loc.chunk);
  return Status::OK();
}

void TxPool::RemoveAll(const std::vector<Transaction>& confirmed) {
  // Phase 1: mark every confirmed slot dead in its chunk's bitmap.
  std::vector<uint32_t> touched;
  touched.reserve(confirmed.size());
  for (const Transaction& tx : confirmed) {
    auto it = by_id_.find(tx.Id());
    if (it == by_id_.end()) continue;
    const Locator loc = it->second;
    by_id_.erase(it);
    MarkDead(loc);
    touched.push_back(loc.chunk);
  }
  // Phase 2: compact/recycle only the touched chunks, in index order.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (uint32_t ci : touched) SweepChunk(ci);
}

bool TxPool::Contains(const Hash256& id) const { return by_id_.count(id) > 0; }

// flowlint: deterministic-root — consensus entry point (DESIGN.md §14)
std::vector<Transaction> TxPool::TopByFee(size_t n) const {
  std::vector<Transaction> out;
  out.reserve(std::min(n, size_));
  if (n == 0 || size_ == 0) return out;
  // K-way merge of per-chunk fee-sorted runs. Every live tx carries a
  // unique FeeKey, so the merged sequence is the unique total order —
  // byte-identical to the legacy pool's ordered-map walk regardless of
  // how transactions are laid out across chunks.
  struct Cursor {
    FeeKey key;
    uint32_t chunk;
    uint32_t pos;
  };
  // std::*_heap pops the max under this comparator; "max" = best-ranked.
  const auto worse = [](const Cursor& a, const Cursor& b) {
    return b.key < a.key;
  };
  std::vector<Cursor> heap;
  heap.reserve(chunks_.size());
  for (uint32_t ci = 0; ci < static_cast<uint32_t>(chunks_.size()); ++ci) {
    const Chunk& c = chunks_[ci];
    if (c.live == 0) continue;
    EnsureOrder(c);
    uint32_t pos = 0;
    while (c.dead[c.order[pos]]) ++pos;  // live > 0 bounds the scan
    const uint32_t slot = c.order[pos];
    heap.push_back(Cursor{FeeKey{c.txs[slot].fee, c.ids[slot]}, ci, pos});
  }
  std::make_heap(heap.begin(), heap.end(), worse);
  while (!heap.empty() && out.size() < n) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    const Cursor cur = heap.back();
    heap.pop_back();
    const Chunk& c = chunks_[cur.chunk];
    out.push_back(c.txs[c.order[cur.pos]]);
    uint32_t pos = cur.pos + 1;
    while (pos < c.order.size() && c.dead[c.order[pos]]) ++pos;
    if (pos < c.order.size()) {
      const uint32_t slot = c.order[pos];
      heap.push_back(
          Cursor{FeeKey{c.txs[slot].fee, c.ids[slot]}, cur.chunk, pos});
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  return out;
}

size_t TxPool::ChunkCount() const {
  size_t n = 0;
  for (const Chunk& c : chunks_) {
    if (c.live > 0) ++n;
  }
  return n;
}

void TxPool::Insert(const Transaction& tx, const Hash256& id) {
  if (open_.empty()) {
    chunks_.emplace_back();
    Chunk& fresh = chunks_.back();
    fresh.txs.reserve(chunk_capacity_);
    fresh.ids.reserve(chunk_capacity_);
    fresh.dead.reserve(chunk_capacity_);
    open_.push_back(static_cast<uint32_t>(chunks_.size() - 1));
  }
  const uint32_t ci = open_.back();
  Chunk& c = chunks_[ci];
  const uint32_t slot = static_cast<uint32_t>(c.txs.size());
  c.txs.push_back(tx);
  c.ids.push_back(id);
  c.dead.push_back(0);
  const FeeKey key{tx.fee, id};
  if (c.live == 0) {
    c.worst = key;
    c.worst_slot = slot;
    c.worst_valid = true;
  } else if (c.worst_valid && c.worst < key) {
    c.worst = key;
    c.worst_slot = slot;
  }
  ++c.live;
  c.order_valid = false;
  if (c.txs.size() >= chunk_capacity_) {
    c.open = false;
    open_.pop_back();
  }
  by_id_.emplace(id, Locator{ci, slot});
  ++size_;
}

void TxPool::MarkDead(const Locator& loc) {
  Chunk& c = chunks_[loc.chunk];
  assert(!c.dead[loc.slot]);
  c.dead[loc.slot] = 1;
  --c.live;
  --size_;
  if (c.worst_valid && c.worst_slot == loc.slot) c.worst_valid = false;
}

void TxPool::SweepChunk(uint32_t ci) {
  Chunk& c = chunks_[ci];
  if (c.txs.empty()) return;
  if (c.live == 0) {
    // Fully confirmed: recycle the chunk wholesale (capacity retained).
    c.txs.clear();
    c.ids.clear();
    c.dead.clear();
    c.order.clear();
    c.order_valid = true;
    c.worst_valid = true;
    if (!c.open) {
      c.open = true;
      open_.push_back(ci);
    }
    return;
  }
  // Compact once >= 3/4 of the slots are dead; below that, the bitmap
  // skip during emission is cheaper than rewriting locators.
  if (c.live * 4 > c.txs.size()) return;
  size_t w = 0;
  for (size_t s = 0; s < c.txs.size(); ++s) {
    if (c.dead[s]) continue;
    if (w != s) {
      c.txs[w] = std::move(c.txs[s]);
      c.ids[w] = c.ids[s];
      by_id_[c.ids[w]] = Locator{ci, static_cast<uint32_t>(w)};
    }
    ++w;
  }
  c.txs.resize(w);
  c.ids.resize(w);
  c.dead.assign(w, 0);
  c.order_valid = false;
  c.worst_valid = false;
  if (!c.open && w < chunk_capacity_) {
    c.open = true;
    open_.push_back(ci);
  }
}

uint32_t TxPool::WorstChunk() const {
  uint32_t best = 0;
  bool found = false;
  for (uint32_t ci = 0; ci < static_cast<uint32_t>(chunks_.size()); ++ci) {
    const Chunk& c = chunks_[ci];
    if (c.live == 0) continue;
    EnsureWorst(c);
    if (!found || chunks_[best].worst < c.worst) {
      best = ci;
      found = true;
    }
  }
  assert(found);
  return best;
}

void TxPool::EnsureOrder(const Chunk& c) {
  if (c.order_valid) return;
  c.order.resize(c.txs.size());
  std::iota(c.order.begin(), c.order.end(), 0u);
  std::sort(c.order.begin(), c.order.end(), [&c](uint32_t a, uint32_t b) {
    return FeeKey{c.txs[a].fee, c.ids[a]} < FeeKey{c.txs[b].fee, c.ids[b]};
  });
  c.order_valid = true;
}

void TxPool::EnsureWorst(const Chunk& c) {
  if (c.worst_valid) return;
  bool first = true;
  for (uint32_t s = 0; s < static_cast<uint32_t>(c.txs.size()); ++s) {
    if (c.dead[s]) continue;
    const FeeKey k{c.txs[s].fee, c.ids[s]};
    if (first || c.worst < k) {
      c.worst = k;
      c.worst_slot = s;
      first = false;
    }
  }
  c.worst_valid = true;
}

}  // namespace shardchain
