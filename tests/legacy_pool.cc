#include "legacy_pool.h"

#include <algorithm>

namespace shardchain {

Status LegacyTxPool::Add(const Transaction& tx) {
  const Hash256 id = tx.Id();
  if (by_id_.count(id) > 0) {
    return Status::AlreadyExists("transaction already pooled");
  }
  const FeeKey key{tx.fee, id};
  if (by_id_.size() >= capacity_) {
    // The cheapest entry is the last in fee order. Compare full FeeKeys,
    // not bare fees: deciding fee ties by arrival order would make the
    // retained set depend on gossip timing, and a full pool would then
    // feed different tx_fees into the unified parameters on different
    // miners (see tests/determinism_harness_test.cc).
    auto worst = std::prev(by_fee_.end());
    if (!(key < worst->first)) {
      return Status::FailedPrecondition(
          "pool full of transactions ranked higher");
    }
    by_id_.erase(worst->first.id);
    by_fee_.erase(worst);
  }
  by_fee_.emplace(key, tx);
  by_id_.emplace(id, key);
  return Status::OK();
}

Status LegacyTxPool::Remove(const Hash256& id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return Status::NotFound("transaction not pooled");
  by_fee_.erase(it->second);
  by_id_.erase(it);
  return Status::OK();
}

void LegacyTxPool::RemoveAll(const std::vector<Transaction>& confirmed) {
  // Resolve ids to fee keys up front (dropping anything not pooled),
  // then sort into map order so removal touches the tree left to right.
  std::vector<FeeKey> keys;
  keys.reserve(confirmed.size());
  for (const Transaction& tx : confirmed) {
    auto it = by_id_.find(tx.Id());
    if (it == by_id_.end()) continue;
    keys.push_back(it->second);
    by_id_.erase(it);
  }
  if (keys.empty()) return;
  std::sort(keys.begin(), keys.end());
  // Heuristic crossover: a single in-order sweep is O(n + m); per-key
  // erase is O(m log n). Sweep once the confirmed set is a meaningful
  // fraction of the pool (the block-confirmation case this fixes).
  const size_t n = by_fee_.size();
  if (keys.size() * 16 >= n) {
    auto it = by_fee_.begin();
    size_t k = 0;
    while (it != by_fee_.end() && k < keys.size()) {
      if (it->first < keys[k]) {
        ++it;
      } else {
        // Keys were resolved from the live index, so it->first == keys[k].
        it = by_fee_.erase(it);
        ++k;
      }
    }
  } else {
    for (const FeeKey& key : keys) by_fee_.erase(key);
  }
}

bool LegacyTxPool::Contains(const Hash256& id) const {
  return by_id_.count(id) > 0;
}

std::vector<Transaction> LegacyTxPool::TopByFee(size_t n) const {
  std::vector<Transaction> out;
  out.reserve(std::min(n, by_fee_.size()));
  for (const auto& [key, tx] : by_fee_) {
    if (out.size() >= n) break;
    out.push_back(tx);
  }
  return out;
}

}  // namespace shardchain
