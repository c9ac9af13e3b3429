#include "core/migration.h"

#include <algorithm>
#include <bit>
#include <tuple>

#include "common/hex.h"
#include "types/codec.h"

namespace shardchain {

Result<HandoffRecord> BuildHandoff(const StateDB& source_state, ShardId source,
                                   ShardId dest, const Address& addr) {
  if (source == dest) {
    return Status::InvalidArgument("handoff source equals destination");
  }
  const Account* account = source_state.Find(addr);
  if (account == nullptr) {
    return Status::NotFound("account not materialized on source shard");
  }
  HandoffRecord record;
  record.addr = addr;
  record.source = source;
  record.dest = dest;
  record.source_root = source_state.StateRoot();
  record.account = *account;
  record.proof = source_state.ProveAccount(addr);
  return record;
}

Status VerifyHandoff(const HandoffRecord& record) {
  if (record.source == record.dest) {
    return Status::Unauthorized("handoff source equals destination");
  }
  const Hash256 digest = record.account.Digest(record.addr);
  std::optional<Hash256> proven;
  SHARDCHAIN_ASSIGN_OR_RETURN(
      proven,
      StateDB::VerifyAccount(record.source_root, record.addr, record.proof));
  if (!proven.has_value()) {
    return Status::Unauthorized("proof shows the account absent at source");
  }
  if (*proven != digest) {
    return Status::Unauthorized("carried account does not match proven digest");
  }
  return Status::OK();
}

void CanonicalizeMigrationPlan(MigrationPlan* plan) {
  std::stable_sort(plan->handoffs.begin(), plan->handoffs.end(),
                   [](const HandoffRecord& a, const HandoffRecord& b) {
                     return std::tie(a.source, a.dest, a.addr.bytes) <
                            std::tie(b.source, b.dest, b.addr.bytes);
                   });
}

namespace codec {

namespace {

/// Count prefix guarded against the remaining buffer (each element
/// needs at least `min_elem_bytes`), so corrupt input cannot drive a
/// huge reserve.
Result<size_t> ReadCount(Reader* r, size_t min_elem_bytes) {
  uint64_t count = 0;
  SHARDCHAIN_ASSIGN_OR_RETURN(count, r->ReadU64());
  if (count > r->remaining() / min_elem_bytes) {
    return Status::Corruption("count exceeds buffer");
  }
  return static_cast<size_t>(count);
}

void AppendLengthPrefixed(Bytes* out, const Bytes& data) {
  AppendUint64(out, data.size());
  out->insert(out->end(), data.begin(), data.end());
}

Result<Bytes> ReadLengthPrefixed(Reader* r) {
  size_t len = 0;
  SHARDCHAIN_ASSIGN_OR_RETURN(len, ReadCount(r, 1));
  return r->ReadBytes(len);
}

}  // namespace

// flowlint: deterministic-root — consensus byte stream (DESIGN.md §12)
Bytes EncodeAccountState(const Account& account) {
  Bytes out;
  AppendUint64(&out, account.balance);
  AppendUint64(&out, account.nonce);
  AppendLengthPrefixed(&out, account.code);
  AppendUint64(&out, account.storage.size());
  // std::map iterates in key order: canonical by construction.
  for (const auto& [key, value] : account.storage) {
    AppendUint64(&out, key);
    AppendUint64(&out, std::bit_cast<uint64_t>(value));
  }
  return out;
}

// flowlint: deterministic-root — consensus byte stream (DESIGN.md §12)
Result<Account> DecodeAccountState(const Bytes& data) {
  Reader r(data);
  Account account;
  SHARDCHAIN_ASSIGN_OR_RETURN(account.balance, r.ReadU64());
  SHARDCHAIN_ASSIGN_OR_RETURN(account.nonce, r.ReadU64());
  SHARDCHAIN_ASSIGN_OR_RETURN(account.code, ReadLengthPrefixed(&r));
  size_t slots = 0;
  SHARDCHAIN_ASSIGN_OR_RETURN(slots, ReadCount(&r, 16));
  uint64_t prev_key = 0;
  for (size_t i = 0; i < slots; ++i) {
    uint64_t key = 0;
    uint64_t value = 0;
    SHARDCHAIN_ASSIGN_OR_RETURN(key, r.ReadU64());
    SHARDCHAIN_ASSIGN_OR_RETURN(value, r.ReadU64());
    if (i > 0 && key <= prev_key) {
      return Status::Corruption("storage keys not strictly ascending");
    }
    prev_key = key;
    account.storage.emplace(key, std::bit_cast<int64_t>(value));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after account");
  return account;
}

// flowlint: deterministic-root — consensus byte stream (DESIGN.md §12)
Bytes EncodeHandoffRecord(const HandoffRecord& record) {
  Bytes out;
  out.insert(out.end(), record.addr.bytes.begin(), record.addr.bytes.end());
  AppendUint32(&out, record.source);
  AppendUint32(&out, record.dest);
  out.insert(out.end(), record.source_root.bytes.begin(),
             record.source_root.bytes.end());
  AppendLengthPrefixed(&out, EncodeAccountState(record.account));
  AppendUint64(&out, record.proof.size());
  for (const mpt::ProofNode& node : record.proof) {
    AppendLengthPrefixed(&out, node.encoded);
  }
  return out;
}

// flowlint: deterministic-root — consensus byte stream (DESIGN.md §12)
Result<HandoffRecord> DecodeHandoffRecord(const Bytes& data) {
  Reader r(data);
  HandoffRecord record;
  SHARDCHAIN_ASSIGN_OR_RETURN(record.addr, r.ReadAddress());
  SHARDCHAIN_ASSIGN_OR_RETURN(record.source, r.ReadU32());
  SHARDCHAIN_ASSIGN_OR_RETURN(record.dest, r.ReadU32());
  SHARDCHAIN_ASSIGN_OR_RETURN(record.source_root, r.ReadHash());
  Bytes account_bytes;
  SHARDCHAIN_ASSIGN_OR_RETURN(account_bytes, ReadLengthPrefixed(&r));
  SHARDCHAIN_ASSIGN_OR_RETURN(record.account,
                              DecodeAccountState(account_bytes));
  size_t nodes = 0;
  SHARDCHAIN_ASSIGN_OR_RETURN(nodes, ReadCount(&r, 8));
  record.proof.reserve(nodes);
  for (size_t i = 0; i < nodes; ++i) {
    mpt::ProofNode node;
    SHARDCHAIN_ASSIGN_OR_RETURN(node.encoded, ReadLengthPrefixed(&r));
    record.proof.push_back(std::move(node));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after handoff");
  return record;
}

// flowlint: deterministic-root — consensus byte stream (DESIGN.md §12)
Bytes EncodeMigrationPlan(const MigrationPlan& plan) {
  Bytes out;
  AppendUint64(&out, plan.epoch);
  AppendUint64(&out, plan.handoffs.size());
  for (const HandoffRecord& record : plan.handoffs) {
    AppendLengthPrefixed(&out, EncodeHandoffRecord(record));
  }
  return out;
}

// flowlint: deterministic-root — consensus byte stream (DESIGN.md §12)
Result<MigrationPlan> DecodeMigrationPlan(const Bytes& data) {
  Reader r(data);
  MigrationPlan plan;
  SHARDCHAIN_ASSIGN_OR_RETURN(plan.epoch, r.ReadU64());
  size_t count = 0;
  SHARDCHAIN_ASSIGN_OR_RETURN(count, ReadCount(&r, 8));
  plan.handoffs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Bytes record_bytes;
    SHARDCHAIN_ASSIGN_OR_RETURN(record_bytes, ReadLengthPrefixed(&r));
    HandoffRecord record;
    SHARDCHAIN_ASSIGN_OR_RETURN(record, DecodeHandoffRecord(record_bytes));
    plan.handoffs.push_back(std::move(record));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after plan");
  return plan;
}

}  // namespace codec
}  // namespace shardchain
