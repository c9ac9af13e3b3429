#include "chain/snapshot.h"

#include "types/codec.h"

namespace shardchain {
namespace snapshot {

Bytes Serialize(const StateDB& state) {
  Bytes out;
  const std::vector<Address> addresses = state.Addresses();
  AppendUint64(&out, addresses.size());
  for (const Address& addr : addresses) {
    const Account* account = state.Find(addr);
    out.insert(out.end(), addr.bytes.begin(), addr.bytes.end());
    AppendUint64(&out, account->balance);
    AppendUint64(&out, account->nonce);
    AppendUint64(&out, account->code.size());
    out.insert(out.end(), account->code.begin(), account->code.end());
    AppendUint64(&out, account->storage.size());
    for (const auto& [key, value] : account->storage) {
      AppendUint64(&out, key);
      AppendUint64(&out, static_cast<uint64_t>(value));
    }
  }
  return out;
}

Result<StateDB> Deserialize(const Bytes& wire, const Hash256& expected_root) {
  codec::Reader reader(wire);
  StateDB state;
  uint64_t count = 0;
  SHARDCHAIN_ASSIGN_OR_RETURN(count, reader.ReadU64());
  // Every account needs at least 20 + 3*8 + 8 bytes.
  if (count > wire.size() / 52) {
    return Status::Corruption("account count exceeds snapshot size");
  }
  // The wire is canonical: addresses and storage keys strictly
  // ascending, so one state has exactly one snapshot.
  Address prev_addr;
  for (uint64_t i = 0; i < count; ++i) {
    Address addr;
    SHARDCHAIN_ASSIGN_OR_RETURN(addr, reader.ReadAddress());
    if (i > 0 && !(prev_addr < addr)) {
      return Status::Corruption("snapshot addresses not strictly ascending");
    }
    prev_addr = addr;
    Account& account = state.GetOrCreate(addr);
    SHARDCHAIN_ASSIGN_OR_RETURN(account.balance, reader.ReadU64());
    SHARDCHAIN_ASSIGN_OR_RETURN(account.nonce, reader.ReadU64());
    uint64_t code_len = 0;
    SHARDCHAIN_ASSIGN_OR_RETURN(code_len, reader.ReadU64());
    if (code_len > reader.remaining()) {
      return Status::Corruption("code length exceeds snapshot");
    }
    SHARDCHAIN_ASSIGN_OR_RETURN(
        account.code, reader.ReadBytes(static_cast<size_t>(code_len)));
    uint64_t slots = 0;
    SHARDCHAIN_ASSIGN_OR_RETURN(slots, reader.ReadU64());
    if (slots > reader.remaining() / 16) {
      return Status::Corruption("storage slot count exceeds snapshot");
    }
    for (uint64_t s = 0; s < slots; ++s) {
      uint64_t key = 0;
      uint64_t value = 0;
      SHARDCHAIN_ASSIGN_OR_RETURN(key, reader.ReadU64());
      SHARDCHAIN_ASSIGN_OR_RETURN(value, reader.ReadU64());
      if (s > 0 && key <= account.storage.rbegin()->first) {
        return Status::Corruption("storage keys not strictly ascending");
      }
      account.storage.emplace_hint(account.storage.end(), key,
                                   static_cast<int64_t>(value));
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after snapshot");
  }
  if (!expected_root.IsZero() && state.StateRoot() != expected_root) {
    return Status::Corruption("snapshot does not match the state root");
  }
  return state;
}

size_t SizeOf(const StateDB& state) { return Serialize(state).size(); }

}  // namespace snapshot
}  // namespace shardchain
