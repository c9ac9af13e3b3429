#include "state/statedb.h"

#include <algorithm>
#include <array>

#include "crypto/sha256.h"

namespace shardchain {

namespace {

/// Every key is a 20-byte address: 40 nibbles, high nibble first.
constexpr size_t kKeyNibbles = 2 * sizeof(Address{}.bytes);

uint8_t NibbleAt(const Address& addr, size_t i) {
  const uint8_t b = addr.bytes[i / 2];
  return i % 2 == 0 ? b >> 4 : b & 0x0f;
}

Bytes AddressKey(const Address& addr) {
  return Bytes(addr.bytes.begin(), addr.bytes.end());
}

}  // namespace

Hash256 Account::Digest(const Address& addr) const {
  Bytes buf;
  buf.reserve(64 + code.size() + storage.size() * 16);
  buf.insert(buf.end(), addr.bytes.begin(), addr.bytes.end());
  AppendUint64(&buf, balance);
  AppendUint64(&buf, nonce);
  AppendUint64(&buf, code.size());
  buf.insert(buf.end(), code.begin(), code.end());
  AppendUint64(&buf, storage.size());
  for (const auto& [key, value] : storage) {
    AppendUint64(&buf, key);
    AppendUint64(&buf, static_cast<uint64_t>(value));
  }
  return Sha256Digest(buf);
}

struct StateDB::Node {
  enum class Kind : uint8_t { kLeaf, kExtension, kBranch };
  explicit Node(Kind k) : kind(k) {}
  Kind kind;
};

/// The account trie. Keys all have kKeyNibbles nibbles, so no key is a
/// prefix of another: a branch never stores a value, every branch has
/// at least two children, and every extension ends in a branch. That
/// shape is canonical, so equal contents give equal roots.
struct StateDB::Trie {
  using Kind = Node::Kind;

  /// `Leaf::hash_depth` of a leaf whose hash is not cached.
  static constexpr uint8_t kUnhashed = 0xff;

  /// One account. The leaf stores no key suffix because its depth
  /// implies it, so an insert that re-seats it under a new branch (or an
  /// erase that lifts it) keeps the node, and with it any Account& and
  /// its identity for TouchedSince. Its hash depends on that depth, so
  /// the cached hash is tagged with the depth it was computed at and
  /// read only at that depth. A write clears it (Upsert); only a branch
  /// that is the leaf's sole holder sets it (CacheLeafHashes).
  struct Leaf : Node {
    explicit Leaf(const Address& a) : Node(Kind::kLeaf), addr(a) {}
    Address addr;
    mutable uint8_t hash_depth = kUnhashed;
    mutable Hash256 hash;
    Account account;
  };

  /// An extension (`path` then `children[0]`) or a branch (`children`),
  /// with its hash cached. Shared inner nodes are always hashed, so the
  /// cache is only ever written on a node one version owns.
  struct Inner : Node {
    using Node::Node;
    std::vector<uint8_t> path;
    std::array<NodePtr, 16> children;
    mutable Hash256 hash;
    mutable bool hash_valid = false;
  };

  static Leaf& AsLeaf(Node& n) { return static_cast<Leaf&>(n); }
  static const Leaf& AsLeaf(const Node& n) {
    return static_cast<const Leaf&>(n);
  }
  static Inner& AsInner(Node& n) { return static_cast<Inner&>(n); }
  static const Inner& AsInner(const Node& n) {
    return static_cast<const Inner&>(n);
  }

  /// Makes `*slot` private to the version that owns the slot, cloning it
  /// when anything else (a copy, a snapshot, another parent) holds it.
  /// The clone shares the children, whose counts the clone raises, so
  /// the walk down clones exactly the shared part of the path.
  static Node& Own(NodePtr* slot) {
    if (slot->use_count() != 1) {
      if ((*slot)->kind == Kind::kLeaf) {
        *slot = std::make_shared<Leaf>(AsLeaf(**slot));
      } else {
        *slot = std::make_shared<Inner>(AsInner(**slot));
      }
    }
    return **slot;
  }

  /// Own() for an inner node about to change below: drops its hash.
  static Inner& OwnInner(NodePtr* slot) {
    Inner& n = AsInner(Own(slot));
    n.hash_valid = false;
    return n;
  }

  /// `child` under an extension holding `addr`'s nibbles [from, to), or
  /// `child` itself when the run is empty.
  static NodePtr Extend(const Address& addr, size_t from, size_t to,
                        NodePtr child) {
    if (from == to) return child;
    auto ext = std::make_shared<Inner>(Kind::kExtension);
    for (size_t i = from; i < to; ++i) ext->path.push_back(NibbleAt(addr, i));
    ext->children[0] = std::move(child);
    return ext;
  }

  static NodePtr Branch2(uint8_t i, NodePtr a, uint8_t j, NodePtr b) {
    auto branch = std::make_shared<Inner>(Kind::kBranch);
    branch->children[i] = std::move(a);
    branch->children[j] = std::move(b);
    return branch;
  }

  /// The account at `addr`, inserted empty when absent (`*created`).
  /// Its leaf and the nodes above it are private to this version, with
  /// no cached hash.
  static Account& Upsert(NodePtr* slot, const Address& addr, bool* created) {
    size_t depth = 0;
    while (*slot) {
      if ((*slot)->kind == Kind::kLeaf) {
        if (AsLeaf(**slot).addr == addr) {
          Leaf& leaf = AsLeaf(Own(slot));
          leaf.hash_depth = kUnhashed;
          return leaf.account;
        }
        // Another account: both leaves go under a branch where the keys
        // part; the old leaf keeps its node.
        const Address& other = AsLeaf(**slot).addr;
        size_t split = depth;
        while (NibbleAt(other, split) == NibbleAt(addr, split)) ++split;
        auto leaf = std::make_shared<Leaf>(addr);
        Account& account = leaf->account;
        const uint8_t old_nibble = NibbleAt(other, split);
        NodePtr branch = Branch2(old_nibble, std::move(*slot),
                                 NibbleAt(addr, split), std::move(leaf));
        *slot = Extend(addr, depth, split, std::move(branch));
        *created = true;
        return account;
      }
      if ((*slot)->kind == Kind::kExtension) {
        const Inner& ext = AsInner(**slot);
        size_t run = 0;
        while (run < ext.path.size() &&
               ext.path[run] == NibbleAt(addr, depth + run)) {
          ++run;
        }
        if (run < ext.path.size()) {
          // The key leaves the run at `run`: split the extension there.
          NodePtr tail = ext.children[0];
          if (run + 1 < ext.path.size()) {
            auto rest = std::make_shared<Inner>(Kind::kExtension);
            rest->path.assign(
                ext.path.begin() + static_cast<ptrdiff_t>(run + 1),
                ext.path.end());
            rest->children[0] = std::move(tail);
            tail = std::move(rest);
          }
          auto leaf = std::make_shared<Leaf>(addr);
          Account& account = leaf->account;
          NodePtr branch =
              Branch2(ext.path[run], std::move(tail),
                      NibbleAt(addr, depth + run), std::move(leaf));
          *slot = Extend(addr, depth, depth + run, std::move(branch));
          *created = true;
          return account;
        }
        Inner& own = OwnInner(slot);
        depth += own.path.size();
        slot = &own.children[0];
        continue;
      }
      Inner& branch = OwnInner(slot);
      slot = &branch.children[NibbleAt(addr, depth)];
      ++depth;
    }
    auto leaf = std::make_shared<Leaf>(addr);
    Account& account = leaf->account;
    *slot = std::move(leaf);
    *created = true;
    return account;
  }

  static const Leaf* Find(const Node* n, const Address& addr) {
    size_t depth = 0;
    while (n != nullptr) {
      if (n->kind == Kind::kLeaf) {
        return AsLeaf(*n).addr == addr ? &AsLeaf(*n) : nullptr;
      }
      const Inner& in = AsInner(*n);
      if (in.kind == Kind::kExtension) {
        for (const uint8_t nibble : in.path) {
          if (nibble != NibbleAt(addr, depth++)) return nullptr;
        }
        n = in.children[0].get();
      } else {
        n = in.children[NibbleAt(addr, depth++)].get();
      }
    }
    return nullptr;
  }

  /// Removes `addr`, which must be present under `*slot` at `depth`.
  static void Erase(NodePtr* slot, const Address& addr, size_t depth) {
    if ((*slot)->kind == Kind::kLeaf) {
      slot->reset();
      return;
    }
    Inner& n = OwnInner(slot);
    if (n.kind == Kind::kExtension) {
      Erase(&n.children[0], addr, depth + n.path.size());
    } else {
      Erase(&n.children[NibbleAt(addr, depth)], addr, depth + 1);
    }
    Collapse(slot);
  }

  /// Restores the canonical shape of the owned inner node `*slot` after
  /// a key below it was erased: a branch left with one child becomes an
  /// extension, an extension over a leaf gives way to the leaf, and an
  /// extension over an extension absorbs its run.
  static void Collapse(NodePtr* slot) {
    Inner& n = AsInner(**slot);
    if (n.kind == Kind::kBranch) {
      size_t count = 0;
      size_t only = 0;
      for (size_t i = 0; i < 16; ++i) {
        if (n.children[i]) {
          ++count;
          only = i;
        }
      }
      if (count > 1) return;
      NodePtr child = std::move(n.children[only]);
      n.kind = Kind::kExtension;
      n.path.assign(1, static_cast<uint8_t>(only));
      n.children[0] = std::move(child);
    }
    NodePtr& child = n.children[0];
    if (child->kind == Kind::kLeaf) {
      NodePtr leaf = std::move(child);
      *slot = std::move(leaf);
    } else if (child->kind == Kind::kExtension) {
      const Inner& below = AsInner(*child);
      n.path.insert(n.path.end(), below.path.begin(), below.path.end());
      NodePtr grandchild = below.children[0];
      child = std::move(grandchild);
    }
  }

  /// The node's encoding at `depth` (a leaf encodes the key nibbles
  /// below its depth); hashes the children first.
  static Bytes Serialize(const Node& n, size_t depth) {
    if (n.kind == Kind::kLeaf) {
      const Leaf& leaf = AsLeaf(n);
      std::array<uint8_t, kKeyNibbles> nibbles{};
      for (size_t i = depth; i < kKeyNibbles; ++i) {
        nibbles[i] = NibbleAt(leaf.addr, i);
      }
      const Hash256 digest = leaf.account.Digest(leaf.addr);
      return mpt::SerializeLeaf(std::span(nibbles).subspan(depth),
                                digest.bytes);
    }
    const Inner& in = AsInner(n);
    if (in.kind == Kind::kExtension) {
      return mpt::SerializeExtension(
          in.path, HashOf(*in.children[0], depth + in.path.size()));
    }
    std::array<Hash256, 16> hashes;
    for (size_t i = 0; i < 16; ++i) {
      if (in.children[i]) hashes[i] = HashOf(*in.children[i], depth + 1);
    }
    return mpt::SerializeBranch(hashes);
  }

  /// The hash of `n` at `depth`. Writes only the caches of nodes being
  /// re-hashed: an inner node's own, and those of the leaves it alone
  /// holds.
  static Hash256 HashOf(const Node& n, size_t depth) {
    if (n.kind == Kind::kLeaf) {
      const Leaf& leaf = AsLeaf(n);
      if (leaf.hash_depth == depth) return leaf.hash;
      return Sha256Digest(Serialize(leaf, depth));
    }
    const Inner& in = AsInner(n);
    if (!in.hash_valid) {
      if (in.kind == Kind::kBranch) CacheLeafHashes(in, depth + 1);
      in.hash = Sha256Digest(Serialize(in, depth));
      in.hash_valid = true;
    }
    return in.hash;
  }

  /// Caches, at `depth`, the hash of every leaf child that `branch`
  /// alone holds. The branch is being re-hashed, so only one version
  /// and one thread reach it (a copy hashes before it shares), and so
  /// only they reach such a leaf (DESIGN.md §10). A leaf another version
  /// also holds may sit at another depth there: it is left alone.
  static void CacheLeafHashes(const Inner& branch, size_t depth) {
    for (const NodePtr& child : branch.children) {
      if (!child || child->kind != Kind::kLeaf || child.use_count() != 1) {
        continue;
      }
      const Leaf& leaf = AsLeaf(*child);
      if (leaf.hash_depth == depth) continue;
      leaf.hash = Sha256Digest(Serialize(leaf, depth));
      leaf.hash_depth = static_cast<uint8_t>(depth);
    }
  }

  static void Prove(const Node* n, const Address& addr, mpt::Proof* proof) {
    size_t depth = 0;
    while (n != nullptr) {
      proof->push_back(mpt::ProofNode{Serialize(*n, depth)});
      if (n->kind == Kind::kLeaf) return;
      const Inner& in = AsInner(*n);
      if (in.kind == Kind::kExtension) {
        for (const uint8_t nibble : in.path) {
          if (nibble != NibbleAt(addr, depth++)) return;  // Absent.
        }
        n = in.children[0].get();
      } else {
        n = in.children[NibbleAt(addr, depth++)].get();
      }
    }
  }

  /// The leaves under `n` in address order.
  static void CollectLeaves(const Node* n, std::vector<const Leaf*>* out) {
    if (n == nullptr) return;
    if (n->kind == Kind::kLeaf) {
      out->push_back(&AsLeaf(*n));
      return;
    }
    for (const NodePtr& child : AsInner(*n).children) {
      CollectLeaves(child.get(), out);
    }
  }

  /// A subtree seen from one depth: `node` with the first `skip` nibbles
  /// of its extension run already consumed.
  struct Cursor {
    const Node* node = nullptr;
    size_t skip = 0;
  };

  /// The subtree one nibble deeper, under slot `i`.
  static Cursor Child(Cursor c, uint8_t i) {
    const Inner& in = AsInner(*c.node);
    if (in.kind == Kind::kBranch) return {in.children[i].get(), 0};
    if (in.path[c.skip] != i) return {};
    if (c.skip + 1 < in.path.size()) return {c.node, c.skip + 1};
    return {in.children[0].get(), 0};
  }

  /// Appends, in address order, the addresses whose leaves differ
  /// between two subtrees at the same depth. Shared subtrees are
  /// skipped without descending.
  static void Diff(Cursor a, Cursor b, std::vector<Address>* out) {
    if (a.node == b.node && a.skip == b.skip) return;
    if (a.node != nullptr && b.node != nullptr &&
        a.node->kind != Kind::kLeaf && b.node->kind != Kind::kLeaf) {
      for (uint8_t i = 0; i < 16; ++i) Diff(Child(a, i), Child(b, i), out);
      return;
    }
    // One side is a single leaf or empty: merge the two leaf lists.
    std::vector<const Leaf*> la;
    std::vector<const Leaf*> lb;
    CollectLeaves(a.node, &la);
    CollectLeaves(b.node, &lb);
    size_t i = 0;
    size_t j = 0;
    while (i < la.size() || j < lb.size()) {
      if (j == lb.size() || (i < la.size() && la[i]->addr < lb[j]->addr)) {
        out->push_back(la[i++]->addr);
      } else if (i == la.size() || lb[j]->addr < la[i]->addr) {
        out->push_back(lb[j++]->addr);
      } else {
        if (la[i] != lb[j]) out->push_back(la[i]->addr);
        ++i;
        ++j;
      }
    }
  }
};

StateDB::StateDB(const StateDB& other) { *this = other; }

StateDB& StateDB::operator=(const StateDB& other) {
  if (this == &other) return *this;
  // Hash before sharing: afterwards neither version writes a shared
  // node, not even its hash cache.
  (void)other.StateRoot();
  live_ = other.live_;
  snapshots_.clear();
  return *this;
}

const Account* StateDB::Find(const Address& addr) const {
  const Trie::Leaf* leaf = Trie::Find(live_.root.get(), addr);
  return leaf == nullptr ? nullptr : &leaf->account;
}

Amount StateDB::BalanceOf(const Address& addr) const {
  const Account* a = Find(addr);
  return a ? a->balance : 0;
}

uint64_t StateDB::NonceOf(const Address& addr) const {
  const Account* a = Find(addr);
  return a ? a->nonce : 0;
}

bool StateDB::IsContract(const Address& addr) const {
  const Account* a = Find(addr);
  return a != nullptr && a->IsContract();
}

Account& StateDB::GetOrCreate(const Address& addr) {
  bool created = false;
  Account& account = Trie::Upsert(&live_.root, addr, &created);
  if (created) ++live_.accounts;
  return account;
}

void StateDB::Mint(const Address& addr, Amount amount) {
  GetOrCreate(addr).balance += amount;
}

Status StateDB::Transfer(const Address& from, const Address& to,
                         Amount amount) {
  // Check before the first write: a failed transfer creates nothing.
  if (BalanceOf(from) < amount) {
    return Status::FailedPrecondition("insufficient balance for transfer");
  }
  GetOrCreate(from).balance -= amount;
  GetOrCreate(to).balance += amount;
  return Status::OK();
}

Status StateDB::DeployContract(const Address& addr, Bytes code) {
  Account& a = GetOrCreate(addr);
  if (a.IsContract()) {
    return Status::AlreadyExists("contract already deployed at address");
  }
  a.code = std::move(code);
  return Status::OK();
}

int64_t StateDB::StorageGet(const Address& addr, uint64_t key) const {
  const Account* a = Find(addr);
  if (a == nullptr) return 0;
  auto it = a->storage.find(key);
  return it == a->storage.end() ? 0 : it->second;
}

void StateDB::StorageSet(const Address& addr, uint64_t key, int64_t value) {
  GetOrCreate(addr).storage[key] = value;
}

bool StateDB::EraseAccount(const Address& addr) {
  if (Find(addr) == nullptr) return false;
  Trie::Erase(&live_.root, addr, 0);
  --live_.accounts;
  return true;
}

size_t StateDB::Snapshot() {
  snapshots_.push_back(live_);
  return snapshots_.size() - 1;
}

Status StateDB::RevertTo(size_t snapshot_id) {
  if (snapshot_id >= snapshots_.size()) {
    return Status::OutOfRange("unknown snapshot id");
  }
  live_ = std::move(snapshots_[snapshot_id]);
  snapshots_.resize(snapshot_id);
  return Status::OK();
}

Status StateDB::Commit(size_t snapshot_id) {
  if (snapshot_id >= snapshots_.size()) {
    return Status::OutOfRange("unknown snapshot id");
  }
  if (snapshot_id + 1 != snapshots_.size()) {
    return Status::InvalidArgument(
        "commit must target the innermost live snapshot");
  }
  snapshots_.pop_back();
  return Status::OK();
}

Result<std::vector<Address>> StateDB::TouchedSince(size_t snapshot_id) const {
  if (snapshot_id >= snapshots_.size()) {
    return Status::OutOfRange("unknown snapshot id");
  }
  std::vector<Address> out;
  Trie::Diff({snapshots_[snapshot_id].root.get(), 0}, {live_.root.get(), 0},
             &out);
  return out;
}

void StateDB::ApplyAccount(const Address& addr, const Account& account) {
  GetOrCreate(addr) = account;
}

Hash256 StateDB::StateRoot() const {
  return live_.root ? Trie::HashOf(*live_.root, 0) : Hash256::Zero();
}

mpt::Proof StateDB::ProveAccount(const Address& addr) const {
  mpt::Proof proof;
  Trie::Prove(live_.root.get(), addr, &proof);
  return proof;
}

Result<std::optional<Hash256>> StateDB::VerifyAccount(
    const Hash256& state_root, const Address& addr, const mpt::Proof& proof) {
  std::optional<Bytes> value;
  SHARDCHAIN_ASSIGN_OR_RETURN(
      value, mpt::VerifyProof(state_root, AddressKey(addr), proof));
  if (!value.has_value()) return std::optional<Hash256>(std::nullopt);
  if (value->size() != 32) {
    return Status::Corruption("account digest has wrong size");
  }
  Hash256 digest;
  std::copy(value->begin(), value->end(), digest.bytes.begin());
  return std::optional<Hash256>(digest);
}

std::vector<Address> StateDB::Addresses() const {
  std::vector<const Trie::Leaf*> leaves;
  leaves.reserve(live_.accounts);
  Trie::CollectLeaves(live_.root.get(), &leaves);
  std::vector<Address> out;
  out.reserve(leaves.size());
  for (const Trie::Leaf* leaf : leaves) out.push_back(leaf->addr);
  return out;
}

}  // namespace shardchain
