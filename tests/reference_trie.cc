#include "reference_trie.h"

#include <algorithm>
#include <cassert>

namespace shardchain {

namespace {

size_t CommonPrefix(const std::vector<uint8_t>& a, size_t a_from,
                    const std::vector<uint8_t>& b, size_t b_from) {
  size_t n = 0;
  while (a_from + n < a.size() && b_from + n < b.size() &&
         a[a_from + n] == b[b_from + n]) {
    ++n;
  }
  return n;
}

/// `key` split into nibbles, high nibble of each byte first.
std::vector<uint8_t> ToNibbles(const Bytes& key) {
  std::vector<uint8_t> nibbles;
  nibbles.reserve(key.size() * 2);
  for (uint8_t b : key) {
    nibbles.push_back(b >> 4);
    nibbles.push_back(b & 0x0f);
  }
  return nibbles;
}

/// A length-prefixed byte run: `width`-byte big-endian length, then the
/// bytes.
void AppendRun(Bytes* out, int width, const Bytes& run) {
  for (int shift = 8 * (width - 1); shift >= 0; shift -= 8) {
    out->push_back(static_cast<uint8_t>(uint64_t{run.size()} >> shift));
  }
  out->insert(out->end(), run.begin(), run.end());
}

}  // namespace

// ---------------------------------------------------------------------
// Node basics
// ---------------------------------------------------------------------

ReferenceTrie::NodePtr ReferenceTrie::ShallowCopy(const Node& src) {
  auto copy = std::make_shared<Node>();
  copy->kind = src.kind;
  copy->path = src.path;
  copy->value = src.value;
  copy->has_value = src.has_value;
  copy->children = src.children;  // Pointer copies: subtrees are shared.
  return copy;
}

ReferenceTrie::ReferenceTrie(const ReferenceTrie& other)
    : root_(other.root_), size_(other.size_) {
  // Warm the shared nodes' hash caches before sharing so neither copy
  // ever writes a node the other can reach (data-race freedom when
  // copies are hashed from different threads).
  (void)other.RootHash();
}

ReferenceTrie& ReferenceTrie::operator=(
    const ReferenceTrie& other) {
  if (this != &other) {
    (void)other.RootHash();
    root_ = other.root_;
    size_ = other.size_;
  }
  return *this;
}

// ---------------------------------------------------------------------
// Serialization & hashing
// ---------------------------------------------------------------------

// Written from the layout in state/trie.h, not with its encoders, so a
// drift in either shows up as a root mismatch in the differential tests.
Bytes ReferenceTrie::Serialize(const Node& node) {
  Bytes out;
  switch (node.kind) {
    case Node::Kind::kLeaf:
      out.push_back(0);
      AppendRun(&out, 4, node.path);
      AppendRun(&out, 8, node.value);
      break;
    case Node::Kind::kExtension: {
      out.push_back(1);
      AppendRun(&out, 4, node.path);
      const Hash256 child =
          node.children[0] ? HashOf(*node.children[0]) : Hash256::Zero();
      out.insert(out.end(), child.bytes.begin(), child.bytes.end());
      break;
    }
    case Node::Kind::kBranch:
      out.push_back(2);
      for (const NodePtr& child : node.children) {
        const Hash256 h = child ? HashOf(*child) : Hash256::Zero();
        out.insert(out.end(), h.bytes.begin(), h.bytes.end());
      }
      out.push_back(node.has_value ? 1 : 0);
      AppendRun(&out, 8, node.has_value ? node.value : Bytes{});
      break;
  }
  return out;
}

Hash256 ReferenceTrie::HashOf(const Node& node) {
  if (node.hash_valid) return node.cached_hash;
  node.cached_hash = Sha256Digest(Serialize(node));
  node.hash_valid = true;
  return node.cached_hash;
}

Hash256 ReferenceTrie::RootHash() const {
  return root_ ? HashOf(*root_) : Hash256::Zero();
}

// ---------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------

namespace {

/// Whether the key suffix nibbles[depth..] equals `path`.
bool SuffixEquals(const std::vector<uint8_t>& nibbles, size_t depth,
                  const std::vector<uint8_t>& path) {
  if (nibbles.size() - depth != path.size()) return false;
  return std::equal(path.begin(), path.end(), nibbles.begin() + depth);
}

}  // namespace

ReferenceTrie::NodePtr ReferenceTrie::Insert(
    const NodePtr& node, const std::vector<uint8_t>& nibbles, size_t depth,
    Bytes value, bool* added) {
  if (!node) {
    auto leaf = std::make_shared<Node>();
    leaf->kind = Node::Kind::kLeaf;
    leaf->path.assign(nibbles.begin() + static_cast<ptrdiff_t>(depth),
                      nibbles.end());
    leaf->value = std::move(value);
    leaf->has_value = true;
    *added = true;
    return leaf;
  }

  switch (node->kind) {
    case Node::Kind::kLeaf: {
      if (SuffixEquals(nibbles, depth, node->path)) {
        NodePtr copy = ShallowCopy(*node);
        copy->value = std::move(value);
        return copy;
      }
      *added = true;
      const size_t cp = CommonPrefix(node->path, 0, nibbles, depth);
      auto branch = std::make_shared<Node>();
      branch->kind = Node::Kind::kBranch;
      // Re-seat the existing leaf under the branch.
      if (node->path.size() == cp) {
        branch->has_value = true;
        branch->value = node->value;
      } else {
        auto old_leaf = std::make_shared<Node>();
        old_leaf->kind = Node::Kind::kLeaf;
        old_leaf->path.assign(
            node->path.begin() + static_cast<ptrdiff_t>(cp + 1),
            node->path.end());
        old_leaf->value = node->value;
        old_leaf->has_value = true;
        branch->children[node->path[cp]] = std::move(old_leaf);
      }
      // Seat the new entry.
      if (nibbles.size() - depth == cp) {
        branch->has_value = true;
        branch->value = std::move(value);
      } else {
        auto new_leaf = std::make_shared<Node>();
        new_leaf->kind = Node::Kind::kLeaf;
        new_leaf->path.assign(
            nibbles.begin() + static_cast<ptrdiff_t>(depth + cp + 1),
            nibbles.end());
        new_leaf->value = std::move(value);
        new_leaf->has_value = true;
        branch->children[nibbles[depth + cp]] = std::move(new_leaf);
      }
      if (cp == 0) return branch;
      auto ext = std::make_shared<Node>();
      ext->kind = Node::Kind::kExtension;
      ext->path.assign(node->path.begin(),
                       node->path.begin() + static_cast<ptrdiff_t>(cp));
      ext->children[0] = std::move(branch);
      return ext;
    }

    case Node::Kind::kExtension: {
      const size_t cp = CommonPrefix(node->path, 0, nibbles, depth);
      if (cp == node->path.size()) {
        NodePtr copy = ShallowCopy(*node);
        copy->children[0] =
            Insert(node->children[0], nibbles, depth + cp, std::move(value),
                   added);
        return copy;
      }
      // Split the extension at cp.
      *added = true;
      auto branch = std::make_shared<Node>();
      branch->kind = Node::Kind::kBranch;
      // Old subtree goes under node->path[cp]; the subtree itself is
      // shared untouched.
      {
        const uint8_t idx = node->path[cp];
        if (node->path.size() - cp == 1) {
          branch->children[idx] = node->children[0];
        } else {
          auto tail = std::make_shared<Node>();
          tail->kind = Node::Kind::kExtension;
          tail->path.assign(
              node->path.begin() + static_cast<ptrdiff_t>(cp + 1),
              node->path.end());
          tail->children[0] = node->children[0];
          branch->children[idx] = std::move(tail);
        }
      }
      // New entry.
      if (nibbles.size() - depth == cp) {
        branch->has_value = true;
        branch->value = std::move(value);
      } else {
        auto leaf = std::make_shared<Node>();
        leaf->kind = Node::Kind::kLeaf;
        leaf->path.assign(
            nibbles.begin() + static_cast<ptrdiff_t>(depth + cp + 1),
            nibbles.end());
        leaf->value = std::move(value);
        leaf->has_value = true;
        branch->children[nibbles[depth + cp]] = std::move(leaf);
      }
      if (cp == 0) return branch;
      auto ext = std::make_shared<Node>();
      ext->kind = Node::Kind::kExtension;
      ext->path.assign(node->path.begin(),
                       node->path.begin() + static_cast<ptrdiff_t>(cp));
      ext->children[0] = std::move(branch);
      return ext;
    }

    case Node::Kind::kBranch: {
      NodePtr copy = ShallowCopy(*node);
      if (depth == nibbles.size()) {
        if (!copy->has_value) *added = true;
        copy->has_value = true;
        copy->value = std::move(value);
        return copy;
      }
      const uint8_t idx = nibbles[depth];
      copy->children[idx] = Insert(node->children[idx], nibbles, depth + 1,
                                   std::move(value), added);
      return copy;
    }
  }
  return nullptr;  // Unreachable.
}

void ReferenceTrie::Put(const Bytes& key, Bytes value) {
  const std::vector<uint8_t> nibbles = ToNibbles(key);
  bool added = false;
  root_ = Insert(root_, nibbles, 0, std::move(value), &added);
  if (added) ++size_;
}

// ---------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------

const ReferenceTrie::Node* ReferenceTrie::Find(
    const Node* node, const std::vector<uint8_t>& nibbles, size_t depth) {
  while (node != nullptr) {
    switch (node->kind) {
      case Node::Kind::kLeaf:
        return SuffixEquals(nibbles, depth, node->path) ? node : nullptr;
      case Node::Kind::kExtension: {
        const size_t cp = CommonPrefix(node->path, 0, nibbles, depth);
        if (cp != node->path.size()) return nullptr;
        depth += cp;
        node = node->children[0].get();
        break;
      }
      case Node::Kind::kBranch: {
        if (depth == nibbles.size()) {
          return node->has_value ? node : nullptr;
        }
        node = node->children[nibbles[depth]].get();
        ++depth;
        break;
      }
    }
  }
  return nullptr;
}

std::optional<Bytes> ReferenceTrie::Get(const Bytes& key) const {
  const Node* node = Find(root_.get(), ToNibbles(key), 0);
  if (node == nullptr) return std::nullopt;
  return node->value;
}

// ---------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------

ReferenceTrie::NodePtr ReferenceTrie::Normalize(NodePtr node) {
  if (!node) return node;
  if (node->kind == Node::Kind::kExtension) {
    const Node* child = node->children[0].get();
    if (child == nullptr) return nullptr;
    if (child->kind == Node::Kind::kLeaf ||
        child->kind == Node::Kind::kExtension) {
      // ext(p) + leaf(q) => leaf(p+q); ext(p) + ext(q) => ext(p+q).
      // The child may be shared, so the merge builds a fresh node.
      NodePtr merged = ShallowCopy(*child);
      merged->path.insert(merged->path.begin(), node->path.begin(),
                          node->path.end());
      return merged;
    }
    return node;
  }
  if (node->kind == Node::Kind::kBranch) {
    int only_child = -1;
    int child_count = 0;
    for (int i = 0; i < 16; ++i) {
      if (node->children[i]) {
        ++child_count;
        only_child = i;
      }
    }
    if (child_count == 0 && !node->has_value) return nullptr;
    if (child_count == 0 && node->has_value) {
      auto leaf = std::make_shared<Node>();
      leaf->kind = Node::Kind::kLeaf;
      leaf->value = std::move(node->value);
      leaf->has_value = true;
      return leaf;
    }
    if (child_count == 1 && !node->has_value) {
      const NodePtr& child = node->children[only_child];
      switch (child->kind) {
        case Node::Kind::kLeaf:
        case Node::Kind::kExtension: {
          NodePtr merged = ShallowCopy(*child);
          merged->path.insert(merged->path.begin(),
                              static_cast<uint8_t>(only_child));
          return merged;
        }
        case Node::Kind::kBranch: {
          auto ext = std::make_shared<Node>();
          ext->kind = Node::Kind::kExtension;
          ext->path = {static_cast<uint8_t>(only_child)};
          ext->children[0] = child;
          return ext;
        }
      }
    }
  }
  return node;
}

ReferenceTrie::NodePtr ReferenceTrie::Remove(
    const NodePtr& node, const std::vector<uint8_t>& nibbles, size_t depth,
    bool* removed) {
  if (!node) return node;
  switch (node->kind) {
    case Node::Kind::kLeaf: {
      if (SuffixEquals(nibbles, depth, node->path)) {
        *removed = true;
        return nullptr;
      }
      return node;
    }
    case Node::Kind::kExtension: {
      const size_t cp = CommonPrefix(node->path, 0, nibbles, depth);
      if (cp != node->path.size()) return node;
      NodePtr child = Remove(node->children[0], nibbles, depth + cp, removed);
      if (!*removed) return node;
      NodePtr copy = ShallowCopy(*node);
      copy->children[0] = std::move(child);
      return Normalize(std::move(copy));
    }
    case Node::Kind::kBranch: {
      NodePtr copy;
      if (depth == nibbles.size()) {
        if (!node->has_value) return node;
        copy = ShallowCopy(*node);
        copy->has_value = false;
        copy->value.clear();
        *removed = true;
      } else {
        const uint8_t idx = nibbles[depth];
        NodePtr child =
            Remove(node->children[idx], nibbles, depth + 1, removed);
        if (!*removed) return node;
        copy = ShallowCopy(*node);
        copy->children[idx] = std::move(child);
      }
      return Normalize(std::move(copy));
    }
  }
  return node;
}

bool ReferenceTrie::Delete(const Bytes& key) {
  bool removed = false;
  root_ = Remove(root_, ToNibbles(key), 0, &removed);
  if (removed) --size_;
  return removed;
}

// ---------------------------------------------------------------------
// Iteration
// ---------------------------------------------------------------------

void ReferenceTrie::CollectEntries(
    const Node* node, std::vector<uint8_t>* prefix,
    std::vector<std::pair<Bytes, Bytes>>* out) {
  if (node == nullptr) return;
  auto emit = [&](const Bytes& value) {
    assert(prefix->size() % 2 == 0 && "keys are whole bytes");
    Bytes key;
    key.reserve(prefix->size() / 2);
    for (size_t i = 0; i + 1 < prefix->size(); i += 2) {
      key.push_back(
          static_cast<uint8_t>(((*prefix)[i] << 4) | (*prefix)[i + 1]));
    }
    out->emplace_back(std::move(key), value);
  };
  switch (node->kind) {
    case Node::Kind::kLeaf: {
      prefix->insert(prefix->end(), node->path.begin(), node->path.end());
      emit(node->value);
      prefix->resize(prefix->size() - node->path.size());
      break;
    }
    case Node::Kind::kExtension: {
      prefix->insert(prefix->end(), node->path.begin(), node->path.end());
      CollectEntries(node->children[0].get(), prefix, out);
      prefix->resize(prefix->size() - node->path.size());
      break;
    }
    case Node::Kind::kBranch: {
      if (node->has_value) emit(node->value);
      for (uint8_t i = 0; i < 16; ++i) {
        if (!node->children[i]) continue;
        prefix->push_back(i);
        CollectEntries(node->children[i].get(), prefix, out);
        prefix->pop_back();
      }
      break;
    }
  }
}

std::vector<std::pair<Bytes, Bytes>> ReferenceTrie::Entries() const {
  std::vector<std::pair<Bytes, Bytes>> out;
  out.reserve(size_);
  std::vector<uint8_t> prefix;
  CollectEntries(root_.get(), &prefix, &out);
  return out;
}

// ---------------------------------------------------------------------
// Proofs
// ---------------------------------------------------------------------

ReferenceTrie::Proof ReferenceTrie::Prove(const Bytes& key) const {
  const std::vector<uint8_t> nibbles = ToNibbles(key);
  Proof proof;
  size_t depth = 0;
  const Node* node = root_.get();
  while (node != nullptr) {
    proof.push_back(ProofNode{Serialize(*node)});
    switch (node->kind) {
      case Node::Kind::kLeaf:
        return proof;
      case Node::Kind::kExtension: {
        const size_t cp = CommonPrefix(node->path, 0, nibbles, depth);
        if (cp != node->path.size()) return proof;  // Diverged: absence.
        depth += cp;
        node = node->children[0].get();
        break;
      }
      case Node::Kind::kBranch: {
        if (depth == nibbles.size()) return proof;
        node = node->children[nibbles[depth]].get();
        ++depth;
        break;
      }
    }
  }
  return proof;
}

}  // namespace shardchain
