#include "state/trie.h"

#include <algorithm>

namespace shardchain {
namespace mpt {

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

/// Parsed view of an encoded node (for proof verification).
struct ParsedNode {
  uint8_t kind = 0;
  std::vector<uint8_t> path;
  Bytes value;
  bool has_value = false;
  std::array<Hash256, 16> child_hashes;
  Hash256 ext_child;
};

Result<ParsedNode> ParseNode(const Bytes& raw) {
  if (raw.empty()) return Status::Corruption("empty proof node");
  ParsedNode out;
  out.kind = raw[0];
  size_t pos = 1;
  auto need = [&](size_t n) { return pos + n <= raw.size(); };
  switch (out.kind) {
    case 0: {  // Leaf.
      if (!need(4)) return Status::Corruption("truncated leaf");
      uint32_t plen = 0;
      for (int i = 0; i < 4; ++i) plen = (plen << 8) | raw[pos++];
      if (!need(plen + 8)) return Status::Corruption("truncated leaf path");
      out.path.assign(raw.begin() + static_cast<ptrdiff_t>(pos),
                      raw.begin() + static_cast<ptrdiff_t>(pos + plen));
      pos += plen;
      const uint64_t vlen = ReadUint64(raw, pos);
      pos += 8;
      if (!need(vlen)) return Status::Corruption("truncated leaf value");
      out.value.assign(raw.begin() + static_cast<ptrdiff_t>(pos),
                       raw.begin() + static_cast<ptrdiff_t>(pos + vlen));
      out.has_value = true;
      break;
    }
    case 1: {  // Extension.
      if (!need(4)) return Status::Corruption("truncated extension");
      uint32_t plen = 0;
      for (int i = 0; i < 4; ++i) plen = (plen << 8) | raw[pos++];
      if (!need(plen + 32)) return Status::Corruption("truncated ext path");
      out.path.assign(raw.begin() + static_cast<ptrdiff_t>(pos),
                      raw.begin() + static_cast<ptrdiff_t>(pos + plen));
      pos += plen;
      std::copy(raw.begin() + static_cast<ptrdiff_t>(pos),
                raw.begin() + static_cast<ptrdiff_t>(pos + 32),
                out.ext_child.bytes.begin());
      break;
    }
    case 2: {  // Branch.
      if (!need(16 * 32 + 1 + 8)) return Status::Corruption("truncated branch");
      for (int c = 0; c < 16; ++c) {
        std::copy(raw.begin() + static_cast<ptrdiff_t>(pos),
                  raw.begin() + static_cast<ptrdiff_t>(pos + 32),
                  out.child_hashes[c].bytes.begin());
        pos += 32;
      }
      out.has_value = raw[pos++] != 0;
      const uint64_t vlen = ReadUint64(raw, pos);
      pos += 8;
      if (!need(vlen)) return Status::Corruption("truncated branch value");
      out.value.assign(raw.begin() + static_cast<ptrdiff_t>(pos),
                       raw.begin() + static_cast<ptrdiff_t>(pos + vlen));
      break;
    }
    default:
      return Status::Corruption("unknown proof node kind");
  }
  return out;
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

}  // namespace

Bytes SerializeLeaf(std::span<const uint8_t> path,
                    std::span<const uint8_t> value) {
  Bytes out;
  out.reserve(1 + 4 + path.size() + 8 + value.size());
  out.push_back(0);
  AppendUint32(&out, static_cast<uint32_t>(path.size()));
  out.insert(out.end(), path.begin(), path.end());
  AppendUint64(&out, value.size());
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

Bytes SerializeExtension(std::span<const uint8_t> path, const Hash256& child) {
  Bytes out;
  out.reserve(1 + 4 + path.size() + 32);
  out.push_back(1);
  AppendUint32(&out, static_cast<uint32_t>(path.size()));
  out.insert(out.end(), path.begin(), path.end());
  out.insert(out.end(), child.bytes.begin(), child.bytes.end());
  return out;
}

Bytes SerializeBranch(const std::array<Hash256, 16>& children) {
  Bytes out;
  out.reserve(1 + 16 * 32 + 1 + 8);
  out.push_back(2);
  for (const Hash256& h : children) {
    out.insert(out.end(), h.bytes.begin(), h.bytes.end());
  }
  out.push_back(0);  // No value.
  AppendUint64(&out, 0);
  return out;
}

Result<std::optional<Bytes>> VerifyProof(const Hash256& root, const Bytes& key,
                                         const Proof& proof) {
  const std::vector<uint8_t> nibbles = ToNibbles(key);
  if (proof.empty()) {
    // Only the empty trie proves anything with an empty proof.
    if (root.IsZero()) return std::optional<Bytes>(std::nullopt);
    return Status::Corruption("empty proof for non-empty root");
  }

  Hash256 expected = root;
  size_t depth = 0;
  for (size_t i = 0; i < proof.size(); ++i) {
    if (Sha256Digest(proof[i].encoded) != expected) {
      return Status::Corruption("proof node hash mismatch");
    }
    ParsedNode node;
    SHARDCHAIN_ASSIGN_OR_RETURN(node, ParseNode(proof[i].encoded));
    const bool last = (i + 1 == proof.size());
    switch (node.kind) {
      case 0: {  // Leaf.
        if (!last) return Status::Corruption("leaf before end of proof");
        if (nibbles.size() - depth == node.path.size() &&
            std::equal(node.path.begin(), node.path.end(),
                       nibbles.begin() + static_cast<ptrdiff_t>(depth))) {
          return std::optional<Bytes>(node.value);
        }
        return std::optional<Bytes>(std::nullopt);  // Proven absent.
      }
      case 1: {  // Extension.
        const size_t cp = CommonPrefix(node.path, 0, nibbles, depth);
        if (cp != node.path.size()) {
          if (!last) return Status::Corruption("diverged mid-proof");
          return std::optional<Bytes>(std::nullopt);
        }
        depth += cp;
        if (last) return Status::Corruption("proof ends at extension");
        expected = node.ext_child;
        break;
      }
      case 2: {  // Branch.
        if (depth == nibbles.size()) {
          if (!last) return Status::Corruption("key ends before proof");
          if (node.has_value) return std::optional<Bytes>(node.value);
          return std::optional<Bytes>(std::nullopt);
        }
        const uint8_t idx = nibbles[depth];
        ++depth;
        if (node.child_hashes[idx].IsZero()) {
          if (!last) return Status::Corruption("absent child mid-proof");
          return std::optional<Bytes>(std::nullopt);  // Proven absent.
        }
        if (last) return Status::Corruption("proof ends inside branch");
        expected = node.child_hashes[idx];
        break;
      }
      default:
        return Status::Corruption("unknown node kind");
    }
  }
  return Status::Corruption("proof exhausted without resolution");
}

}  // namespace mpt
}  // namespace shardchain
