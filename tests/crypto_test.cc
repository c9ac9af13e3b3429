#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/keys.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"
#include "crypto/vrf.h"

namespace shardchain {
namespace {

// --------------------------- SHA-256 ----------------------------------
// Vectors from FIPS 180-4 / NIST CAVP.

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256Digest("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256Digest("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.Finalize().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// SHA-256 of 'a' × n at every padding boundary: the 0x80 byte and the
// length field fit in the last block (n ≤ 55), the length field spills
// into a second block (56–63), and the message fills whole blocks (64,
// 128). Generated with python3 hashlib.
struct RepeatedAKnownAnswer {
  size_t n;
  const char* hex;
};

constexpr RepeatedAKnownAnswer kRepeatedAKnownAnswers[] = {
    {31, "61c60b487d1a921e0bcc9bf853dda0fb159b30bf57b2e2d2c753b00be15b5a09"},
    {32, "3ba3f5f43b92602683c19aee62a20342b084dd5971ddd33808d81a328879a547"},
    {33, "852785c805c77e71a22340a54e9d95933ed49121e7d2bf3c2d358854bc1359ea"},
    {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
    {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
    {57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"},
    {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
    {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
    {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
    {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
    {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
    {127, "c57e9278af78fa3cab38667bef4ce29d783787a2f731d4e12200270f0c32320a"},
    {128, "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e"},
    {129, "c12cb024a2e5551cca0e08fce8f1c5e314555cc3fef6329ee994a3db752166ae"},
    {16384,
     "f3336bea752b5a28743033dd2c844a4a63fba08871aaee2586a2bf2d69be83a2"},
};

TEST(Sha256Test, ExactBlockBoundary) {
  for (const RepeatedAKnownAnswer& kat : kRepeatedAKnownAnswers) {
    const std::string msg(kat.n, 'a');
    EXPECT_EQ(Sha256Digest(msg).ToHex(), kat.hex) << "n=" << kat.n;
    for (size_t piece : {size_t{1}, size_t{7}, size_t{64}}) {
      Sha256 h;
      for (size_t pos = 0; pos < msg.size(); pos += piece) {
        h.Update(std::string_view(msg).substr(pos, piece));
      }
      EXPECT_EQ(h.Finalize().ToHex(), kat.hex)
          << "n=" << kat.n << " piece=" << piece;
    }
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    EXPECT_EQ(h.Finalize(), Sha256Digest(msg)) << "split=" << split;
  }
}

TEST(Hash256Test, ZeroAndPrefix) {
  EXPECT_TRUE(Hash256::Zero().IsZero());
  EXPECT_FALSE(Sha256Digest("x").IsZero());
  Hash256 h;
  h.bytes[0] = 0x01;
  h.bytes[7] = 0xff;
  EXPECT_EQ(h.Prefix64(), 0x01000000000000ffULL);
}

TEST(Hash256Test, OrderingIsLexicographic) {
  Hash256 a;
  Hash256 b;
  b.bytes[31] = 1;
  EXPECT_LT(a, b);
  b = a;
  EXPECT_EQ(a, b);
}

TEST(Sha256Test, HashPairDependsOnOrder) {
  const Hash256 a = Sha256Digest("a");
  const Hash256 b = Sha256Digest("b");
  EXPECT_NE(HashPair(a, b), HashPair(b, a));
}

// ------------------- SHA-256 compression kernels ------------------------
// Sha256 compresses with the SHA-NI body when CPUID reports the SHA
// extensions and with the portable body otherwise (DESIGN.md §15). The
// portable body is the reference for both.

const char* SelectedKernel() {
  return sha256_internal::CpuHasShaNi() ? "SHA-NI" : "portable";
}

Bytes RandomBytes(Rng* rng, size_t n) {
  Bytes out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng->Next());
  return out;
}

TEST(Sha256Kernel, ShaNiMatchesPortable) {
  std::cout << "sha256 kernel selected: " << SelectedKernel() << "\n";
#if defined(__x86_64__)
  if (!sha256_internal::CpuHasShaNi()) {
    GTEST_SKIP() << "CPUID reports no SHA extensions";
  }
  Rng rng(0x5a5a);
  for (int trial = 0; trial < 10000; ++trial) {
    const size_t blocks = 1 + rng.UniformInt(8);
    const size_t offset = rng.UniformInt(16);
    const Bytes buf = RandomBytes(&rng, offset + 64 * blocks);
    uint32_t portable[8];
    for (uint32_t& word : portable) word = static_cast<uint32_t>(rng.Next());
    uint32_t sha_ni[8];
    std::memcpy(sha_ni, portable, sizeof(portable));
    sha256_internal::CompressPortable(portable, buf.data() + offset, blocks);
    sha256_internal::CompressShaNi(sha_ni, buf.data() + offset, blocks);
    ASSERT_EQ(std::memcmp(portable, sha_ni, sizeof(portable)), 0)
        << "trial=" << trial << " blocks=" << blocks << " offset=" << offset;
  }
#else
  GTEST_SKIP() << "SHA-NI body is compiled only on x86-64";
#endif
}

// The reference pads explicitly and compresses with the portable body;
// Sha256 buffers, pads in place and runs the selected body.
Hash256 PortableReferenceDigest(const Bytes& msg) {
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0x00);
  const uint64_t bit_len = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    padded.push_back(static_cast<uint8_t>(bit_len >> (56 - 8 * i)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  sha256_internal::CompressPortable(state, padded.data(), padded.size() / 64);
  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out.bytes[i * 4 + j] = static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

TEST(Sha256Kernel, StreamedDigestsMatchPortableReference) {
  std::cout << "sha256 kernel selected: " << SelectedKernel() << "\n";
  Rng rng(0xd16e57);
  for (int trial = 0; trial < 2000; ++trial) {
    const Bytes msg = RandomBytes(&rng, rng.UniformInt(1101));
    Sha256 h;
    size_t pos = 0;
    while (pos < msg.size()) {
      const size_t piece = std::min<size_t>(msg.size() - pos,
                                            rng.UniformInt(200));
      h.Update(msg.data() + pos, piece);
      pos += piece;
    }
    ASSERT_EQ(h.Finalize(), PortableReferenceDigest(msg))
        << "trial=" << trial << " len=" << msg.size();
  }
}

// Sha256Digest and HashPair run the one-shot SHA-NI body, and
// Sha256::Finalize pads its buffered tail in the same registers, when
// CPUID reports SHA; the portable reference checks all three.
TEST(Sha256Kernel, OneShotMatchesPortableReference) {
  std::cout << "sha256 kernel selected: " << SelectedKernel() << "\n";
  const bool sha_ni = sha256_internal::CpuHasShaNi();
  Rng rng(0x0e5407);
  const Bytes source = RandomBytes(&rng, 1100);
  for (size_t len = 0; len <= source.size(); ++len) {
    const Bytes msg(source.begin(), source.begin() + len);
    const Hash256 want = PortableReferenceDigest(msg);
    for (size_t offset = 0; offset < 16; ++offset) {
      // The message ends its own heap allocation, so the sanitizer build
      // flags any read past its last byte.
      Bytes buf(offset + len);
      std::copy(msg.begin(), msg.end(), buf.begin() + offset);
      const uint8_t* data = buf.data() + offset;
      ASSERT_EQ(Sha256Digest(data, len), want)
          << "len=" << len << " offset=" << offset;
#if defined(__x86_64__)
      if (sha_ni) {
        ASSERT_EQ(sha256_internal::DigestShaNi(data, len), want)
            << "len=" << len << " offset=" << offset;
      }
#endif
    }
  }

  const Bytes empty;
  ASSERT_EQ(empty.data(), nullptr);
  EXPECT_EQ(Sha256Digest(empty), PortableReferenceDigest(empty));
#if defined(__x86_64__)
  if (sha_ni) {
    EXPECT_EQ(sha256_internal::DigestShaNi(nullptr, 0),
              PortableReferenceDigest(empty));
  }
#endif

  for (int trial = 0; trial < 1000; ++trial) {
    Hash256 a;
    Hash256 b;
    for (uint8_t& byte : a.bytes) byte = static_cast<uint8_t>(rng.Next());
    for (uint8_t& byte : b.bytes) byte = static_cast<uint8_t>(rng.Next());
    Sha256 streamed;
    streamed.Update(a.bytes.data(), a.bytes.size());
    streamed.Update(b.bytes.data(), b.bytes.size());
    ASSERT_EQ(HashPair(a, b), streamed.Finalize()) << "trial=" << trial;
  }

  // Every buffered tail length 0-63 at Finalize, after zero to two whole
  // blocks, reached through odd-sized Updates.
  for (size_t len = 0; len < 192; ++len) {
    const Bytes msg(source.begin(), source.begin() + len);
    Sha256 h;
    size_t pos = 0;
    for (size_t piece = 1; pos < len; piece = (piece + 6) % 64) {
      const size_t take = std::min(piece, len - pos);
      h.Update(msg.data() + pos, take);
      pos += take;
    }
    ASSERT_EQ(h.Finalize(), PortableReferenceDigest(msg)) << "len=" << len;
  }
}

// Sha256Digest32Many hashes each whole group of 16 through the AVX-512
// body when CPUID reports it, and the rest one message at a time; both
// must give out[i] == Sha256Digest(in[i]) for every n and every lane.
TEST(Sha256Kernel, Digest32ManyMatchesOneShot) {
  const bool avx512 = sha256_internal::CpuHasAvx512();
  std::cout << "sha256 kernel selected: " << SelectedKernel()
            << "; 32-byte batches: "
            << (avx512 ? "AVX-512, 16 lanes" : "one-shot loop") << "\n";
  Rng rng(0xa5125);
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 40; ++n) sizes.push_back(n);
  sizes.push_back(256);
  sizes.push_back(512);
  for (const size_t n : sizes) {
    // Exactly sized, so the sanitizer build flags a read or write past
    // either array.
    std::vector<Hash256> in(n);
    for (Hash256& h : in) {
      for (uint8_t& byte : h.bytes) byte = static_cast<uint8_t>(rng.Next());
    }
    std::vector<Hash256> want(n);
    for (size_t i = 0; i < n; ++i) {
      want[i] = Sha256Digest(in[i].bytes.data(), in[i].bytes.size());
    }
    std::vector<Hash256> out(n);
    Sha256Digest32Many(in.data(), n, out.data());
    ASSERT_EQ(out, want) << "n=" << n;
#if defined(__x86_64__)
    if (avx512) {
      // The body alone, on each whole group; it must leave the slots
      // after the last whole group untouched.
      std::vector<Hash256> direct(n, Sha256Digest("untouched"));
      const size_t whole = n - n % 16;
      for (size_t g = 0; g < whole; g += 16) {
        sha256_internal::Digest32x16Avx512(in.data() + g, direct.data() + g);
      }
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(direct[i], i < whole ? want[i] : Sha256Digest("untouched"))
            << "n=" << n << " i=" << i;
      }
    }
#endif
  }
}

// ------------------------ Lamport signatures ---------------------------

TEST(KeysTest, SignVerifyRoundTrip) {
  KeyPair kp = KeyPair::FromSeed(1);
  const Hash256 msg = Sha256Digest("hello world");
  const Signature sig = kp.Sign(msg);
  EXPECT_TRUE(Verify(kp.public_key(), msg, sig));
}

TEST(KeysTest, VerifyRejectsWrongMessage) {
  KeyPair kp = KeyPair::FromSeed(2);
  const Signature sig = kp.Sign(Sha256Digest("msg1"));
  EXPECT_FALSE(Verify(kp.public_key(), Sha256Digest("msg2"), sig));
}

TEST(KeysTest, VerifyRejectsTamperedSignature) {
  KeyPair kp = KeyPair::FromSeed(3);
  const Hash256 msg = Sha256Digest("payload");
  Signature sig = kp.Sign(msg);
  sig.preimages[17].bytes[0] ^= 0x01;
  EXPECT_FALSE(Verify(kp.public_key(), msg, sig));
}

// Verify hashes the 256 preimages in groups of 16, so flipping a bit of
// each preimage in turn reaches every lane of every group.
TEST(KeysTest, VerifyRejectsABitFlipInAnyPreimage) {
  KeyPair kp = KeyPair::FromSeed(8);
  const Hash256 msg = Sha256Digest("every lane");
  Signature sig = kp.Sign(msg);
  ASSERT_TRUE(Verify(kp.public_key(), msg, sig));
  for (int i = 0; i < 256; ++i) {
    uint8_t& byte = sig.preimages[i].bytes[i % 32];
    const uint8_t flip = static_cast<uint8_t>(1u << (i % 8));
    byte ^= flip;
    EXPECT_FALSE(Verify(kp.public_key(), msg, sig)) << "preimage " << i;
    byte ^= flip;
  }
  EXPECT_TRUE(Verify(kp.public_key(), msg, sig));
}

// Altering commitment hashes[i][b] must reject the signature that
// reveals it: `msg` reveals bit i's value, its complement the other one.
TEST(KeysTest, VerifyRejectsAnyAlteredCommitment) {
  KeyPair kp = KeyPair::FromSeed(9);
  PublicKey pk = kp.public_key();
  Hash256 msg = Sha256Digest("commitments");
  Hash256 complement = msg;
  for (uint8_t& byte : complement.bytes) byte = static_cast<uint8_t>(~byte);
  const Signature sig = kp.Sign(msg);
  const Signature complement_sig = kp.Sign(complement);
  for (int i = 0; i < 256; ++i) {
    for (int b = 0; b < 2; ++b) {
      const bool revealed_by_msg = DigestBit(msg, i) == b;
      pk.hashes[i][b].bytes[31] ^= 0x80;
      EXPECT_FALSE(revealed_by_msg ? Verify(pk, msg, sig)
                                   : Verify(pk, complement, complement_sig))
          << "i=" << i << " b=" << b;
      pk.hashes[i][b].bytes[31] ^= 0x80;
    }
  }
  EXPECT_TRUE(Verify(pk, msg, sig));
  EXPECT_TRUE(Verify(pk, complement, complement_sig));
}

TEST(KeysTest, VerifyBatchFlagsExactlyTheForgedSlots) {
  std::vector<KeyPair> keys;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    keys.push_back(KeyPair::FromSeed(100 + seed));
  }
  std::vector<Hash256> digests;
  std::vector<Signature> sigs;
  for (int i = 0; i < 32; ++i) {
    digests.push_back(Sha256Digest("batch-" + std::to_string(i)));
    sigs.push_back(keys[i % 4].Sign(digests.back()));
  }
  const std::vector<int> forged = {0, 15, 16, 31};
  for (const int slot : forged) sigs[slot].preimages[slot % 8].bytes[3] ^= 1;
  std::vector<const PublicKey*> pks;
  std::vector<const Hash256*> digest_ptrs;
  std::vector<const Signature*> sig_ptrs;
  std::vector<uint8_t> want;
  for (int i = 0; i < 32; ++i) {
    pks.push_back(&keys[i % 4].public_key());
    digest_ptrs.push_back(&digests[i]);
    sig_ptrs.push_back(&sigs[i]);
    want.push_back(
        std::find(forged.begin(), forged.end(), i) == forged.end() ? 1 : 0);
  }
  EXPECT_EQ(VerifyBatch(pks, digest_ptrs, sig_ptrs, nullptr), want);
}

TEST(KeysTest, VerifyRejectsForeignKey) {
  KeyPair kp1 = KeyPair::FromSeed(4);
  KeyPair kp2 = KeyPair::FromSeed(5);
  const Hash256 msg = Sha256Digest("payload");
  EXPECT_FALSE(Verify(kp2.public_key(), msg, kp1.Sign(msg)));
}

TEST(KeysTest, FingerprintIsStableAndUnique) {
  KeyPair a = KeyPair::FromSeed(6);
  KeyPair b = KeyPair::FromSeed(7);
  EXPECT_EQ(a.public_key().Fingerprint(), a.public_key().Fingerprint());
  EXPECT_NE(a.public_key().Fingerprint(), b.public_key().Fingerprint());
}

// No golden vector under tests/vectors/ covers keygen or the VRF; these
// literals pin their bytes.
TEST(KeysTest, KeygenAndVrfBytesArePinned) {
  EXPECT_EQ(KeyPair::FromSeed(1).public_key().Fingerprint().ToHex(),
            "6059d80c11f11b8cbc33c58a9182287f9f53cce71c5d8b6844dcce526b36477b");
  EXPECT_EQ(KeyPair::FromSeed(2).public_key().Fingerprint().ToHex(),
            "da2aa719d72749a606b585b3d9b54fa3082f3bb221e7b0e6b7ec7394622c3de0");
  EXPECT_EQ(KeyPair::FromSeed(3).public_key().Fingerprint().ToHex(),
            "952d755e08ac2549a5e5a5d0f378c7a10fc29b485eced8bc495a31e8706f0e59");
  EXPECT_EQ(
      VrfEvaluate(KeyPair::FromSeed(1), Sha256Digest("epoch")).value.ToHex(),
      "d414d0357978abd82b89dfb628ae6e06de255b70336f5ddf9018b3d41c8e797c");
}

TEST(KeysTest, DigestBitExtraction) {
  Hash256 d;
  d.bytes[0] = 0b10000001;
  EXPECT_EQ(DigestBit(d, 0), 1);
  EXPECT_EQ(DigestBit(d, 1), 0);
  EXPECT_EQ(DigestBit(d, 7), 1);
  EXPECT_EQ(DigestBit(d, 8), 0);
}

// ------------------------------ VRF ------------------------------------

TEST(VrfTest, EvaluateVerifyRoundTrip) {
  KeyPair kp = KeyPair::FromSeed(10);
  const Hash256 seed = Sha256Digest("epoch-1");
  const VrfOutput out = VrfEvaluate(kp, seed);
  EXPECT_TRUE(VrfVerify(kp.public_key(), seed, out));
}

TEST(VrfTest, OutputIsDeterministicPerKeySeed) {
  KeyPair kp = KeyPair::FromSeed(11);
  const Hash256 seed = Sha256Digest("epoch-2");
  EXPECT_EQ(VrfEvaluate(kp, seed).value, VrfEvaluate(kp, seed).value);
}

TEST(VrfTest, DifferentSeedsDifferentValues) {
  KeyPair kp = KeyPair::FromSeed(12);
  EXPECT_NE(VrfEvaluate(kp, Sha256Digest("s1")).value,
            VrfEvaluate(kp, Sha256Digest("s2")).value);
}

TEST(VrfTest, VerifyRejectsWrongSeed) {
  KeyPair kp = KeyPair::FromSeed(13);
  const VrfOutput out = VrfEvaluate(kp, Sha256Digest("s1"));
  EXPECT_FALSE(VrfVerify(kp.public_key(), Sha256Digest("s2"), out));
}

TEST(VrfTest, VerifyRejectsTamperedValue) {
  KeyPair kp = KeyPair::FromSeed(14);
  const Hash256 seed = Sha256Digest("s");
  VrfOutput out = VrfEvaluate(kp, seed);
  out.value.bytes[0] ^= 0xff;
  EXPECT_FALSE(VrfVerify(kp.public_key(), seed, out));
}

TEST(VrfTest, TicketInUnitInterval) {
  KeyPair kp = KeyPair::FromSeed(15);
  for (int i = 0; i < 8; ++i) {
    const double t =
        VrfTicket(VrfEvaluate(kp, Sha256Digest(std::to_string(i))).value);
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 1.0);
  }
}

// ---------------------------- Merkle -----------------------------------

std::vector<Hash256> MakeLeaves(size_t n) {
  std::vector<Hash256> leaves;
  leaves.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    leaves.push_back(Sha256Digest("leaf-" + std::to_string(i)));
  }
  return leaves;
}

TEST(MerkleTest, EmptyTreeHasZeroRoot) {
  MerkleTree tree({});
  EXPECT_TRUE(tree.root().IsZero());
  EXPECT_EQ(MerkleRoot({}), Hash256::Zero());
}

TEST(MerkleTest, SingleLeafRootIsLeaf) {
  const auto leaves = MakeLeaves(1);
  EXPECT_EQ(MerkleTree(leaves).root(), leaves[0]);
}

TEST(MerkleTest, RootMatchesStandaloneComputation) {
  for (size_t n : {2u, 3u, 4u, 5u, 8u, 13u}) {
    const auto leaves = MakeLeaves(n);
    EXPECT_EQ(MerkleTree(leaves).root(), MerkleRoot(leaves)) << "n=" << n;
  }
}

TEST(MerkleTest, RootChangesWhenLeafChanges) {
  auto leaves = MakeLeaves(6);
  const Hash256 before = MerkleRoot(leaves);
  leaves[3].bytes[0] ^= 1;
  EXPECT_NE(before, MerkleRoot(leaves));
}

class MerkleProofTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MerkleProofTest, EveryLeafProves) {
  const size_t n = GetParam();
  const auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  for (size_t i = 0; i < n; ++i) {
    const MerkleProof proof = tree.Prove(i);
    EXPECT_TRUE(MerkleVerify(leaves[i], proof, tree.root()))
        << "leaf " << i << " of " << n;
  }
}

TEST_P(MerkleProofTest, ProofFailsForWrongLeaf) {
  const size_t n = GetParam();
  if (n < 2) return;
  const auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  const MerkleProof proof = tree.Prove(0);
  EXPECT_FALSE(MerkleVerify(leaves[1], proof, tree.root()));
}

TEST_P(MerkleProofTest, ProofFailsAgainstWrongRoot) {
  const size_t n = GetParam();
  const auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  Hash256 bad_root = tree.root();
  bad_root.bytes[31] ^= 1;
  EXPECT_FALSE(MerkleVerify(leaves[0], tree.Prove(0), bad_root));
}

INSTANTIATE_TEST_SUITE_P(TreeSizes, MerkleProofTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 31));

}  // namespace
}  // namespace shardchain
