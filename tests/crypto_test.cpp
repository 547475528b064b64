#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "crypto/auth.h"
#include "crypto/group.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"

namespace pbc::crypto {
namespace {

// --- SHA-256: FIPS 180-4 / NIST CAVS vectors ------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Digest(std::string("")).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Digest(std::string("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::Digest(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
                .ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.Finalize().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    EXPECT_EQ(h.Finalize(), Sha256::Digest(msg)) << "split=" << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // 55/56/64 byte messages exercise all padding branches.
  for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Sha256 a;
    a.Update(msg);
    Sha256 b;
    for (char c : msg) b.Update(std::string(1, c));
    EXPECT_EQ(a.Finalize(), b.Finalize()) << "len=" << len;
  }
}

// --- SHA-256 kernels: SHA-NI against the portable reference ----------------

Bytes RandomBytes(Rng* rng, size_t len) {
  Bytes out(len);
  for (auto& b : out) b = static_cast<uint8_t>(rng->NextU64(256));
  return out;
}

// Whole-message SHA-256 driven by one kernel: pads `msg` to full blocks
// and compresses them, independent of Sha256's buffering.
Hash256 DigestWith(internal::Sha256CompressFn compress, const Bytes& msg) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  uint64_t bit_len = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back((bit_len >> (8 * i)) & 0xff);
  compress(state, padded.data(), padded.size() / 64);
  Hash256 out;
  for (int i = 0; i < 32; ++i) {
    out.bytes[i] = (state[i / 4] >> (24 - 8 * (i % 4))) & 0xff;
  }
  return out;
}

TEST(Sha256KernelTest, PortableKernelMatchesNistVector) {
  EXPECT_EQ(
      DigestWith(internal::Sha256CompressPortable, ToBytes("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256KernelTest, IncrementalHasherMatchesPortableKernel) {
  // Whichever kernel Sha256 dispatched to, random messages fed through
  // random Update split points hash exactly as the portable reference.
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes msg = RandomBytes(&rng, rng.NextU64(1025));
    Sha256 h;
    size_t pos = 0;
    while (pos < msg.size()) {
      size_t take = std::min<size_t>(msg.size() - pos, rng.NextU64(200));
      h.Update(msg.data() + pos, take);
      pos += take;
    }
    ASSERT_EQ(h.Finalize(), DigestWith(internal::Sha256CompressPortable, msg))
        << "len=" << msg.size();
  }
}

TEST(Sha256KernelTest, ShaNiMatchesPortableByteForByte) {
  if (!internal::CpuHasShaNi()) GTEST_SKIP() << "CPU lacks SHA-NI";
#if PBC_SHA256_HAVE_SHANI
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes msg = RandomBytes(&rng, rng.NextU64(1025));
    ASSERT_EQ(DigestWith(internal::Sha256CompressShaNi, msg),
              DigestWith(internal::Sha256CompressPortable, msg))
        << "len=" << msg.size();
  }
  // Multi-block calls from an arbitrary chaining state.
  for (int trial = 0; trial < 200; ++trial) {
    size_t blocks = 1 + rng.NextU64(32);
    Bytes data = RandomBytes(&rng, blocks * 64);
    uint32_t portable[8], shani[8];
    for (auto& word : portable) word = static_cast<uint32_t>(rng.NextU64());
    std::memcpy(shani, portable, sizeof(shani));
    internal::Sha256CompressPortable(portable, data.data(), blocks);
    internal::Sha256CompressShaNi(shani, data.data(), blocks);
    ASSERT_EQ(0, std::memcmp(portable, shani, sizeof(shani)))
        << "blocks=" << blocks;
  }
#endif
}

TEST(Sha256KernelTest, DispatchPicksShaNiExactlyWhenAvailable) {
  EXPECT_EQ(internal::Sha256Compress() == internal::Sha256CompressPortable,
            !internal::CpuHasShaNi());
}

TEST(Hash256Test, ZeroAndOrdering) {
  EXPECT_TRUE(Hash256::Zero().IsZero());
  EXPECT_FALSE(Sha256::Digest(std::string("x")).IsZero());
  Hash256 a = Sha256::Digest(std::string("a"));
  Hash256 b = Sha256::Digest(std::string("b"));
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
}

TEST(Hash256Test, ShortHexIsPrefix) {
  Hash256 h = Sha256::Digest(std::string("hello"));
  EXPECT_EQ(h.ToShortHex(), h.ToHex().substr(0, 8));
}

// --- HMAC-SHA256: RFC 4231 test vectors -----------------------------------

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes msg = ToBytes("Hi There");
  EXPECT_EQ(HmacSha256(key, msg).ToHex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Bytes key = ToBytes("Jefe");
  Bytes msg = ToBytes("what do ya want for nothing?");
  EXPECT_EQ(HmacSha256(key, msg).ToHex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3LongKeyPath) {
  Bytes key(131, 0xaa);  // forces key hashing (key > block size)
  Bytes msg = ToBytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(HmacSha256(key, msg).ToHex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DifferentKeysDifferentTags) {
  Bytes msg = ToBytes("payload");
  EXPECT_NE(HmacSha256(ToBytes("k1"), msg), HmacSha256(ToBytes("k2"), msg));
}

TEST(HmacTest, PrecomputedKeyMatchesOneOffHmac) {
  // Key lengths straddle the 64-byte block: short, exact, and hashed-first.
  Rng rng(99);
  for (size_t key_len : {0u, 1u, 20u, 32u, 63u, 64u, 65u, 131u}) {
    Bytes key = RandomBytes(&rng, key_len);
    HmacSha256Key mac(key);
    for (size_t msg_len : {0u, 1u, 32u, 55u, 56u, 64u, 200u}) {
      Bytes msg = RandomBytes(&rng, msg_len);
      EXPECT_EQ(mac.Mac(msg), HmacSha256(key, msg))
          << "key_len=" << key_len << " msg_len=" << msg_len;
    }
    Hash256 digest = Sha256::Digest(key);
    EXPECT_EQ(mac.Mac(digest),
              HmacSha256(key, Bytes(digest.bytes.begin(), digest.bytes.end())));
  }
  EXPECT_EQ(HmacSha256Key().Mac(ToBytes("m")),
            HmacSha256(Bytes{}, ToBytes("m")));
}

// --- Merkle trees ----------------------------------------------------------

std::vector<Hash256> MakeLeaves(size_t n) {
  std::vector<Hash256> leaves;
  for (size_t i = 0; i < n; ++i) {
    leaves.push_back(Sha256::Digest("leaf-" + std::to_string(i)));
  }
  return leaves;
}

TEST(MerkleTest, EmptyTreeHasZeroRoot) {
  MerkleTree t({});
  EXPECT_TRUE(t.root().IsZero());
}

TEST(MerkleTest, SingleLeafRootIsDomainSeparatedLeafHash) {
  auto leaves = MakeLeaves(1);
  MerkleTree t(leaves);
  EXPECT_EQ(t.root(), MerkleTree::HashLeaf(leaves[0]));
  // Domain separation: root != plain digest of leaf.
  EXPECT_NE(t.root(), leaves[0]);
}

TEST(MerkleTest, RootChangesWithAnyLeaf) {
  auto leaves = MakeLeaves(8);
  MerkleTree t1(leaves);
  leaves[3] = Sha256::Digest(std::string("tampered"));
  MerkleTree t2(leaves);
  EXPECT_NE(t1.root(), t2.root());
}

TEST(MerkleTest, ProofVerifiesForEveryLeafAndSize) {
  for (size_t n = 1; n <= 33; ++n) {
    auto leaves = MakeLeaves(n);
    MerkleTree t(leaves);
    for (size_t i = 0; i < n; ++i) {
      auto proof = t.Prove(i);
      ASSERT_TRUE(proof.ok()) << "n=" << n << " i=" << i;
      EXPECT_TRUE(MerkleTree::Verify(t.root(), leaves[i],
                                     proof.ValueOrDie()))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(MerkleTest, ProofFailsForWrongLeaf) {
  auto leaves = MakeLeaves(10);
  MerkleTree t(leaves);
  auto proof = t.Prove(4).ValueOrDie();
  EXPECT_FALSE(MerkleTree::Verify(t.root(), leaves[5], proof));
  EXPECT_FALSE(MerkleTree::Verify(t.root(),
                                  Sha256::Digest(std::string("other")), proof));
}

TEST(MerkleTest, ProofFailsAgainstWrongRoot) {
  auto leaves = MakeLeaves(10);
  MerkleTree t(leaves);
  auto proof = t.Prove(4).ValueOrDie();
  EXPECT_FALSE(MerkleTree::Verify(Sha256::Digest(std::string("bogus")),
                                  leaves[4], proof));
}

TEST(MerkleTest, ProveOutOfRangeFails) {
  MerkleTree t(MakeLeaves(4));
  EXPECT_FALSE(t.Prove(4).ok());
}

// --- Authentication --------------------------------------------------------

TEST(AuthTest, SignVerifyRoundTrip) {
  KeyRegistry registry;
  PrivateKey key = registry.Register(7);
  Bytes msg = ToBytes("attack at dawn");
  Signature sig = key.Sign(msg);
  EXPECT_EQ(sig.signer, 7u);
  EXPECT_TRUE(registry.Verify(msg, sig));
}

TEST(AuthTest, TamperedMessageFails) {
  KeyRegistry registry;
  PrivateKey key = registry.Register(1);
  Signature sig = key.Sign(ToBytes("original"));
  EXPECT_FALSE(registry.Verify(ToBytes("Original"), sig));
}

TEST(AuthTest, ImpersonationFails) {
  KeyRegistry registry;
  PrivateKey byzantine = registry.Register(1);
  registry.Register(2);
  // Byzantine node 1 claims to be node 2.
  Bytes msg = ToBytes("i am node 2");
  Signature forged = byzantine.Sign(msg);
  forged.signer = 2;
  EXPECT_FALSE(registry.Verify(msg, forged));
}

TEST(AuthTest, UnknownSignerFails) {
  KeyRegistry registry;
  PrivateKey key = registry.Register(1);
  Signature sig = key.Sign(ToBytes("m"));
  sig.signer = 99;
  EXPECT_FALSE(registry.Verify(ToBytes("m"), sig));
}

TEST(AuthTest, DeterministicRegistrationIsReproducible) {
  KeyRegistry r1, r2;
  PrivateKey k1 = r1.RegisterDeterministic(5, 42);
  PrivateKey k2 = r2.RegisterDeterministic(5, 42);
  EXPECT_EQ(k1.secret(), k2.secret());
}

TEST(AuthTest, DigestSigning) {
  KeyRegistry registry;
  PrivateKey key = registry.Register(3);
  Hash256 digest = Sha256::Digest(std::string("block"));
  EXPECT_TRUE(registry.Verify(digest, key.Sign(digest)));
  // A digest is signed as its 32 raw bytes.
  Bytes raw(digest.bytes.begin(), digest.bytes.end());
  EXPECT_EQ(key.Sign(digest).tag, HmacSha256(key.secret(), raw));
  EXPECT_TRUE(registry.Verify(raw, key.Sign(digest)));
}

// --- Group & Pedersen ------------------------------------------------------

TEST(GroupTest, GeneratorHasOrderQ) {
  // g^q == 1 and g != 1.
  EXPECT_EQ(GroupElement::G().Pow(Scalar(kGroupQ - 1)) * GroupElement::G(),
            GroupElement::Identity());
  EXPECT_NE(GroupElement::G(), GroupElement::Identity());
  EXPECT_EQ(GroupElement::H().Pow(Scalar(kGroupQ - 1)) * GroupElement::H(),
            GroupElement::Identity());
}

TEST(GroupTest, ScalarFieldAxioms) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    Scalar a = Scalar::Random(&rng), b = Scalar::Random(&rng),
           c = Scalar::Random(&rng);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + a.Neg(), Scalar(0));
    EXPECT_EQ(a - b, a + b.Neg());
  }
}

TEST(GroupTest, PowHomomorphism) {
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    Scalar a = Scalar::Random(&rng), b = Scalar::Random(&rng);
    GroupElement g = GroupElement::G();
    EXPECT_EQ(g.Pow(a) * g.Pow(b), g.Pow(a + b));
    EXPECT_EQ(g.Pow(a).Pow(b), g.Pow(a * b));
  }
}

TEST(GroupTest, InverseCancels) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    GroupElement x = GroupElement::G().Pow(Scalar::Random(&rng));
    EXPECT_EQ(x * x.Inverse(), GroupElement::Identity());
  }
}

TEST(PedersenTest, OpenSucceedsWithCorrectOpening) {
  Rng rng(6);
  Scalar m(12345), r = Scalar::Random(&rng);
  auto c = PedersenCommit(m, r);
  EXPECT_TRUE(PedersenOpen(c, m, r));
}

TEST(PedersenTest, OpenFailsWithWrongMessageOrBlinding) {
  Rng rng(7);
  Scalar m(1), r = Scalar::Random(&rng);
  auto c = PedersenCommit(m, r);
  EXPECT_FALSE(PedersenOpen(c, Scalar(2), r));
  EXPECT_FALSE(PedersenOpen(c, m, r + Scalar(1)));
}

TEST(PedersenTest, AdditivelyHomomorphic) {
  Rng rng(8);
  Scalar m1(100), m2(250);
  Scalar r1 = Scalar::Random(&rng), r2 = Scalar::Random(&rng);
  auto c1 = PedersenCommit(m1, r1);
  auto c2 = PedersenCommit(m2, r2);
  // C1 * C2 commits to m1 + m2 with blinding r1 + r2.
  PedersenCommitment sum{c1.c * c2.c};
  EXPECT_TRUE(PedersenOpen(sum, m1 + m2, r1 + r2));
}

TEST(PedersenTest, HidingUnderDifferentBlindings) {
  Rng rng(9);
  Scalar m(42);
  auto c1 = PedersenCommit(m, Scalar::Random(&rng));
  auto c2 = PedersenCommit(m, Scalar::Random(&rng));
  EXPECT_NE(c1.c.value(), c2.c.value());
}

}  // namespace
}  // namespace pbc::crypto
