#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "common/rng.h"

namespace lppa::crypto {
namespace {

// FIPS 180-4 / NIST CAVP reference vectors.
TEST(Sha256, EmptyMessage) {
  EXPECT_EQ(Sha256::hash("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::hash("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// NIST CAVP SHA256ShortMsg samples (byte-oriented).
TEST(Sha256, CavpShortMessages) {
  struct Vector {
    const char* msg_hex;
    const char* digest_hex;
  };
  const Vector vectors[] = {
      {"d3", "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1"},
      {"11af", "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f072d1f98"},
      {"b4190e", "dff2e73091f6c05e528896c4c831b9448653dc2ff043528f6769437bc7b975c2"},
      {"74ba2521", "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc1518923ae8b0e"},
  };
  for (const auto& v : vectors) {
    const Bytes msg = from_hex(v.msg_hex);
    EXPECT_EQ(Sha256::hash(msg).hex(), v.digest_hex) << v.msg_hex;
  }
}

TEST(Sha256, ExactBlockBoundary) {
  // 64-byte message forces the padding into a second block.
  const std::string msg(64, 'x');
  const Digest one_shot = Sha256::hash(msg);
  Sha256 h;
  h.update(msg);
  EXPECT_EQ(h.finalize(), one_shot);
}

TEST(Sha256, FiftyFiveAndFiftySixBytePadEdges) {
  // 55 bytes: length fits the same block; 56 bytes: spills into the next.
  const Digest d55 = Sha256::hash(std::string(55, 'y'));
  const Digest d56 = Sha256::hash(std::string(56, 'y'));
  EXPECT_NE(d55, d56);
  // Regression pin for the 56-byte edge (verified against coreutils
  // sha256sum).
  EXPECT_EQ(Sha256::hash(std::string(56, 'a')).hex(),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, IncrementalMatchesOneShotForAllSplitPoints) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog and keeps going for a "
      "while to cross several SHA-256 block boundaries in this test string.";
  const Digest expected = Sha256::hash(msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finalize(), expected) << "split at " << split;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update("abc");
  const Digest first = h.finalize();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.finalize(), first);
}

TEST(Digest, OrderingIsLexicographic) {
  Digest a, b;
  a.bytes[0] = 1;
  b.bytes[0] = 2;
  EXPECT_LT(a, b);
  b.bytes[0] = 1;
  EXPECT_EQ(a, b);
  b.bytes[31] = 1;
  EXPECT_LT(a, b);
}

TEST(Digest, FingerprintUsesLeadingBytes) {
  Digest d;
  for (int i = 0; i < 8; ++i) d.bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(d.fingerprint(), 0x0807060504030201ULL);
}

TEST(Digest, OrderKeyIsBigEndianAndAgreesWithDigestOrder) {
  Digest d;
  for (int i = 0; i < 8; ++i) d.bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(d.order_key(), 0x0102030405060708ULL);
  lppa::Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    Digest a, b;
    for (auto& byte : a.bytes) byte = static_cast<std::uint8_t>(rng.below(4));
    for (auto& byte : b.bytes) byte = static_cast<std::uint8_t>(rng.below(4));
    if (a.order_key() < b.order_key()) {
      EXPECT_LT(a, b);
    } else if (a.order_key() > b.order_key()) {
      EXPECT_GT(a, b);
    } else {
      EXPECT_TRUE(std::equal(a.bytes.begin(), a.bytes.begin() + 8,
                             b.bytes.begin()));
    }
  }
}

TEST(Digest, StdHashIsUsable) {
  const Digest a = Sha256::hash("x");
  const Digest b = Sha256::hash("y");
  const std::hash<Digest> hasher;
  EXPECT_NE(hasher(a), hasher(b));
}

// The compression seam under Sha256 and the fixed-block HMAC path.  The
// streaming tests above run whichever kernel CPUID picked, so on a host
// with the SHA extensions these are the only tests of the portable one.
using Block = std::array<std::uint8_t, 64>;

detail::Sha256State random_state(lppa::Rng& rng) {
  detail::Sha256State s;
  for (auto& w : s) w = static_cast<std::uint32_t>(rng.next());
  return s;
}

Block random_block(lppa::Rng& rng) {
  Block b;
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.below(256));
  return b;
}

TEST(Sha256Compress, PortableMatchesFipsVectors) {
  // "abc" in one padded block: the digest is the IV compressed once.
  Block abc{};
  abc[0] = 'a';
  abc[1] = 'b';
  abc[2] = 'c';
  abc[3] = 0x80;
  abc[63] = 24;  // bit length
  detail::Sha256State s = Sha256().midstate();
  detail::compress_portable(s, abc.data());
  EXPECT_EQ(detail::to_digest(s).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");

  // The 56-byte two-block vector: message + 0x80 fill one block, the
  // second holds only the bit length 448.
  const std::string msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  Block first{}, second{};
  std::copy(msg.begin(), msg.end(), first.begin());
  first[msg.size()] = 0x80;
  second[62] = 448 >> 8;
  second[63] = 448 & 0xff;
  s = Sha256().midstate();
  detail::compress_portable(s, first.data());
  detail::compress_portable(s, second.data());
  EXPECT_EQ(detail::to_digest(s).hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Compress, DispatchedKernelMatchesPortable) {
  if (!Sha256::accelerated()) {
    GTEST_SKIP() << "no SHA extensions: compress() is the portable kernel";
  }
  lppa::Rng rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    const detail::Sha256State start = random_state(rng);
    const Block block = random_block(rng);
    detail::Sha256State hw = start, sw = start;
    detail::compress(hw, block.data());
    detail::compress_portable(sw, block.data());
    ASSERT_EQ(hw, sw) << "trial " << trial;
  }
}

TEST(Sha256Compress, TwoLanesMatchTwoSingleLanesAndPortable) {
  lppa::Rng rng(32);
  for (int trial = 0; trial < 500; ++trial) {
    const detail::Sha256State start0 = random_state(rng);
    // Every fourth trial runs both lanes on the same input.
    const bool same = trial % 4 == 0;
    const detail::Sha256State start1 = same ? start0 : random_state(rng);
    const Block block0 = random_block(rng);
    const Block block1 = same ? block0 : random_block(rng);

    detail::Sha256State lane0 = start0, lane1 = start1;
    detail::compress_x2(lane0, block0.data(), lane1, block1.data());

    detail::Sha256State one0 = start0, one1 = start1;
    detail::compress(one0, block0.data());
    detail::compress(one1, block1.data());
    ASSERT_EQ(lane0, one0) << "trial " << trial;
    ASSERT_EQ(lane1, one1) << "trial " << trial;

    detail::Sha256State sw0 = start0, sw1 = start1;
    detail::compress_portable(sw0, block0.data());
    detail::compress_portable(sw1, block1.data());
    ASSERT_EQ(lane0, sw0) << "trial " << trial;
    ASSERT_EQ(lane1, sw1) << "trial " << trial;
  }
}

// Avalanche-style property sweep: flipping any single input byte changes
// the digest.
class Sha256Avalanche : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256Avalanche, SingleByteFlipChangesDigest) {
  const std::size_t len = GetParam();
  lppa::Rng rng(len + 17);
  Bytes msg(len);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  const Digest base = Sha256::hash(msg);
  for (std::size_t i = 0; i < len; i += std::max<std::size_t>(1, len / 8)) {
    Bytes mutated = msg;
    mutated[i] ^= 0x01;
    EXPECT_NE(Sha256::hash(mutated), base) << "flip at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, Sha256Avalanche,
                         ::testing::Values(1, 31, 32, 63, 64, 65, 127, 128,
                                           1000));

}  // namespace
}  // namespace lppa::crypto
