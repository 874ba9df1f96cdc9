#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace lppa::crypto {
namespace {

Bytes str_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

// RFC 4231 test case 1: 20-byte 0x0b key, "Hi There".
TEST(HmacRawKey, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes msg = str_bytes("Hi There");
  EXPECT_EQ(hmac_sha256_raw_key(key, msg).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2: key "Jefe", msg "what do ya want for nothing?".
TEST(HmacRawKey, Rfc4231Case2) {
  EXPECT_EQ(hmac_sha256_raw_key(str_bytes("Jefe"),
                                str_bytes("what do ya want for nothing?"))
                .hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20-byte 0xaa key, 50 bytes of 0xdd.
TEST(HmacRawKey, Rfc4231Case3) {
  EXPECT_EQ(hmac_sha256_raw_key(Bytes(20, 0xaa), Bytes(50, 0xdd)).hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 4: 25-byte incrementing key, 50 bytes of 0xcd.
TEST(HmacRawKey, Rfc4231Case4) {
  Bytes key(25);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(hmac_sha256_raw_key(key, Bytes(50, 0xcd)).hex(),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// RFC 4231 test case 6: 131-byte 0xaa key (forces key pre-hashing).
TEST(HmacRawKey, Rfc4231Case6OversizedKey) {
  EXPECT_EQ(
      hmac_sha256_raw_key(
          Bytes(131, 0xaa),
          str_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))
          .hex(),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 test case 7: oversized key AND long message.
TEST(HmacRawKey, Rfc4231Case7) {
  EXPECT_EQ(hmac_sha256_raw_key(
                Bytes(131, 0xaa),
                str_bytes("This is a test using a larger than block-size key "
                          "and a larger than block-size data. The key needs "
                          "to be hashed before being used by the HMAC "
                          "algorithm."))
                .hex(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacSecretKey, MatchesRawKeyPath) {
  lppa::Rng rng(1);
  const SecretKey key = SecretKey::generate(rng);
  const Bytes msg = str_bytes("some message");
  const Bytes raw_key(key.bytes().begin(), key.bytes().end());
  EXPECT_EQ(hmac_sha256(key, msg), hmac_sha256_raw_key(raw_key, msg));
}

TEST(HmacSecretKey, StringOverloadMatchesByteOverload) {
  lppa::Rng rng(2);
  const SecretKey key = SecretKey::generate(rng);
  EXPECT_EQ(hmac_sha256(key, "payload"),
            hmac_sha256(key, str_bytes("payload")));
}

TEST(HmacSecretKey, DifferentKeysDifferentMacs) {
  lppa::Rng rng(3);
  const SecretKey k1 = SecretKey::generate(rng);
  const SecretKey k2 = SecretKey::generate(rng);
  EXPECT_NE(hmac_sha256(k1, "m"), hmac_sha256(k2, "m"));
}

TEST(HmacSecretKey, DifferentMessagesDifferentMacs) {
  lppa::Rng rng(4);
  const SecretKey key = SecretKey::generate(rng);
  EXPECT_NE(hmac_sha256(key, "m1"), hmac_sha256(key, "m2"));
}

TEST(HmacU64, EncodesLittleEndian) {
  lppa::Rng rng(5);
  const SecretKey key = SecretKey::generate(rng);
  const std::uint64_t v = 0x0123456789abcdefULL;
  Bytes le(8);
  for (int i = 0; i < 8; ++i) le[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  EXPECT_EQ(hmac_sha256_u64(key, v), hmac_sha256(key, le));
}

TEST(HmacU64, DistinctValuesDistinctDigests) {
  lppa::Rng rng(6);
  const SecretKey key = SecretKey::generate(rng);
  // The protocol relies on HMAC being injective in practice over the
  // numericalised prefixes; spot-check a dense range.
  std::set<Digest> seen;
  for (std::uint64_t v = 0; v < 2000; ++v) {
    EXPECT_TRUE(seen.insert(hmac_sha256_u64(key, v)).second) << v;
  }
}

TEST(HmacIncremental, ChunkSizeNeverMatters) {
  // Property: any partition of the message into update() calls yields
  // the same MAC.
  lppa::Rng rng(8);
  const SecretKey key = SecretKey::generate(rng);
  Bytes msg(257);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  const Digest expected = hmac_sha256(key, msg);
  for (std::size_t chunk : {1u, 3u, 16u, 63u, 64u, 65u, 256u}) {
    HmacSha256 mac(key);
    for (std::size_t off = 0; off < msg.size(); off += chunk) {
      const std::size_t take = std::min(chunk, msg.size() - off);
      mac.update(std::span<const std::uint8_t>(msg.data() + off, take));
    }
    EXPECT_EQ(mac.finalize(), expected) << "chunk " << chunk;
  }
}

TEST(HmacIncremental, MatchesOneShot) {
  lppa::Rng rng(7);
  const SecretKey key = SecretKey::generate(rng);
  const Bytes msg = str_bytes("split me into pieces");
  HmacSha256 mac(key);
  mac.update(std::span<const std::uint8_t>(msg.data(), 6));
  mac.update(std::span<const std::uint8_t>(msg.data() + 6, msg.size() - 6));
  EXPECT_EQ(mac.finalize(), hmac_sha256(key, msg));
}

// ------------------------------------------------------------------ ctx

// Every RFC 4231 case, driven explicitly through HmacKeyCtx::from_raw_key
// so the midstate-cached path (not just the convenience wrappers built on
// it) is pinned against the published vectors.  Covers short keys
// (zero-padding), an oversized key (pre-hashing), and messages shorter
// and longer than one compression block.
TEST(HmacKeyCtxRfc4231, AllCasesThroughMidstatePath) {
  struct Case {
    Bytes key;
    Bytes msg;
    const char* hex;
  };
  Bytes case4_key(25);
  for (std::size_t i = 0; i < case4_key.size(); ++i) {
    case4_key[i] = static_cast<std::uint8_t>(i + 1);
  }
  const Case cases[] = {
      {Bytes(20, 0x0b), str_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {str_bytes("Jefe"), str_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {case4_key, Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(131, 0xaa),
       str_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       str_bytes("This is a test using a larger than block-size key "
                 "and a larger than block-size data. The key needs "
                 "to be hashed before being used by the HMAC "
                 "algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const Case& c : cases) {
    const HmacKeyCtx ctx = HmacKeyCtx::from_raw_key(c.key);
    EXPECT_EQ(ctx.mac(c.msg).hex(), c.hex);
    // The context is reusable: a second mac() from the same midstates
    // must not be perturbed by the first.
    EXPECT_EQ(ctx.mac(c.msg).hex(), c.hex);
  }
}

TEST(HmacKeyCtx, SecretKeyCtorMatchesRawKeyCtor) {
  lppa::Rng rng(9);
  const SecretKey key = SecretKey::generate(rng);
  const HmacKeyCtx a(key);
  const HmacKeyCtx b = HmacKeyCtx::from_raw_key(key.bytes());
  const Bytes msg = str_bytes("midstate");
  EXPECT_EQ(a.mac(msg), b.mac(msg));
}

TEST(HmacKeyCtx, MacU64MatchesOneShot) {
  lppa::Rng rng(10);
  const SecretKey key = SecretKey::generate(rng);
  const HmacKeyCtx ctx(key);
  for (std::uint64_t v : {0ull, 1ull, 0xffull, 0x0123456789abcdefull, ~0ull}) {
    EXPECT_EQ(ctx.mac_u64(v), hmac_sha256_u64(key, v)) << v;
  }
}

// Property: the batch API is digest-for-digest identical to per-call
// hmac_sha256_u64 for random keys and values — this is what lets
// prefix/hashed_set switch to the batched path without any behavioural
// review of its callers.
TEST(HmacBatch, EquivalentToPerCallForRandomKeysAndValues) {
  lppa::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const SecretKey key = SecretKey::generate(rng);
    const std::size_t count = static_cast<std::size_t>(rng.below(65));
    std::vector<std::uint64_t> values(count);
    for (auto& v : values) v = rng.next();
    std::vector<Digest> batch(count);
    hmac_sha256_u64_batch(key, values, batch);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(batch[i], hmac_sha256_u64(key, values[i]))
          << "trial " << trial << " index " << i;
    }
  }
}

// mac_u64_batch hashes pairs on the two-lane kernel and an odd tail on
// the one-lane kernel; both must agree with per-call mac_u64 and with the
// streaming HMAC over the 8-byte little-endian encoding, for every batch
// length up to the largest production batch and past it.
TEST(HmacBatch, PairsAndOddTailsMatchPerCallAndStreaming) {
  lppa::Rng rng(14);
  const SecretKey key = SecretKey::generate(rng);
  const HmacKeyCtx ctx(key);
  for (std::size_t count = 0; count <= 17; ++count) {
    std::vector<std::uint64_t> values(count);
    for (auto& v : values) v = rng.next();
    if (count > 0) values[0] = 0;
    if (count > 1) values[count - 1] = ~0ull;
    std::vector<Digest> batch(count);
    ctx.mac_u64_batch(values, batch);
    for (std::size_t i = 0; i < count; ++i) {
      std::uint8_t le[8];
      for (int b = 0; b < 8; ++b) {
        le[b] = static_cast<std::uint8_t>(values[i] >> (8 * b));
      }
      EXPECT_EQ(batch[i], ctx.mac_u64(values[i]))
          << "count " << count << " index " << i;
      EXPECT_EQ(batch[i], hmac_sha256(key, std::span<const std::uint8_t>(le)))
          << "count " << count << " index " << i;
    }
  }
}

TEST(HmacBatch, EmptyBatchIsANoop) {
  lppa::Rng rng(12);
  const SecretKey key = SecretKey::generate(rng);
  hmac_sha256_u64_batch(key, {}, {});
}

TEST(HmacBatch, MismatchedSpansThrow) {
  lppa::Rng rng(13);
  const SecretKey key = SecretKey::generate(rng);
  const std::uint64_t v = 7;
  std::vector<Digest> out(2);
  EXPECT_THROW(
      hmac_sha256_u64_batch(key, std::span<const std::uint64_t>(&v, 1), out),
      lppa::LppaError);
}

}  // namespace
}  // namespace lppa::crypto
