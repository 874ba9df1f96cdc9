#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <string>
#include <vector>

namespace lppa::crypto {
namespace {

TEST(Primality, KnownSmallValues) {
  EXPECT_FALSE(is_prime_u64(0));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_FALSE(is_prime_u64(4));
  EXPECT_TRUE(is_prime_u64(97));
  EXPECT_FALSE(is_prime_u64(91));  // 7 * 13
  EXPECT_TRUE(is_prime_u64(7919));
}

TEST(Primality, CarmichaelNumbersRejected) {
  for (std::uint64_t carmichael : {561ULL, 1105ULL, 1729ULL, 2465ULL,
                                   2821ULL, 6601ULL, 8911ULL}) {
    EXPECT_FALSE(is_prime_u64(carmichael)) << carmichael;
  }
}

TEST(Primality, LargeKnownValues) {
  EXPECT_TRUE(is_prime_u64(2147483647ULL));          // 2^31 - 1
  EXPECT_TRUE(is_prime_u64(4294967291ULL));          // largest 32-bit prime
  EXPECT_FALSE(is_prime_u64(4294967295ULL));         // 2^32 - 1 composite
  EXPECT_TRUE(is_prime_u64(1000000007ULL));
  EXPECT_FALSE(is_prime_u64(1000000007ULL * 3));
}

TEST(Primality, AgreesWithTrialDivisionBelow2000) {
  auto trial = [](std::uint64_t n) {
    if (n < 2) return false;
    for (std::uint64_t d = 2; d * d <= n; ++d) {
      if (n % d == 0) return false;
    }
    return true;
  };
  for (std::uint64_t n = 0; n < 2000; ++n) {
    EXPECT_EQ(is_prime_u64(n), trial(n)) << n;
  }
}

TEST(RandomPrime, RespectsBitWidth) {
  Rng rng(7);
  for (int bits : {4, 8, 12, 16, 24, 32}) {
    for (int i = 0; i < 10; ++i) {
      const std::uint64_t p = random_prime(bits, rng);
      EXPECT_TRUE(is_prime_u64(p));
      EXPECT_GE(p, std::uint64_t{1} << (bits - 1));
      EXPECT_LT(p, std::uint64_t{1} << bits);
    }
  }
  EXPECT_THROW(random_prime(2, rng), LppaError);
  EXPECT_THROW(random_prime(33, rng), LppaError);
}

TEST(RandomPrime, MinimumWidthThreeBits) {
  // bits=3 is the documented floor: candidates live in [4, 7] and the
  // only odd primes there are 5 and 7.
  Rng rng(11);
  for (int i = 0; i < 25; ++i) {
    const std::uint64_t p = random_prime(3, rng);
    EXPECT_TRUE(p == 5 || p == 7) << p;
  }
}

TEST(ModPow, MatchesNaive) {
  EXPECT_EQ(modpow_u64(2, 10, 1000), 24u);
  EXPECT_EQ(modpow_u64(7, 0, 13), 1u);
  EXPECT_EQ(modpow_u64(0, 5, 13), 0u);
  EXPECT_EQ(modpow_u64(5, 117, 19), [&] {
    std::uint64_t r = 1;
    for (int i = 0; i < 117; ++i) r = r * 5 % 19;
    return r;
  }());
  // Fermat: a^(p-1) = 1 mod p.
  EXPECT_EQ(modpow_u64(123456789, 1000000006, 1000000007), 1u);
}

TEST(ModInv, InvertsCoprimes) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t m = 2 + rng.below(1 << 20);
    const std::uint64_t a = 1 + rng.below(m - 1);
    const auto inv = modinv_u64(a, m);
    if (std::gcd(a, m) == 1) {
      ASSERT_TRUE(inv.has_value());
      EXPECT_EQ(a * *inv % m, 1u);
    } else {
      EXPECT_FALSE(inv.has_value());
    }
  }
}

TEST(ModInv, NonCoprimeEdgesReturnNullopt) {
  // The nullopt branch is what paillier_keygen's mu-inverse failure path
  // rides: L(g^lambda) not coprime with n retries the whole keygen
  // attempt instead of producing a bogus mu.
  EXPECT_FALSE(modinv_u64(6, 9).has_value());
  EXPECT_FALSE(modinv_u64(0, 7).has_value());
  EXPECT_FALSE(modinv_u64(4, 8).has_value());
  ASSERT_TRUE(modinv_u64(1, 2).has_value());
  EXPECT_EQ(*modinv_u64(1, 2), 1u);
  EXPECT_THROW(modinv_u64(3, 1), LppaError);  // modulus must exceed 1
}

TEST(PaillierKeygen, FourBitKeysExerciseTheDistinctPrimeRetry) {
  // Exactly two 4-bit primes exist (11 and 13), so the q == p retry loop
  // must fire whenever the first two draws collide; every keypair ends up
  // with the same modulus 11 * 13 and lambda = lcm(10, 12).
  Rng rng(31);
  for (int i = 0; i < 10; ++i) {
    auto keys = paillier_keygen(4, rng);
    EXPECT_EQ(keys.pub.n, 143u);
    EXPECT_EQ(keys.pub.n_squared, 143u * 143u);
    EXPECT_EQ(keys.priv.lambda, 60u);
    EXPECT_EQ(keys.priv.decrypt(keys.pub.encrypt(100, rng), keys.pub), 100u);
  }
}

TEST(PaillierKeygen, PrimeBitsBoundsAreTyped) {
  Rng rng(5);
  for (const int bits : {3, 17}) {
    try {
      paillier_keygen(bits, rng);
      FAIL() << "prime_bits " << bits << " must be rejected";
    } catch (const LppaError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument) << bits;
    }
  }
}

// --- Montgomery arithmetic against the __int128 reference -----------------

std::uint64_t ref_mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>((static_cast<__uint128_t>(a) * b) % m);
}

/// Textbook decryption with modpow_u64; nullopt where L(x) is undefined
/// (the Montgomery path must throw there).
std::optional<std::uint64_t> ref_decrypt(const PaillierKeyPair& keys,
                                         std::uint64_t c) {
  const std::uint64_t n = keys.pub.n;
  const std::uint64_t x = modpow_u64(c, keys.priv.lambda, keys.pub.n_squared);
  if (x == 0 || (x - 1) % n != 0) return std::nullopt;
  return ref_mulmod((x - 1) / n, keys.priv.mu, n);
}

/// encrypt/add/scale/decrypt on `keys` equal the __int128 formulas on
/// edge operands (0, 1, n^2 - 1, out-of-range words), edge exponents
/// (0, 1, n - 1, 2^64 - 1) and random ones.
void expect_matches_reference(const PaillierKeyPair& keys, Rng& rng) {
  const PaillierPublicKey& pub = keys.pub;
  const std::uint64_t nn = pub.n_squared;
  std::vector<std::uint64_t> operands = {0, 1, 2, nn - 1, nn - 2};
  for (const std::uint64_t m : {std::uint64_t{0}, std::uint64_t{1},
                                pub.n - 1, pub.n / 2}) {
    // Same r draws as encrypt(): a copy of the stream replays them.
    Rng replay = rng;
    std::uint64_t r = 0;
    do {
      r = 1 + replay.below(pub.n - 1);
    } while (std::gcd(r, pub.n) != 1);
    const std::uint64_t expected =
        ref_mulmod(1 + m * pub.n, modpow_u64(r, pub.n, nn), nn);
    const std::uint64_t c = pub.encrypt(m, rng);
    EXPECT_EQ(c, expected) << "encrypt m=" << m << " n=" << pub.n;
    operands.push_back(c);
  }
  for (int i = 0; i < 8; ++i) operands.push_back(rng.below(nn));
  const std::vector<std::uint64_t> exponents = {
      0, 1, 2, pub.n - 1, keys.priv.lambda, ~std::uint64_t{0},
      rng.below(pub.n), rng.next()};
  for (const std::uint64_t a : operands) {
    for (const std::uint64_t b : operands) {
      EXPECT_EQ(pub.add(a, b), ref_mulmod(a, b, nn)) << a << " * " << b;
    }
    for (const std::uint64_t e : exponents) {
      EXPECT_EQ(pub.scale(a, e), modpow_u64(a, e, nn)) << a << " ^ " << e;
    }
    const auto expected = ref_decrypt(keys, a);
    if (expected.has_value()) {
      EXPECT_EQ(keys.priv.decrypt(a, pub), *expected) << "decrypt " << a;
    } else {
      EXPECT_THROW(keys.priv.decrypt(a, pub), LppaError) << "decrypt " << a;
    }
  }
  // Words at or above n^2 reduce first, as the plain product does.
  const std::uint64_t big = ~std::uint64_t{0};
  EXPECT_EQ(pub.add(big, nn + 3), ref_mulmod(big % nn, 3, nn));
  EXPECT_EQ(pub.scale(big, 5), modpow_u64(big, 5, nn));
}

TEST(PaillierMontgomery, ContextMatchesInt128NearTwoTo64) {
  Rng rng(64);
  for (const std::uint64_t m :
       {std::uint64_t{3}, std::uint64_t{143} * 143,
        (std::uint64_t{1} << 63) + 1,
        std::uint64_t{18446744073709551557ULL} /* prime */,
        ~std::uint64_t{0}}) {
    const Montgomery64 ctx = Montgomery64::for_modulus(m);
    std::vector<std::uint64_t> xs = {0, 1, m - 1, m / 2};
    for (int i = 0; i < 16; ++i) xs.push_back(rng.below(m));
    for (const std::uint64_t a : xs) {
      EXPECT_EQ(ctx.from_mont(ctx.to_mont(a)), a) << a << " mod " << m;
      for (const std::uint64_t b : xs) {
        EXPECT_EQ(ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b))),
                  ref_mulmod(a, b, m))
            << a << " * " << b << " mod " << m;
      }
      for (const std::uint64_t e : {std::uint64_t{0}, std::uint64_t{1},
                                    m - 1, rng.next()}) {
        EXPECT_EQ(ctx.from_mont(ctx.pow(ctx.to_mont(a), e)),
                  modpow_u64(a, e, m))
            << a << " ^ " << e << " mod " << m;
      }
    }
  }
  EXPECT_THROW(Montgomery64::for_modulus(1), LppaError);
  EXPECT_THROW(Montgomery64::for_modulus(1u << 20), LppaError);
}

TEST(PaillierMontgomery, OpsMatchInt128ReferenceForEveryPrimeSize) {
  for (int bits = 4; bits <= 16; ++bits) {
    Rng rng(static_cast<std::uint64_t>(bits) * 7919 + 1);
    const PaillierKeyPair keys = paillier_keygen(bits, rng);
    SCOPED_TRACE("prime_bits " + std::to_string(bits));
    expect_matches_reference(keys, rng);
  }
}

TEST(PaillierMontgomery, OpsMatchReferenceWithModulusSquaredAboveTwoTo63) {
  // 16-bit primes put n^2 anywhere in [2^60, 2^64); REDC that forms
  // t + q*m in 128 bits would overflow on the upper part of that range.
  std::size_t found = 0;
  for (std::uint64_t seed = 1; seed <= 40 && found < 3; ++seed) {
    Rng rng(seed);
    const PaillierKeyPair keys = paillier_keygen(16, rng);
    if (keys.pub.n_squared < (std::uint64_t{1} << 63)) continue;
    ++found;
    SCOPED_TRACE("n^2 = " + std::to_string(keys.pub.n_squared));
    expect_matches_reference(keys, rng);
  }
  EXPECT_EQ(found, 3u) << "no 16-bit key with n^2 >= 2^63 in 40 seeds";
}

struct PaillierTest : ::testing::Test {
  Rng rng{2024};
  PaillierKeyPair keys = paillier_keygen(12, rng);
};

TEST_F(PaillierTest, KeyStructure) {
  EXPECT_EQ(keys.pub.n_squared, keys.pub.n * keys.pub.n);
  EXPECT_GT(keys.priv.lambda, 0u);
  EXPECT_GT(keys.priv.mu, 0u);
}

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  for (std::uint64_t m : {0ULL, 1ULL, 7ULL, 1000ULL}) {
    const std::uint64_t c = keys.pub.encrypt(m, rng);
    EXPECT_EQ(keys.priv.decrypt(c, keys.pub), m) << "m=" << m;
  }
  // Boundary plaintext n-1.
  const std::uint64_t top = keys.pub.n - 1;
  EXPECT_EQ(keys.priv.decrypt(keys.pub.encrypt(top, rng), keys.pub), top);
}

TEST_F(PaillierTest, EncryptionIsRandomised) {
  const std::uint64_t c1 = keys.pub.encrypt(42, rng);
  const std::uint64_t c2 = keys.pub.encrypt(42, rng);
  EXPECT_NE(c1, c2);
  EXPECT_EQ(keys.priv.decrypt(c1, keys.pub), 42u);
  EXPECT_EQ(keys.priv.decrypt(c2, keys.pub), 42u);
}

TEST_F(PaillierTest, RejectsOversizedPlaintext) {
  EXPECT_THROW(keys.pub.encrypt(keys.pub.n, rng), LppaError);
}

TEST_F(PaillierTest, OversizedPlaintextRejectionIsTyped) {
  // A plaintext >= n must be the typed kInvalidArgument rejection — never
  // a silent mod-n wrap that encrypts a different number than requested.
  for (const std::uint64_t m : {keys.pub.n, keys.pub.n + 1, ~std::uint64_t{0}}) {
    try {
      keys.pub.encrypt(m, rng);
      FAIL() << "plaintext " << m << " must be rejected";
    } catch (const LppaError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument) << m;
    }
  }
}

TEST_F(PaillierTest, HomomorphicAddition) {
  Rng value_rng(5);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = value_rng.below(keys.pub.n);
    const std::uint64_t b = value_rng.below(keys.pub.n);
    const std::uint64_t sum_ct =
        keys.pub.add(keys.pub.encrypt(a, rng), keys.pub.encrypt(b, rng));
    EXPECT_EQ(keys.priv.decrypt(sum_ct, keys.pub),
              (a + b) % keys.pub.n);
  }
}

TEST_F(PaillierTest, HomomorphicScalarMultiplication) {
  Rng value_rng(9);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t m = value_rng.below(keys.pub.n);
    const std::uint64_t k = value_rng.below(1000);
    const std::uint64_t ct = keys.pub.scale(keys.pub.encrypt(m, rng), k);
    EXPECT_EQ(keys.priv.decrypt(ct, keys.pub),
              static_cast<std::uint64_t>(
                  (static_cast<__uint128_t>(m) * k) % keys.pub.n));
  }
}

TEST_F(PaillierTest, WrongKeyDecryptsGarbage) {
  Rng other_rng(777);
  const PaillierKeyPair other = paillier_keygen(12, other_rng);
  const std::uint64_t c = keys.pub.encrypt(42, rng);
  // Decryption under an unrelated key essentially never recovers 42 (it
  // can even violate L's precondition, which throws).
  try {
    EXPECT_NE(other.priv.decrypt(c % other.pub.n_squared, other.pub), 42u);
  } catch (const LppaError&) {
    SUCCEED();
  }
}

TEST_F(PaillierTest, KeygenDeterministicPerRngState) {
  Rng a(99), b(99);
  const auto ka = paillier_keygen(10, a);
  const auto kb = paillier_keygen(10, b);
  EXPECT_EQ(ka.pub.n, kb.pub.n);
  EXPECT_EQ(ka.priv.lambda, kb.priv.lambda);
}

TEST_F(PaillierTest, CiphertextBitsTrackModulus) {
  EXPECT_GE(keys.pub.ciphertext_bits(), 40);  // ~2x 2x12-bit primes
  EXPECT_LE(keys.pub.ciphertext_bits(), 48);
}

class PaillierKeySizes : public ::testing::TestWithParam<int> {};

TEST_P(PaillierKeySizes, RoundTripAcrossSizes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  const auto keys = paillier_keygen(GetParam(), rng);
  for (std::uint64_t m : {0ULL, 15ULL, 255ULL}) {
    if (m >= keys.pub.n) continue;
    EXPECT_EQ(keys.priv.decrypt(keys.pub.encrypt(m, rng), keys.pub), m);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, PaillierKeySizes,
                         ::testing::Values(4, 6, 8, 10, 12, 14, 16));

}  // namespace
}  // namespace lppa::crypto
