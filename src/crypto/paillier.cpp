#include "crypto/paillier.h"

#include <numeric>

#include "common/error.h"
#include "common/math_util.h"

namespace lppa::crypto {

namespace {

std::uint64_t mulmod_u64(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(a) * b) % m);
}

/// Paillier's L function: L(x) = (x - 1) / n, defined on x = 1 mod n.
std::uint64_t paillier_l(std::uint64_t x, std::uint64_t n) {
  LPPA_REQUIRE(x >= 1 && (x - 1) % n == 0, "L(x) requires x = 1 (mod n)");
  return (x - 1) / n;
}

}  // namespace

Montgomery64 Montgomery64::for_modulus(std::uint64_t m) {
  LPPA_REQUIRE(m > 1 && (m & 1) != 0,
               "Montgomery modulus must be odd and above 1");
  Montgomery64 ctx;
  ctx.m = m;
  // Newton iteration for m^-1 mod 2^64: m is its own inverse mod 8, and
  // each step doubles the number of correct low bits (3 -> 96).
  std::uint64_t inv = m;
  for (int i = 0; i < 5; ++i) inv *= 2 - m * inv;
  ctx.m_inv = inv;
  ctx.one = (0 - m) % m;  // 2^64 mod m
  ctx.r2 = mulmod_u64(ctx.one, ctx.one, m);
  return ctx;
}

std::uint64_t Montgomery64::pow(std::uint64_t x,
                                std::uint64_t e) const noexcept {
  std::uint64_t result = one;
  while (e != 0) {
    if (e & 1) result = mul(result, x);
    x = mul(x, x);
    e >>= 1;
  }
  return result;
}

std::uint64_t modpow_u64(std::uint64_t x, std::uint64_t e, std::uint64_t m) {
  LPPA_REQUIRE(m != 0, "modulus must be non-zero");
  std::uint64_t result = 1 % m;
  std::uint64_t base = x % m;
  while (e != 0) {
    if (e & 1) result = mulmod_u64(result, base, m);
    base = mulmod_u64(base, base, m);
    e >>= 1;
  }
  return result;
}

bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL,
                          19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  // n - 1 = d * 2^s
  std::uint64_t d = n - 1;
  int s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  for (std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL,
                          19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    std::uint64_t x = modpow_u64(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (int round = 1; round < s; ++round) {
      x = mulmod_u64(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

std::uint64_t random_prime(int bits, Rng& rng) {
  LPPA_REQUIRE(bits >= 3 && bits <= 32, "prime size must be in [3, 32] bits");
  const std::uint64_t lo = std::uint64_t{1} << (bits - 1);
  const std::uint64_t hi = (std::uint64_t{1} << bits) - 1;
  for (int attempt = 0; attempt < 100000; ++attempt) {
    std::uint64_t candidate =
        lo + rng.below(hi - lo + 1);
    candidate |= 1;  // odd
    if (candidate <= hi && is_prime_u64(candidate)) return candidate;
  }
  LPPA_REQUIRE(false, "prime sampling failed (astronomically unlikely)");
  return 0;
}

std::optional<std::uint64_t> modinv_u64(std::uint64_t a, std::uint64_t m) {
  LPPA_REQUIRE(m > 1, "modulus must exceed 1");
  // Extended Euclid on signed 128-bit to dodge overflow.
  __int128 old_r = static_cast<__int128>(a % m), r = m;
  __int128 old_s = 1, s = 0;
  while (r != 0) {
    const __int128 q = old_r / r;
    const __int128 tmp_r = old_r - q * r;
    old_r = r;
    r = tmp_r;
    const __int128 tmp_s = old_s - q * s;
    old_s = s;
    s = tmp_s;
  }
  if (old_r != 1) return std::nullopt;  // not coprime
  __int128 inv = old_s % static_cast<__int128>(m);
  if (inv < 0) inv += m;
  return static_cast<std::uint64_t>(inv);
}

std::uint64_t PaillierPublicKey::encrypt(std::uint64_t plaintext,
                                         Rng& rng) const {
  LPPA_REQUIRE(plaintext < n, "plaintext must be below the modulus");
  // r uniform in Z*_n.
  std::uint64_t r = 0;
  do {
    r = 1 + rng.below(n - 1);
  } while (std::gcd(r, n) != 1);
  // (n+1)^m mod n^2 == 1 + m*n (binomial), computed directly; it stays
  // below n^2 because m < n.  The plaintext is NOT reduced mod n here:
  // an out-of-range value must be the typed rejection above, never a
  // silent wrap-around that encrypts a different number than the caller
  // handed in.
  const std::uint64_t g_m = 1 + plaintext * n;
  const std::uint64_t r_n = mont.pow(mont.to_mont(r), n);
  return mont.mul(g_m, r_n);  // plain times Montgomery form: plain
}

std::uint64_t PaillierPublicKey::reduced(std::uint64_t c) const noexcept {
  return c < n_squared ? c : c % n_squared;
}

std::uint64_t PaillierPublicKey::add(std::uint64_t c1, std::uint64_t c2) const {
  return mont.mul(mont.to_mont(reduced(c1)), reduced(c2));
}

std::uint64_t PaillierPublicKey::scale(std::uint64_t c,
                                       std::uint64_t k) const {
  return mont.from_mont(mont.pow(mont.to_mont(reduced(c)), k));
}

int PaillierPublicKey::ciphertext_bits() const noexcept {
  return bit_width_for_value(n_squared - 1);
}

std::uint64_t PaillierPrivateKey::decrypt(
    std::uint64_t ciphertext, const PaillierPublicKey& pub) const {
  LPPA_REQUIRE(ciphertext < pub.n_squared, "ciphertext out of range");
  return decrypt_mont(pub.mont.to_mont(ciphertext), pub);
}

std::uint64_t PaillierPrivateKey::decrypt_mont(
    std::uint64_t ciphertext_mont, const PaillierPublicKey& pub) const {
  const std::uint64_t x =
      pub.mont.from_mont(pub.mont.pow(ciphertext_mont, lambda));
  return mulmod_u64(paillier_l(x, pub.n), mu, pub.n);
}

PaillierKeyPair paillier_keygen(int prime_bits, Rng& rng) {
  LPPA_REQUIRE(prime_bits >= 4 && prime_bits <= 16,
               "prime_bits must be in [4, 16] so n^2 fits 64 bits");
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const std::uint64_t p = random_prime(prime_bits, rng);
    std::uint64_t q = p;
    while (q == p) q = random_prime(prime_bits, rng);
    const std::uint64_t n = p * q;
    const std::uint64_t lambda = std::lcm(p - 1, q - 1);
    // Standard requirement: gcd(n, (p-1)(q-1)) == 1.
    if (std::gcd(n, (p - 1) * (q - 1)) != 1) continue;

    PaillierKeyPair keys;
    keys.pub.n = n;
    keys.pub.n_squared = n * n;
    keys.pub.mont = Montgomery64::for_modulus(keys.pub.n_squared);
    keys.priv.lambda = lambda;
    // mu = L((n+1)^lambda mod n^2)^-1 mod n; with g = n+1 this is
    // L(1 + lambda*n) = lambda mod n.
    const std::uint64_t g_lambda =
        modpow_u64(n + 1, lambda, keys.pub.n_squared);
    const auto inv = modinv_u64(paillier_l(g_lambda, n), n);
    if (!inv) continue;
    keys.priv.mu = *inv;
    return keys;
  }
  LPPA_REQUIRE(false, "Paillier keygen failed to find a valid modulus");
  return {};
}

}  // namespace lppa::crypto
