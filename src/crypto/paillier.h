// Paillier cryptosystem (additively homomorphic public-key encryption).
//
// This is the machinery behind the paper's closest prior work — Pan et
// al., "Purging the back-room dealing: secure spectrum auction leveraging
// Paillier cryptosystem" (IEEE JSAC'11, the paper's [7]) — which the
// paper dismisses as "a large number of communication costs, which does
// not fit an efficient auction mechanism".  We implement Paillier
// faithfully (keygen over random primes, g = n+1, decryption by
// L(c^lambda mod n^2) * mu mod n) at parameterised key sizes so
// bench/abl_paillier can measure the claimed gap on real operations.
//
// The moduli are bounded to n < 2^32, so n^2 fits one 64-bit word (and
// may exceed 2^63 at 16-bit primes).  Every mod-n^2 operation runs on a
// Montgomery context (Montgomery64, R = 2^64) that keygen computes once
// and keeps on the public key: a multiply is two 64x64->128 products and
// a subtraction, never a 128-bit division.  The arithmetic is exact, so
// ciphertexts and plaintexts are the same bits the textbook formulas
// give; modpow_u64 stays the generic __int128 reference for arbitrary
// moduli (primality tests, keygen).  32-bit moduli are of course toy
// security, which the bench compensates by reporting alongside the
// asymptotic scaling to the 1024/2048-bit moduli [7] requires.  Nothing
// in the LPPA protocol itself uses Paillier.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.h"

namespace lppa::crypto {

/// Deterministic Miller-Rabin for 64-bit inputs (bases 2,3,5,7,11,13,17,
/// 23, 29, 31, 37 are exact below 3.3 * 10^24).
bool is_prime_u64(std::uint64_t n);

/// Uniform random prime with exactly `bits` bits (MSB set), bits in
/// [3, 32].
std::uint64_t random_prime(int bits, Rng& rng);

/// x^e mod m with 128-bit intermediates; m may be up to 2^64 - 1.
std::uint64_t modpow_u64(std::uint64_t x, std::uint64_t e, std::uint64_t m);

/// Modular inverse via extended Euclid; nullopt when gcd(a, m) != 1.
std::optional<std::uint64_t> modinv_u64(std::uint64_t a, std::uint64_t m);

/// Montgomery arithmetic modulo an odd m in (1, 2^64), with R = 2^64.
/// A value in Montgomery form stands for x as x*R mod m; mul and pow
/// take and return that form.  reduce() is the subtractive REDC: it
/// never forms t + q*m, so it has no carry out of 128 bits and holds for
/// every m up to 2^64 - 1 (n^2 >= 2^63 at 16-bit primes).
struct Montgomery64 {
  std::uint64_t m = 0;      ///< the modulus (odd)
  std::uint64_t m_inv = 0;  ///< m^-1 mod 2^64
  std::uint64_t r2 = 0;     ///< R^2 mod m (to_mont's multiplier)
  std::uint64_t one = 0;    ///< R mod m: 1 in Montgomery form

  static Montgomery64 for_modulus(std::uint64_t m);

  /// t * R^-1 mod m, for t < m * R; the result is in [0, m).
  std::uint64_t reduce(__uint128_t t) const noexcept {
    const std::uint64_t hi = static_cast<std::uint64_t>(t >> 64);
    const std::uint64_t q = static_cast<std::uint64_t>(t) * m_inv;
    // q*m has the same low word as t, so t - q*m = (hi - qm_hi) * R.
    const std::uint64_t qm_hi =
        static_cast<std::uint64_t>((static_cast<__uint128_t>(q) * m) >> 64);
    return hi >= qm_hi ? hi - qm_hi : hi - qm_hi + m;
  }
  /// a * b * R^-1 mod m for a, b < m: the product of two Montgomery
  /// forms, or a plain value times a Montgomery form (a plain result).
  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const noexcept {
    return reduce(static_cast<__uint128_t>(a) * b);
  }
  std::uint64_t to_mont(std::uint64_t x) const noexcept {  ///< x < m
    return mul(x, r2);
  }
  std::uint64_t from_mont(std::uint64_t x) const noexcept {
    return reduce(x);
  }
  /// x^e with x and the result in Montgomery form (x^0 = one).
  std::uint64_t pow(std::uint64_t x, std::uint64_t e) const noexcept;
};

struct PaillierPublicKey {
  std::uint64_t n = 0;         ///< modulus p*q
  std::uint64_t n_squared = 0; ///< n^2 (fits: n < 2^32)
  Montgomery64 mont;           ///< arithmetic mod n^2 (set by keygen)

  /// Encrypts m in [0, n): c = (n+1)^m * r^n mod n^2.
  std::uint64_t encrypt(std::uint64_t plaintext, Rng& rng) const;

  /// Homomorphic addition: Dec(add(c1, c2)) = m1 + m2 (mod n).  Inputs
  /// at or above n^2 are reduced first, as a plain mod-n^2 product would.
  std::uint64_t add(std::uint64_t c1, std::uint64_t c2) const;

  /// Homomorphic scalar multiply: Dec(scale(c, k)) = k * m (mod n).
  std::uint64_t scale(std::uint64_t c, std::uint64_t k) const;

  /// Ciphertext size in bits (what goes on the wire per value).
  int ciphertext_bits() const noexcept;

  /// c mod n^2 (the Montgomery context takes operands below n^2).
  std::uint64_t reduced(std::uint64_t c) const noexcept;
};

struct PaillierPrivateKey {
  std::uint64_t lambda = 0;  ///< lcm(p-1, q-1)
  std::uint64_t mu = 0;      ///< (L((n+1)^lambda mod n^2))^-1 mod n

  std::uint64_t decrypt(std::uint64_t ciphertext,
                        const PaillierPublicKey& pub) const;

  /// decrypt() of a ciphertext already in pub.mont's Montgomery form
  /// (the comparison oracle stays in that form end to end).
  std::uint64_t decrypt_mont(std::uint64_t ciphertext_mont,
                             const PaillierPublicKey& pub) const;
};

struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;
};

/// Generates a key pair from two fresh primes of `prime_bits` bits each
/// (prime_bits in [4, 16] keeps n below 2^32).
PaillierKeyPair paillier_keygen(int prime_bits, Rng& rng);

}  // namespace lppa::crypto
