// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The protocol uses SHA-256 only through HMAC (crypto/hmac.h); the digest
// type defined here is also the canonical "hashed prefix" element that the
// auctioneer intersects, so Digest carries ordering and hashing support.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>

#include "common/bytes.h"

namespace lppa::crypto {

/// A 256-bit digest.  Strong ordering lets HashedPrefixSet keep sorted
/// vectors and intersect them in linear time.
struct Digest {
  static constexpr std::size_t kSize = 32;
  std::array<std::uint8_t, kSize> bytes{};

  auto operator<=>(const Digest&) const = default;

  /// First 8 bytes as a little-endian integer — used as a fast hash for
  /// unordered containers (the bytes are already uniform).
  std::uint64_t fingerprint() const noexcept { return load_le64(bytes.data()); }

  /// First 8 bytes as a big-endian integer, so order_key(a) < order_key(b)
  /// implies a < b: a one-word, fixed-time step of the lexicographic order.
  std::uint64_t order_key() const noexcept { return load_be64(bytes.data()); }

  std::string hex() const { return to_hex(bytes); }
};

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256() noexcept;

  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept;

  /// Finalises and returns the digest.  The object must not be reused
  /// afterwards without calling reset().
  Digest finalize() noexcept;

  void reset() noexcept;

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data) noexcept;
  static Digest hash(std::string_view data) noexcept;

  /// True when the compression function dispatches to a hardware
  /// implementation (x86 SHA extensions) on this machine.  Purely
  /// informational — both paths compute the same FIPS 180-4 function.
  static bool accelerated() noexcept;

  /// The chaining value after the whole blocks absorbed so far (bytes
  /// still buffered are not in it).  Fixed-block callers (HMAC over a u64)
  /// start their own compressions from a cached midstate.
  const std::array<std::uint32_t, 8>& midstate() const noexcept {
    return state_;
  }

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_;
  std::uint64_t total_len_;
};

namespace detail {

/// Internal compression seam, exposed for HmacKeyCtx's fixed-block path
/// and for tests that pin the hardware and portable paths to each other.
using Sha256State = std::array<std::uint32_t, 8>;

/// One FIPS 180-4 compression of a 64-byte block into `state`, through
/// whichever implementation CPUID selected.
void compress(Sha256State& state, const std::uint8_t* block) noexcept;

/// The portable scalar compression, whatever the CPU supports.
void compress_portable(Sha256State& state, const std::uint8_t* block) noexcept;

/// Two independent compressions, interleaved on the SHA extensions so
/// the second lane fills the first one's latency; two portable
/// compressions when CPUID lacks SHA.  Same result as two compress()
/// calls.
void compress_x2(Sha256State& state0, const std::uint8_t* block0,
                 Sha256State& state1, const std::uint8_t* block1) noexcept;

/// The big-endian serialisation of a chaining value.
Digest to_digest(const Sha256State& state) noexcept;

}  // namespace detail

}  // namespace lppa::crypto

template <>
struct std::hash<lppa::crypto::Digest> {
  std::size_t operator()(const lppa::crypto::Digest& d) const noexcept {
    return static_cast<std::size_t>(d.fingerprint());
  }
};
