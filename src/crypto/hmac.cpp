#include "crypto/hmac.h"

#include <cstring>

#include "common/error.h"

namespace lppa::crypto {

namespace {

constexpr std::size_t kBlockSize = 64;

// HMAC over an 8-byte message is exactly two compressions past the cached
// midstates, each over one fixed-layout padded block:
//   inner: value (8 bytes LE) | 0x80 | zeros | bit length (64 + 8) * 8 = 576
//   outer: inner digest (32)  | 0x80 | zeros | bit length (64 + 32) * 8 = 768
// Building those blocks directly skips the streaming Sha256 copy, its
// buffering and its finalize() padding arithmetic.
struct U64Blocks {
  std::uint8_t inner[kBlockSize] = {};
  std::uint8_t outer[kBlockSize] = {};

  U64Blocks() noexcept {
    inner[8] = 0x80;
    inner[62] = 576 >> 8;
    inner[63] = 576 & 0xff;
    outer[32] = 0x80;
    outer[62] = 768 >> 8;
    outer[63] = 768 & 0xff;
  }

  void set_value(std::uint64_t value) noexcept {
    for (int i = 0; i < 8; ++i) {
      inner[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
  }

  void set_inner_digest(const detail::Sha256State& state) noexcept {
    const Digest d = detail::to_digest(state);
    std::memcpy(outer, d.bytes.data(), Digest::kSize);
  }
};

}  // namespace

void HmacKeyCtx::init(std::span<const std::uint8_t> padded_key) noexcept {
  std::array<std::uint8_t, kBlockSize> pad;
  for (std::size_t i = 0; i < kBlockSize; ++i) pad[i] = padded_key[i] ^ 0x36;
  inner_mid_.update(std::span<const std::uint8_t>(pad));
  for (std::size_t i = 0; i < kBlockSize; ++i) pad[i] = padded_key[i] ^ 0x5c;
  outer_mid_.update(std::span<const std::uint8_t>(pad));
}

HmacKeyCtx::HmacKeyCtx(const SecretKey& key) noexcept {
  // Keys are always 32 bytes (< block size), so no pre-hashing needed.
  std::array<std::uint8_t, kBlockSize> padded{};
  const auto kb = key.bytes();
  std::memcpy(padded.data(), kb.data(), kb.size());
  init(padded);
}

HmacKeyCtx HmacKeyCtx::from_raw_key(
    std::span<const std::uint8_t> key) noexcept {
  std::array<std::uint8_t, kBlockSize> padded{};
  if (key.size() > kBlockSize) {
    const Digest hashed = Sha256::hash(key);
    std::memcpy(padded.data(), hashed.bytes.data(), hashed.bytes.size());
  } else {
    std::memcpy(padded.data(), key.data(), key.size());
  }
  HmacKeyCtx ctx;
  ctx.init(padded);
  return ctx;
}

Digest HmacKeyCtx::finish_outer(const Digest& inner_digest) const noexcept {
  Sha256 outer = outer_mid_;
  outer.update(std::span<const std::uint8_t>(inner_digest.bytes));
  return outer.finalize();
}

Digest HmacKeyCtx::mac(std::span<const std::uint8_t> message) const noexcept {
  Sha256 inner = inner_mid_;
  inner.update(message);
  return finish_outer(inner.finalize());
}

Digest HmacKeyCtx::mac_u64(std::uint64_t value) const noexcept {
  U64Blocks b;
  b.set_value(value);
  detail::Sha256State inner = inner_mid_.midstate();
  detail::compress(inner, b.inner);
  b.set_inner_digest(inner);
  detail::Sha256State outer = outer_mid_.midstate();
  detail::compress(outer, b.outer);
  return detail::to_digest(outer);
}

void HmacKeyCtx::mac_u64_batch(std::span<const std::uint64_t> values,
                               std::span<Digest> out) const {
  LPPA_REQUIRE(values.size() == out.size(),
               "hmac batch output span must match input size");
  // Pairs run on the two-lane compressor; an odd tail goes one at a time.
  std::size_t i = 0;
  for (; i + 2 <= values.size(); i += 2) {
    U64Blocks b0, b1;
    b0.set_value(values[i]);
    b1.set_value(values[i + 1]);
    detail::Sha256State in0 = inner_mid_.midstate();
    detail::Sha256State in1 = inner_mid_.midstate();
    detail::compress_x2(in0, b0.inner, in1, b1.inner);
    b0.set_inner_digest(in0);
    b1.set_inner_digest(in1);
    detail::Sha256State out0 = outer_mid_.midstate();
    detail::Sha256State out1 = outer_mid_.midstate();
    detail::compress_x2(out0, b0.outer, out1, b1.outer);
    out[i] = detail::to_digest(out0);
    out[i + 1] = detail::to_digest(out1);
  }
  if (i < values.size()) out[i] = mac_u64(values[i]);
}

HmacSha256::HmacSha256(const SecretKey& key) noexcept
    : ctx_(key), inner_(ctx_.inner_midstate()) {}

Digest HmacSha256::finalize() noexcept {
  return ctx_.finish_outer(inner_.finalize());
}

Digest hmac_sha256(const SecretKey& key, std::span<const std::uint8_t> message) {
  return HmacKeyCtx(key).mac(message);
}

Digest hmac_sha256_raw_key(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message) {
  return HmacKeyCtx::from_raw_key(key).mac(message);
}

Digest hmac_sha256(const SecretKey& key, std::string_view message) {
  return hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(message.data()),
               message.size()));
}

Digest hmac_sha256_u64(const SecretKey& key, std::uint64_t value) {
  return HmacKeyCtx(key).mac_u64(value);
}

void hmac_sha256_u64_batch(const SecretKey& key,
                           std::span<const std::uint64_t> values,
                           std::span<Digest> out) {
  HmacKeyCtx(key).mac_u64_batch(values, out);
}

}  // namespace lppa::crypto
