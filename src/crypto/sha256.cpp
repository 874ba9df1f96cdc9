#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#ifdef __SSE2__
#include <emmintrin.h>
#endif
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>
#define LPPA_SHA_NI_DISPATCH 1
#endif

namespace lppa::crypto {

namespace {

using detail::Sha256State;

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
}

#ifdef LPPA_SHA_NI_DISPATCH

// Hardware compression via the x86 SHA extensions (sha256rnds2 does two
// rounds per instruction; sha256msg1/msg2 run the message schedule).
// Register layout follows Intel's reference: STATE0 holds {A,B,E,F},
// STATE1 holds {C,D,G,H}, and the schedule keeps four 4-word message
// blocks rotating through msgs[0..3].  Bit-identical to the scalar path —
// the RFC/FIPS vector tests exercise whichever path dispatch picks.
//
// kLanes independent blocks run step-interleaved: sha256rnds2 has a long
// latency and a short issue interval, so the second lane's rounds fill
// the first one's stalls.  Both loops unroll fully, which is what lets the
// compiler keep msgs[][] in registers.
template <int kLanes>
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    Sha256State* const* states, const std::uint8_t* const* blocks) noexcept {
  const __m128i kBswapMask =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i state0[kLanes], state1[kLanes], abef_save[kLanes],
      cdgh_save[kLanes], msgs[kLanes][4];
  for (int l = 0; l < kLanes; ++l) {
    __m128i tmp =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&(*states[l])[0]));
    __m128i s1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&(*states[l])[4]));
    tmp = _mm_shuffle_epi32(tmp, 0xB1);                 // CDAB
    s1 = _mm_shuffle_epi32(s1, 0x1B);                   // EFGH
    state0[l] = _mm_alignr_epi8(tmp, s1, 8);            // ABEF
    state1[l] = _mm_blend_epi16(s1, tmp, 0xF0);         // CDGH
    abef_save[l] = state0[l];
    cdgh_save[l] = state1[l];
  }

#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    const __m128i k = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g]));
#pragma GCC unroll 2
    for (int l = 0; l < kLanes; ++l) {
      __m128i* m = msgs[l];
      __m128i x0;
      if (g < 4) {
        x0 = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(blocks[l] + 16 * g)),
            kBswapMask);
        m[g] = x0;
      } else {
        x0 = m[g & 3];
      }
      __m128i msg = _mm_add_epi32(x0, k);
      state1[l] = _mm_sha256rnds2_epu32(state1[l], state0[l], msg);
      if (g >= 3 && g < 15) {
        // W[4(g+1)..4(g+1)+3] = msg2(msg1-partial + W[i-7] terms, x0).
        const __m128i w_im7 = _mm_alignr_epi8(x0, m[(g + 3) & 3], 4);
        m[(g + 1) & 3] =
            _mm_sha256msg2_epu32(_mm_add_epi32(m[(g + 1) & 3], w_im7), x0);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0[l] = _mm_sha256rnds2_epu32(state0[l], state1[l], msg);
      if (g >= 1 && g < 13) {
        m[(g + 3) & 3] = _mm_sha256msg1_epu32(m[(g + 3) & 3], x0);
      }
    }
  }

  for (int l = 0; l < kLanes; ++l) {
    const __m128i s0 = _mm_add_epi32(state0[l], abef_save[l]);
    __m128i s1 = _mm_add_epi32(state1[l], cdgh_save[l]);
    const __m128i tmp = _mm_shuffle_epi32(s0, 0x1B);    // FEBA
    s1 = _mm_shuffle_epi32(s1, 0xB1);                   // DCHG
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&(*states[l])[0]),
                     _mm_blend_epi16(tmp, s1, 0xF0));   // DCBA
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&(*states[l])[4]),
                     _mm_alignr_epi8(s1, tmp, 8));      // HGFE
  }
}

bool detect_sha_ni() noexcept {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  const bool sha = (b >> 29) & 1u;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool ssse3 = (c >> 9) & 1u;
  const bool sse41 = (c >> 19) & 1u;
  return sha && ssse3 && sse41;
}

const bool kHasShaNi = detect_sha_ni();

#endif  // LPPA_SHA_NI_DISPATCH

}  // namespace

Sha256::Sha256() noexcept { reset(); }

void Sha256::reset() noexcept {
  state_ = kInitialState;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(std::string_view data) noexcept {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      detail::compress(state_, buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    detail::compress(state_, data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

namespace detail {

void compress_portable(Sha256State& state, const std::uint8_t* block) noexcept {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a; state[1] += b; state[2] += c; state[3] += d;
  state[4] += e; state[5] += f; state[6] += g; state[7] += h;
}

void compress(Sha256State& state, const std::uint8_t* block) noexcept {
#ifdef LPPA_SHA_NI_DISPATCH
  if (kHasShaNi) {
    Sha256State* const states[1] = {&state};
    compress_shani<1>(states, &block);
    return;
  }
#endif
  compress_portable(state, block);
}

void compress_x2(Sha256State& state0, const std::uint8_t* block0,
                 Sha256State& state1, const std::uint8_t* block1) noexcept {
#ifdef LPPA_SHA_NI_DISPATCH
  if (kHasShaNi) {
    Sha256State* const states[2] = {&state0, &state1};
    const std::uint8_t* const blocks[2] = {block0, block1};
    compress_shani<2>(states, blocks);
    return;
  }
#endif
  compress_portable(state0, block0);
  compress_portable(state1, block1);
}

Digest to_digest(const Sha256State& state) noexcept {
  // Whole-vector stores: per-byte or per-word stores here would make each
  // wide reload of the digest (the HMAC outer block, fingerprint()) miss
  // store forwarding and stall.
  Digest out;
#ifdef __SSE2__
  for (int half = 0; half < 2; ++half) {
    __m128i v = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(state.data() + 4 * half));
    // bswap32 per lane: swap the bytes of each 16-bit half, then the halves.
    v = _mm_or_si128(_mm_slli_epi16(v, 8), _mm_srli_epi16(v, 8));
    v = _mm_shufflehi_epi16(_mm_shufflelo_epi16(v, 0xB1), 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out.bytes.data() + 16 * half),
                     v);
  }
#else
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
#endif
  return out;
}

}  // namespace detail

Digest Sha256::finalize() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  update(std::span<const std::uint8_t>(pad, pad_len));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  // Note: update() bumps total_len_, but we already captured bit_len.
  update(std::span<const std::uint8_t>(len_bytes, 8));
  return detail::to_digest(state_);
}

Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest Sha256::hash(std::string_view data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

bool Sha256::accelerated() noexcept {
#ifdef LPPA_SHA_NI_DISPATCH
  return kHasShaNi;
#else
  return false;
#endif
}

}  // namespace lppa::crypto
