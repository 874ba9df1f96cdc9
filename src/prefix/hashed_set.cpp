#include "prefix/hashed_set.h"

#include <algorithm>

namespace lppa::prefix {

namespace {

std::vector<crypto::Digest> hash_prefixes(const crypto::HmacKeyCtx& ctx,
                                          const std::vector<Prefix>& prefixes) {
  std::vector<std::uint64_t> nums;
  nums.reserve(prefixes.size());
  for (const auto& p : prefixes) nums.push_back(numericalize(p));
  std::vector<crypto::Digest> out(nums.size());
  ctx.mac_u64_batch(nums, out);
  std::sort(out.begin(), out.end());
  return out;
}

// Lexicographic a < b over bytes 8..31, for digests whose first 8 bytes
// are equal.  Every word is read and compared, and the first differing
// word is selected without a branch, so the time does not depend on
// where the digests first differ.
bool tail_less(const crypto::Digest& a, const crypto::Digest& b) noexcept {
  unsigned less = 0, decided = 0;
  for (std::size_t off = 8; off < crypto::Digest::kSize; off += 8) {
    const std::uint64_t x = load_be64(a.bytes.data() + off);
    const std::uint64_t y = load_be64(b.bytes.data() + off);
    less |= static_cast<unsigned>(x < y) & ~decided;
    decided |= static_cast<unsigned>(x != y);
  }
  return less != 0;
}

}  // namespace

HashedPrefixSet HashedPrefixSet::of_value(const crypto::SecretKey& key,
                                          std::uint64_t x, int width) {
  return of_value(crypto::HmacKeyCtx(key), x, width);
}

HashedPrefixSet HashedPrefixSet::of_range(const crypto::SecretKey& key,
                                          std::uint64_t a, std::uint64_t b,
                                          int width) {
  return of_range(crypto::HmacKeyCtx(key), a, b, width);
}

HashedPrefixSet HashedPrefixSet::of_value(const crypto::HmacKeyCtx& ctx,
                                          std::uint64_t x, int width) {
  HashedPrefixSet s;
  s.digests_ = hash_prefixes(ctx, prefix_family(x, width));
  return s;
}

HashedPrefixSet HashedPrefixSet::of_range(const crypto::HmacKeyCtx& ctx,
                                          std::uint64_t a, std::uint64_t b,
                                          int width) {
  HashedPrefixSet s;
  s.digests_ = hash_prefixes(ctx, range_prefixes(a, b, width));
  return s;
}

HashedPrefixSet HashedPrefixSet::from_digests(
    std::vector<crypto::Digest> digests) {
  HashedPrefixSet s;
  s.digests_ = std::move(digests);
  std::sort(s.digests_.begin(), s.digests_.end());
  return s;
}

bool HashedPrefixSet::intersects(const HashedPrefixSet& other) const noexcept {
  // Linear merge over the two sorted vectors, stepped on each digest's
  // first 8 bytes read big-endian (Digest::order_key): one fixed-time word
  // compare per step, and distinct digests almost never tie on it.  Only
  // a key tie goes on to ct_equal over all 32 bytes, so a match is always
  // confirmed in fixed time; a short-circuiting digest == would leak,
  // through timing, how many leading bytes of an HMAC'd prefix digest the
  // probe matched.  A tie that is not a match advances by tail_less,
  // which is fixed-time too.
  const crypto::Digest* a = digests_.data();
  const crypto::Digest* b = other.digests_.data();
  const std::size_t na = digests_.size();
  const std::size_t nb = other.digests_.size();
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const std::uint64_t ka = a[i].order_key();
    const std::uint64_t kb = b[j].order_key();
    bool a_first = ka < kb;
    if (ka == kb) {
      if (ct_equal(a[i].bytes, b[j].bytes)) return true;
      a_first = tail_less(a[i], b[j]);
    }
    i += a_first;
    j += !a_first;
  }
  return false;
}

void HashedPrefixSet::pad_to(std::size_t target, Rng& rng) {
  while (digests_.size() < target) {
    crypto::Digest d;
    for (auto& byte : d.bytes) byte = static_cast<std::uint8_t>(rng.below(256));
    digests_.push_back(d);
  }
  std::sort(digests_.begin(), digests_.end());
}

void HashedPrefixSet::serialize(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(digests_.size()));
  for (const auto& d : digests_) w.raw(std::span<const std::uint8_t>(d.bytes));
}

HashedPrefixSet HashedPrefixSet::deserialize(ByteReader& r) {
  const std::uint32_t n = r.u32();
  std::vector<crypto::Digest> digests(n);
  for (auto& d : digests) {
    const Bytes raw = r.raw(crypto::Digest::kSize);
    std::copy(raw.begin(), raw.end(), d.bytes.begin());
  }
  return from_digests(std::move(digests));
}

bool box_match(const HashedPrefixSet& x_family, const HashedPrefixSet& y_family,
               const HashedPrefixSet& x_range, const HashedPrefixSet& y_range)
    noexcept {
  return x_family.intersects(x_range) && y_family.intersects(y_range);
}

}  // namespace lppa::prefix
