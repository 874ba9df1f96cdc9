#include "prefix/hashed_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "common/rng.h"

namespace lppa::prefix {
namespace {

struct HashedSetTest : ::testing::Test {
  Rng rng{99};
  crypto::SecretKey key = crypto::SecretKey::generate(rng);
};

/// The intersection oracle: std::set_intersection over the sorted digests.
bool reference_intersects(const HashedPrefixSet& a, const HashedPrefixSet& b) {
  std::vector<crypto::Digest> common;
  std::set_intersection(a.digests().begin(), a.digests().end(),
                        b.digests().begin(), b.digests().end(),
                        std::back_inserter(common));
  return !common.empty();
}

/// Checks intersects() in both argument orders against the oracle.
void expect_matches_oracle(const HashedPrefixSet& a, const HashedPrefixSet& b,
                           const std::string& what) {
  const bool want = reference_intersects(a, b);
  EXPECT_EQ(a.intersects(b), want) << what;
  EXPECT_EQ(b.intersects(a), want) << what << " (swapped)";
}

crypto::Digest random_digest(Rng& rng) {
  crypto::Digest d;
  for (auto& byte : d.bytes) byte = static_cast<std::uint8_t>(rng.below(256));
  return d;
}

std::vector<crypto::Digest> random_subset(const std::vector<crypto::Digest>& pool,
                                          Rng& rng) {
  std::vector<crypto::Digest> out;
  for (const auto& d : pool) {
    if (rng.below(2) == 0) out.push_back(d);
  }
  return out;
}

TEST_F(HashedSetTest, ValueFamilySize) {
  const auto s = HashedPrefixSet::of_value(key, 7, 4);
  EXPECT_EQ(s.size(), 5u);  // w+1
}

TEST_F(HashedSetTest, IntersectionMirrorsPlaintextMembership) {
  // The defining property of the whole construction: masked sets
  // intersect exactly when the plaintext membership holds.
  const int w = 10;
  for (int round = 0; round < 200; ++round) {
    std::uint64_t a = rng.below(1 << w);
    std::uint64_t b = rng.below(1 << w);
    if (a > b) std::swap(a, b);
    const std::uint64_t x = rng.below(1 << w);
    const auto family = HashedPrefixSet::of_value(key, x, w);
    const auto range = HashedPrefixSet::of_range(key, a, b, w);
    EXPECT_EQ(family.intersects(range), x >= a && x <= b)
        << "x=" << x << " [" << a << "," << b << "]";
  }
}

TEST_F(HashedSetTest, IntersectionIsSymmetric) {
  const auto f = HashedPrefixSet::of_value(key, 7, 4);
  const auto r = HashedPrefixSet::of_range(key, 6, 14, 4);
  EXPECT_EQ(f.intersects(r), r.intersects(f));
}

TEST_F(HashedSetTest, DifferentKeysNeverIntersect) {
  const crypto::SecretKey other = crypto::SecretKey::generate(rng);
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t x = rng.below(1 << 10);
    const auto mine = HashedPrefixSet::of_value(key, x, 10);
    const auto theirs = HashedPrefixSet::of_range(other, 0, (1 << 10) - 1, 10);
    // Under the wrong key even the trivially-true membership "x in full
    // domain" is invisible.
    EXPECT_FALSE(mine.intersects(theirs));
  }
}

TEST_F(HashedSetTest, PaddingNeverChangesAnswers) {
  const int w = 8;
  for (int round = 0; round < 100; ++round) {
    std::uint64_t a = rng.below(1 << w);
    std::uint64_t b = rng.below(1 << w);
    if (a > b) std::swap(a, b);
    const std::uint64_t x = rng.below(1 << w);
    const auto family = HashedPrefixSet::of_value(key, x, w);
    auto range = HashedPrefixSet::of_range(key, a, b, w);
    const bool before = family.intersects(range);
    range.pad_to(max_range_prefixes(w), rng);
    EXPECT_EQ(range.size(), max_range_prefixes(w));
    EXPECT_EQ(family.intersects(range), before);
  }
}

TEST_F(HashedSetTest, PadToSmallerTargetIsNoOp) {
  auto s = HashedPrefixSet::of_value(key, 7, 4);
  const auto before = s;
  s.pad_to(2, rng);
  EXPECT_EQ(s, before);
}

TEST_F(HashedSetTest, PaddedSetsHaveUniformCardinality) {
  // Fix (v): after padding, a tight range and a worst-case range are
  // indistinguishable by set size.
  const int w = 8;
  auto narrow = HashedPrefixSet::of_range(key, 5, 5, w);
  auto wide = HashedPrefixSet::of_range(key, 1, (1 << w) - 2, w);
  narrow.pad_to(max_range_prefixes(w), rng);
  wide.pad_to(max_range_prefixes(w), rng);
  EXPECT_EQ(narrow.size(), wide.size());
}

TEST_F(HashedSetTest, SerializeRoundTrip) {
  auto s = HashedPrefixSet::of_range(key, 3, 200, 10);
  s.pad_to(max_range_prefixes(10), rng);
  ByteWriter w;
  s.serialize(w);
  EXPECT_EQ(w.size(), s.wire_size());
  ByteReader r(std::span<const std::uint8_t>(w.data()));
  const auto restored = HashedPrefixSet::deserialize(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored, s);
}

TEST_F(HashedSetTest, DeserializeRejectsTruncation) {
  ByteWriter w;
  HashedPrefixSet::of_value(key, 7, 4).serialize(w);
  Bytes wire = w.take();
  wire.resize(wire.size() - 1);
  ByteReader r(wire);
  EXPECT_THROW(HashedPrefixSet::deserialize(r), LppaError);
}

TEST_F(HashedSetTest, FromDigestsSortsInput) {
  crypto::Digest d1, d2;
  d1.bytes[0] = 2;
  d2.bytes[0] = 1;
  const auto s = HashedPrefixSet::from_digests({d1, d2});
  EXPECT_LT(s.digests()[0], s.digests()[1]);
}

TEST_F(HashedSetTest, EmptySetIntersectsNothing) {
  const HashedPrefixSet empty;
  const auto other = HashedPrefixSet::of_value(key, 7, 4);
  EXPECT_FALSE(empty.intersects(other));
  EXPECT_FALSE(other.intersects(empty));
  EXPECT_FALSE(empty.intersects(empty));
}

TEST_F(HashedSetTest, BoxMatchRequiresBothAxes) {
  // Point (7, 3); box x in [6,14], y in [10,12] -> y fails.
  const auto xf = HashedPrefixSet::of_value(key, 7, 4);
  const auto yf = HashedPrefixSet::of_value(key, 3, 4);
  const auto xr = HashedPrefixSet::of_range(key, 6, 14, 4);
  const auto yr_hit = HashedPrefixSet::of_range(key, 2, 5, 4);
  const auto yr_miss = HashedPrefixSet::of_range(key, 10, 12, 4);
  EXPECT_TRUE(box_match(xf, yf, xr, yr_hit));
  EXPECT_FALSE(box_match(xf, yf, xr, yr_miss));
  EXPECT_FALSE(box_match(yf, xf, yr_miss, xr));
}

TEST_F(HashedSetTest, WireSizeFormula) {
  const auto s = HashedPrefixSet::of_value(key, 7, 4);
  EXPECT_EQ(s.wire_size(), 4 + 32 * s.size());
}

// Differential suite for the key-first merge: intersects() steps on the
// first 8 bytes of each digest, so the cases that matter are digests that
// tie on those 8 bytes and differ only later.  HMAC outputs almost never
// do that, which is why the suites above never reach that branch.

TEST_F(HashedSetTest, SharedLeadingKeyDifferingAtEachLaterByte) {
  const crypto::Digest base = random_digest(rng);
  for (std::size_t pos = 8; pos < crypto::Digest::kSize; ++pos) {
    for (const std::uint8_t delta : {std::uint8_t{1}, std::uint8_t{0x80}}) {
      crypto::Digest other = base;
      other.bytes[pos] = static_cast<std::uint8_t>(other.bytes[pos] + delta);
      const std::string what = "byte " + std::to_string(pos) + " delta " +
                               std::to_string(delta);
      const auto just_base = HashedPrefixSet::from_digests({base});
      const auto just_other = HashedPrefixSet::from_digests({other});
      const auto both = HashedPrefixSet::from_digests({base, other});
      expect_matches_oracle(just_base, just_other, what);
      EXPECT_FALSE(just_base.intersects(just_other)) << what;
      expect_matches_oracle(both, just_other, what);
      expect_matches_oracle(both, just_base, what);
      // The shared member sits behind a tied non-member on one side.
      crypto::Digest third = base;
      third.bytes[pos] = static_cast<std::uint8_t>(third.bytes[pos] - delta);
      expect_matches_oracle(HashedPrefixSet::from_digests({third, other}),
                            HashedPrefixSet::from_digests({base, other}), what);
      expect_matches_oracle(HashedPrefixSet::from_digests({third, base}),
                            HashedPrefixSet::from_digests({other}), what);
    }
  }
}

TEST_F(HashedSetTest, RandomSetsOverATiedKeyPoolMatchTheOracle) {
  // Every digest in the pool shares its first 8 bytes, so each merge step
  // is decided by the tail order; random subsets exercise every
  // interleaving of ties, members and non-members.
  const crypto::Digest base = random_digest(rng);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<crypto::Digest> pool;
    const std::size_t pool_size = 1 + rng.below(12);
    for (std::size_t i = 0; i < pool_size; ++i) {
      crypto::Digest d = base;
      // Mostly one differing byte, sometimes several, at random positions.
      const std::size_t edits = 1 + rng.below(3);
      for (std::size_t e = 0; e < edits; ++e) {
        d.bytes[8 + rng.below(24)] = static_cast<std::uint8_t>(rng.below(4));
      }
      pool.push_back(d);
    }
    // Mix in a few digests with other leading keys.
    for (int extra = 0; extra < 2; ++extra) pool.push_back(random_digest(rng));
    expect_matches_oracle(HashedPrefixSet::from_digests(random_subset(pool, rng)),
                          HashedPrefixSet::from_digests(random_subset(pool, rng)),
                          "trial " + std::to_string(trial));
  }
}

TEST_F(HashedSetTest, DuplicatesInsideOneSetMatchTheOracle) {
  const crypto::Digest a = random_digest(rng);
  crypto::Digest tied = a;
  tied.bytes[31] ^= 0x01;
  const crypto::Digest far = random_digest(rng);
  const auto dup = HashedPrefixSet::from_digests({a, a, a, tied, tied});
  expect_matches_oracle(dup, HashedPrefixSet::from_digests({a}), "dup vs a");
  expect_matches_oracle(dup, HashedPrefixSet::from_digests({tied, tied}),
                        "dup vs tied");
  expect_matches_oracle(dup, HashedPrefixSet::from_digests({far, far}),
                        "dup vs far");
  expect_matches_oracle(dup, dup, "dup vs itself");
}

TEST_F(HashedSetTest, EmptyAndSingletonSetsMatchTheOracle) {
  const HashedPrefixSet empty;
  const crypto::Digest d = random_digest(rng);
  crypto::Digest tied = d;
  tied.bytes[8] ^= 0x10;
  const auto single = HashedPrefixSet::from_digests({d});
  expect_matches_oracle(empty, empty, "empty vs empty");
  expect_matches_oracle(empty, single, "empty vs singleton");
  expect_matches_oracle(single, single, "singleton vs itself");
  expect_matches_oracle(single, HashedPrefixSet::from_digests({tied}),
                        "singleton vs tied singleton");
  expect_matches_oracle(single, HashedPrefixSet::of_value(key, 7, 4),
                        "singleton vs family");
}

TEST_F(HashedSetTest, PaddedCoversMatchTheOracle) {
  // The production shape: a w=7 value family against a padded range cover.
  const int w = 7;
  for (int round = 0; round < 300; ++round) {
    std::uint64_t a = rng.below(1 << w);
    std::uint64_t b = rng.below(1 << w);
    if (a > b) std::swap(a, b);
    const std::uint64_t x = rng.below(1 << w);
    const auto family = HashedPrefixSet::of_value(key, x, w);
    auto cover = HashedPrefixSet::of_range(key, a, b, w);
    cover.pad_to(max_range_prefixes(w), rng);
    expect_matches_oracle(family, cover, "x=" + std::to_string(x));
    EXPECT_EQ(family.intersects(cover), x >= a && x <= b);
  }
}

}  // namespace
}  // namespace lppa::prefix
