// DigestIndex: an inverted index from hashed-prefix digests to the
// submissions that contain them.
//
// The PMV trick (SafeQ, the paper's [11]) makes range membership a set
// intersection over keyed digests — which means the auctioneer's
// all-pairs conflict scan is really a join on digest equality.  Instead
// of merge-intersecting every (family, range) pair (O(n²·w) digest
// comparisons), we index every range digest once and probe each family
// digest against the table: O(n·w) expected work plus one comparison per
// actual x-axis hit.  Padding digests (uniform random 32-byte strings)
// sit harmlessly in the index — they equal a real family digest with
// probability 2⁻²⁵⁶, and because both the pairwise and the indexed path
// compare the very same digest multisets, the two paths produce
// *identical* graphs, not merely equal with high probability.
//
// The table is a flat open-addressing hash map (linear probing) keyed by
// the full 32-byte digest; HMAC outputs are uniform, so the first eight
// bytes (Digest::fingerprint) are already a perfect hash seed.  Owners
// of duplicate digests are chained through a side array, keeping the
// slot array itself flat and cache-friendly.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sha256.h"
#include "prefix/hashed_set.h"

namespace lppa::prefix {

class DigestIndex {
 public:
  DigestIndex() = default;

  /// Pre-sizes the table for `expected` insertions (load factor 0.5).
  void reserve(std::size_t expected);

  /// Records that `owner`'s set contains digest `d`.
  void insert(const crypto::Digest& d, std::uint32_t owner);

  /// Inserts every digest of `set` for `owner`.
  void insert_all(const HashedPrefixSet& set, std::uint32_t owner);

  /// Appends to `out` every owner recorded for digest `d` (possibly with
  /// duplicates if an owner inserted the digest twice).  Returns the
  /// number of owners appended.
  std::size_t collect(const crypto::Digest& d,
                      std::vector<std::uint32_t>& out) const;

  /// Number of distinct digests in the table.
  std::size_t distinct_digests() const noexcept { return used_; }

  /// Recorded (digest, owner) pairs, one per insert call.
  std::size_t entry_count() const noexcept { return entries_.size(); }

  /// Current slot-array capacity (always a power of two once non-empty).
  /// reserve(expected) guarantees that up to `expected` subsequent
  /// insertions never rehash, i.e. slot_capacity() stays constant.
  std::size_t slot_capacity() const noexcept { return slots_.size(); }

  /// Bytes held by the slot array plus the owner chains — the per-shard
  /// memory figure reported by the sharded conflict build.
  std::size_t memory_bytes() const noexcept {
    return slots_.size() * sizeof(Slot) + entries_.capacity() * sizeof(Entry);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    crypto::Digest key{};
    std::uint32_t head = kNil;  ///< chain head into entries_, kNil = empty
  };
  struct Entry {
    std::uint32_t owner;
    std::uint32_t next;  ///< next entry for the same digest, kNil = end
  };

  void grow(std::size_t min_capacity);
  std::size_t find_slot(const crypto::Digest& d) const noexcept;

  std::vector<Slot> slots_;     // capacity is always a power of two
  std::vector<Entry> entries_;  // chained owner lists
  std::size_t used_ = 0;        // occupied slots
};

}  // namespace lppa::prefix
