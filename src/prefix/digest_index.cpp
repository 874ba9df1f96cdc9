#include "prefix/digest_index.h"

namespace lppa::prefix {

namespace {

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

void DigestIndex::reserve(std::size_t expected) {
  entries_.reserve(expected);
  grow(next_pow2(expected * 2 + 1));
}

std::size_t DigestIndex::find_slot(const crypto::Digest& d) const noexcept {
  // Each probe compares the 8-byte fingerprints (one fixed-time word
  // compare) and confirms a fingerprint match with ct_equal over all 32
  // bytes, for the same reason as HashedPrefixSet::intersects: a
  // short-circuiting key comparison would leak the matched byte count of
  // an HMAC'd digest through timing.
  const std::size_t mask = slots_.size() - 1;
  const std::uint64_t fp = d.fingerprint();
  std::size_t i = static_cast<std::size_t>(fp) & mask;
  while (slots_[i].head != kNil) {
    if (slots_[i].key.fingerprint() == fp &&
        ct_equal(slots_[i].key.bytes, d.bytes)) {
      break;
    }
    i = (i + 1) & mask;
  }
  return i;
}

void DigestIndex::grow(std::size_t min_capacity) {
  if (slots_.size() >= min_capacity) return;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(min_capacity, Slot{});
  for (const Slot& s : old) {
    if (s.head != kNil) slots_[find_slot(s.key)] = s;
  }
}

void DigestIndex::insert(const crypto::Digest& d, std::uint32_t owner) {
  if ((used_ + 1) * 2 > slots_.size()) grow(next_pow2(slots_.size() * 2));
  Slot& slot = slots_[find_slot(d)];
  if (slot.head == kNil) {
    slot.key = d;
    ++used_;
  }
  // Prepend to the owner chain (order is irrelevant: probers dedupe).
  entries_.push_back(Entry{owner, slot.head});
  slot.head = static_cast<std::uint32_t>(entries_.size() - 1);
}

void DigestIndex::insert_all(const HashedPrefixSet& set, std::uint32_t owner) {
  for (const auto& d : set.digests()) insert(d, owner);
}

std::size_t DigestIndex::collect(const crypto::Digest& d,
                                 std::vector<std::uint32_t>& out) const {
  if (slots_.empty()) return 0;
  const Slot& slot = slots_[find_slot(d)];
  std::size_t appended = 0;
  for (std::uint32_t e = slot.head; e != kNil; e = entries_[e].next) {
    out.push_back(entries_[e].owner);
    ++appended;
  }
  return appended;
}

}  // namespace lppa::prefix
