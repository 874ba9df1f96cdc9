#include "prefix/digest_index.h"

#include <algorithm>

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
  // kDeadChain slots are still *occupied* for probing purposes: freeing
  // them in place would sever the probe chains of digests inserted after
  // them, so they persist until rehash_to drops them.
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

void DigestIndex::rehash_to(std::size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  used_ = 0;
  dead_slots_ = 0;
  for (const Slot& s : old) {
    if (s.head >= kDeadChain) continue;  // empty or fully-erased: drop
    slots_[find_slot(s.key)] = s;
    ++used_;
  }
}

void DigestIndex::grow(std::size_t min_capacity) {
  if (slots_.size() >= min_capacity) return;
  rehash_to(min_capacity);
}

void DigestIndex::insert(const crypto::Digest& d, std::uint32_t owner) {
  if (slots_.empty() || (used_ + 1) * 2 > slots_.size()) {
    // Rehash drops fully-erased slots, so under churn the table only
    // doubles when the *live* digest population actually outgrew it.
    const std::size_t live = used_ - dead_slots_;
    rehash_to(std::max(slots_.size(), next_pow2((live + 1) * 2 + 1)));
  }
  const std::size_t i = find_slot(d);
  Slot& slot = slots_[i];
  const bool fresh = slot.head == kNil;
  const bool revived = slot.head == kDeadChain;
  if (fresh) {
    slot.key = d;
    ++used_;
  }
  if (revived) --dead_slots_;
  // Prepend to the owner chain (order is irrelevant: probers dedupe),
  // recycling an erased entry when one is available.
  const std::uint32_t next = (fresh || revived) ? kNil : slot.head;
  std::uint32_t e;
  if (free_head_ != kNil) {
    e = free_head_;
    free_head_ = entries_[e].next;
    entries_[e] = Entry{owner, next};
  } else {
    entries_.push_back(Entry{owner, next});
    e = static_cast<std::uint32_t>(entries_.size() - 1);
  }
  slot.head = e;
  ++live_entries_;
}

void DigestIndex::insert_all(const HashedPrefixSet& set, std::uint32_t owner) {
  for (const auto& d : set.digests()) insert(d, owner);
}

bool DigestIndex::erase(const crypto::Digest& d, std::uint32_t owner) {
  if (slots_.empty()) return false;
  Slot& slot = slots_[find_slot(d)];
  if (slot.head >= kDeadChain) return false;
  std::uint32_t* link = &slot.head;
  while (*link != kNil) {
    Entry& e = entries_[*link];
    if (e.owner == owner) {
      const std::uint32_t freed = *link;
      *link = e.next;
      e.owner = kNil;  // poison: a freed entry must never report an owner
      e.next = free_head_;
      free_head_ = freed;
      --live_entries_;
      if (slot.head == kNil) {
        slot.head = kDeadChain;
        ++dead_slots_;
      }
      return true;
    }
    link = &e.next;
  }
  return false;
}

std::size_t DigestIndex::erase_all(const HashedPrefixSet& set,
                                   std::uint32_t owner) {
  std::size_t erased = 0;
  for (const auto& d : set.digests()) {
    if (erase(d, owner)) ++erased;
  }
  return erased;
}

std::size_t DigestIndex::collect(const crypto::Digest& d,
                                 std::vector<std::uint32_t>& out) const {
  if (slots_.empty()) return 0;
  const Slot& slot = slots_[find_slot(d)];
  if (slot.head >= kDeadChain) return 0;
  std::size_t appended = 0;
  for (std::uint32_t e = slot.head; e != kNil; e = entries_[e].next) {
    out.push_back(entries_[e].owner);
    ++appended;
  }
  return appended;
}

}  // namespace lppa::prefix
