// A small random auction population for the wire-round tests.
//
// The bus, socket, fault and recovery suites all drive rounds over the
// same shape of world: n SUs scattered over a 5000 x 5000 m square, k
// channels with bids below 16, and the PPBS configuration they were
// tuned against.  One definition keeps their worlds identical.
#pragma once

#include <cstdint>
#include <vector>

#include "core/lppa_auction.h"

namespace lppa {

struct WireWorld {
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
  core::LppaConfig config;
};

inline WireWorld make_world(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  WireWorld w;
  for (std::size_t i = 0; i < n; ++i) {
    w.locations.push_back({rng.below(5000), rng.below(5000)});
    auction::BidVector bv(k);
    for (auto& b : bv) b = rng.below(16);
    w.bids.push_back(bv);
  }
  w.config.num_channels = k;
  w.config.lambda = 100;
  w.config.coord_width = 14;
  w.config.bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  w.config.ttp_batch_size = 4;
  return w;
}

}  // namespace lppa
