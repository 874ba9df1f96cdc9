#include "auction/conflict.h"

#include <algorithm>
#include <numeric>

namespace lppa::auction {

bool locations_conflict(const SuLocation& a, const SuLocation& b,
                        std::uint64_t lambda) noexcept {
  const std::uint64_t dx = a.x > b.x ? a.x - b.x : b.x - a.x;
  const std::uint64_t dy = a.y > b.y ? a.y - b.y : b.y - a.y;
  // PPBS checks "x_i in [x_j - 2l, x_j + 2l]", an inclusive predicate, so
  // the plaintext reference uses <= to match it exactly.
  return dx <= 2 * lambda && dy <= 2 * lambda;
}

ConflictGraph::ConflictGraph(std::size_t num_users)
    : num_users_(num_users),
      adjacency_(num_users, CellSet(num_users == 0 ? 1 : num_users)) {
  LPPA_REQUIRE(num_users > 0, "ConflictGraph requires at least one user");
}

ConflictGraph ConflictGraph::from_locations(
    const std::vector<SuLocation>& locations, std::uint64_t lambda) {
  ConflictGraph g(locations.size());
  for (std::size_t i = 0; i < locations.size(); ++i) {
    for (std::size_t j = i + 1; j < locations.size(); ++j) {
      if (locations_conflict(locations[i], locations[j], lambda)) {
        g.add_conflict(i, j);
      }
    }
  }
  return g;
}

ConflictGraph ConflictGraph::from_locations_sweep(
    const std::vector<SuLocation>& locations, std::uint64_t lambda) {
  ConflictGraph g(locations.size());
  std::vector<std::size_t> order(locations.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return locations[a].x < locations[b].x;
  });

  const std::uint64_t diameter = 2 * lambda;
  std::size_t window_start = 0;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const auto& current = locations[order[pos]];
    // Slide the window: keep only candidates within 2λ on the x axis.
    while (locations[order[window_start]].x + diameter < current.x) {
      ++window_start;
    }
    for (std::size_t other = window_start; other < pos; ++other) {
      if (locations_conflict(current, locations[order[other]], lambda)) {
        g.add_conflict(order[pos], order[other]);
      }
    }
  }
  return g;
}

void ConflictGraph::add_conflict(std::size_t i, std::size_t j) {
  LPPA_REQUIRE(i < num_users_ && j < num_users_, "user index out of range");
  LPPA_REQUIRE(i != j, "a user does not conflict with itself");
  adjacency_[i].insert(j);
  adjacency_[j].insert(i);
}

bool ConflictGraph::conflicts(std::size_t i, std::size_t j) const {
  LPPA_REQUIRE(i < num_users_ && j < num_users_, "user index out of range");
  if (i == j) return false;
  return adjacency_[i].contains(j);
}

const CellSet& ConflictGraph::neighbors(std::size_t i) const {
  LPPA_REQUIRE(i < num_users_, "user index out of range");
  return adjacency_[i];
}

std::size_t ConflictGraph::edge_count() const noexcept {
  std::size_t total = 0;
  for (const auto& adj : adjacency_) total += adj.count();
  return total / 2;
}

}  // namespace lppa::auction
