// Differential suite for the geo-sharded execution path: for EVERY shard
// count and thread count, the sharded auction must produce byte-identical
// conflict graphs, awards, charges, and winner announcements to the
// single-partition path — including under adversarial placements (SUs on
// tile borders, everyone in one tile, tiles narrower than the 2λ halo,
// grid corners) and across snapshot/restore reconfigurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/lppa_auction.h"
#include "core/shard_conflict.h"
#include "core/sharded_bid_table.h"
#include "proto/session.h"
#include "shard/shard_plan.h"

namespace lppa {
namespace {

struct World {
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
};

World random_world(std::size_t n, std::size_t k, std::uint64_t seed,
                   std::uint64_t side = 5000) {
  Rng rng(seed);
  World w;
  for (std::size_t i = 0; i < n; ++i) {
    w.locations.push_back({rng.below(side), rng.below(side)});
    auction::BidVector bv(k);
    for (auto& b : bv) b = rng.below(16);
    w.bids.push_back(bv);
  }
  return w;
}

core::LppaConfig base_config(std::size_t k, std::uint64_t lambda = 100,
                             int coord_width = 14) {
  core::LppaConfig cfg;
  cfg.num_channels = k;
  cfg.lambda = lambda;
  cfg.coord_width = coord_width;
  cfg.bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  return cfg;
}

/// Runs the full auction and returns the outcome; the Rng seed is fixed
/// so any divergence between configurations is the configuration's.
core::LppaOutcome run_auction(const World& w, const core::LppaConfig& cfg,
                              std::uint64_t seed) {
  core::LppaAuction engine(cfg, /*ttp_seed=*/7);
  Rng rng(seed);
  return engine.run(w.locations, w.bids, rng);
}

void expect_same_outcome(const core::LppaOutcome& a,
                         const core::LppaOutcome& b) {
  ASSERT_EQ(a.outcome.awards.size(), b.outcome.awards.size());
  for (std::size_t i = 0; i < a.outcome.awards.size(); ++i) {
    const auto& x = a.outcome.awards[i];
    const auto& y = b.outcome.awards[i];
    EXPECT_EQ(x.user, y.user);
    EXPECT_EQ(x.channel, y.channel);
    EXPECT_EQ(x.charge, y.charge);
    EXPECT_EQ(x.valid, y.valid);
  }
  EXPECT_EQ(a.view.conflicts, b.view.conflicts);
  EXPECT_EQ(a.view.awards, b.view.awards);
  EXPECT_EQ(a.manipulations_detected, b.manipulations_detected);
}

// --- ShardPlan geometry --------------------------------------------------

TEST(ShardPlan, GridFactorisationIsNearSquare) {
  using shard::ShardPlan;
  EXPECT_EQ(ShardPlan::make(14, 100, 1).tiles_x(), 1u);
  const ShardPlan p2 = ShardPlan::make(14, 100, 2);
  EXPECT_EQ(p2.tiles_x(), 1u);
  EXPECT_EQ(p2.tiles_y(), 2u);
  const ShardPlan p4 = ShardPlan::make(14, 100, 4);
  EXPECT_EQ(p4.tiles_x(), 2u);
  EXPECT_EQ(p4.tiles_y(), 2u);
  const ShardPlan p9 = ShardPlan::make(14, 100, 9);
  EXPECT_EQ(p9.tiles_x(), 3u);
  EXPECT_EQ(p9.tiles_y(), 3u);
  const ShardPlan p12 = ShardPlan::make(14, 100, 12);
  EXPECT_EQ(p12.tiles_x(), 3u);
  EXPECT_EQ(p12.tiles_y(), 4u);
  EXPECT_THROW(ShardPlan::make(14, 100, 0), LppaError);
  EXPECT_THROW(ShardPlan::make(0, 100, 1), LppaError);
  // More strips than coordinate columns cannot tile the square.
  EXPECT_THROW(ShardPlan::make(1, 1, 64), LppaError);
}

TEST(ShardPlan, TilesPartitionTheField) {
  const shard::ShardPlan plan = shard::ShardPlan::make(8, 10, 6);
  ASSERT_EQ(plan.num_shards(), 6u);
  // Every location maps to exactly one tile whose bounds contain it.
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    const auction::SuLocation loc{rng.below(256), rng.below(256)};
    const std::uint32_t t = plan.tile_of(loc);
    ASSERT_LT(t, plan.num_shards());
    const auto b = plan.bounds(t);
    EXPECT_GE(loc.x, b.x_lo);
    EXPECT_LE(loc.x, b.x_hi);
    EXPECT_GE(loc.y, b.y_lo);
    EXPECT_LE(loc.y, b.y_hi);
  }
  // Tile bounds cover the square without overlap: total area matches.
  std::uint64_t area = 0;
  for (std::uint32_t t = 0; t < plan.num_shards(); ++t) {
    const auto b = plan.bounds(t);
    area += (b.x_hi - b.x_lo + 1) * (b.y_hi - b.y_lo + 1);
  }
  EXPECT_EQ(area, 256u * 256u);
}

TEST(ShardPlan, AssignmentMatchesOnBoundaryAndCoversEveryone) {
  const shard::ShardPlan plan = shard::ShardPlan::make(14, 100, 4);
  const World w = random_world(200, 1, 17, /*side=*/16000);
  const shard::ShardAssignment a = plan.assign(w.locations);
  ASSERT_EQ(a.shard_of.size(), w.locations.size());
  std::size_t members_total = 0;
  for (std::size_t s = 0; s < a.num_shards; ++s) {
    members_total += a.members[s].size();
    EXPECT_TRUE(std::is_sorted(a.members[s].begin(), a.members[s].end()));
    EXPECT_TRUE(std::is_sorted(a.halo[s].begin(), a.halo[s].end()));
    for (const std::uint32_t u : a.members[s]) {
      EXPECT_EQ(a.shard_of[u], s);
    }
    for (const std::uint32_t u : a.halo[s]) {
      EXPECT_NE(a.shard_of[u], s);  // halos hold only foreign SUs
    }
  }
  EXPECT_EQ(members_total, w.locations.size());
  // boundary_sus counts exactly the SUs the predicate flags.
  std::size_t boundary = 0;
  for (const auto& loc : w.locations) {
    if (plan.on_boundary(loc)) ++boundary;
  }
  EXPECT_EQ(a.boundary_sus, boundary);
  EXPECT_GT(a.halo_entries(), 0u);
}

// --- Conflict graph differential ----------------------------------------

TEST(ShardConflict, MatchesGlobalBuildAcrossShardAndThreadCounts) {
  const core::LppaConfig cfg = base_config(1);
  Rng key_rng(42);
  const crypto::SecretKey g0 = crypto::SecretKey::generate(key_rng);
  const core::PpbsLocation proto(g0, cfg.coord_width, cfg.lambda, true);
  const World w = random_world(120, 1, 23, /*side=*/16000);
  Rng rng(9);
  std::vector<core::LocationSubmission> subs;
  for (const auto& loc : w.locations) subs.push_back(proto.submit(loc, rng));
  const auto reference = core::PpbsLocation::build_conflict_graph(subs, 1);
  for (const std::size_t shards : {1u, 2u, 4u, 9u}) {
    const auto plan =
        shard::ShardPlan::make(cfg.coord_width, cfg.lambda, shards);
    const auto assignment = plan.assign(w.locations);
    for (const std::size_t threads : {1u, 3u}) {
      core::ShardConflictStats stats;
      const auto sharded = core::build_conflict_graph_sharded(
          subs, assignment, threads, nullptr, &stats);
      EXPECT_EQ(sharded, reference)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(stats.halo_edges + stats.local_edges, reference.edge_count());
      if (shards == 1) {
        EXPECT_EQ(stats.halo_entries, 0u);
        EXPECT_EQ(stats.halo_edges, 0u);
      }
      EXPECT_GT(stats.peak_index_bytes, 0u);
    }
  }
}

// --- End-to-end byte identity --------------------------------------------

TEST(ShardDifferential, AuctionOutcomeIdenticalForEveryShardCount) {
  const World w = random_world(60, 3, 51, /*side=*/16000);
  const auto reference = run_auction(w, base_config(3), 77);
  EXPECT_FALSE(reference.outcome.awards.empty());
  for (const std::size_t shards : {2u, 4u, 9u}) {
    for (const std::size_t threads : {1u, 3u}) {
      core::LppaConfig cfg = base_config(3);
      cfg.num_shards = shards;
      cfg.num_threads = threads;
      const auto sharded = run_auction(w, cfg, 77);
      expect_same_outcome(sharded, reference);
    }
  }
}

TEST(ShardDifferential, BothArgmaxStrategiesStayIdenticalWhenSharded) {
  const World w = random_world(40, 2, 53, /*side=*/16000);
  const auto reference = run_auction(w, base_config(2), 13);
  for (const auto strategy : {core::ArgmaxStrategy::kSortedColumns,
                              core::ArgmaxStrategy::kTournamentScan}) {
    core::LppaConfig cfg = base_config(2);
    cfg.num_shards = 4;
    cfg.argmax_strategy = strategy;
    expect_same_outcome(run_auction(w, cfg, 13), reference);
  }
}

TEST(ShardDifferential, AdversarialPlacements) {
  // Each placement stresses one geometric corner of the halo logic.
  // PPBS requires every loc + 2λ to fit coord_width, so coordinates stay
  // within [0, 2047 - 2λ] of the 2048-wide field; the 2x2 grid's tile
  // border sits at x,y = 1023/1024.
  const std::size_t k = 2;
  const int width = 11;  // 2048-wide field
  struct Placement {
    const char* name;
    std::uint64_t lambda;
    std::vector<auction::SuLocation> locations;
  };
  std::vector<Placement> placements;

  // (a) SUs sitting exactly ON tile borders of the 2x2 grid and at the
  // shared centre corner.
  placements.push_back({"tile_borders",
                        20,
                        {{1023, 100},
                         {1024, 100},
                         {1023, 1900},
                         {1024, 1901},
                         {100, 1023},
                         {100, 1024},
                         {1023, 1023},
                         {1024, 1024},
                         {1023, 1024},
                         {1024, 1023}}});
  // (b) Everyone crammed into one tile: all other shards stay empty.
  placements.push_back(
      {"one_tile", 20, {{10, 10}, {12, 11}, {30, 40}, {5, 5}, {60, 60}}});
  // (c) λ so large that 2λ = 700 exceeds the 3x3 grid's 683-wide tiles —
  // every SU is a boundary SU and halos cover whole neighbouring tiles.
  placements.push_back({"narrow_tiles",
                        350,
                        {{100, 100},
                         {400, 380},
                         {600, 610},
                         {900, 880},
                         {1200, 1300},
                         {20, 1000}}});
  // (d) The corners of the PPBS-admissible region plus the grid centre.
  placements.push_back({"grid_corners",
                        50,
                        {{0, 0},
                         {1947, 0},
                         {0, 1947},
                         {1947, 1947},
                         {1023, 1023},
                         {1024, 1024}}});

  for (const auto& p : placements) {
    World w;
    w.locations = p.locations;
    Rng rng(99);
    for (std::size_t i = 0; i < w.locations.size(); ++i) {
      auction::BidVector bv(k);
      for (auto& b : bv) b = rng.below(16);
      w.bids.push_back(bv);
    }
    core::LppaConfig cfg = base_config(k, p.lambda, width);
    const auto reference = run_auction(w, cfg, 31);
    for (const std::size_t shards : {2u, 4u, 9u}) {
      core::LppaConfig sharded_cfg = cfg;
      sharded_cfg.num_shards = shards;
      sharded_cfg.num_threads = 3;
      const auto sharded = run_auction(w, sharded_cfg, 31);
      expect_same_outcome(sharded, reference);
      if (testing::Test::HasFailure()) {
        FAIL() << "placement " << p.name << " shards=" << shards;
      }
    }
  }
}

// --- ShardedBidTable vs EncryptedBidTable --------------------------------

TEST(ShardedBidTable, AnswersMatchSingleTableUnderRandomRemovals) {
  const std::size_t n = 30, k = 3;
  const World w = random_world(n, k, 61);
  core::TrustedThirdParty ttp(base_config(k).bid, 5);
  const core::SuKeyBundle keys = ttp.su_keys();
  const core::BidSubmitter submitter(ttp.config(), keys.gb_master, keys.gc);
  Rng rng(8);
  std::vector<core::BidSubmission> subs;
  for (const auto& bv : w.bids) subs.push_back(submitter.submit(bv, rng));

  for (const std::size_t shards : {1u, 3u, 7u}) {
    core::EncryptedBidTable single(subs, k);
    core::ShardedBidTable sharded(
        subs, k, core::ShardedBidTable::contiguous_shards(n, shards), shards);
    EXPECT_EQ(sharded.num_shards(), shards);
    Rng removals(1000 + shards);
    while (!single.empty()) {
      for (std::size_t r = 0; r < k; ++r) {
        const auto a = single.argmax_in_column(r);
        const auto b = sharded.argmax_in_column(r);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
          EXPECT_EQ(*a, *b);
        }
      }
      // Remove a random cell or user on both tables.
      const std::size_t u = removals.below(n);
      if (removals.below(4) == 0) {
        single.remove_user(u);
        sharded.remove_user(u);
      } else {
        const std::size_t r = removals.below(k);
        single.remove(u, r);
        sharded.remove(u, r);
      }
      EXPECT_EQ(single.empty(), sharded.empty());
    }
    EXPECT_TRUE(sharded.empty());
  }
}

TEST(ShardedBidTable, SerializesTheGlobalImageAndRestoresResharded) {
  const std::size_t n = 12, k = 2;
  const World w = random_world(n, k, 67);
  core::TrustedThirdParty ttp(base_config(k).bid, 5);
  const core::SuKeyBundle keys = ttp.su_keys();
  const core::BidSubmitter submitter(ttp.config(), keys.gb_master, keys.gc);
  Rng rng(4);
  std::vector<core::BidSubmission> subs;
  for (const auto& bv : w.bids) subs.push_back(submitter.submit(bv, rng));

  core::EncryptedBidTable single(subs, k);
  core::ShardedBidTable sharded(
      subs, k, core::ShardedBidTable::contiguous_shards(n, 4), 4);
  // Identical wire images before and after identical removals.
  EXPECT_EQ(sharded.serialize(), single.serialize());
  single.remove(3, 1);
  sharded.remove(3, 1);
  single.remove_user(7);
  sharded.remove_user(7);
  const Bytes image = single.serialize();
  EXPECT_EQ(sharded.serialize(), image);

  // Restore the unsharded image into a sharded table (and with a
  // different shard count than the writer used): answers must continue
  // exactly where the snapshot left off.
  for (const std::size_t shards : {1u, 2u, 5u}) {
    auto restored = core::ShardedBidTable::restore(
        core::EncryptedBidTable::deserialize(image),
        core::ShardedBidTable::contiguous_shards(n, shards), shards);
    EXPECT_EQ(restored.serialize(), image);
    for (std::size_t r = 0; r < k; ++r) {
      EXPECT_EQ(restored.argmax_in_column(r), single.argmax_in_column(r));
    }
    EXPECT_FALSE(restored.has(3, 1));
    EXPECT_FALSE(restored.has(7, 0));
  }

  // A shard map that does not fit the image is a typed protocol error.
  try {
    core::ShardedBidTable::restore(
        core::EncryptedBidTable::deserialize(image),
        core::ShardedBidTable::contiguous_shards(n + 1, 2), 2);
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
  try {
    auto bad_map = core::ShardedBidTable::contiguous_shards(n, 4);
    core::ShardedBidTable::restore(core::EncryptedBidTable::deserialize(image),
                                   std::move(bad_map), /*num_shards=*/2);
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
  // Restore requires an owning table, not one referencing a live vector.
  EXPECT_THROW(core::ShardedBidTable::restore(
                   core::EncryptedBidTable(subs, k),
                   core::ShardedBidTable::contiguous_shards(n, 2), 2),
               LppaError);
}

// --- Session snapshot interop (PR 3 recovery compatibility) --------------

TEST(ShardSessionInterop, SnapshotsInterchangeAcrossShardReconfiguration) {
  const std::size_t n = 8, k = 3;
  const World w = random_world(n, k, 71);
  core::LppaConfig unsharded_cfg = base_config(k);
  core::LppaConfig sharded_cfg = unsharded_cfg;
  sharded_cfg.num_shards = 4;

  core::TrustedThirdParty ttp(unsharded_cfg.bid, 9);

  auto run_to_allocation = [&](const core::LppaConfig& cfg) {
    auto session = std::make_unique<proto::AuctioneerSession>(cfg, n);
    Rng rng(1);
    for (std::size_t u = 0; u < n; ++u) {
      const proto::SuClient client(u, cfg, ttp.su_keys());
      session->ingest(client.location_envelope(w.locations[u], rng));
      session->ingest(client.bid_envelope(w.bids[u], rng));
    }
    Rng alloc_rng(2);
    session->run_allocation(alloc_rng);
    return session;
  };

  const auto unsharded = run_to_allocation(unsharded_cfg);
  const auto sharded = run_to_allocation(sharded_cfg);

  // Same awards, same snapshot bytes: the sharded session's image IS the
  // unsharded one's.
  EXPECT_EQ(sharded->awards(), unsharded->awards());
  const Bytes snap = unsharded->snapshot();
  EXPECT_EQ(sharded->snapshot(), snap);

  // Restore the image under BOTH configurations and finish the round
  // through the TTP on each: byte-identical announcements throughout.
  proto::AuctioneerSession restored_sharded(sharded_cfg, n);
  restored_sharded.restore_from(snap);
  proto::AuctioneerSession restored_unsharded(unsharded_cfg, n);
  restored_unsharded.restore_from(snap);
  EXPECT_EQ(restored_sharded.snapshot(), snap);
  EXPECT_EQ(restored_unsharded.snapshot(), snap);

  proto::TtpService service(ttp);
  std::vector<proto::AuctioneerSession*> sessions = {
      unsharded.get(), sharded.get(), &restored_sharded, &restored_unsharded};
  const auto queries = unsharded->charge_query_envelopes();
  for (proto::AuctioneerSession* s : sessions) {
    EXPECT_EQ(s->charge_query_envelopes(), queries);
  }
  for (const auto& q : queries) {
    const Bytes result = service.handle(q);
    for (proto::AuctioneerSession* s : sessions) {
      s->ingest_charge_results(result);
    }
  }
  const Bytes announcement = unsharded->winner_announcement();
  for (proto::AuctioneerSession* s : sessions) {
    ASSERT_TRUE(s->charging_complete());
    EXPECT_EQ(s->winner_announcement(), announcement);
  }
}

}  // namespace
}  // namespace lppa
