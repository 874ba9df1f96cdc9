// Second-price charging differential suite (names prefixed `Charging`).
//
// The runner-up of a column is a query on the masked bid table
// (MaskedBidTable::runner_up): the first non-winner entry of the order
// the table already sorted.  The reference is the O(n) masked
// scan charging used to run per award, kept here as the oracle:
//   1. runner_up equals the oracle on every award, across both backends,
//      shards {1,4}, both argmax strategies, tie-heavy populations and
//      tables restored mid-allocation;
//   2. the wire session asks the TTP the same questions over the bus and
//      over sockets (byte-identical charge-query envelopes);
//   3. charging costs no ge() call on an unsharded sorted table and at
//      most awards × (shards − 1) sharded, and a forged column cannot
//      make the TTP charge more than a winner's true bid.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/lppa_auction.h"
#include "core/sharded_bid_table.h"
#include "net/session_port.h"
#include "proto/journal.h"
#include "proto/session.h"

namespace lppa {
namespace {

using core::ArgmaxStrategy;
using core::MaskedBidTable;

constexpr std::uint64_t kTtpSeed = 77;

/// The charging scan this suite replaces, verbatim in behaviour: the
/// highest masked bid among users other than the winner, first-seen
/// (lowest id) on ties, consumed cells included.
std::optional<auction::UserId> oracle_runner_up(
    const std::vector<core::BidSubmission>& subs,
    const crypto::BidBackend& backend, auction::ChannelId r,
    auction::UserId winner) {
  std::optional<auction::UserId> second;
  for (auction::UserId u = 0; u < subs.size(); ++u) {
    if (u == winner) continue;
    if (!second ||
        !backend.ge(subs[*second].channels[r], subs[u].channels[r])) {
      second = u;
    }
  }
  return second;
}

core::PpbsBidConfig bid_config(crypto::BidBackendId backend) {
  core::PpbsBidConfig bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  bid.backend = backend;
  return bid;
}

/// Masked submissions of `bids` under `ttp`'s keys.
std::vector<core::BidSubmission> mask(
    const core::TrustedThirdParty& ttp,
    const std::vector<auction::BidVector>& bids, Rng& rng) {
  const auto keys = ttp.su_keys();
  const core::BidSubmitter submitter(ttp.config(), keys.gb_master, keys.gc,
                                     keys.paillier);
  std::vector<core::BidSubmission> subs;
  for (const auto& bv : bids) subs.push_back(submitter.submit(bv, rng));
  return subs;
}

std::vector<auction::BidVector> draw_bids(std::size_t n, std::size_t k,
                                          std::uint64_t levels, Rng& rng) {
  std::vector<auction::BidVector> bids(n, auction::BidVector(k));
  for (auto& bv : bids) {
    for (auto& b : bv) b = rng.below(levels);
  }
  return bids;
}

auction::ConflictGraph random_conflicts(std::size_t n, Rng& rng) {
  auction::ConflictGraph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.below(5) == 0) g.add_conflict(i, j);
    }
  }
  return g;
}

/// Scattered shard map (u mod shards): global ids interleave across
/// shards, so the merge — not the visit order — must carry the tie-break.
std::vector<std::uint32_t> scattered(std::size_t n, std::size_t shards) {
  std::vector<std::uint32_t> shard_of(n);
  for (std::size_t u = 0; u < n; ++u) {
    shard_of[u] = static_cast<std::uint32_t>(u % shards);
  }
  return shard_of;
}

std::unique_ptr<MaskedBidTable> make_table(
    const std::vector<core::BidSubmission>& subs, std::size_t k,
    ArgmaxStrategy strategy, std::size_t shards,
    const crypto::BidBackend* backend) {
  if (shards == 1) {
    return std::make_unique<core::EncryptedBidTable>(subs, k, strategy, 1,
                                                     backend);
  }
  return std::make_unique<core::ShardedBidTable>(
      subs, k, scattered(subs.size(), shards), shards, strategy, 1, nullptr,
      backend);
}

/// serialize → restore into the same shape (owning submissions).
std::unique_ptr<MaskedBidTable> restore_table(
    const MaskedBidTable& table, ArgmaxStrategy strategy, std::size_t shards,
    const crypto::BidBackend* backend) {
  auto global = core::EncryptedBidTable::deserialize(table.serialize(),
                                                     strategy, 1, backend);
  if (shards == 1) {
    return std::make_unique<core::EncryptedBidTable>(std::move(global));
  }
  const std::size_t n = global.num_users();
  return std::make_unique<core::ShardedBidTable>(core::ShardedBidTable::restore(
      std::move(global), scattered(n, shards), shards, strategy));
}

// ---------------------------------------------------------------------------
// 1. runner_up ≡ the scan oracle.
// ---------------------------------------------------------------------------

using Combo = std::tuple<crypto::BidBackendId, std::size_t, ArgmaxStrategy>;

class ChargingRunnerUp : public ::testing::TestWithParam<Combo> {
 protected:
  std::size_t shards() const { return std::get<1>(GetParam()); }
  ArgmaxStrategy strategy() const { return std::get<2>(GetParam()); }

  core::TrustedThirdParty ttp{bid_config(std::get<0>(GetParam())), kTtpSeed,
                              core::ChargingRule::kSecondPrice};
  const crypto::BidBackend* backend = &ttp.bid_backend();

  /// Allocates on `table` and checks runner_up on every award, then on
  /// every column with every third user as a stand-in winner.
  void expect_oracle_on_every_award(
      MaskedBidTable& table, const std::vector<core::BidSubmission>& subs,
      std::uint64_t seed) {
    Rng rng(seed);
    const auction::ConflictGraph conflicts = random_conflicts(subs.size(), rng);
    const auto awards = auction::greedy_allocate(table, conflicts, rng);
    ASSERT_FALSE(awards.empty());
    for (const auto& a : awards) {
      EXPECT_EQ(table.runner_up(a.channel, a.user),
                oracle_runner_up(subs, *backend, a.channel, a.user))
          << "award u" << a.user << " c" << a.channel;
    }
    // A fully consumed table still answers: presence never filters.
    for (std::size_t r = 0; r < table.num_channels(); ++r) {
      for (auction::UserId w = 0; w < subs.size(); w += 3) {
        EXPECT_EQ(table.runner_up(r, w),
                  oracle_runner_up(subs, *backend, r, w))
            << "column " << r << " winner " << w;
      }
    }
  }
};

TEST_P(ChargingRunnerUp, TieHeavyPopulationsMatchTheScan) {
  for (const std::uint64_t levels : {2u, 4u, 16u}) {
    Rng rng(100 + levels);
    const auto subs = mask(ttp, draw_bids(24, 3, levels, rng), rng);
    auto table = make_table(subs, 3, strategy(), shards(), backend);
    expect_oracle_on_every_award(*table, subs, levels);
  }
}

TEST_P(ChargingRunnerUp, TableRestoredMidAllocationMatchesTheScan) {
  Rng rng(303);
  const auto subs = mask(ttp, draw_bids(24, 3, 5, rng), rng);
  auto table = make_table(subs, 3, strategy(), shards(), backend);
  // Half an allocation's worth of consumed cells, then a snapshot hop.
  for (std::size_t u = 0; u < subs.size(); ++u) {
    for (std::size_t r = 0; r < 3; ++r) {
      if (rng.below(2) == 0) table->remove(u, r);
    }
  }
  auto restored = restore_table(*table, strategy(), shards(), backend);
  EXPECT_EQ(restored->serialize(), table->serialize());
  expect_oracle_on_every_award(*restored, subs, 11);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsShardsStrategies, ChargingRunnerUp,
    ::testing::Combine(
        ::testing::Values(crypto::BidBackendId::kHmacPrefix,
                          crypto::BidBackendId::kPaillier),
        ::testing::Values(std::size_t{1}, std::size_t{4}),
        ::testing::Values(ArgmaxStrategy::kSortedColumns,
                          ArgmaxStrategy::kTournamentScan)),
    [](const ::testing::TestParamInfo<Combo>& info) {
      const bool paillier =
          std::get<0>(info.param) == crypto::BidBackendId::kPaillier;
      const bool sorted =
          std::get<2>(info.param) == ArgmaxStrategy::kSortedColumns;
      return std::string(paillier ? "paillier" : "hmac") + "_shards" +
             std::to_string(std::get<1>(info.param)) +
             (sorted ? "_sorted" : "_scan");
    });

// ---------------------------------------------------------------------------
// 2. Bus and socket sessions send the TTP identical second-price queries.
// ---------------------------------------------------------------------------

/// A 10-SU, 3-channel second-price wire round and its configuration.
struct SecondPriceRound {
  static constexpr std::size_t kUsers = 10;
  static constexpr std::uint64_t kSeed = 5;
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
  core::LppaConfig cfg;

  SecondPriceRound() {
    Rng rng(21);
    for (std::size_t i = 0; i < kUsers; ++i) {
      locations.push_back({rng.below(5000), rng.below(5000)});
    }
    bids = draw_bids(kUsers, 3, 4, rng);
    cfg.num_channels = 3;
    cfg.lambda = 100;
    cfg.coord_width = 14;
    cfg.bid = bid_config(crypto::BidBackendId::kHmacPrefix);
    cfg.ttp_batch_size = 4;
    cfg.charging_rule = core::ChargingRule::kSecondPrice;
  }

  proto::RecoverableWireResult over_bus() const {
    core::TrustedThirdParty ttp(cfg.bid, kTtpSeed, cfg.charging_rule);
    proto::MessageBus bus;
    return proto::run_recoverable_wire_auction(cfg, ttp, locations, bids, bus,
                                               kSeed);
  }

  /// A session restored from the journal's allocation commit: the
  /// restored-table path of runner_up.
  std::unique_ptr<proto::AuctioneerSession> restored(
      const Bytes& journal) const {
    auto session = std::make_unique<proto::AuctioneerSession>(cfg, kUsers);
    for (const auto& rec : proto::RoundJournal::read(journal)) {
      if (rec.type == proto::JournalRecordType::kAllocated) {
        session->restore_from(rec.payload);
      }
    }
    return session;
  }
};

TEST(ChargingWire, SecondPriceQueriesMatchOnBusAndSocket) {
  const SecondPriceRound round;
  const auto over_bus = round.over_bus();
  core::TrustedThirdParty socket_ttp(round.cfg.bid, kTtpSeed,
                                     round.cfg.charging_rule);
  const auto over_socket = net::run_recoverable_socket_auction(
      round.cfg, socket_ttp, round.locations, round.bids,
      SecondPriceRound::kSeed, net::ServerConfig{});

  ASSERT_TRUE(over_socket.report.completed) << over_socket.report.summary();
  EXPECT_EQ(over_socket.awards, over_bus.awards);
  const auto bus_queries =
      round.restored(over_bus.journal)->charge_query_envelopes();
  const auto socket_queries =
      round.restored(over_socket.journal)->charge_query_envelopes();
  ASSERT_FALSE(bus_queries.empty());
  EXPECT_EQ(socket_queries, bus_queries);

  // The queries really are second price: some award names a runner-up.
  bool any_runner_up = false;
  for (const Bytes& batch : bus_queries) {
    const auto e = proto::Envelope::deserialize(batch);
    for (const auto& q : proto::deserialize_charge_queries(e.payload)) {
      any_runner_up = any_runner_up || q.runner_up_sealed.has_value();
    }
  }
  EXPECT_TRUE(any_runner_up);
}

Bytes result_batch(const core::ChargeResult& res) {
  proto::Envelope e;
  e.type = proto::MessageType::kChargeResultBatch;
  e.payload = proto::serialize_charge_results({res});
  return e.serialize();
}

void expect_unknown_award(proto::AuctioneerSession& session,
                          const core::ChargeResult& res) {
  try {
    session.ingest_charge_results(result_batch(res));
    FAIL() << "result for u" << res.user << " c" << res.channel
           << " must not price any award";
  } catch (const LppaError& err) {
    EXPECT_EQ(err.kind(), ErrorKind::kProtocol);
  }
}

TEST(ChargingWire, ResultsForUnknownAwardsAreProtocolErrors) {
  const SecondPriceRound round;
  proto::AuctioneerSession fresh(round.cfg, SecondPriceRound::kUsers);
  expect_unknown_award(fresh, {0, 0, true, 1, false});

  const auto session = round.restored(round.over_bus().journal);
  ASSERT_FALSE(session->awards().empty());
  const auction::Award a = session->awards().front();
  expect_unknown_award(*session, {a.user, (a.channel + 1) % 3, true, 1, false});
  expect_unknown_award(*session,
                       {SecondPriceRound::kUsers, a.channel, true, 1, false});
  EXPECT_NO_THROW(session->ingest_charge_results(
      result_batch({a.user, a.channel, true, 1, false})));
  EXPECT_EQ(session->awards().front().charge, 1u);
}

// ---------------------------------------------------------------------------
// 3. Cost guard and a Byzantine column.
// ---------------------------------------------------------------------------

/// Forwards every hook to the real backend and counts ge() calls.
class CountingBackend final : public crypto::BidBackend {
 public:
  explicit CountingBackend(const crypto::BidBackend& inner) : inner_(inner) {}

  crypto::BidBackendId id() const noexcept override { return inner_.id(); }
  const char* name() const noexcept override { return inner_.name(); }
  void encode_cell(core::ChannelBidSubmission& cell,
                   const crypto::BidEncodeCtx& ctx, std::uint64_t scaled,
                   Rng& rng) const override {
    inner_.encode_cell(cell, ctx, scaled, rng);
  }
  bool ge(const core::ChannelBidSubmission& a,
          const core::ChannelBidSubmission& b) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.ge(a, b);
  }
  std::optional<std::string> validate_cell(
      const core::ChannelBidSubmission& cell) const override {
    return inner_.validate_cell(cell);
  }

  std::size_t calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  const crypto::BidBackend& inner_;
  mutable std::atomic<std::size_t> calls_{0};
};

struct ChargingRig {
  CountingBackend counting{crypto::hmac_backend()};
  core::LppaAuction engine;
  std::vector<auction::BidVector> bids;
  std::vector<core::BidSubmission> subs;
  auction::ConflictGraph conflicts{1};

  static core::LppaConfig config(const crypto::BidBackend* backend) {
    core::LppaConfig cfg;
    cfg.num_channels = 4;
    cfg.bid = bid_config(crypto::BidBackendId::kHmacPrefix);
    cfg.charging_rule = core::ChargingRule::kSecondPrice;
    cfg.ttp_batch_size = 8;
    cfg.backend = backend;
    return cfg;
  }

  explicit ChargingRig(std::size_t n)
      : engine(config(&counting), kTtpSeed) {
    Rng rng(4040);
    bids = draw_bids(n, 4, 16, rng);
    subs = mask(engine.ttp(), bids, rng);
    conflicts = random_conflicts(n, rng);
  }

  /// ge() calls charging alone makes: allocate_and_charge minus the same
  /// allocation replayed on a copy of the table.
  template <typename Table>
  std::size_t charging_ge(Table& table, Table probe,
                          std::vector<auction::Award>* awards) {
    Rng rng(99);
    Rng probe_rng = rng;
    std::size_t before = counting.calls();
    auction::greedy_allocate(probe, conflicts, probe_rng);
    const std::size_t allocation = counting.calls() - before;
    before = counting.calls();
    *awards = engine
                  .allocate_and_charge(subs, conflicts, table,
                                       std::vector<bool>(subs.size(), true),
                                       rng)
                  .awards;
    return counting.calls() - before - allocation;
  }
};

TEST(ChargingCost, SortedTableChargesWithoutComparisons) {
  ChargingRig rig(60);
  core::EncryptedBidTable table(rig.subs, 4, ArgmaxStrategy::kSortedColumns,
                                1, &rig.counting);
  std::vector<auction::Award> awards;
  EXPECT_EQ(rig.charging_ge(table, table, &awards), 0u);
  ASSERT_FALSE(awards.empty());
}

TEST(ChargingCost, ShardedTableMergesAtMostShardsMinusOnePerAward) {
  constexpr std::size_t kShards = 4;
  ChargingRig rig(60);
  core::ShardedBidTable table(rig.subs, 4, scattered(60, kShards), kShards,
                              ArgmaxStrategy::kSortedColumns, 1, nullptr,
                              &rig.counting);
  std::vector<auction::Award> awards;
  const std::size_t ge = rig.charging_ge(table, table.clone(), &awards);
  ASSERT_FALSE(awards.empty());
  EXPECT_LE(ge, awards.size() * (kShards - 1));
}

TEST(ChargingEngine, AllocateAndChargeRejectsAClearedLiveBit) {
  // No user can be excluded from pricing any more: the live mask must
  // cover every submission with every bit set.
  ChargingRig rig(12);
  core::EncryptedBidTable table(rig.subs, 4);
  std::vector<bool> live(rig.subs.size(), true);
  live[5] = false;
  Rng rng(3);
  EXPECT_THROW(
      rig.engine.allocate_and_charge(rig.subs, rig.conflicts, table, live, rng),
      LppaError);
  live.assign(rig.subs.size() - 1, true);
  EXPECT_THROW(
      rig.engine.allocate_and_charge(rig.subs, rig.conflicts, table, live, rng),
      LppaError);
  live.assign(rig.subs.size(), true);
  EXPECT_FALSE(rig.engine
                   .allocate_and_charge(rig.subs, rig.conflicts, table, live,
                                        rng)
                   .awards.empty());
}

TEST(ChargingByzantine, ForgedColumnCannotOverchargeAWinner) {
  // User 0's column-0 value family is the union of every family in the
  // column: it is >= everyone, yet only the users above its own range
  // floor are >= it — an intransitive (order-inconsistent) relation.
  // The sort must stay defined, runner_up must still name a rival,
  // and the TTP's verification bounds every charge.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const auto strategy :
         {ArgmaxStrategy::kSortedColumns, ArgmaxStrategy::kTournamentScan}) {
      ChargingRig rig(40);
      std::vector<crypto::Digest> forged;
      for (const auto& s : rig.subs) {
        const auto d = s.channels[0].value_family.digests();
        forged.insert(forged.end(), d.begin(), d.end());
      }
      rig.subs[0].channels[0].value_family =
          prefix::HashedPrefixSet::from_digests(std::move(forged));

      auto table = make_table(rig.subs, 4, strategy, shards, &rig.counting);
      const std::vector<bool> live(rig.subs.size(), true);
      Rng rng(17);
      const auto round = rig.engine.allocate_and_charge(
          rig.subs, rig.conflicts, *table, live, rng);
      ASSERT_FALSE(round.awards.empty());
      for (const auto& a : round.awards) {
        EXPECT_LE(a.charge, rig.bids[a.user][a.channel])
            << "shards " << shards << " award u" << a.user;
        const auto second = table->runner_up(a.channel, a.user);
        ASSERT_TRUE(second.has_value());
        EXPECT_NE(*second, a.user);
      }
    }
  }
}

}  // namespace
}  // namespace lppa
