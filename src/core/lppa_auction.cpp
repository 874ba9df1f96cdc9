#include "core/lppa_auction.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "core/shard_conflict.h"
#include "core/sharded_bid_table.h"
#include "core/submission_validator.h"
#include "obs/span.h"
#include "shard/shard_plan.h"

namespace lppa::core {

LppaAuction::LppaAuction(LppaConfig config, std::uint64_t ttp_seed)
    : config_(config), ttp_(config.bid, ttp_seed, config.charging_rule) {
  LPPA_REQUIRE(config_.num_channels > 0, "auction requires channels");
  LPPA_REQUIRE(config_.num_shards >= 1, "shard count must be at least 1");
  if (config_.backend == nullptr) config_.backend = &ttp_.bid_backend();
  LPPA_REQUIRE(config_.backend->id() == config_.bid.backend,
               "LppaConfig backend does not match the bid-config backend id");
  ttp_.set_metrics(config_.metrics);
}

LppaOutcome LppaAuction::run(
    const std::vector<auction::SuLocation>& locations,
    const std::vector<BidVector>& bids, Rng& rng) {
  LPPA_REQUIRE(locations.size() == bids.size(),
               "one location per bid vector required");
  LPPA_REQUIRE(!bids.empty(), "auction requires at least one bidder");
  for (const auto& bv : bids) {
    LPPA_REQUIRE(bv.size() == config_.num_channels,
                 "bid vectors must cover every auctioned channel");
  }

  obs::MetricsRegistry* const m = config_.metrics;
  obs::Span round_span(m, "auction.round");
  if (m != nullptr) {
    m->counter("auction.rounds").inc();
    m->counter("auction.submissions").inc(bids.size());
    m->counter(config_.argmax_strategy == ArgmaxStrategy::kSortedColumns
                   ? "auction.argmax.sorted_rounds"
                   : "auction.argmax.scan_rounds")
        .inc();
  }

  LppaOutcome result;
  AuctioneerView& view = result.view;

  // --- SU side: PPBS -----------------------------------------------------
  const SuKeyBundle keys = ttp_.su_keys();
  const PpbsLocation location_protocol(keys.g0, config_.coord_width,
                                       config_.lambda,
                                       config_.pad_location_ranges);
  const BidSubmitter submitter(ttp_.config(), keys.gb_master, keys.gc,
                               keys.paillier);

  // SU i reads only su_rngs[i] and writes only slot i, so the HMAC-heavy
  // submission work fans out and the transcript is byte-identical for
  // every value of num_threads (fork_su_streams).
  const std::size_t n = locations.size();
  std::vector<Rng> su_rngs = fork_su_streams(rng, n);

  view.locations.resize(n);
  view.bids.resize(n);
  {
    obs::Span submit_span(m, "auction.submit", &round_span);
    parallel_for(n, config_.num_threads, [&](std::size_t i) {
      view.locations[i] = location_protocol.submit(locations[i], su_rngs[i]);
      view.bids[i] = submitter.submit(bids[i], su_rngs[i]);
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    view.location_wire_bytes += view.locations[i].wire_size();
    view.bid_wire_bytes += view.bids[i].wire_size();
  }
  if (m != nullptr) {
    m->counter("auction.submission_bytes")
        .inc(view.location_wire_bytes + view.bid_wire_bytes);
  }

  // --- Auctioneer side: PSD ----------------------------------------------
  if (config_.validate_submissions) {
    obs::Span validate_span(m, "auction.validate", &round_span);
    const SubmissionValidator validator(config_);
    for (std::size_t i = 0; i < n; ++i) {
      validator.check_location(view.locations[i]);
      validator.check_bid(view.bids[i]);
    }
  }
  // Geo-sharding (num_shards > 1) routes the conflict-graph build only,
  // by tiles computed from the plaintext locations this in-process round
  // holds on the SUs' behalf (shard/shard_plan.h on tile-granular
  // disclosure).  The bid table needs no geometry (make_bid_table).
  {
    obs::Span conflict_span(m, "auction.conflict_graph", &round_span);
    if (config_.num_shards > 1) {
      const shard::ShardPlan plan = shard::ShardPlan::make(
          config_.coord_width, config_.lambda, config_.num_shards);
      view.conflicts = build_conflict_graph_sharded(
          view.locations, plan.assign(locations), config_.num_threads, m);
    } else {
      view.conflicts = PpbsLocation::build_conflict_graph(view.locations,
                                                          config_.num_threads);
    }
  }
  obs::Span table_span(m, "auction.bid_table", &round_span);
  const std::unique_ptr<MaskedBidTable> table =
      make_bid_table(view.bids, config_);
  table_span.end();
  MaintainedRoundOutcome round =
      run_psd(view.conflicts, *table, rng, &round_span);

  result.manipulations_detected = round.manipulations_detected;
  result.outcome.awards = round.awards;
  view.awards = std::move(round.awards);
  return result;
}

std::vector<Rng> fork_su_streams(Rng& rng, std::size_t n) {
  Rng su_master = rng.fork();
  std::vector<Rng> su_rngs;
  su_rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) su_rngs.push_back(su_master.fork());
  return su_rngs;
}

std::unique_ptr<MaskedBidTable> make_bid_table(
    const std::vector<BidSubmission>& bids, const LppaConfig& config) {
  if (config.num_shards > 1) {
    return std::make_unique<ShardedBidTable>(
        bids, config.num_channels,
        ShardedBidTable::contiguous_shards(bids.size(), config.num_shards),
        config.num_shards, config.argmax_strategy, config.num_threads,
        config.metrics, config.backend);
  }
  return std::make_unique<EncryptedBidTable>(
      bids, config.num_channels, config.argmax_strategy, config.num_threads,
      config.backend);
}

std::unique_ptr<MaskedBidTable> restore_bid_table(
    std::span<const std::uint8_t> image, const LppaConfig& config) {
  if (config.num_shards <= 1) {
    return std::make_unique<EncryptedBidTable>(EncryptedBidTable::deserialize(
        image, config.argmax_strategy, config.num_threads, config.backend));
  }
  // The shards sort their own columns, so the global image is parsed
  // under the strategy that builds no orders: each column sorts once.
  EncryptedBidTable global = EncryptedBidTable::deserialize(
      image, ArgmaxStrategy::kTournamentScan, config.num_threads,
      config.backend);
  const std::size_t n = global.num_users();
  return std::make_unique<ShardedBidTable>(ShardedBidTable::restore(
      std::move(global),
      ShardedBidTable::contiguous_shards(n, config.num_shards),
      config.num_shards, config.argmax_strategy, config.num_threads,
      config.metrics));
}

namespace {

/// The TTP query pricing table user u's award of channel r.
ChargeQuery charge_query(const MaskedBidTable& table, UserId u, ChannelId r,
                         ChargingRule rule) {
  const ChannelBidSubmission& entry = table.entry(u, r);
  ChargeQuery query{u,  r, entry.sealed, entry.value_family, entry.paillier_ct,
                    {}, {}, 0};
  if (rule != ChargingRule::kSecondPrice) return query;
  if (const auto second = table.runner_up(r, u)) {
    const ChannelBidSubmission& runner_up = table.entry(*second, r);
    query.runner_up_sealed = runner_up.sealed;
    query.runner_up_family = runner_up.value_family;
    query.runner_up_ct = runner_up.paillier_ct;
  }
  return query;
}

}  // namespace

std::vector<std::vector<ChargeQuery>> charge_batches(
    const MaskedBidTable& table, const std::vector<auction::Award>& awards,
    const LppaConfig& config) {
  LPPA_REQUIRE(config.ttp_batch_size > 0, "TTP batch size must be positive");
  std::vector<std::vector<ChargeQuery>> batches;
  for (std::size_t i = 0; i < awards.size(); ++i) {
    if (i % config.ttp_batch_size == 0) batches.emplace_back();
    batches.back().push_back(charge_query(table, awards[i].user,
                                          awards[i].channel,
                                          config.charging_rule));
  }
  return batches;
}

bool apply_charge(auction::Award& award, const ChargeResult& result) {
  award.valid = result.valid && !result.manipulated;
  award.charge = result.manipulated ? 0 : result.charge;
  return result.manipulated;
}

MaintainedRoundOutcome LppaAuction::allocate_and_charge(
    const std::vector<BidSubmission>& bids,
    const auction::ConflictGraph& conflicts, MaskedBidTable& table,
    const std::vector<bool>& live, Rng& rng, obs::Span* parent) {
  LPPA_REQUIRE(table.num_users() == bids.size(),
               "the table must cover every submission");
  LPPA_REQUIRE(live.size() == bids.size() &&
                   std::all_of(live.begin(), live.end(),
                               [](bool b) { return b; }),
               "every user must be live: no user can be excluded from pricing");
  return run_psd(conflicts, table, rng, parent);
}

MaintainedRoundOutcome LppaAuction::run_psd(
    const auction::ConflictGraph& conflicts, MaskedBidTable& table, Rng& rng,
    obs::Span* parent) {
  obs::MetricsRegistry* const m = config_.metrics;

  obs::Span allocate_span(m, "auction.allocate", parent);
  MaintainedRoundOutcome result;
  result.awards = auction::greedy_allocate(table, conflicts, rng);
  allocate_span.end();
  if (m != nullptr) m->counter("auction.awards").inc(result.awards.size());

  // --- Charging through the periodically-available TTP --------------------
  // Batches follow award order and the TTP answers in query order.
  obs::Span charging_span(m, "auction.charging", parent);
  std::size_t charged = 0;
  for (const auto& batch : charge_batches(table, result.awards, config_)) {
    for (const auto& res : ttp_.process_batch(batch)) {
      auction::Award& award = result.awards[charged++];
      LPPA_REQUIRE(award.user == res.user && award.channel == res.channel,
                   "TTP answered out of query order");
      if (apply_charge(award, res)) ++result.manipulations_detected;
    }
  }
  charging_span.end();
  if (m != nullptr && result.manipulations_detected > 0) {
    m->counter("auction.manipulations").inc(result.manipulations_detected);
  }
  return result;
}

}  // namespace lppa::core
