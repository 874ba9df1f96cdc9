// LppaAuction: the end-to-end Location Privacy Preserving Dynamic
// Spectrum Auction — PPBS (masked location + bid submission) followed by
// PSD (greedy allocation in the masked domain + TTP-assisted charging).
//
// run() plays all three roles (SUs, auctioneer, TTP) in-process but keeps
// their information sets separate: everything the curious-but-honest
// auctioneer observes during the round is captured in AuctioneerView,
// which is exactly the input the LppaAdversary attacks get.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "auction/allocate.h"
#include "auction/plain_auction.h"
#include "core/encrypted_bid_table.h"
#include "core/ppbs_location.h"
#include "core/ttp.h"

namespace lppa::obs {
class MetricsRegistry;
class Span;
}  // namespace lppa::obs

namespace lppa::core {

struct LppaConfig {
  std::size_t num_channels = 1;
  std::uint64_t lambda = 1;   ///< half interference-square side
  int coord_width = 20;       ///< bits per location coordinate
  PpbsBidConfig bid;          ///< advanced-scheme parameters
  bool pad_location_ranges = true;
  std::size_t ttp_batch_size = 16;  ///< charge queries per TTP flush
  ChargingRule charging_rule = ChargingRule::kFirstPrice;
  /// Worker threads for the SU submission loop, the conflict-graph probe
  /// and the bid-table column sorts (0 = hardware concurrency).  Each SU
  /// draws from its own pre-forked RNG stream and writes only its own
  /// output slot, and columns sort independently, so the outcome is
  /// byte-identical for every thread count.
  std::size_t num_threads = 0;
  /// Run every submission through core::SubmissionValidator before it
  /// enters the conflict-graph build / EncryptedBidTable.  In-process
  /// submissions are honest by construction, so this is defence in depth
  /// here; the wire session (proto/) relies on the same validator to
  /// reject Byzantine submissions.
  bool validate_submissions = true;
  /// How the EncryptedBidTable answers column-max queries.  The sorted
  /// default turns the allocation loop from O(n²·w) masked comparisons
  /// into an O(n log n) one-off sort plus O(1) pops; kTournamentScan is
  /// the seed path, kept selectable for differential testing (both yield
  /// byte-identical awards/charges on honest submissions).
  ArgmaxStrategy argmax_strategy = ArgmaxStrategy::kSortedColumns;
  /// Sharded execution (docs/performance.md, "Sharding").  >1 tiles the
  /// coordinate grid into that many partitions (shard/shard_plan.h) for
  /// the engine's conflict-graph build: per-tile digest indexes build and
  /// probe in parallel, with only boundary index entries exchanged
  /// between tiles (the halo).  The bid table splits into as many
  /// contiguous, geometry-free shards (make_bid_table) in the engine and
  /// the wire session alike, with a deterministic cross-shard argmax
  /// merge.  Awards, charges, and the winner announcement are
  /// byte-identical to the default single-partition path (1) for every
  /// shard count and thread count — pinned by
  /// tests/shard_differential_test.
  std::size_t num_shards = 1;
  /// The resolved crypto backend driving every masked comparison this
  /// round (bid-table sorts, argmax and runner-up merges).  Null means
  /// "resolve from bid.backend": LppaAuction's constructor fills it in
  /// from its own TTP, so embedders only ever set bid.backend.  Wire
  /// sessions that restore snapshots receive the TTP's backend
  /// explicitly through the same field.  Not owned.
  const crypto::BidBackend* backend = nullptr;
  /// Optional observability sink (obs/metrics.h): when set, every round
  /// records per-phase spans (auction.round > submit / validate /
  /// conflict_graph / bid_table / allocate / charging), phase counters,
  /// and argmax strategy counters into it.  Null (the default) makes
  /// every instrumentation site a branch-and-skip.  Not owned; the caller
  /// keeps the registry alive for the config's lifetime.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Everything the auctioneer (and hence a curious-but-honest attacker)
/// sees in one round.
struct AuctioneerView {
  std::vector<LocationSubmission> locations;
  std::vector<BidSubmission> bids;
  auction::ConflictGraph conflicts{1};
  std::vector<auction::Award> awards;  ///< published winners with validity

  std::size_t location_wire_bytes = 0;
  std::size_t bid_wire_bytes = 0;
};

struct LppaOutcome {
  auction::AuctionOutcome outcome;  ///< TTP-validated awards
  AuctioneerView view;
  std::size_t manipulations_detected = 0;
};

/// Result of one allocation+charging pass over an already-built round
/// state (allocate_and_charge below).
struct MaintainedRoundOutcome {
  std::vector<auction::Award> awards;  ///< TTP-validated awards
  std::size_t manipulations_detected = 0;
};

/// The round's SU-side RNG discipline, which makes the engine and the
/// wire session award identically: `rng` forks once for an SU master,
/// which forks once per SU in index order.  The caller's stream advances
/// by one fork() whatever n is.
std::vector<Rng> fork_su_streams(Rng& rng, std::size_t n);

/// The round's masked bid table over `bids` (referenced, not copied), as
/// `config` says: num_shards > 1 builds a ShardedBidTable over the
/// geometry-free contiguous partition, else an EncryptedBidTable; columns
/// sort on config.num_threads.  The partition never changes an answer.
std::unique_ptr<MaskedBidTable> make_bid_table(
    const std::vector<BidSubmission>& bids, const LppaConfig& config);

/// make_bid_table's restore twin over an EncryptedBidTable wire image,
/// taken under any shard count.  Throws LppaError(kProtocol) on a
/// damaged image or a backend mismatch.
std::unique_ptr<MaskedBidTable> restore_bid_table(
    std::span<const std::uint8_t> image, const LppaConfig& config);

/// The TTP queries pricing `awards` (table user ids) in award order, cut
/// into batches of config.ttp_batch_size.  Each carries the winner's
/// masked entry plus, under second price, the column runner-up's.
std::vector<std::vector<ChargeQuery>> charge_batches(
    const MaskedBidTable& table, const std::vector<auction::Award>& awards,
    const LppaConfig& config);

/// Writes the TTP's verdict onto its award; true when the TTP flagged a
/// manipulation (the award is then invalid and uncharged).
bool apply_charge(auction::Award& award, const ChargeResult& result);

class LppaAuction {
 public:
  LppaAuction(LppaConfig config, std::uint64_t ttp_seed);

  /// Runs one complete round over the true locations/bids.
  LppaOutcome run(const std::vector<auction::SuLocation>& locations,
                  const std::vector<BidVector>& bids, Rng& rng);

  /// The auctioneer+TTP tail of a round over pre-built state, the path
  /// run() takes: greedy allocation on `table` (which it consumes), then
  /// batched TTP charging.  `table` must be built over `bids`.  `live`
  /// must hold one true bit per bid; the mask is left over from the
  /// deleted churn layer and goes at the next benchmark change.
  MaintainedRoundOutcome allocate_and_charge(
      const std::vector<BidSubmission>& bids,
      const auction::ConflictGraph& conflicts, MaskedBidTable& table,
      const std::vector<bool>& live, Rng& rng, obs::Span* parent = nullptr);

  const LppaConfig& config() const noexcept { return config_; }
  const TrustedThirdParty& ttp() const noexcept { return ttp_; }
  TrustedThirdParty& ttp() noexcept { return ttp_; }

 private:
  /// PSD over a built table: allocation, then charging.
  MaintainedRoundOutcome run_psd(const auction::ConflictGraph& conflicts,
                                 MaskedBidTable& table, Rng& rng,
                                 obs::Span* parent);

  LppaConfig config_;
  TrustedThirdParty ttp_;
};

}  // namespace lppa::core
