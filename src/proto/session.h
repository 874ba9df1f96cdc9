// Wire-level auction session: the complete LPPA round with every message
// travelling between the parties as bytes.
//
// There is one recoverable round driver per transport:
// run_recoverable_wire_auction (below) over the in-process MessageBus,
// and net::run_recoverable_socket_auction (net/session_port.h) over real
// sockets.  Both run a round attempt's protocol steps through RoundCore,
// so the RNG discipline, the crash-checkpoint order, the quorum rule and
// the report fields are decided here once.  The RNG discipline is that of
// core::LppaAuction::run over Rng(seed) — core::fork_su_streams for all
// SU-side randomness, then the remaining stream for allocation — so under
// identical seeds the engine, the bus and the socket server produce
// identical awards, a property the transport-differential test asserts.
#pragma once

#include <optional>

#include "core/lppa_auction.h"
#include "obs/span.h"
#include "proto/bus.h"
#include "proto/parties.h"
#include "proto/round_report.h"

namespace lppa::proto {

/// Retry / timeout policy of a round.  "Time" is bus ticks
/// (MessageBus::advance) on the bus and wall ticks over sockets; on the
/// bus the whole schedule is therefore deterministic.
struct HardenedSessionConfig {
  /// Retransmission waves before a silent SU is declared unresponsive.
  std::size_t max_retries = 6;
  /// Ticks waited before the first retry wave; doubles every wave
  /// (exponential backoff), which gives delayed messages time to land.
  std::size_t backoff_base_ticks = 1;
  /// Ceiling on any single backoff wait.  Doubling per wave would
  /// overflow (and shift past the word size, which is undefined) for
  /// large retry budgets; the schedule therefore plateaus here.
  std::size_t max_backoff_ticks = 4096;
  /// Send attempts per charge-query batch before the TTP is declared
  /// unreachable (which aborts the round — charging has no graceful
  /// fallback, the TTP is the round's root of trust).
  std::size_t max_charge_attempts = 8;

  /// The backoff wait for retry wave `wave`:
  /// min(backoff_base_ticks * 2^wave, max_backoff_ticks), computed
  /// without ever shifting past the word size — well-defined for any
  /// wave, however large.
  std::size_t backoff_ticks(std::size_t wave) const noexcept;
};

/// Policy of a round: retries and backoff, the round deadline, the quorum
/// and recovery accounting.  The defaults set no deadline and a quorum
/// of one.
struct RecoverableSessionConfig {
  HardenedSessionConfig hardened;
  /// Round deadline in bus ticks; 0 disables it.  When the deadline
  /// expires while submissions are still missing (typically because
  /// recoveries consumed the tick budget), the round degrades: it commits
  /// with the quorum of journaled submissions instead of waiting out the
  /// remaining retry waves, and the report records the degradation.
  std::size_t deadline_ticks = 0;
  /// Minimum number of participants a (possibly degraded) commit needs;
  /// below it the round aborts with LppaError(kProtocol).
  std::size_t min_quorum = 1;
  /// Bus ticks each auctioneer restart costs (journal re-read, state
  /// rebuild) — this is what makes crashes eat into the deadline.
  std::size_t recovery_cost_ticks = 1;
};

/// One SU's cached submission bytes: built once, then only ever resent
/// verbatim (the zero-resubmission invariant of crash recovery).
struct SuEnvelopes {
  std::size_t su = 0;
  Bytes location;
  Bytes bid;
};

/// participating[u] is false exactly for the SUs listed in `exclude`.
std::vector<bool> participation_mask(std::size_t num_users,
                                     const std::vector<std::size_t>& exclude);

/// Builds every participating SU's location and bid envelope, in parallel,
/// under the round's RNG discipline (core::fork_su_streams over
/// Rng(seed)): every SU gets its stream whether or not it participates.
/// Returns the participants in index order.
std::vector<SuEnvelopes> build_su_envelopes(
    const core::LppaConfig& config, const core::SuKeyBundle& keys,
    const std::vector<auction::SuLocation>& locations,
    const std::vector<auction::BidVector>& bids, std::uint64_t seed,
    const std::vector<bool>& participating);

/// The transport-independent half of one round attempt, shared by the bus
/// driver and net::AuctioneerServer.  The transport moves bytes and keeps
/// the clock; RoundCore owns the session and makes every protocol
/// decision: ingest accounting, the admission verdict of each wave, the
/// nack masks, the commit sequence and the publish tail.  It records the
/// attempt's spans into config.metrics: wire.attempt under `round_span`,
/// and wire.admission, wire.allocation and wire.charging under that.
class RoundCore {
 public:
  /// What a retry wave decides once the arrived messages are ingested.
  enum class Admission : std::uint8_t {
    kNack,       ///< submissions missing: nack them and wait another wave
    kComplete,   ///< every participant delivered
    kDegraded,   ///< the deadline expired: commit with the quorum
    kExhausted,  ///< retry budget spent: commit without the silent SUs
  };

  /// Replays `journal` into a fresh session (crash recovery; an empty
  /// journal starts the round) and attaches it.  None of the pointers are
  /// owned; journal and report must be non-null and outlive the core.
  RoundCore(const core::LppaConfig& config, std::size_t num_users,
            const RecoverableSessionConfig& policy,
            std::vector<bool> participating, std::uint64_t seed,
            RoundJournal* journal, RoundReport* report,
            CrashInjector* crashes, const obs::Span* round_span);

  AuctioneerSession& session() noexcept { return session_; }
  /// The retry wave the replayed journal resumes at (0 on a fresh round).
  std::size_t resume_wave() const noexcept { return resume_wave_; }

  /// Ingests one SU message and books its outcome in the report; an
  /// accepted message passes the kAfterIngest checkpoint.
  AuctioneerSession::IngestResult ingest(const Bytes& message);
  /// Participating SUs that still owe a location or a bid.
  std::vector<std::size_t> missing() const;
  /// Decides retry wave `wave` at round clock `ticks`.  kNack raises
  /// report.retry_waves; kDegraded marks the report degraded.
  Admission admission_step(std::size_t wave, std::size_t ticks);
  /// The kRetransmitRequest envelope asking SU `u` for its missing
  /// halves, journaled as a nack of wave `wave`.
  Bytes nack(std::size_t u, std::size_t wave);

  /// Closes admission: finalize → quorum check → kAfterFinalize →
  /// allocate → kAfterAllocation.  Skipped when the session was restored
  /// past allocation.
  void commit();
  /// Counts one charging attempt; throws kProtocol once the budget is
  /// spent (the TTP is the round's root of trust — no fallback).
  void charge_attempt();
  /// Applies one charge-result batch; passes kAfterChargeCommit.
  void charge(const Bytes& results);
  /// kBeforePublish → kCommitted → the winner announcement, and fills
  /// report.completed, journal_records and journal_bytes.
  Bytes publish();

 private:
  void checkpoint(CrashPoint point);

  obs::MetricsRegistry* metrics_;
  obs::Span attempt_span_;
  std::optional<obs::Span> phase_span_;  ///< admission, then charging
  RecoverableSessionConfig policy_;
  std::vector<bool> participating_;
  std::uint64_t seed_;
  RoundJournal* journal_;
  RoundReport* report_;
  CrashInjector* crashes_;
  AuctioneerSession session_;
  std::size_t resume_wave_ = 0;
};

struct RecoverableWireResult {
  /// TTP-validated awards; Award::user carries original SU ids.
  std::vector<auction::Award> awards;
  RoundReport report;
  /// The durable journal as it stands at round commit.
  Bytes journal;
  /// The published kWinnerAnnouncement envelope, for byte-identity
  /// assertions across crashy and crash-free runs.
  Bytes announcement;
};

/// Runs one auction round over `bus`.  Every submission is validated
/// (core::SubmissionValidator); missing or damaged submissions are nacked
/// with kRetransmitRequest under exponential backoff, and SUs that never
/// deliver a valid pair are excluded so the round completes with the
/// survivors.  Every AuctioneerSession state transition is write-ahead
/// journaled, and when `crashes` fires a CrashSignal at one of its
/// checkpoints the auctioneer is rebuilt from the journal alone —
/// accepted envelopes re-ingested, exclusion verdicts replayed, the
/// allocation snapshot restored — and the round continues.  Recovery is
/// deterministic: the same `seed` produces the same awards and the same
/// announcement bytes whether the round crashed zero times or at every
/// checkpoint, and the SUs never resubmit (only already-sent bytes are
/// redelivered, deduped as benign).
///
/// Takes a seed rather than an Rng& deliberately: every restart must
/// reconstruct the identical allocation stream, which a caller-owned
/// generator (partially consumed by the dead attempt) could not provide.
///
/// `exclude` lists SUs that do not participate at all (their RNG streams
/// are still consumed, so a run excluding exactly the parties a faulty
/// run lost produces byte-identical submissions for the survivors).
/// Attach a FaultInjector to `bus` before calling to inject faults.  The
/// bus keeps per-link traffic totals (MessageBus::link / total_into) and
/// `ttp` counts the charge batches it served.
RecoverableWireResult run_recoverable_wire_auction(
    const core::LppaConfig& config, core::TrustedThirdParty& ttp,
    const std::vector<auction::SuLocation>& locations,
    const std::vector<auction::BidVector>& bids, MessageBus& bus,
    std::uint64_t seed, const RecoverableSessionConfig& recov = {},
    CrashInjector* crashes = nullptr,
    const std::vector<std::size_t>& exclude = {});

/// Rebuilds a crashed auctioneer's state from its write-ahead journal:
/// accepted envelopes are re-ingested through the normal path, strike /
/// equivocation verdicts and churn departures/arrivals are replayed, and
/// a post-allocation crash restores the last kAllocated snapshot plus
/// later charge batches.  Returns the retry wave to resume at.  The
/// journal must be attached to the session only AFTER replaying (replay
/// must not re-journal what is already durable).  RoundCore recovers
/// with it; it is exposed so a session crashed mid-churn outside a round
/// driver can be rebuilt too (proto_session_test pins that leg).
std::size_t replay_session_journal(const RoundJournal& journal,
                                   AuctioneerSession& session,
                                   std::size_t num_users, RoundReport& report);

}  // namespace lppa::proto
