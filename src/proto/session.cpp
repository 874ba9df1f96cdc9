#include "proto/session.h"

#include <algorithm>
#include <limits>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "proto/fault.h"
#include "proto/journal.h"

namespace lppa::proto {

std::size_t HardenedSessionConfig::backoff_ticks(
    std::size_t wave) const noexcept {
  if (backoff_base_ticks == 0) return 0;
  // base * 2^wave overflows exactly when base > max >> wave; comparing
  // that way never shifts by more than the word size and never wraps.
  if (wave >= static_cast<std::size_t>(
                  std::numeric_limits<std::size_t>::digits) ||
      backoff_base_ticks > (max_backoff_ticks >> wave)) {
    return max_backoff_ticks;
  }
  return backoff_base_ticks << wave;
}

std::size_t replay_session_journal(const RoundJournal& journal,
                                   AuctioneerSession& session,
                                   std::size_t num_users, RoundReport& report) {
  const std::vector<JournalRecord> records = RoundJournal::read(journal.data());
  if (records.empty()) return 0;
  LPPA_PROTOCOL_CHECK(records.front().type == JournalRecordType::kRoundStart &&
                          records.front().round_start_users() == num_users,
                      "journal does not open this round");

  std::size_t last_alloc = records.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].type == JournalRecordType::kAllocated) last_alloc = i;
  }

  if (last_alloc != records.size()) {
    session.restore_from(records[last_alloc].payload);
    ++report.replayed_records;
    for (std::size_t i = last_alloc + 1; i < records.size(); ++i) {
      const JournalRecord& rec = records[i];
      LPPA_PROTOCOL_CHECK(rec.type == JournalRecordType::kChargeCommit,
                          "unexpected journal record after allocation commit");
      session.ingest_charge_results(rec.payload);
      ++report.replayed_records;
    }
    session.finalize_participants(report);  // rebuild the exclusion section
    return 0;  // admission is long closed; the wave counter is moot
  }

  std::size_t resume_wave = 0;
  for (const JournalRecord& rec : records) {
    switch (rec.type) {
      case JournalRecordType::kRoundStart:
        break;
      case JournalRecordType::kAccepted: {
        std::string error;
        const auto outcome = session.try_ingest(rec.payload, &error);
        LPPA_PROTOCOL_CHECK(
            outcome == AuctioneerSession::IngestResult::kAccepted,
            "journaled submission failed re-ingest: " + error);
        break;
      }
      case JournalRecordType::kStrike: {
        const auto note = rec.user_note();
        session.replay_strike(note.user, note.detail);
        break;
      }
      case JournalRecordType::kEquivocation: {
        const auto note = rec.user_note();
        session.replay_equivocation(note.user, note.detail);
        break;
      }
      case JournalRecordType::kNackSent:
        resume_wave = std::max(resume_wave,
                               static_cast<std::size_t>(rec.nack().wave) + 1);
        break;
      case JournalRecordType::kFinalized:
        session.finalize_participants(report);
        break;
      case JournalRecordType::kChurnDeparture:
        session.churn_depart(rec.churn_user());
        break;
      case JournalRecordType::kChurnArrival:
        session.churn_return(rec.churn_user());
        break;
      default:
        LPPA_PROTOCOL_CHECK(false,
                            "journal record out of phase before allocation");
    }
    ++report.replayed_records;
  }
  return resume_wave;
}

std::vector<bool> participation_mask(std::size_t num_users,
                                     const std::vector<std::size_t>& exclude) {
  std::vector<bool> participating(num_users, true);
  for (const std::size_t u : exclude) {
    LPPA_REQUIRE(u < num_users, "excluded SU index out of range");
    participating[u] = false;
  }
  return participating;
}

std::vector<SuEnvelopes> build_su_envelopes(
    const core::LppaConfig& config, const core::SuKeyBundle& keys,
    const std::vector<auction::SuLocation>& locations,
    const std::vector<auction::BidVector>& bids, std::uint64_t seed,
    const std::vector<bool>& participating) {
  LPPA_REQUIRE(locations.size() == bids.size(),
               "one location per bid vector required");
  LPPA_REQUIRE(!bids.empty(), "auction requires at least one bidder");
  LPPA_REQUIRE(participating.size() == bids.size(),
               "participating mask must cover every SU");
  const std::size_t n = bids.size();
  Rng boot(seed);
  std::vector<Rng> su_rngs = core::fork_su_streams(boot, n);

  std::vector<SuEnvelopes> built(n);
  parallel_for(n, 0, [&](std::size_t u) {
    if (!participating[u]) return;
    const SuClient client(u, config, keys);
    built[u].su = u;
    built[u].location = client.location_envelope(locations[u], su_rngs[u]);
    built[u].bid = client.bid_envelope(bids[u], su_rngs[u]);
  });
  std::vector<SuEnvelopes> sus;
  for (std::size_t u = 0; u < n; ++u) {
    if (participating[u]) sus.push_back(std::move(built[u]));
  }
  return sus;
}

RoundCore::RoundCore(const core::LppaConfig& config, std::size_t num_users,
                     const RecoverableSessionConfig& policy,
                     std::vector<bool> participating, std::uint64_t seed,
                     RoundJournal* journal, RoundReport* report,
                     CrashInjector* crashes, const obs::Span* round_span)
    : metrics_(config.metrics),
      attempt_span_(metrics_, "wire.attempt", round_span),
      policy_(policy), participating_(std::move(participating)), seed_(seed),
      journal_(journal), report_(report), crashes_(crashes),
      session_(config, num_users) {
  LPPA_REQUIRE(journal_ != nullptr && report_ != nullptr,
               "a round needs a journal and a report");
  LPPA_REQUIRE(participating_.size() == num_users,
               "participating mask must cover every SU");
  LPPA_REQUIRE(policy_.min_quorum >= 1, "a round needs a quorum of at least 1");
  report_->num_users = num_users;
  report_->deadline_ticks = policy_.deadline_ticks;
  resume_wave_ = replay_session_journal(*journal_, session_, num_users,
                                        *report_);
  session_.attach_journal(journal_);
  if (journal_->empty()) journal_->append_round_start(num_users);
  phase_span_.emplace(metrics_, "wire.admission", &attempt_span_);
}

void RoundCore::checkpoint(CrashPoint point) {
  if (crashes_ != nullptr) crashes_->checkpoint(point);
}

AuctioneerSession::IngestResult RoundCore::ingest(const Bytes& message) {
  const auto outcome = session_.try_ingest(message);
  switch (outcome) {
    case AuctioneerSession::IngestResult::kAccepted:
      checkpoint(CrashPoint::kAfterIngest);
      break;
    case AuctioneerSession::IngestResult::kDuplicateRedelivery:
      ++report_->duplicate_redeliveries;
      break;
    case AuctioneerSession::IngestResult::kRejected:
    case AuctioneerSession::IngestResult::kEquivocation:
      ++report_->rejected_messages;
      break;
  }
  return outcome;
}

std::vector<std::size_t> RoundCore::missing() const {
  std::vector<std::size_t> missing;
  for (const std::size_t u : session_.missing_users()) {
    if (participating_[u]) missing.push_back(u);
  }
  return missing;
}

RoundCore::Admission RoundCore::admission_step(std::size_t wave,
                                               std::size_t ticks) {
  if (missing().empty()) return Admission::kComplete;
  if (policy_.deadline_ticks > 0 && ticks >= policy_.deadline_ticks) {
    // Deadline gone (typically eaten by recoveries): commit with the
    // quorum of journaled submissions instead of waiting out the waves.
    report_->degraded = true;
    return Admission::kDegraded;
  }
  if (wave >= policy_.hardened.max_retries) return Admission::kExhausted;
  report_->retry_waves = std::max(report_->retry_waves, wave + 1);
  return Admission::kNack;
}

Bytes RoundCore::nack(std::size_t u, std::size_t wave) {
  // Nack exactly what is missing; resends of already-accepted halves
  // dedupe harmlessly at the auctioneer.
  RetransmitRequest request;
  request.mask = static_cast<std::uint8_t>(
      (session_.has_location(u) ? 0 : RetransmitRequest::kLocation) |
      (session_.has_bid(u) ? 0 : RetransmitRequest::kBid));
  journal_->append_nack(u, request.mask, wave);
  Envelope nack;
  nack.type = MessageType::kRetransmitRequest;
  nack.payload = request.serialize();
  return nack.serialize();
}

void RoundCore::commit() {
  phase_span_.reset();  // admission is over
  if (!session_.allocation_done()) {
    obs::Span allocation_span(metrics_, "wire.allocation", &attempt_span_);
    session_.finalize_participants(*report_);
    LPPA_PROTOCOL_CHECK(
        session_.participants().size() >= policy_.min_quorum,
        "round below quorum: " + std::to_string(policy_.min_quorum) +
            " participants required");
    checkpoint(CrashPoint::kAfterFinalize);

    // Every attempt rebuilds the generator from the seed and discards the
    // SU-side fork, so the allocation stream is identical no matter how
    // many attempts died.
    Rng master(seed_);
    (void)master.fork();
    session_.run_allocation(master);
    checkpoint(CrashPoint::kAfterAllocation);
  }
  phase_span_.emplace(metrics_, "wire.charging", &attempt_span_);
}

void RoundCore::charge_attempt() {
  LPPA_PROTOCOL_CHECK(
      report_->charge_attempts < policy_.hardened.max_charge_attempts,
      "TTP unreachable: charging incomplete after retry budget");
  ++report_->charge_attempts;
}

void RoundCore::charge(const Bytes& results) {
  session_.ingest_charge_results(results);
  checkpoint(CrashPoint::kAfterChargeCommit);
}

Bytes RoundCore::publish() {
  phase_span_.reset();  // charging is over
  checkpoint(CrashPoint::kBeforePublish);
  journal_->append(JournalRecordType::kCommitted);
  Bytes announcement = session_.winner_announcement();
  report_->completed = true;
  report_->journal_records = journal_->num_records();
  report_->journal_bytes = journal_->data().size();
  return announcement;
}

RecoverableWireResult run_recoverable_wire_auction(
    const core::LppaConfig& config, core::TrustedThirdParty& ttp,
    const std::vector<auction::SuLocation>& locations,
    const std::vector<auction::BidVector>& bids, MessageBus& bus,
    std::uint64_t seed, const RecoverableSessionConfig& recov,
    CrashInjector* crashes, const std::vector<std::size_t>& exclude) {
  const std::size_t n = bids.size();
  const std::vector<bool> participating = participation_mask(n, exclude);
  const HardenedSessionConfig& hardened = recov.hardened;
  const Address auctioneer = Address::auctioneer();
  const Address ttp_addr = Address::ttp();

  RecoverableWireResult result;
  RoundReport& report = result.report;

  obs::MetricsRegistry* const m = config.metrics;
  obs::Span round_span(m, "wire.round");
  if (m != nullptr) m->counter("wire.rounds").inc();

  // --- SU side: mask and transmit exactly once ---------------------------
  // The SU endpoints survive auctioneer crashes; their envelopes are
  // built and sent once, before any attempt, and only ever leave the
  // endpoint again as nack-answering retransmissions of the SAME bytes.
  // Sends go out in SU-index order: fault verdicts depend on send order.
  const std::vector<SuEnvelopes> sus = build_su_envelopes(
      config, ttp.su_keys(), locations, bids, seed, participating);
  for (const SuEnvelopes& su : sus) {
    bus.send(Address::su(su.su), auctioneer, su.location);
    bus.send(Address::su(su.su), auctioneer, su.bid);
  }

  // --- Durable state: what a crash cannot erase --------------------------
  RoundJournal journal;
  TtpService service(ttp);
  std::size_t ticks = 0;
  const auto advance = [&](std::size_t t) {
    bus.advance(t);
    ticks += t;
  };

  for (;;) {
    try {
      RoundCore core(config, n, recov, participating, seed, &journal,
                     &report, crashes, &round_span);
      AuctioneerSession& session = core.session();
      const auto drain_auctioneer = [&] {
        while (auto message = bus.receive(auctioneer)) core.ingest(*message);
      };

      if (!session.admission_closed()) {
        for (std::size_t wave = core.resume_wave();; ++wave) {
          drain_auctioneer();
          if (core.admission_step(wave, ticks) !=
              RoundCore::Admission::kNack) {
            break;
          }
          for (const std::size_t u : core.missing()) {
            if (m != nullptr) m->counter("wire.nacks").inc();
            bus.send(auctioneer, Address::su(u), core.nack(u, wave));
          }
          // Exponential backoff: waiting also flushes delay-faulted
          // messages.
          advance(hardened.backoff_ticks(wave));

          // SU endpoints answer nacks with their cached envelope bytes.
          // A damaged nack still triggers a full resend — over-answering
          // is safe, under-answering would stall the round.
          for (const SuEnvelopes& su : sus) {
            while (auto message = bus.receive(Address::su(su.su))) {
              std::uint8_t mask =
                  RetransmitRequest::kLocation | RetransmitRequest::kBid;
              try {
                const Envelope e = Envelope::deserialize(*message);
                if (e.type != MessageType::kRetransmitRequest) continue;
                mask = RetransmitRequest::deserialize(e.payload).mask;
              } catch (const LppaError&) {
              }
              if (mask & RetransmitRequest::kLocation) {
                bus.send(Address::su(su.su), auctioneer, su.location);
              }
              if (mask & RetransmitRequest::kBid) {
                bus.send(Address::su(su.su), auctioneer, su.bid);
              }
            }
          }
          advance(hardened.backoff_ticks(wave));
        }
      } else if (!session.allocation_done()) {
        // Admission was already committed before the crash; whatever is
        // still on the bus can only be a redelivery.
        drain_auctioneer();
      }
      core.commit();

      // --- Charging: resend the full query set until every award is priced
      // The TTP itself is trusted but the link to it is not: queries and
      // results can be dropped or corrupted, so the batches are re-sent
      // wholesale (the TTP is stateless per batch and results are
      // idempotent) until charging_complete() or the budget runs out.
      const std::vector<Bytes> query_envelopes =
          session.charge_query_envelopes();
      while (!session.charging_complete()) {
        core.charge_attempt();
        for (const auto& query_envelope : query_envelopes) {
          bus.send(auctioneer, ttp_addr, query_envelope);
        }
        advance(hardened.backoff_base_ticks);
        while (auto message = bus.receive(ttp_addr)) {
          try {
            bus.send(ttp_addr, auctioneer, service.handle(*message));
          } catch (const LppaError&) {
            ++report.rejected_messages;  // damaged query; the resend covers it
          }
        }
        advance(hardened.backoff_base_ticks);
        while (auto message = bus.receive(auctioneer)) {
          try {
            // CrashSignal is not an LppaError, so a crash here tears
            // through this handler like a real process death.
            core.charge(*message);
          } catch (const LppaError&) {
            ++report.rejected_messages;  // damaged result batch
          }
        }
      }

      result.announcement = core.publish();
      const Envelope e = Envelope::deserialize(result.announcement);
      result.awards = WinnerAnnouncement::deserialize(e.payload).awards;
      result.journal = journal.data();
      report.ticks_used = ticks;
      if (const FaultInjector* injector = bus.fault_injector()) {
        report.faults = injector->counters();
      }
      if (m != nullptr) {
        m->counter("wire.completed_rounds").inc();
        m->counter("wire.retry_waves").inc(report.retry_waves);
        m->counter("wire.charge_attempts").inc(report.charge_attempts);
        m->counter("wire.rejected_messages").inc(report.rejected_messages);
        m->counter("wire.duplicate_redeliveries")
            .inc(report.duplicate_redeliveries);
        m->counter("wire.replayed_records").inc(report.replayed_records);
        if (report.degraded) m->counter("wire.degraded_rounds").inc();
        m->gauge("wire.journal_bytes")
            .set(static_cast<double>(report.journal_bytes));
      }
      return result;
    } catch (const CrashSignal&) {
      // The auctioneer process died.  Its in-memory session is gone; the
      // journal and the bus (the outside world) survive.  Restarting
      // costs ticks, which is how crashes erode the deadline.
      ++report.crash_recoveries;
      if (m != nullptr) m->counter("wire.crash_recoveries").inc();
      ticks += recov.recovery_cost_ticks;
    }
  }
}

}  // namespace lppa::proto
