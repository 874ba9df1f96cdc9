#include "proto/session.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "proto/fault.h"
#include "proto/journal.h"
#include "wire_world.h"

namespace lppa::proto {
namespace {

/// SU -> auctioneer traffic on `bus`: everything into the auctioneer
/// minus the TTP's leg.
LinkStats submission_traffic(const MessageBus& bus) {
  LinkStats in = bus.total_into(Address::Kind::kAuctioneer);
  const LinkStats from_ttp = bus.link(Address::ttp(), Address::auctioneer());
  in.messages -= from_ttp.messages;
  in.bytes -= from_ttp.bytes;
  return in;
}

TEST(WireAuction, SubmissionTrafficMatchesWireSizes) {
  const WireWorld w = make_world(6, 2, 31);
  core::TrustedThirdParty ttp(w.config.bid, 3);
  MessageBus bus;
  run_recoverable_wire_auction(w.config, ttp, w.locations, w.bids, bus, 9);
  // Two messages per SU (location + bids).
  EXPECT_EQ(submission_traffic(bus).messages, 12u);
  EXPECT_GT(submission_traffic(bus).bytes, 0u);
  // Charging traffic: at least one batch each way.
  EXPECT_GE(bus.link(Address::auctioneer(), Address::ttp()).messages, 1u);
  EXPECT_EQ(bus.link(Address::ttp(), Address::auctioneer()).messages,
            ttp.batches_processed());
}

TEST(WireAuction, BatchSizeControlsTtpBatches) {
  WireWorld w = make_world(12, 2, 41);
  w.config.ttp_batch_size = 3;
  core::TrustedThirdParty ttp(w.config.bid, 5);
  MessageBus bus;
  const auto result =
      run_recoverable_wire_auction(w.config, ttp, w.locations, w.bids, bus, 11);
  const std::size_t awards = result.awards.size();
  EXPECT_EQ(ttp.batches_processed(), (awards + 2) / 3);
}

TEST(WireAuction, SecondPriceRunsOverTheWire) {
  WireWorld w = make_world(10, 2, 51);
  w.config.charging_rule = core::ChargingRule::kSecondPrice;
  core::TrustedThirdParty ttp(w.config.bid, 7,
                              core::ChargingRule::kSecondPrice);
  MessageBus bus;
  const auto result =
      run_recoverable_wire_auction(w.config, ttp, w.locations, w.bids, bus, 13);
  for (const auto& award : result.awards) {
    if (award.valid) {
      EXPECT_LE(award.charge, w.bids[award.user][award.channel]);
    }
  }
}

TEST(AuctioneerSession, RejectsDuplicateAndForeignSubmissions) {
  const WireWorld w = make_world(2, 2, 61);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  AuctioneerSession session(w.config, 2);
  Rng rng(1);
  const SuClient client(0, w.config, ttp.su_keys());
  const Bytes loc = client.location_envelope(w.locations[0], rng);
  session.ingest(loc);
  EXPECT_THROW(session.ingest(loc), LppaError);  // duplicate

  const SuClient stranger(7, w.config, ttp.su_keys());  // index out of range
  EXPECT_THROW(
      session.ingest(stranger.location_envelope(w.locations[0], rng)),
      LppaError);
}

TEST(AuctioneerSession, RefusesToRunIncomplete) {
  const WireWorld w = make_world(2, 2, 71);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  AuctioneerSession session(w.config, 2);
  EXPECT_FALSE(session.ready());
  Rng rng(1);
  EXPECT_THROW(session.run_allocation(rng), LppaError);
  EXPECT_THROW(session.charge_query_envelopes(), LppaError);
}

TEST(AuctioneerSession, RejectsWrongChannelCount) {
  const WireWorld w = make_world(2, 2, 81);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  AuctioneerSession session(w.config, 2);
  Rng rng(1);
  auto bad_config = w.config;
  bad_config.num_channels = 3;  // SU encodes 3 channels, auction expects 2
  const SuClient client(0, bad_config, ttp.su_keys());
  EXPECT_THROW(session.ingest(client.bid_envelope({1, 2, 3}, rng)),
               LppaError);
}

TEST(AuctioneerSession, DepartedThenReturnedSuIsNotAnEquivocator) {
  // Churn semantics: an SU that departs and later returns submits a
  // FRESH masked pair (new position, new masks).  The second submission
  // differs byte-for-byte from the first, which is exactly the
  // equivocation signature — but churn_depart cleared the stored pair,
  // so the returned SU's submission must land on the empty-slot path and
  // be accepted without a strike.
  const WireWorld w = make_world(3, 2, 141);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  AuctioneerSession session(w.config, 3);
  Rng rng(1);
  const SuClient client(0, w.config, ttp.su_keys());

  const Bytes first_loc = client.location_envelope(w.locations[0], rng);
  const Bytes first_bid = client.bid_envelope(w.bids[0], rng);
  ASSERT_EQ(session.try_ingest(first_loc),
            AuctioneerSession::IngestResult::kAccepted);
  ASSERT_EQ(session.try_ingest(first_bid),
            AuctioneerSession::IngestResult::kAccepted);

  session.churn_depart(0);
  EXPECT_TRUE(session.is_absent(0));
  // While absent, traffic from the departed sender is rejected — but
  // without a strike and without an equivocation verdict.
  std::string error;
  EXPECT_EQ(session.try_ingest(first_loc, &error),
            AuctioneerSession::IngestResult::kRejected);
  EXPECT_FALSE(session.is_excluded(0));

  session.churn_return(0);
  EXPECT_FALSE(session.is_absent(0));
  // Fresh pair, different bytes (new masks and a new position).
  const auction::SuLocation moved = {w.locations[0].x + 57,
                                     w.locations[0].y + 31};
  const Bytes second_loc = client.location_envelope(moved, rng);
  const Bytes second_bid = client.bid_envelope(w.bids[0], rng);
  ASSERT_NE(second_loc, first_loc);
  EXPECT_EQ(session.try_ingest(second_loc, &error),
            AuctioneerSession::IngestResult::kAccepted)
      << error;
  EXPECT_EQ(session.try_ingest(second_bid, &error),
            AuctioneerSession::IngestResult::kAccepted)
      << error;
  EXPECT_FALSE(session.is_excluded(0));

  // A genuinely equivocating sender still gets caught: a THIRD,
  // different pair while the second is stored.
  const Bytes third_loc = client.location_envelope(w.locations[0], rng);
  EXPECT_EQ(session.try_ingest(third_loc),
            AuctioneerSession::IngestResult::kEquivocation);
  EXPECT_TRUE(session.is_excluded(0));
}

TEST(AuctioneerSession, ChurnRecordsReplayAndSnapshotRoundTrip) {
  // Journaled churn: depart/return records replay into the same state —
  // and the snapshot codec round-trips the absent flag.
  const WireWorld w = make_world(3, 2, 151);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  Rng rng(3);
  std::vector<Bytes> locs, bids;
  for (std::size_t u = 0; u < 3; ++u) {
    const SuClient client(u, w.config, ttp.su_keys());
    locs.push_back(client.location_envelope(w.locations[u], rng));
    bids.push_back(client.bid_envelope(w.bids[u], rng));
  }

  AuctioneerSession session(w.config, 3);
  RoundJournal journal;
  journal.append_round_start(3);
  session.attach_journal(&journal);
  for (std::size_t u = 0; u < 3; ++u) {
    ASSERT_EQ(session.try_ingest(locs[u]),
              AuctioneerSession::IngestResult::kAccepted);
    ASSERT_EQ(session.try_ingest(bids[u]),
              AuctioneerSession::IngestResult::kAccepted);
  }
  session.churn_depart(1);
  session.churn_depart(2);
  session.churn_return(2);
  // Departure cleared user 2's stored pair; the returned SU re-submits
  // a fresh pair (journaled like any other admission).
  {
    Rng fresh(11);
    const SuClient client(2, w.config, ttp.su_keys());
    ASSERT_EQ(session.try_ingest(
                  client.location_envelope(w.locations[2], fresh)),
              AuctioneerSession::IngestResult::kAccepted);
    ASSERT_EQ(session.try_ingest(client.bid_envelope(w.bids[2], fresh)),
              AuctioneerSession::IngestResult::kAccepted);
  }

  // Journal replay reproduces the exact state (the return value is the
  // resume wave counter; the record count lands in the report).
  AuctioneerSession replayed(w.config, 3);
  RoundReport report;
  replay_session_journal(journal, replayed, 3, report);
  EXPECT_GT(report.replayed_records, 0u);
  EXPECT_TRUE(replayed.is_absent(1));
  EXPECT_FALSE(replayed.is_absent(2));
  EXPECT_EQ(replayed.snapshot(), session.snapshot());

  // Snapshot restore round-trips the absent flag too.
  AuctioneerSession restored(w.config, 3);
  restored.restore_from(session.snapshot());
  EXPECT_TRUE(restored.is_absent(1));
  EXPECT_FALSE(restored.is_absent(2));
  EXPECT_EQ(restored.snapshot(), session.snapshot());

  // ready() ignores absent slots: everyone live has submitted, so the
  // round can close without user 1.
  EXPECT_TRUE(session.ready());
  EXPECT_EQ(session.missing_users(), std::vector<std::size_t>{});
}

TEST(AuctioneerSession, ChurnCrashAtEveryMidChurnPointReplaysAndResumes) {
  // One SU departs, returns and departs again (su1), interleaved with
  // su4 and su2, with a kMidChurn checkpoint after every op.  Killing the
  // session at each checkpoint and replaying its journal into a fresh
  // session must reproduce the crash-free twin's snapshot at that op,
  // and resuming the remaining ops must reach the twin's final snapshot.
  constexpr std::size_t n = 8;
  const WireWorld w = make_world(n, 4, 161);
  core::TrustedThirdParty ttp(w.config.bid, 123);
  std::vector<Bytes> envelopes;
  Rng env_master(777);
  for (std::size_t u = 0; u < n; ++u) {
    Rng su_rng = env_master.fork();
    const SuClient client(u, w.config, ttp.su_keys());
    envelopes.push_back(client.location_envelope(w.locations[u], su_rng));
    envelopes.push_back(client.bid_envelope(w.bids[u], su_rng));
  }
  struct Op {
    bool depart;
    std::size_t user;
  };
  const std::vector<Op> ops = {{true, 1},  {true, 4},  {false, 1},
                               {true, 2},  {false, 4}, {true, 1}};

  const auto start = [&](AuctioneerSession& session, RoundJournal& journal) {
    journal.append_round_start(n);
    session.attach_journal(&journal);
    for (const Bytes& e : envelopes) {
      ASSERT_EQ(session.try_ingest(e),
                AuctioneerSession::IngestResult::kAccepted);
    }
  };
  // Applies ops[first..] with a checkpoint after each; records the
  // post-op snapshot into `snapshots` when non-null.
  const auto drive = [&](AuctioneerSession& session, std::size_t first,
                         CrashInjector& crashes,
                         std::vector<Bytes>* snapshots) {
    for (std::size_t k = first; k < ops.size(); ++k) {
      if (ops[k].depart) {
        session.churn_depart(ops[k].user);
      } else {
        session.churn_return(ops[k].user);
      }
      if (snapshots != nullptr) snapshots->push_back(session.snapshot());
      crashes.checkpoint(CrashPoint::kMidChurn);
    }
  };

  std::vector<Bytes> expected;
  {
    AuctioneerSession twin(w.config, n);
    RoundJournal journal;
    start(twin, journal);
    CrashInjector never;  // counts checkpoints, never fires
    drive(twin, 0, never, &expected);
    ASSERT_EQ(never.hits(CrashPoint::kMidChurn), ops.size());
  }
  ASSERT_TRUE(std::adjacent_find(expected.begin(), expected.end()) ==
              expected.end())
      << "every churn op must change the snapshot";

  for (std::size_t nth = 0; nth < ops.size(); ++nth) {
    RoundJournal journal;
    {
      AuctioneerSession doomed(w.config, n);
      start(doomed, journal);
      CrashInjector crashes;
      crashes.arm(CrashPoint::kMidChurn, nth);
      EXPECT_THROW(drive(doomed, 0, crashes, nullptr), CrashSignal)
          << "armed checkpoint " << nth << " never fired";
    }
    AuctioneerSession recovered(w.config, n);
    RoundReport report;
    replay_session_journal(journal, recovered, n, report);
    EXPECT_GT(report.replayed_records, 0u);
    EXPECT_EQ(recovered.snapshot(), expected[nth]) << "crash at op " << nth;
    // Resume on the same journal, where the dead session left it.
    recovered.attach_journal(&journal);
    CrashInjector never;
    drive(recovered, nth + 1, never, nullptr);
    EXPECT_EQ(recovered.snapshot(), expected.back()) << "crash at op " << nth;
    EXPECT_TRUE(recovered.is_absent(1));
    EXPECT_TRUE(recovered.is_absent(2));
    EXPECT_FALSE(recovered.is_absent(4));
  }
}

TEST(TtpService, RejectsNonChargeEnvelopes) {
  const WireWorld w = make_world(2, 2, 91);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  TtpService service(ttp);
  Envelope e;
  e.type = MessageType::kLocationSubmission;
  EXPECT_THROW(service.handle(e.serialize()), LppaError);
}

TEST(WireAuction, ReusedBusAccumulatesRounds) {
  const WireWorld w = make_world(5, 2, 101);
  core::TrustedThirdParty ttp(w.config.bid, 15);
  MessageBus bus;
  run_recoverable_wire_auction(w.config, ttp, w.locations, w.bids, bus, 17);
  const LinkStats first = submission_traffic(bus);
  core::TrustedThirdParty ttp2(w.config.bid, 16);
  run_recoverable_wire_auction(w.config, ttp2, w.locations, w.bids, bus, 17);
  // Stats accumulate across rounds on a reused bus.
  EXPECT_EQ(submission_traffic(bus).messages, 2 * first.messages);
}

}  // namespace
}  // namespace lppa::proto
