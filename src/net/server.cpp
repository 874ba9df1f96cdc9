#include "net/server.h"

#include <algorithm>

#include "obs/metrics.h"

namespace lppa::net {

namespace {

constexpr std::uint64_t kListenerToken = 0;

Bytes make_ack_frame(std::uint64_t su, std::uint8_t mask) {
  proto::Envelope ack;
  ack.type = proto::MessageType::kSubmissionAck;
  ack.sender = su;
  proto::SubmissionAck body;
  body.mask = mask;
  ack.payload = body.serialize();
  return encode_frame(ack.serialize());
}

}  // namespace

struct AuctioneerServer::Peer {
  Connection conn;
  bool doomed = false;  ///< marked for eviction after the current batch

  Peer(Fd fd, std::uint64_t id, const TransportLimits& limits,
       SteadyClock::time_point now)
      : conn(std::move(fd), id, limits, now) {}
};

AuctioneerServer::AuctioneerServer(
    const core::LppaConfig& config, std::size_t num_users,
    ServerConfig& server_config, SocketRoundOptions round,
    std::vector<bool> participating, core::TrustedThirdParty& ttp,
    std::uint64_t seed, proto::RoundJournal* journal,
    proto::RoundReport* report, proto::CrashInjector* crashes,
    std::size_t start_ticks, const obs::Span* round_span)
    : num_users_(num_users), server_config_(server_config), round_(round),
      report_(report), crashes_(crashes), start_ticks_(start_ticks),
      ttp_service_(ttp),
      core_(config, num_users, round_, std::move(participating), seed,
            journal, report, crashes, round_span),
      wave_(core_.resume_wave()), endpoint_(server_config.endpoint),
      pool_(1) {
  LPPA_REQUIRE(server_config_.tick.count() > 0, "tick must be positive");
  // Journaled churn operations have already been re-applied by replay;
  // the scripted schedule resumes right after them.
  churn_next_ = std::min(core_.session().churn_ops_applied(),
                         round_.churn.size());

  listener_ = listen_on(endpoint_, server_config_.listen_backlog);
  server_config.endpoint = endpoint_;  // ephemeral port resolved
  loop_.add(listener_.get(), kListenerToken, /*want_read=*/true,
            /*want_write=*/false);
  thread_ = std::thread([this] { run_loop(); });
}

AuctioneerServer::~AuctioneerServer() {
  stop();
  if (thread_.joinable()) thread_.join();
  // Members now tear down in reverse order; pool_.stop() (via its
  // destructor) runs only after the loop thread is gone, and the
  // stopped-pool inline fallback covers any other pool user racing us.
}

void AuctioneerServer::stop() { stop_requested_.store(true); }

AuctioneerServer::Status AuctioneerServer::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

AuctioneerServer::Status AuctioneerServer::await_terminal() {
  std::unique_lock<std::mutex> lock(mutex_);
  status_cv_.wait(lock, [this] { return status_ != Status::kRunning; });
  return status_;
}

void AuctioneerServer::rethrow_failure() {
  std::exception_ptr failure;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    failure = failure_;
  }
  if (failure) std::rethrow_exception(failure);
  throw LppaError(ErrorKind::kState, "server failed without a stored error");
}

void AuctioneerServer::set_status(Status s) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // First terminal status wins: a publish followed by the stop-path
    // sweep must not demote kPublished to kFailed.
    if (status_ != Status::kRunning) return;
    status_ = s;
  }
  status_cv_.notify_all();
}

std::size_t AuctioneerServer::ticks_now(SteadyClock::time_point now) const {
  const auto elapsed = now - started_at_;
  return start_ticks_ +
         static_cast<std::size_t>(elapsed / server_config_.tick);
}

void AuctioneerServer::run_loop() {
  try {
    loop_body();
    set_status(Status::kFailed);  // stopped before the round completed
    std::lock_guard<std::mutex> lock(mutex_);
    if (!failure_) {
      failure_ = std::make_exception_ptr(LppaError(
          ErrorKind::kState, "server stopped before the round completed"));
    }
  } catch (const proto::CrashSignal&) {
    // The auctioneer process "died": in-memory session lost, journal
    // survives, every peer sees an RST — exactly what a kernel cleaning
    // up a dead process would send.
    ticks_used_ = ticks_now(SteadyClock::now());
    close_all_abortive();
    set_status(Status::kCrashed);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      failure_ = std::current_exception();
    }
    ticks_used_ = ticks_now(SteadyClock::now());
    close_all_abortive();
    set_status(Status::kFailed);
  }
}

void AuctioneerServer::loop_body() {
  obs::MetricsRegistry* const m = server_config_.metrics;
  started_at_ = SteadyClock::now();
  wave_armed_at_ = started_at_;
  next_wave_at_ =
      started_at_ + 2 * round_.hardened.backoff_ticks(wave_) *
                        server_config_.tick;

  // A restart that already committed admission (or allocation) goes
  // straight back to the protocol tail; reconnecting peers only ever
  // redeliver, which dedupes.
  proto::AuctioneerSession& session = core_.session();
  if (session.admission_closed()) {
    admission_open_ = false;
    commit_round();
  }

  // Scripted churn: apply the remaining departure/return schedule before
  // any submission is ingested.  Each operation is write-ahead journaled
  // inside the session call, so the kMidChurn checkpoint that follows it
  // models a crash with the operation durable but the round unfinished —
  // the restarted server replays the journal and resumes the schedule at
  // churn_next_.
  if (!session.admission_closed()) {
    while (churn_next_ < round_.churn.size()) {
      const SocketChurnOp& op = round_.churn[churn_next_];
      if (op.depart) {
        session.churn_depart(op.user);
      } else {
        session.churn_return(op.user);
      }
      ++churn_next_;
      if (crashes_ != nullptr) {
        crashes_->checkpoint(proto::CrashPoint::kMidChurn);
      }
    }
  }

  std::vector<EventLoop::Event> events;
  std::vector<Bytes> frames;
  std::vector<std::optional<proto::Envelope>> parsed;
  auto last_deadline_scan = started_at_;

  while (!stop_requested_.load()) {
    int timeout_ms = 20;
    if (admission_open_) {
      const auto now = SteadyClock::now();
      const auto until_wave = std::chrono::duration_cast<
          std::chrono::milliseconds>(next_wave_at_ - now).count();
      timeout_ms = static_cast<int>(std::clamp<long long>(until_wave, 0, 20));
    }
    loop_.wait(timeout_ms, events);
    const auto now = SteadyClock::now();

    bool accepted_any = false;
    for (const EventLoop::Event& ev : events) {
      if (ev.token == kListenerToken) {
        for (;;) {
          Fd fd = accept_on(listener_.get());
          if (!fd.valid()) break;
          if (peers_.size() >= server_config_.max_connections) {
            // Admission control: over the cap, close on sight.
            if (m != nullptr) m->counter("net.admission_rejected").inc();
            continue;  // fd destructor closes
          }
          const std::uint64_t id = next_conn_id_++;
          loop_.add(fd.get(), id, /*want_read=*/true, /*want_write=*/false);
          peers_.emplace(id, std::make_unique<Peer>(std::move(fd), id,
                                                    server_config_.limits,
                                                    now));
          if (m != nullptr) {
            m->counter("net.accepted").inc();
            m->gauge("net.connections")
                .set(static_cast<double>(peers_.size()));
          }
        }
        continue;
      }

      auto it = peers_.find(ev.token);
      if (it == peers_.end()) continue;  // evicted earlier this batch
      Peer& peer = *it->second;

      if (ev.readable || ev.hangup) {
        frames.clear();
        const Connection::Io io = peer.conn.on_readable(frames, now);
        if (!frames.empty()) {
          // Envelope parsing (a SHA-256 per frame) fans out over the
          // server's pool; results land in index-addressed slots so the
          // schedule is irrelevant.
          parsed.assign(frames.size(), std::nullopt);
          const std::size_t workers =
              std::min(frames.size() >= 4 ? pool_.worker_count() + 1 : 1,
                       frames.size());
          pool_.run(workers, [&](std::size_t w) {
            for (std::size_t i = w; i < frames.size(); i += workers) {
              try {
                parsed[i] = proto::Envelope::deserialize(frames[i]);
              } catch (const LppaError&) {
              }
            }
          });
          for (std::size_t i = 0; i < frames.size(); ++i) {
            if (m != nullptr) m->counter("net.frames_in").inc();
            if (peer.conn.frames_received > server_config_.max_frames_per_conn) {
              peer.doomed = true;
              if (m != nullptr) m->counter("net.evicted_budget").inc();
              break;
            }
            handle_frame(peer, frames[i], parsed[i], now);
            accepted_any = true;
            if (peer.doomed) break;
          }
        }
        if (peer.doomed) {
          evict(ev.token, /*abortive=*/false, "budget/backpressure");
          continue;
        }
        if (io == Connection::Io::kProtocolError) {
          if (m != nullptr) m->counter("net.protocol_errors").inc();
          ++report_->rejected_messages;
          evict(ev.token, /*abortive=*/false, "protocol");
          continue;
        }
        if (io == Connection::Io::kClosed) {
          evict(ev.token, /*abortive=*/false, "closed");
          continue;
        }
      }
      if (ev.writable) {
        if (peer.conn.on_writable(now) == Connection::Io::kClosed) {
          evict(ev.token, /*abortive=*/false, "closed");
          continue;
        }
      }
      loop_.mod(peer.conn.fd(), ev.token, /*want_read=*/true,
                peer.conn.wants_write());
    }

    // Completing the submission set closes admission without waiting for
    // the next wave timer.
    if (admission_open_ && accepted_any && core_.missing().empty()) {
      admission_open_ = false;
      commit_round();
    }

    if (admission_open_) drive_admission_timers(now);

    // Slow-loris / slow-reader sweep, amortised to 20 Hz.
    if (now - last_deadline_scan > std::chrono::milliseconds(50)) {
      last_deadline_scan = now;
      std::vector<std::uint64_t> expired;
      for (const auto& [id, peer] : peers_) {
        if (peer->conn.read_deadline_expired(now) ||
            peer->conn.write_deadline_expired(now)) {
          expired.push_back(id);
        }
      }
      for (const std::uint64_t id : expired) {
        if (m != nullptr) m->counter("net.evicted_deadline").inc();
        evict(id, /*abortive=*/false, "deadline");
      }
    }
  }
  ticks_used_ = std::max(ticks_used_, ticks_now(SteadyClock::now()));
}

void AuctioneerServer::handle_frame(Peer& peer, const Bytes& frame,
                                    const std::optional<proto::Envelope>& env,
                                    SteadyClock::time_point now) {
  // Published: the only service left is handing out the announcement —
  // any frame from any peer (a late joiner, a client that lost the
  // broadcast to a reset) is answered with it.
  if (!announcement_.empty()) {
    send_to_peer(peer, encode_frame(announcement_), now);
    return;
  }

  const bool is_submission =
      env.has_value() &&
      (env->type == proto::MessageType::kLocationSubmission ||
       env->type == proto::MessageType::kBidSubmission);

  using Ingest = proto::AuctioneerSession::IngestResult;
  const Ingest outcome = core_.ingest(frame);
  if (outcome == Ingest::kRejected || outcome == Ingest::kEquivocation) {
    return;  // no binding, no ack for garbage
  }

  if (!is_submission || env->sender >= num_users_) return;
  const auto su = static_cast<std::size_t>(env->sender);

  // (Re)bind the SU to this connection: nacks and the announcement go to
  // the latest socket the SU spoke on.  Duplicates rebind too — after a
  // server restart the redelivered bytes are how a reconnecting client
  // re-identifies itself.
  peer.conn.bound_su = su;
  su_conn_[su] = peer.conn.id();

  if (server_config_.ack_submissions) {
    // Acked for accepted AND duplicate outcomes: under at-least-once
    // delivery the client may be waiting on the ack of a redelivery.
    const std::uint8_t mask =
        env->type == proto::MessageType::kLocationSubmission
            ? proto::RetransmitRequest::kLocation
            : proto::RetransmitRequest::kBid;
    send_to_peer(peer, make_ack_frame(env->sender, mask), now);
  }
}

void AuctioneerServer::send_to_peer(Peer& peer, Bytes frame,
                                    SteadyClock::time_point now) {
  obs::MetricsRegistry* const m = server_config_.metrics;
  if (!peer.conn.enqueue(std::move(frame))) {
    // Backpressure bound hit: the peer is not draining; evict rather
    // than buffer without limit.
    peer.doomed = true;
    if (m != nullptr) m->counter("net.evicted_backpressure").inc();
    return;
  }
  if (m != nullptr) m->counter("net.frames_out").inc();
  peer.conn.on_writable(now);  // opportunistic flush; EAGAIN just parks
}

void AuctioneerServer::evict(std::uint64_t id, bool abortive,
                             const char* /*why*/) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return;
  Peer& peer = *it->second;
  loop_.del(peer.conn.fd());
  if (abortive) arm_abortive_close(peer.conn.fd());
  if (peer.conn.bound_su.has_value()) {
    auto bound = su_conn_.find(*peer.conn.bound_su);
    if (bound != su_conn_.end() && bound->second == id) su_conn_.erase(bound);
  }
  peers_.erase(it);
  if (server_config_.metrics != nullptr) {
    server_config_.metrics->gauge("net.connections")
        .set(static_cast<double>(peers_.size()));
  }
}

void AuctioneerServer::close_all_abortive() {
  std::vector<std::uint64_t> ids;
  ids.reserve(peers_.size());
  for (const auto& [id, peer] : peers_) ids.push_back(id);
  for (const std::uint64_t id : ids) evict(id, /*abortive=*/true, "crash");
  listener_ = Fd();  // stop accepting; the driver rebinds on restart
}

void AuctioneerServer::drive_admission_timers(SteadyClock::time_point now) {
  if (now < next_wave_at_) return;
  obs::MetricsRegistry* const m = server_config_.metrics;
  const auto arm_next_wave = [&] {
    wave_armed_at_ = now;
    next_wave_at_ =
        now + 2 * round_.hardened.backoff_ticks(wave_) * server_config_.tick;
  };

  const auto verdict = core_.admission_step(wave_, ticks_now(now));
  if (verdict == proto::RoundCore::Admission::kExhausted &&
      final_wave_deferrals_ < round_.hardened.max_retries) {
    // A slow link is not a silent SU: while any connection is mid-frame
    // or has delivered bytes since the last wave, ingest is still making
    // progress, and the final wave waits (boundedly) instead of striking.
    // Any connection, not only the missing SUs' own: SUs can share a
    // sender or a link, so a missing SU's bytes queue behind another's.
    const bool receiving = std::any_of(
        peers_.begin(), peers_.end(), [&](const auto& entry) {
          const Connection& conn = entry.second->conn;
          return conn.mid_frame() ||
                 conn.last_read_progress() > wave_armed_at_;
        });
    if (receiving) {
      ++final_wave_deferrals_;
      arm_next_wave();
      return;
    }
  }
  if (verdict != proto::RoundCore::Admission::kNack) {
    admission_open_ = false;
    commit_round();
    return;
  }

  for (const std::size_t u : core_.missing()) {
    const Bytes nack = core_.nack(u, wave_);
    if (m != nullptr) m->counter("net.nacks").inc();
    const auto bound = su_conn_.find(u);
    if (bound == su_conn_.end()) continue;  // not (re)connected yet
    const auto it = peers_.find(bound->second);
    if (it == peers_.end()) continue;
    Peer& peer = *it->second;
    send_to_peer(peer, encode_frame(nack), now);
    if (peer.doomed) {
      evict(bound->second, /*abortive=*/false, "backpressure");
    } else {
      loop_.mod(peer.conn.fd(), peer.conn.id(), /*want_read=*/true,
                peer.conn.wants_write());
    }
  }
  arm_next_wave();
  ++wave_;
}

void AuctioneerServer::commit_round() {
  obs::MetricsRegistry* const m = server_config_.metrics;
  core_.commit();

  // Charging against the co-located TTP service.  The budget check stays
  // (parity with the bus driver's loop shape) even though the in-process
  // call cannot lose batches.
  proto::AuctioneerSession& session = core_.session();
  const std::vector<Bytes> queries = session.charge_query_envelopes();
  while (!session.charging_complete()) {
    core_.charge_attempt();
    for (const Bytes& query : queries) {
      core_.charge(ttp_service_.handle(query));
    }
  }

  announcement_ = core_.publish();
  const auto now = SteadyClock::now();
  ticks_used_ = ticks_now(now);
  if (m != nullptr) m->counter("net.published_rounds").inc();
  set_status(Status::kPublished);

  // Push the announcement to every open connection — it is the public
  // broadcast the bus delivers to everyone, including SUs the round
  // excluded (whose connections may never have identified themselves).
  // Anyone not connected right now gets it as the reply to their next
  // frame.
  const Bytes frame = encode_frame(announcement_);
  std::vector<std::uint64_t> doomed;
  for (const auto& [id, peer_ptr] : peers_) {
    Peer& peer = *peer_ptr;
    send_to_peer(peer, frame, now);
    if (peer.doomed) {
      doomed.push_back(id);
    } else {
      loop_.mod(peer.conn.fd(), peer.conn.id(), /*want_read=*/true,
                peer.conn.wants_write());
    }
  }
  for (const std::uint64_t id : doomed) {
    evict(id, /*abortive=*/false, "backpressure");
  }
}

}  // namespace lppa::net
