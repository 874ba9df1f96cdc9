// Transport-level robustness of src/net: connection state machine
// (backpressure bounds, partial writes, progress deadlines), server
// admission control, slow-loris eviction, and deterministic teardown of
// an AuctioneerServer with frames still queued (the ThreadPool shutdown
// ordering contract).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <thread>

#include "common/thread_pool.h"
#include "net/connection.h"
#include "net/server.h"
#include "proto/journal.h"
#include "wire_world.h"

namespace lppa::net {
namespace {

using namespace std::chrono_literals;

// Raw-socket helpers for playing the hostile client.
void wait_writable(int fd, int timeout_ms = 2000) {
  pollfd p{fd, POLLOUT, 0};
  ASSERT_GT(::poll(&p, 1, timeout_ms), 0) << "connect did not complete";
  ASSERT_EQ(take_socket_error(fd), 0);
}

void send_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
    pollfd p{fd, POLLOUT, 0};
    ::poll(&p, 1, 100);
  }
}

/// True when the peer closed (EOF or reset) within `timeout_ms`.
bool closed_within(int fd, int timeout_ms) {
  const auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
  std::uint8_t buf[256];
  while (SteadyClock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return true;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return true;  // ECONNRESET counts as closed
    }
    std::this_thread::sleep_for(5ms);
  }
  return false;
}

/// An AuctioneerServer wired to throwaway round state, parked in a long
/// admission phase so transport behaviour can be probed.
struct ServerFixture {
  WireWorld world = make_world(4, 2, 11);
  core::TrustedThirdParty ttp{world.config.bid, 77};
  proto::RoundJournal journal;
  proto::RoundReport report;
  ServerConfig server_config;
  SocketRoundOptions round;
  std::unique_ptr<AuctioneerServer> server;

  explicit ServerFixture(TransportLimits limits = {},
                         std::size_t max_connections = 64) {
    server_config.limits = limits;
    server_config.max_connections = max_connections;
    server_config.tick = std::chrono::microseconds(1000);
    // Park admission for a long time: waves every ~200 ms, many retries.
    round.hardened.backoff_base_ticks = 100;
    round.hardened.max_retries = 50;
    server = std::make_unique<AuctioneerServer>(
        world.config, world.bids.size(), server_config, round,
        std::vector<bool>(world.bids.size(), true), ttp, /*seed=*/5,
        &journal, &report, /*crashes=*/nullptr, /*start_ticks=*/0);
  }
};

TEST(Connection, BackpressureBoundRefusesEnqueue) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  TransportLimits limits;
  limits.max_write_queue_bytes = 64;
  const auto now = SteadyClock::now();
  Connection conn(Fd(sv[0]), 1, limits, now);
  Fd peer(sv[1]);

  EXPECT_TRUE(conn.enqueue(Bytes(40, 0xAA)));
  EXPECT_TRUE(conn.enqueue(Bytes(24, 0xBB)));  // exactly at the bound
  EXPECT_FALSE(conn.enqueue(Bytes(1, 0xCC)));  // over → eviction signal
  EXPECT_EQ(conn.queued_bytes(), 64u);
}

TEST(Connection, PartialWritesKeepCursorAndDeadline) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  // Shrink the send buffer so EAGAIN is reachable quickly.
  const int small = 4096;
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);

  TransportLimits limits;
  limits.max_write_queue_bytes = 1u << 22;
  limits.write_deadline = std::chrono::milliseconds(50);
  auto now = SteadyClock::now();
  Connection conn(Fd(sv[0]), 1, limits, now);
  Fd peer(sv[1]);

  // Queue far more than the kernel will take without a reader.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(conn.enqueue(Bytes(16 * 1024, 0x5A)));
  }
  ASSERT_EQ(conn.on_writable(now), Connection::Io::kOk);
  EXPECT_TRUE(conn.wants_write());  // blocked mid-queue
  EXPECT_FALSE(conn.write_deadline_expired(now));
  EXPECT_TRUE(conn.write_deadline_expired(now + 60ms));

  // Draining the peer un-blocks the writer and clears the deadline.
  std::vector<std::uint8_t> sink(1 << 16);
  std::size_t guard = 0;
  while (conn.wants_write() && guard++ < 10000) {
    while (::recv(sv[1], sink.data(), sink.size(), 0) > 0) {
    }
    now = SteadyClock::now();
    ASSERT_EQ(conn.on_writable(now), Connection::Io::kOk);
  }
  EXPECT_FALSE(conn.wants_write());
  EXPECT_FALSE(conn.write_deadline_expired(now + 1h));
}

TEST(Connection, ReadDeadlineArmsOnlyWhileOwedBytes) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  TransportLimits limits;
  limits.read_deadline = std::chrono::milliseconds(100);
  const auto now = SteadyClock::now();
  Connection conn(Fd(sv[0]), 1, limits, now);
  Fd peer(sv[1]);

  // Never said anything: classic slow-loris, deadline armed.
  EXPECT_FALSE(conn.read_deadline_expired(now));
  EXPECT_TRUE(conn.read_deadline_expired(now + 150ms));

  // Deliver one complete frame: the peer owes nothing, deadline disarmed.
  const Bytes frame = encode_frame(Bytes(8, 0x42));
  ASSERT_EQ(::send(sv[1], frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  std::vector<Bytes> frames;
  ASSERT_EQ(conn.on_readable(frames, now + 10ms), Connection::Io::kOk);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_FALSE(conn.read_deadline_expired(now + 10h));

  // A half frame re-arms it.
  ASSERT_EQ(::send(sv[1], frame.data(), 3, 0), 3);
  frames.clear();
  const auto later = SteadyClock::now();
  ASSERT_EQ(conn.on_readable(frames, later), Connection::Io::kOk);
  EXPECT_TRUE(frames.empty());
  EXPECT_FALSE(conn.read_deadline_expired(later + 50ms));
  EXPECT_TRUE(conn.read_deadline_expired(later + 150ms));
}

TEST(AuctioneerServer, AdmissionControlClosesExcessConnections) {
  ServerFixture fx({}, /*max_connections=*/2);

  Fd c1 = connect_to(fx.server->endpoint());
  Fd c2 = connect_to(fx.server->endpoint());
  wait_writable(c1.get());
  wait_writable(c2.get());
  // Give the accept loop a beat to register both.
  std::this_thread::sleep_for(50ms);

  Fd c3 = connect_to(fx.server->endpoint());
  wait_writable(c3.get());
  EXPECT_TRUE(closed_within(c3.get(), 2000))
      << "third connection should be closed by admission control";
  // The admitted pair stays open.
  EXPECT_FALSE(closed_within(c1.get(), 100));
}

TEST(AuctioneerServer, SlowLorisIsEvictedCompleteTalkerIsNot) {
  TransportLimits limits;
  limits.read_deadline = std::chrono::milliseconds(100);
  ServerFixture fx(limits);

  // Loris: opens, delivers three bytes of a valid frame, stalls.
  Fd loris = connect_to(fx.server->endpoint());
  wait_writable(loris.get());
  const Bytes frame = encode_frame(Bytes(32, 0x99));  // garbage envelope
  send_all(loris.get(), std::span<const std::uint8_t>(frame.data(), 3));

  // Honest-but-garbled: delivers one COMPLETE frame (the envelope inside
  // is garbage — a strike, not a transport offence) and goes idle.
  Fd talker = connect_to(fx.server->endpoint());
  wait_writable(talker.get());
  send_all(talker.get(), frame);

  EXPECT_TRUE(closed_within(loris.get(), 3000)) << "slow-loris not evicted";
  EXPECT_FALSE(closed_within(talker.get(), 300))
      << "idle-but-complete client must not trip the read deadline";
}

TEST(AuctioneerServer, DestructionWithQueuedFramesIsDeterministic) {
  // Frames still in flight / queued when the server dies: teardown must
  // drain or cancel deterministically — never hang, never crash.  This
  // pins the ThreadPool::stop ordering contract the destructor relies
  // on.
  for (int iteration = 0; iteration < 3; ++iteration) {
    ServerFixture fx;
    std::vector<Fd> clients;
    const Bytes frame = encode_frame(Bytes(64, 0x7F));
    for (int i = 0; i < 8; ++i) {
      clients.push_back(connect_to(fx.server->endpoint()));
      wait_writable(clients.back().get());
      for (int j = 0; j < 4; ++j) send_all(clients.back().get(), frame);
    }
    // Destroy with traffic still arriving.
    fx.server.reset();
  }
  SUCCEED();
}

TEST(ThreadPool, RunAfterStopExecutesInlineInOrder) {
  ThreadPool pool(2);
  pool.stop();
  // A stopped pool must not enqueue (nobody would ever pop): run()
  // degrades to inline, ascending-w execution on the caller.
  std::vector<std::size_t> order;
  pool.run(4, [&](std::size_t w) { order.push_back(w); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));

  // Idempotent stop, and exceptions still propagate inline.
  pool.stop();
  EXPECT_THROW(
      pool.run(2,
               [](std::size_t w) {
                 if (w == 1) throw LppaError(ErrorKind::kState, "boom");
               }),
      LppaError);
}

TEST(ThreadPool, StopDrainsQueuedWorkBeforeJoining) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    pool.run(3, [&](std::size_t) {
      std::this_thread::sleep_for(10ms);
      ran.fetch_add(1);
    });
    pool.stop();  // explicit stop, then destructor's stop is a no-op
  }
  EXPECT_EQ(ran.load(), 3);
}

}  // namespace
}  // namespace lppa::net
