// Per-connection state machine: framing, bounded write queue, deadlines.
//
// A Connection owns one nonblocking stream socket plus everything the
// server (or client pool) needs to survive a hostile peer:
//
//   * torn frames   — reads go through an incremental FrameDecoder, so
//                     any chunking (down to single bytes) reassembles;
//   * partial writes— the outbound side is a queue of byte buffers with
//                     a cursor; EAGAIN mid-buffer just parks the rest
//                     until the next EPOLLOUT;
//   * slow-loris    — progress deadlines: a peer that keeps the
//                     connection open but never completes a frame (or
//                     never drains its inbound side while we have
//                     queued output) trips read/write deadlines and is
//                     evicted by the owner;
//   * memory bombs  — enqueue() refuses to grow the write queue past
//                     max_write_queue_bytes (the owner evicts the slow
//                     client), and the decoder caps frame length.
//
// Connections never run their own thread; the owning event loop calls
// on_readable / on_writable and polls deadlines.  docs/robustness.md
// has the lifecycle diagram.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>

#include "net/frame.h"
#include "net/socket.h"

namespace lppa::net {

using SteadyClock = std::chrono::steady_clock;

/// Hard limits every connection is held to; the admission-control half
/// lives in ServerConfig (connection count, per-peer frame budget).
struct TransportLimits {
  std::size_t max_write_queue_bytes = 1u << 20;  ///< backpressure bound
  /// A peer with an incomplete inbound frame (or no frame yet) must make
  /// byte progress within this window — the slow-loris gate.
  std::chrono::milliseconds read_deadline{2000};
  /// A peer must drain our queued output within this window.
  std::chrono::milliseconds write_deadline{2000};
  /// recv() calls per on_readable call before yielding back to the loop
  /// — fairness: one chatty peer cannot starve the rest of a tick.
  /// Every byte read IS fully decoded before yielding (leftover buffer
  /// is always an incomplete frame), so nothing decodable is stranded
  /// waiting for an epoll event that will never fire.
  std::size_t max_reads_per_burst = 4;
};

class Connection {
 public:
  enum class Io : std::uint8_t {
    kOk,             ///< progressed (possibly zero bytes ready)
    kClosed,         ///< orderly EOF or ECONNRESET from the peer
    kProtocolError,  ///< framing violation; stream is unusable
  };

  Connection(Fd fd, std::uint64_t id, const TransportLimits& limits,
             SteadyClock::time_point now);

  std::uint64_t id() const noexcept { return id_; }
  int fd() const noexcept { return fd_.get(); }

  /// Drains the socket (until EAGAIN or the burst cap) and appends every
  /// completed frame payload to `frames`.
  Io on_readable(std::vector<Bytes>& frames, SteadyClock::time_point now);

  /// Flushes the write queue until EAGAIN or empty.
  Io on_writable(SteadyClock::time_point now);

  /// Queues one pre-encoded frame; false when the queue would exceed
  /// max_write_queue_bytes (the caller evicts — backpressure is an
  /// eviction decision, not silent truncation).
  bool enqueue(Bytes frame);

  bool wants_write() const noexcept { return !write_queue_.empty(); }
  std::size_t queued_bytes() const noexcept { return queued_bytes_; }

  /// Deadline checks, evaluated by the owner's timer scan.  A read
  /// deadline only arms while the peer owes us bytes (mid-frame, or
  /// nothing valid received yet): an idle bound client waiting for the
  /// announcement is not a slow-loris.
  bool read_deadline_expired(SteadyClock::time_point now) const;
  bool write_deadline_expired(SteadyClock::time_point now) const;

  /// True while the decoder holds the start of a frame not yet complete.
  bool mid_frame() const noexcept { return decoder_.buffered() > 0; }
  /// When the peer last delivered bytes (construction time until then).
  SteadyClock::time_point last_read_progress() const noexcept {
    return last_read_progress_;
  }

  /// SU index this connection authenticated as (first accepted
  /// envelope's sender); unbound connections cannot receive nacks.
  std::optional<std::size_t> bound_su;
  /// Total frames the peer delivered (valid or not) — the per-peer
  /// admission budget the server enforces.
  std::size_t frames_received = 0;
  /// True once at least one complete frame arrived.
  bool saw_frame = false;

 private:
  Fd fd_;
  std::uint64_t id_;
  TransportLimits limits_;
  FrameDecoder decoder_;
  std::deque<Bytes> write_queue_;
  std::size_t write_offset_ = 0;  ///< consumed prefix of the front buffer
  std::size_t queued_bytes_ = 0;
  SteadyClock::time_point last_read_progress_;
  SteadyClock::time_point write_blocked_since_{};  ///< zero = not blocked
};

}  // namespace lppa::net
