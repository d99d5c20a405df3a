// Event-loop TCP transport, the only one: nonblocking sockets on one
// epoll reactor, per-connection outbound queues coalesced into
// scatter-gather writev batches, and a streaming decoder that handles any
// number of coalesced or partial frames per recv (docs/WIRE.md).
//
// An 8-peer endpoint runs ONE loop thread, send() never blocks on the
// socket, and frames queued while the loop is busy leave in a single
// writev. Every frame travels as a 4-byte little-endian length prefix and
// its bytes.
//
// Threading: send() from any thread (enqueue + wake); one consumer calls
// recv(); all socket IO happens on the loop thread. A peer that dies mid-
// stream is detached — subsequent sends to it are counted and dropped,
// mirroring a lost frame, which the serve retry layer already handles.
#pragma once

#include <cstdint>
#include <vector>

#include "anahy/observe/exposition.hpp"
#include "cluster/transport.hpp"

namespace cluster {

/// Tuning of the event-loop endpoint. Defaults are production settings;
/// tests shrink max_io_bytes to force partial reads and writes through
/// the exact short-IO resume paths a congested network exercises.
struct EpollOptions {
  /// Cap on bytes moved per writev/recv syscall (0 = unlimited). Tests
  /// set a tiny cap so every frame crosses in dribbles.
  std::size_t max_io_bytes = 0;

  /// Frames coalesced into one writev (2 iovecs each: prefix + body).
  std::size_t max_frames_per_writev = 64;
};

/// Monotonic IO tallies of one endpoint. `writev_calls` vs `tx_frames`
/// gives the achieved batching factor; `rx_partial_reads` counts recv
/// calls that ended inside a frame (the streaming decoder retained a
/// tail).
struct WireCounters {
  std::uint64_t writev_calls = 0;
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t tx_partial_writes = 0;  ///< writev ended inside a frame
  std::uint64_t tx_eagain = 0;          ///< socket full; EPOLLOUT armed
  std::uint64_t tx_dropped_dead = 0;    ///< sends to a detached peer
  std::uint64_t recv_calls = 0;
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t rx_partial_reads = 0;  ///< recv left an incomplete frame
};

/// Implemented by transports that can report wire-level IO counters.
/// Decorators (anahy::fault::FaultyTransport) forward to their inner
/// endpoint so the rows survive wrapping.
class WireStatsSource {
 public:
  virtual ~WireStatsSource() = default;
  [[nodiscard]] virtual WireCounters wire_counters() const = 0;
};

/// The counters as observe exposition rows
/// (`anahy_wire_writev_total`, `anahy_wire_tx_frames_total`, ...), ready
/// for the `counters` argument of observe::render_text.
[[nodiscard]] std::vector<anahy::observe::ExtraCounter> wire_counter_rows(
    const WireCounters& c);

/// Builds an `n`-node loopback mesh of event-loop endpoints, like
/// make_epoll_fabric(n) with explicit options. Throws std::runtime_error
/// on socket errors.
std::vector<std::unique_ptr<Transport>> make_epoll_fabric(
    int n, const EpollOptions& opts);

namespace detail {

/// Node `id`'s event-loop endpoint over its connected sockets:
/// `fds[peer]` is the socket to `peer`, -1 for self or an absent link, and
/// the node count is `fds.size()`. Takes ownership of the sockets, flips
/// them nonblocking and starts the loop thread. The endpoint is also a
/// WireStatsSource. Used by the TCP bootstraps (tcp_bootstrap.cpp).
std::unique_ptr<Transport> make_epoll_endpoint(int id, std::vector<int> fds,
                                               EpollOptions opts = {});

}  // namespace detail

}  // namespace cluster
