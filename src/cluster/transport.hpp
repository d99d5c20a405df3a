// Node-to-node transport abstraction.
//
// The paper's architecture-dependent layer uses "MPI or sockets" between
// nodes. Implementations ship here: an in-memory fabric (fast,
// deterministic) and real TCP meshes, blocking and event-loop.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cluster {

/// One node's endpoint into the fabric. Thread-safe: any thread may send;
/// one pump thread receives.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Queues `frame` for delivery to node `dst`. Sending to self is legal.
  virtual void send(int dst, std::vector<std::uint8_t> frame) = 0;

  /// Waits up to `timeout` for an incoming frame. Returns false on
  /// timeout; true with `frame` filled otherwise.
  virtual bool recv(std::vector<std::uint8_t>& frame,
                    std::chrono::microseconds timeout) = 0;

  [[nodiscard]] virtual int node_id() const = 0;
  [[nodiscard]] virtual int node_count() const = 0;
};

/// Sends without throwing: a severed peer (TCP throws) just loses the
/// frame, for traffic that a retry, a probe or a deadline recovers.
/// Returns false when the frame was lost.
inline bool send_soft(Transport& transport, int dst,
                      std::vector<std::uint8_t> frame) {
  try {
    transport.send(dst, std::move(frame));
    return true;
  } catch (...) {
    return false;
  }
}

/// Builds an `n`-node in-memory fabric; frames are delivered immediately
/// (inject delay with anahy::fault::FaultyTransport). Endpoint i is the
/// transport of node i.
std::vector<std::unique_ptr<Transport>> make_memory_fabric(int n);

/// Builds an `n`-node mesh of real TCP connections over 127.0.0.1, all
/// endpoints in this process. Throws std::runtime_error on socket errors.
/// Endpoints are the blocking one-reader-thread-per-peer kind; the hot
/// serve path prefers make_epoll_fabric (same wire format, event-loop IO).
std::vector<std::unique_ptr<Transport>> make_tcp_fabric(int n);

/// Builds the same loopback TCP mesh with event-loop endpoints: one epoll
/// reactor thread per endpoint, nonblocking sockets, outbound frames
/// coalesced into scatter-gather writev batches, streaming receive
/// (docs/WIRE.md). An EpollOptions overload lives in epoll_transport.hpp.
std::vector<std::unique_ptr<Transport>> make_epoll_fabric(int n);

/// Multi-process deployment (the paper's actual cluster scenario): the
/// coordinator process is node 0 and blocks until n-1 workers registered
/// and the full mesh is up. Workers call tcp_worker with the
/// coordinator's IPv4 address; ids are assigned in registration order.
/// Both calls block during bootstrap and throw std::runtime_error on
/// protocol or socket failures.
std::unique_ptr<Transport> tcp_coordinator(std::uint16_t port, int n);
std::unique_ptr<Transport> tcp_worker(const std::string& host,
                                      std::uint16_t port);

}  // namespace cluster
