// Node-to-node transport abstraction.
//
// The paper's architecture-dependent layer uses "MPI or sockets" between
// nodes. Two implementations ship: an in-memory fabric (fast,
// deterministic) and a real TCP mesh on an epoll event loop
// (epoll_transport.hpp), set up in-process or across processes.
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
  /// Throws std::runtime_error when `dst` is not a node of the fabric
  /// (outside [0, node_count())) or, on TCP, a peer that was never
  /// connected. A frame to a connected peer that has since died is lost
  /// silently.
  virtual void send(int dst, std::vector<std::uint8_t> frame) = 0;

  /// Waits up to `timeout` for an incoming frame. Returns false on
  /// timeout; true with `frame` filled otherwise.
  virtual bool recv(std::vector<std::uint8_t>& frame,
                    std::chrono::microseconds timeout) = 0;

  [[nodiscard]] virtual int node_id() const = 0;
  [[nodiscard]] virtual int node_count() const = 0;
};

/// Sends without throwing, for traffic that a retry, a probe or a deadline
/// recovers: a send that would throw (an unknown node, or a peer that was
/// never connected) just loses the frame. Returns false when it did.
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
/// endpoints in this process. Each endpoint runs one epoll reactor thread
/// over nonblocking sockets, coalesces outbound frames into scatter-gather
/// writev batches and decodes its receive stream (docs/WIRE.md). Throws
/// std::runtime_error on socket errors. An EpollOptions overload lives in
/// epoll_transport.hpp.
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
