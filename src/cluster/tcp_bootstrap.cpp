// Every TCP connection the cluster uses is set up here; the sockets are
// then handed to the event-loop endpoint (epoll_transport.cpp), which
// moves the bytes.
//
// Single-process loopback mesh (make_epoll_fabric): every node pair is
// connected by one socket over 127.0.0.1.
//
// Multi-process bootstrap: one coordinator process (node 0) plus n-1
// worker processes, possibly on different hosts — the deployment the
// paper's future work describes. Protocol:
//   1. workers open their own listeners, then connect to the coordinator
//      and register ('R' + own listen port); that registration socket
//      stays as the coordinator<->worker data link.
//   2. the coordinator assigns ids in registration order and sends every
//      worker the table (id, n, then address:port of workers 1..n-1).
//   3. workers mesh among themselves: higher id connects to lower id
//      ('M' + id), lower id accepts on its listener.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>

#include "cluster/epoll_transport.hpp"
#include "cluster/transport.hpp"

namespace cluster {
namespace {

using detail::make_epoll_endpoint;

constexpr std::uint8_t kTagRegister = 'R';
constexpr std::uint8_t kTagMesh = 'M';

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;  // interrupted, not dead
    if (w <= 0) throw std::runtime_error("tcp send failed");
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r < 0 && errno == EINTR) continue;  // interrupted, not dead
    if (r <= 0) return false;               // peer closed / error
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// accept() with EINTR retry: a signal during the blocking wait must not
/// be mistaken for a failed bootstrap.
int accept_retry(int listen_fd, sockaddr* addr, socklen_t* len) {
  for (;;) {
    const int fd = ::accept(listen_fd, addr, len);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

/// A listening socket on `ip_host:port` (host byte order; port 0 picks an
/// ephemeral one, reported through `bound_port`).
int make_listener(std::uint32_t ip_host, std::uint16_t port,
                  std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ip_host);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("bind() failed (port in use?)");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  if (bound_port != nullptr) *bound_port = ntohs(addr.sin_port);
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    throw std::runtime_error("listen() failed");
  }
  return fd;
}

int connect_with_retry(std::uint32_t ip_be, std::uint16_t port,
                       std::chrono::seconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = ip_be;
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      set_nodelay(fd);
      return fd;
    }
    ::close(fd);
    if (std::chrono::steady_clock::now() >= until)
      throw std::runtime_error("connect retry deadline exceeded");
    ::usleep(50'000);
  }
}

/// The fd table of a fully-connected loopback mesh: result[i][j] is node
/// i's socket to node j (-1 on the diagonal). Node i connects to node j for
/// i < j and j accepts; the connector sends its id as the first byte so the
/// accept side can verify.
std::vector<std::vector<int>> loopback_mesh_fds(int n) {
  std::vector<int> listen_fd(static_cast<std::size_t>(n), -1);
  std::vector<std::uint16_t> port(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i)
    listen_fd[static_cast<std::size_t>(i)] = make_listener(
        INADDR_LOOPBACK, 0, &port[static_cast<std::size_t>(i)]);

  std::vector<std::vector<int>> fds(
      static_cast<std::size_t>(n),
      std::vector<int>(static_cast<std::size_t>(n), -1));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const int cfd = connect_with_retry(htonl(INADDR_LOOPBACK),
                                         port[static_cast<std::size_t>(j)],
                                         std::chrono::seconds(0));
      const std::uint8_t idbyte = static_cast<std::uint8_t>(i);
      write_all(cfd, &idbyte, 1);

      const int afd = accept_retry(listen_fd[static_cast<std::size_t>(j)],
                                   nullptr, nullptr);
      if (afd < 0) throw std::runtime_error("accept() failed");
      set_nodelay(afd);
      std::uint8_t got = 0;
      if (!read_all(afd, &got, 1) || got != idbyte)
        throw std::runtime_error("tcp mesh handshake failed");

      fds[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = cfd;
      fds[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = afd;
    }
  }
  for (const int fd : listen_fd) ::close(fd);
  return fds;
}

}  // namespace

std::vector<std::unique_ptr<Transport>> make_epoll_fabric(
    int n, const EpollOptions& opts) {
  auto fds = loopback_mesh_fds(n);
  std::vector<std::unique_ptr<Transport>> endpoints;
  endpoints.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    endpoints.push_back(make_epoll_endpoint(
        i, std::move(fds[static_cast<std::size_t>(i)]), opts));
  return endpoints;
}

std::vector<std::unique_ptr<Transport>> make_epoll_fabric(int n) {
  return make_epoll_fabric(n, EpollOptions{});
}

std::unique_ptr<Transport> tcp_coordinator(std::uint16_t port, int n) {
  if (n < 1) throw std::invalid_argument("cluster needs >= 1 node");
  std::vector<int> peer_fd(static_cast<std::size_t>(n), -1);
  if (n == 1) return make_epoll_endpoint(0, std::move(peer_fd));

  const int listener = make_listener(INADDR_ANY, port, nullptr);
  std::vector<std::uint32_t> worker_ip(static_cast<std::size_t>(n), 0);
  std::vector<std::uint16_t> worker_port(static_cast<std::size_t>(n), 0);

  for (int next_id = 1; next_id < n; ++next_id) {
    sockaddr_in peer{};
    socklen_t plen = sizeof(peer);
    const int fd = accept_retry(
        listener, reinterpret_cast<sockaddr*>(&peer), &plen);
    if (fd < 0) throw std::runtime_error("accept() failed");
    set_nodelay(fd);
    std::uint8_t tag = 0;
    std::uint8_t port_bytes[2];
    if (!read_all(fd, &tag, 1) || tag != kTagRegister ||
        !read_all(fd, port_bytes, 2))
      throw std::runtime_error("bad registration");
    worker_ip[static_cast<std::size_t>(next_id)] = peer.sin_addr.s_addr;
    worker_port[static_cast<std::size_t>(next_id)] =
        static_cast<std::uint16_t>(port_bytes[0] | (port_bytes[1] << 8));
    peer_fd[static_cast<std::size_t>(next_id)] = fd;
  }
  ::close(listener);

  // Broadcast assignments: id, n, then the worker table (ids 1..n-1).
  for (int id = 1; id < n; ++id) {
    std::vector<std::uint8_t> msg;
    msg.push_back(static_cast<std::uint8_t>(id));
    msg.push_back(static_cast<std::uint8_t>(n));
    for (int w = 1; w < n; ++w) {
      const std::uint32_t ip = worker_ip[static_cast<std::size_t>(w)];
      msg.push_back(static_cast<std::uint8_t>(ip & 0xFF));
      msg.push_back(static_cast<std::uint8_t>((ip >> 8) & 0xFF));
      msg.push_back(static_cast<std::uint8_t>((ip >> 16) & 0xFF));
      msg.push_back(static_cast<std::uint8_t>((ip >> 24) & 0xFF));
      const std::uint16_t p = worker_port[static_cast<std::size_t>(w)];
      msg.push_back(static_cast<std::uint8_t>(p & 0xFF));
      msg.push_back(static_cast<std::uint8_t>((p >> 8) & 0xFF));
    }
    write_all(peer_fd[static_cast<std::size_t>(id)], msg.data(), msg.size());
  }

  // The multi-process deployment rides the same batched epoll wire path
  // as the loopback fabric (docs/WIRE.md).
  return make_epoll_endpoint(0, std::move(peer_fd));
}

std::unique_ptr<Transport> tcp_worker(const std::string& host,
                                      std::uint16_t port) {
  std::uint16_t my_port = 0;
  const int listener = make_listener(INADDR_ANY, 0, &my_port);

  in_addr coord_addr{};
  if (::inet_pton(AF_INET, host.c_str(), &coord_addr) != 1) {
    ::close(listener);
    throw std::invalid_argument("tcp_worker: host must be an IPv4 address");
  }
  const int coord_fd = connect_with_retry(coord_addr.s_addr, port,
                                          std::chrono::seconds(10));
  const std::uint8_t reg[3] = {kTagRegister,
                               static_cast<std::uint8_t>(my_port & 0xFF),
                               static_cast<std::uint8_t>(my_port >> 8)};
  write_all(coord_fd, reg, sizeof(reg));

  std::uint8_t id = 0;
  std::uint8_t n = 0;
  if (!read_all(coord_fd, &id, 1) || !read_all(coord_fd, &n, 1))
    throw std::runtime_error("coordinator closed during bootstrap");
  std::vector<std::uint32_t> worker_ip(n, 0);
  std::vector<std::uint16_t> worker_port(n, 0);
  for (int w = 1; w < n; ++w) {
    std::uint8_t entry[6];
    if (!read_all(coord_fd, entry, sizeof(entry)))
      throw std::runtime_error("truncated worker table");
    worker_ip[static_cast<std::size_t>(w)] =
        static_cast<std::uint32_t>(entry[0]) |
        (static_cast<std::uint32_t>(entry[1]) << 8) |
        (static_cast<std::uint32_t>(entry[2]) << 16) |
        (static_cast<std::uint32_t>(entry[3]) << 24);
    worker_port[static_cast<std::size_t>(w)] =
        static_cast<std::uint16_t>(entry[4] | (entry[5] << 8));
  }

  std::vector<int> peer_fd(n, -1);
  peer_fd[0] = coord_fd;

  // Connect to every lower-id worker; they accept.
  for (int w = 1; w < id; ++w) {
    const int fd = connect_with_retry(worker_ip[static_cast<std::size_t>(w)],
                                      worker_port[static_cast<std::size_t>(w)],
                                      std::chrono::seconds(10));
    const std::uint8_t hello[2] = {kTagMesh, id};
    write_all(fd, hello, sizeof(hello));
    peer_fd[static_cast<std::size_t>(w)] = fd;
  }
  // Accept from every higher-id worker.
  for (int expected = id + 1; expected < n; ++expected) {
    const int fd = accept_retry(listener, nullptr, nullptr);
    if (fd < 0) throw std::runtime_error("mesh accept() failed");
    set_nodelay(fd);
    std::uint8_t tag = 0;
    std::uint8_t who = 0;
    if (!read_all(fd, &tag, 1) || tag != kTagMesh || !read_all(fd, &who, 1) ||
        who <= id || who >= n)
      throw std::runtime_error("bad mesh hello");
    peer_fd[who] = fd;
  }
  ::close(listener);

  return make_epoll_endpoint(id, std::move(peer_fd));
}

}  // namespace cluster
