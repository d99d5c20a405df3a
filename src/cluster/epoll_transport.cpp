#include "cluster/epoll_transport.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "cluster/event_loop.hpp"
#include "cluster/stream_decoder.hpp"

namespace cluster {

std::vector<anahy::observe::ExtraCounter> wire_counter_rows(
    const WireCounters& c) {
  return {
      {"anahy_wire_writev_total", "", c.writev_calls},
      {"anahy_wire_tx_frames_total", "", c.tx_frames},
      {"anahy_wire_tx_bytes_total", "", c.tx_bytes},
      {"anahy_wire_tx_partial_writes_total", "", c.tx_partial_writes},
      {"anahy_wire_tx_eagain_total", "", c.tx_eagain},
      {"anahy_wire_tx_dropped_dead_total", "", c.tx_dropped_dead},
      {"anahy_wire_recv_total", "", c.recv_calls},
      {"anahy_wire_rx_frames_total", "", c.rx_frames},
      {"anahy_wire_rx_bytes_total", "", c.rx_bytes},
      {"anahy_wire_rx_partial_reads_total", "", c.rx_partial_reads},
  };
}

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw std::runtime_error("fcntl(O_NONBLOCK) failed");
}

class EpollEndpoint final : public Transport, public WireStatsSource {
 public:
  /// Takes ownership of `fds` (index = peer id, -1 self), flips them
  /// nonblocking, registers them with the loop and starts the loop thread.
  EpollEndpoint(int id, std::vector<int> fds, EpollOptions opts)
      : id_(id), count_(static_cast<int>(fds.size())), opts_(opts) {
    if (opts_.max_frames_per_writev == 0) opts_.max_frames_per_writev = 1;
    opts_.max_frames_per_writev = std::min<std::size_t>(
        opts_.max_frames_per_writev, 256);  // stay far below IOV_MAX
    iov_.resize(2 * opts_.max_frames_per_writev);
    rx_scratch_.resize(64 * 1024);
    conns_.reserve(fds.size());
    for (int peer = 0; peer < count_; ++peer) {
      conns_.push_back(std::make_unique<Conn>());
      const int fd = fds[static_cast<std::size_t>(peer)];
      if (fd < 0) continue;  // self / absent link
      set_nonblocking(fd);
      Conn& c = *conns_.back();
      c.fd = fd;
      c.ever_connected = true;
      loop_.add_fd(fd, EPOLLIN,
                   [this, peer](std::uint32_t ev) { on_event(peer, ev); });
    }
    loop_.start();
  }

  ~EpollEndpoint() override {
    loop_.stop();  // after this the loop thread can no longer touch fds
    for (auto& c : conns_) {
      std::lock_guard lock(c->mu);
      if (c->fd >= 0) {
        ::close(c->fd);
        c->fd = -1;
      }
    }
  }

  void send(int dst, std::vector<std::uint8_t> frame) override {
    if (dst == id_) {
      deliver_one(std::move(frame));
      return;
    }
    if (dst < 0 || dst >= count_)
      throw std::runtime_error("no connection to that node");
    Conn& c = *conns_[static_cast<std::size_t>(dst)];
    bool schedule = false;
    {
      std::lock_guard lock(c.mu);
      if (c.fd < 0) {
        if (!c.ever_connected)
          throw std::runtime_error("no connection to that node");
        // Peer died mid-run. The frame is dropped and counted — exactly
        // the loss shape the serve retry/dedup machinery recovers from.
        tx_dropped_dead_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      OutFrame f;
      encode_wire_prefix(static_cast<std::uint32_t>(frame.size()), f.hdr);
      f.body = std::move(frame);
      c.outq.push_back(std::move(f));
      if (!c.write_scheduled) {
        c.write_scheduled = true;
        schedule = true;
      }
    }
    // One post covers every frame queued until the loop drains the queue:
    // that is where coalescing comes from under load.
    if (schedule) loop_.post([this, dst] { flush(dst); });
  }

  bool recv(std::vector<std::uint8_t>& frame,
            std::chrono::microseconds timeout) override {
    std::unique_lock lock(inbox_mu_);
    if (!inbox_cv_.wait_for(lock, timeout, [&] { return !inbox_.empty(); }))
      return false;
    frame = std::move(inbox_.front());
    inbox_.pop_front();
    return true;
  }

  [[nodiscard]] int node_id() const override { return id_; }
  [[nodiscard]] int node_count() const override { return count_; }

  [[nodiscard]] WireCounters wire_counters() const override {
    WireCounters c;
    c.writev_calls = writev_calls_.load(std::memory_order_relaxed);
    c.tx_frames = tx_frames_.load(std::memory_order_relaxed);
    c.tx_bytes = tx_bytes_.load(std::memory_order_relaxed);
    c.tx_partial_writes = tx_partial_writes_.load(std::memory_order_relaxed);
    c.tx_eagain = tx_eagain_.load(std::memory_order_relaxed);
    c.tx_dropped_dead = tx_dropped_dead_.load(std::memory_order_relaxed);
    c.recv_calls = recv_calls_.load(std::memory_order_relaxed);
    c.rx_frames = rx_frames_.load(std::memory_order_relaxed);
    c.rx_bytes = rx_bytes_.load(std::memory_order_relaxed);
    c.rx_partial_reads = rx_partial_reads_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  /// One outbound frame: wire prefix + body, with a resume offset so a
  /// short write continues exactly where the socket stopped.
  struct OutFrame {
    std::uint8_t hdr[4];
    std::vector<std::uint8_t> body;
    std::size_t off = 0;  ///< bytes of (hdr+body) already on the wire

    [[nodiscard]] std::size_t total() const { return 4 + body.size(); }
  };

  struct Conn {
    std::mutex mu;  ///< guards everything below
    int fd = -1;
    bool ever_connected = false;
    bool write_scheduled = false;  ///< a flush is posted or EPOLLOUT-armed
    bool pollout = false;          ///< EPOLLOUT currently in the interest set
    std::deque<OutFrame> outq;
    StreamDecoder decoder;  ///< loop thread only
  };

  void deliver_one(std::vector<std::uint8_t> frame) {
    {
      std::lock_guard lock(inbox_mu_);
      inbox_.push_back(std::move(frame));
    }
    inbox_cv_.notify_one();
  }

  void deliver_batch(std::vector<std::vector<std::uint8_t>>& frames) {
    if (frames.empty()) return;
    {
      std::lock_guard lock(inbox_mu_);
      for (auto& f : frames) inbox_.push_back(std::move(f));
    }
    inbox_cv_.notify_all();
    frames.clear();
  }

  /// Loop thread: detaches a connection whose socket is gone. Queued
  /// output is discarded (the peer can no longer read it).
  void kill_locked(Conn& c) {
    if (c.fd < 0) return;
    loop_.remove_fd(c.fd);
    ::close(c.fd);
    c.fd = -1;
    c.outq.clear();
    c.write_scheduled = false;
    c.pollout = false;
  }

  /// Loop thread: drains as much of peer's outbound queue as the socket
  /// accepts, coalescing up to max_frames_per_writev frames per syscall.
  void flush(int peer) {
    Conn& c = *conns_[static_cast<std::size_t>(peer)];
    std::lock_guard lock(c.mu);
    for (;;) {
      if (c.fd < 0) {
        c.outq.clear();
        c.write_scheduled = false;
        return;
      }
      if (c.outq.empty()) {
        c.write_scheduled = false;
        if (c.pollout) {
          c.pollout = false;
          loop_.rearm_fd(c.fd, EPOLLIN);
        }
        return;
      }

      // Gather: two iovecs per frame (prefix, body), the first frame
      // resumed at its offset, the total optionally capped for tests.
      std::size_t budget = opts_.max_io_bytes > 0
                               ? opts_.max_io_bytes
                               : std::numeric_limits<std::size_t>::max();
      std::size_t niov = 0;
      for (const OutFrame& f : c.outq) {
        if (budget == 0 || niov + 2 > iov_.size() ||
            niov / 2 >= opts_.max_frames_per_writev)
          break;
        std::size_t off = f.off;
        if (off < 4) {
          const std::size_t n = std::min<std::size_t>(4 - off, budget);
          iov_[niov].iov_base =
              const_cast<std::uint8_t*>(f.hdr) + off;
          iov_[niov].iov_len = n;
          ++niov;
          budget -= n;
          off = 4;
          if (budget == 0) break;
        }
        const std::size_t body_off = off - 4;
        if (body_off < f.body.size()) {
          const std::size_t n =
              std::min<std::size_t>(f.body.size() - body_off, budget);
          iov_[niov].iov_base =
              const_cast<std::uint8_t*>(f.body.data()) + body_off;
          iov_[niov].iov_len = n;
          ++niov;
          budget -= n;
        }
      }
      if (niov == 0) {
        // Zero-length frame at the head with its prefix already written
        // cannot happen (prefix is 4 bytes), so niov==0 means nothing
        // was gatherable this round.
        c.write_scheduled = false;
        return;
      }

      // sendmsg, not writev: same scatter-gather, but it takes
      // MSG_NOSIGNAL — a peer that closed mid-stream must surface as
      // EPIPE (and a reaped connection), never as a fatal SIGPIPE.
      msghdr mh{};
      mh.msg_iov = iov_.data();
      mh.msg_iovlen = niov;
      ssize_t w;
      do {
        w = ::sendmsg(c.fd, &mh, MSG_NOSIGNAL);
      } while (w < 0 && errno == EINTR);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          tx_eagain_.fetch_add(1, std::memory_order_relaxed);
          if (!c.pollout) {
            c.pollout = true;
            loop_.rearm_fd(c.fd, EPOLLIN | EPOLLOUT);
          }
          return;  // write_scheduled stays true; EPOLLOUT resumes us
        }
        kill_locked(c);
        return;
      }

      writev_calls_.fetch_add(1, std::memory_order_relaxed);
      tx_bytes_.fetch_add(static_cast<std::uint64_t>(w),
                          std::memory_order_relaxed);

      std::size_t left = static_cast<std::size_t>(w);
      while (left > 0) {
        OutFrame& f = c.outq.front();
        const std::size_t take = std::min(left, f.total() - f.off);
        f.off += take;
        left -= take;
        if (f.off == f.total()) {
          c.outq.pop_front();
          tx_frames_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // The dual of rx_partial_reads: this syscall ended inside a frame
      // (kernel short write, or the max_io_bytes cap), so a later one
      // must resume it from its offset.
      if (!c.outq.empty() && c.outq.front().off > 0)
        tx_partial_writes_.fetch_add(1, std::memory_order_relaxed);
      // Loop again: more queued frames may fit now (or we hit EAGAIN).
    }
  }

  /// Loop thread: socket readiness for `peer`.
  void on_event(int peer, std::uint32_t events) {
    Conn& c = *conns_[static_cast<std::size_t>(peer)];
    if ((events & EPOLLIN) != 0) on_readable(c);
    if ((events & EPOLLOUT) != 0) {
      flush(peer);
      return;  // flush handles a concurrently-died fd itself
    }
    if ((events & (EPOLLERR | EPOLLHUP)) != 0 && (events & EPOLLIN) == 0) {
      std::lock_guard lock(c.mu);
      kill_locked(c);
    }
  }

  void on_readable(Conn& c) {
    std::vector<std::vector<std::uint8_t>> complete;
    std::lock_guard lock(c.mu);
    if (c.fd < 0) return;
    for (;;) {
      const std::size_t want =
          opts_.max_io_bytes > 0
              ? std::min(opts_.max_io_bytes, rx_scratch_.size())
              : rx_scratch_.size();
      ssize_t r;
      do {
        r = ::recv(c.fd, rx_scratch_.data(), want, 0);
      } while (r < 0 && errno == EINTR);
      if (r < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        deliver_batch(complete);
        kill_locked(c);
        return;
      }
      if (r == 0) {  // orderly close
        deliver_batch(complete);
        kill_locked(c);
        return;
      }
      recv_calls_.fetch_add(1, std::memory_order_relaxed);
      rx_bytes_.fetch_add(static_cast<std::uint64_t>(r),
                          std::memory_order_relaxed);
      c.decoder.feed(rx_scratch_.data(), static_cast<std::size_t>(r));
      std::vector<std::uint8_t> frame;
      while (c.decoder.next(frame)) {
        rx_frames_.fetch_add(1, std::memory_order_relaxed);
        complete.push_back(std::move(frame));
      }
      if (c.decoder.overflowed()) {  // hostile length; drop the peer
        deliver_batch(complete);
        kill_locked(c);
        return;
      }
      if (c.decoder.buffered_bytes() > 0)
        rx_partial_reads_.fetch_add(1, std::memory_order_relaxed);
      if (static_cast<std::size_t>(r) < want) break;  // socket drained
    }
    deliver_batch(complete);
  }

  int id_;
  int count_;
  EpollOptions opts_;
  EventLoop loop_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<iovec> iov_;                  ///< loop thread only
  std::vector<std::uint8_t> rx_scratch_;    ///< loop thread only

  std::mutex inbox_mu_;
  std::condition_variable inbox_cv_;
  std::deque<std::vector<std::uint8_t>> inbox_;

  std::atomic<std::uint64_t> writev_calls_{0};
  std::atomic<std::uint64_t> tx_frames_{0};
  std::atomic<std::uint64_t> tx_bytes_{0};
  std::atomic<std::uint64_t> tx_partial_writes_{0};
  std::atomic<std::uint64_t> tx_eagain_{0};
  std::atomic<std::uint64_t> tx_dropped_dead_{0};
  std::atomic<std::uint64_t> recv_calls_{0};
  std::atomic<std::uint64_t> rx_frames_{0};
  std::atomic<std::uint64_t> rx_bytes_{0};
  std::atomic<std::uint64_t> rx_partial_reads_{0};
};

}  // namespace

std::unique_ptr<Transport> detail::make_epoll_endpoint(int id,
                                                       std::vector<int> fds,
                                                       EpollOptions opts) {
  return std::make_unique<EpollEndpoint>(id, std::move(fds), opts);
}

}  // namespace cluster
