// A small epoll reactor: one thread, many nonblocking fds, readiness
// callbacks, and a cross-thread post() queue.
//
// This is the engine under the TCP endpoint (epoll_transport.hpp,
// docs/WIRE.md). One loop thread serves all of an endpoint's sockets
// instead of a reader thread per connection: every socket is registered
// here, and the thread sleeps in epoll_wait until any of them (or the wake
// eventfd) has something to say.
//
// Threading contract:
//  * run()/start() — exactly one thread executes the loop.
//  * add_fd/rearm_fd/remove_fd/post — any thread (epoll_ctl is safe
//    against a concurrent epoll_wait; the handler table has its own lock).
//  * Handlers run on the loop thread only, one at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

namespace cluster {

class EventLoop {
 public:
  /// Readiness callback. `events` is the raw epoll bitmask (EPOLLIN,
  /// EPOLLOUT, EPOLLERR | EPOLLHUP on trouble).
  using IoHandler = std::function<void(std::uint32_t events)>;

  /// Throws std::runtime_error when epoll/eventfd creation fails.
  EventLoop();

  /// Stops and joins the loop thread. Registered fds are NOT closed —
  /// their owner does that after the loop is quiet.
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` (must already be nonblocking) for `events`.
  void add_fd(int fd, std::uint32_t events, IoHandler handler);

  /// Changes the interest mask of a registered fd.
  void rearm_fd(int fd, std::uint32_t events);

  /// Unregisters `fd`. After return its handler will not be invoked again
  /// (calls from the loop thread take effect immediately; the caller still
  /// owns and closes the fd).
  void remove_fd(int fd);

  /// Runs `fn` on the loop thread soon (FIFO with other posts). Safe from
  /// any thread, including the loop thread itself.
  void post(std::function<void()> fn);

  /// Spawns the loop thread. Call exactly once.
  void start();

  /// Stops the loop and joins its thread. Idempotent.
  void stop();

  /// True when called from the loop thread (handlers and posted fns).
  [[nodiscard]] bool on_loop_thread() const {
    return std::this_thread::get_id() == loop_tid_.load();
  }

 private:
  void run();
  void wake();
  void drain_posted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd; written by wake(), drained by the loop
  std::mutex mu_;     ///< guards handlers_ and posted_
  std::map<int, std::shared_ptr<IoHandler>> handlers_;
  std::deque<std::function<void()>> posted_;
  std::thread thread_;
  std::atomic<std::thread::id> loop_tid_{};
  std::atomic<bool> stopping_{false};
};

}  // namespace cluster
