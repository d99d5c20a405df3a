#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>

#include "cluster/transport.hpp"

namespace cluster {
namespace {

/// Per-node inbox shared by all endpoints of one fabric.
struct Inbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::vector<std::uint8_t>> queue;
};

class MemoryEndpoint final : public Transport {
 public:
  MemoryEndpoint(std::shared_ptr<std::vector<Inbox>> inboxes, int id)
      : inboxes_(std::move(inboxes)), id_(id) {}

  void send(int dst, std::vector<std::uint8_t> frame) override {
    if (dst < 0 || dst >= node_count())
      throw std::runtime_error("no such node in the fabric");
    Inbox& inbox = (*inboxes_)[static_cast<std::size_t>(dst)];
    {
      std::lock_guard lock(inbox.mu);
      inbox.queue.push_back(std::move(frame));
    }
    inbox.cv.notify_one();
  }

  bool recv(std::vector<std::uint8_t>& frame,
            std::chrono::microseconds timeout) override {
    Inbox& inbox = (*inboxes_)[static_cast<std::size_t>(id_)];
    std::unique_lock lock(inbox.mu);
    if (!inbox.cv.wait_for(lock, timeout,
                           [&] { return !inbox.queue.empty(); }))
      return false;
    frame = std::move(inbox.queue.front());
    inbox.queue.pop_front();
    return true;
  }

  [[nodiscard]] int node_id() const override { return id_; }
  [[nodiscard]] int node_count() const override {
    return static_cast<int>(inboxes_->size());
  }

 private:
  std::shared_ptr<std::vector<Inbox>> inboxes_;
  int id_;
};

}  // namespace

std::vector<std::unique_ptr<Transport>> make_memory_fabric(int n) {
  auto inboxes =
      std::make_shared<std::vector<Inbox>>(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<Transport>> endpoints;
  endpoints.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    endpoints.push_back(std::make_unique<MemoryEndpoint>(inboxes, i));
  return endpoints;
}

}  // namespace cluster
