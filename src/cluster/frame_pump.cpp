#include "cluster/frame_pump.hpp"

#include <algorithm>

namespace cluster {

FramePump::FramePump(Transport& transport, FrameRole& role,
                     std::chrono::microseconds tick)
    : transport_(transport), role_(role), tick_(tick) {}

void FramePump::start() {
  thread_ = std::thread([this] { run(); });
}

void FramePump::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void FramePump::drain(TimePoint now) {
  std::vector<std::uint8_t> frame;
  while (transport_.recv(frame, std::chrono::microseconds{0}))
    deliver(now, frame);
}

std::string FramePump::last_reject_diagnostic() const {
  std::lock_guard lock(reject_mu_);
  return last_reject_;
}

void FramePump::deliver(TimePoint now,
                        const std::vector<std::uint8_t>& frame) {
  DecodeResult d = decode_frame(frame);
  if (!d.ok) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(reject_mu_);
    last_reject_ = std::move(d.diagnostic);
    return;
  }
  role_.on_frame(now, std::move(d.msg));
}

void FramePump::run() {
  // The slice bounds how late a tick can fire on a silent fabric.
  const std::chrono::microseconds slice =
      tick_.count() > 0 ? std::min(tick_, std::chrono::microseconds{1000})
                        : std::chrono::microseconds{1000};
  std::vector<std::uint8_t> frame;
  TimePoint next_tick = Clock::now() + tick_;
  while (!stop_.load(std::memory_order_relaxed)) {
    const bool got = transport_.recv(frame, slice);
    const TimePoint now = Clock::now();
    if (got) deliver(now, frame);
    if (now >= next_tick) {
      next_tick = now + tick_;
      role_.on_tick(now);
    }
  }
}

}  // namespace cluster
