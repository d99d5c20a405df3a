// FramePump: the one receive loop of the cluster roles (docs/FAULT.md).
//
// The serve front-end, the serve client and the mesh router are each a
// core with no thread and no clock: a FrameRole handed decoded frames and
// timer passes with the time they happen at. The pump owns the thread,
// the stop flag, the receive (the transport's one receiver), the decode,
// the count of malformed frames and the clock. Tests drive the same core
// with no thread and fabricated times: drain(now), then on_tick(now).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/message.hpp"
#include "cluster/transport.hpp"

namespace cluster {

/// The clock of the cluster roles: read by the pump and by the caller
/// entry points that stamp a new request, passed down as `now` elsewhere.
using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

class FrameRole;

class FramePump {
 public:
  /// on_tick fires every `tick`, or after every receive (a frame or an
  /// idle 1 ms slice) when `tick` is zero. Nothing runs until start().
  FramePump(Transport& transport, FrameRole& role,
            std::chrono::microseconds tick);
  ~FramePump() { stop(); }

  FramePump(const FramePump&) = delete;
  FramePump& operator=(const FramePump&) = delete;

  /// Starts the receive thread; the role must be fully constructed.
  void start();
  /// Joins the thread (idempotent); no role callback runs after it.
  void stop();
  /// Thread-free driving: hands every frame already queued to the role
  /// at `now`. Never while the thread runs.
  void drain(TimePoint now);

  /// Malformed frames dropped with an ANAHY-F00x diagnostic.
  [[nodiscard]] std::uint64_t rejected_frames() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Diagnostic of the most recently rejected frame ("" when none yet).
  [[nodiscard]] std::string last_reject_diagnostic() const;

 private:
  void run();
  void deliver(TimePoint now, const std::vector<std::uint8_t>& frame);

  Transport& transport_;
  FrameRole& role_;
  const std::chrono::microseconds tick_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> rejected_{0};
  mutable std::mutex reject_mu_;
  std::string last_reject_;  ///< under reject_mu_
  std::thread thread_;
};

/// A protocol core with the pump that drives it. on_frame and on_tick run
/// on the pump thread (or a test's), never concurrently with each other.
/// A core's destructor must stop the pump before its own members go.
class FrameRole {
 public:
  FrameRole(Transport& transport, std::chrono::microseconds tick)
      : pump_(transport, *this, tick) {}
  virtual ~FrameRole() = default;

  FrameRole(const FrameRole&) = delete;
  FrameRole& operator=(const FrameRole&) = delete;

  /// A well-formed frame arrived at `now`.
  virtual void on_frame(TimePoint now, Message msg) = 0;
  /// A timer pass at the pump's tick cadence.
  virtual void on_tick(TimePoint now) = 0;

  /// The receive side: started by Pumped, drained by thread-free tests.
  [[nodiscard]] FramePump& pump() { return pump_; }
  /// Malformed frames dropped with an ANAHY-F00x diagnostic.
  [[nodiscard]] std::uint64_t rejected_frames() const {
    return pump_.rejected_frames();
  }
  /// Diagnostic of the most recently rejected frame ("" when none yet).
  [[nodiscard]] std::string last_reject_diagnostic() const {
    return pump_.last_reject_diagnostic();
  }

 private:
  FramePump pump_;
};

/// A role core whose pump runs from construction to destruction.
template <class Core>
class Pumped final : public Core {
 public:
  template <class... Args>
  explicit Pumped(Args&&... args) : Core(std::forward<Args>(args)...) {
    this->pump().start();
  }
  ~Pumped() override { this->pump().stop(); }
};

}  // namespace cluster
