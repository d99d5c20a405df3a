// Virtual processor: one system thread running the scheduler loop.
//
// Paper §2.3: the executive kernel bounds the number of simultaneously
// executing application activities by the number of active virtual
// processors; each VP executes one sequential flow at a time and, when
// idle, is reactivated as soon as some activity becomes ready.
#pragma once

#include <thread>

#include "anahy/scheduler.hpp"

namespace anahy {

class VirtualProcessor {
 public:
  /// Starts the VP thread immediately. `index` is the 0-based VP id used
  /// for scheduling locality and statistics.
  VirtualProcessor(Scheduler& scheduler, int index);

  /// Requests stop and joins the thread.
  ~VirtualProcessor();

  VirtualProcessor(const VirtualProcessor&) = delete;
  VirtualProcessor& operator=(const VirtualProcessor&) = delete;

  [[nodiscard]] int index() const { return index_; }

  /// Asks the VP to exit its loop (idempotent; destructor also calls it).
  void request_stop() { thread_.request_stop(); }

 private:
  void loop(const std::stop_token& st);

  Scheduler& scheduler_;
  const int index_;
  std::jthread thread_;  // last member: starts after everything is ready
};

}  // namespace anahy
