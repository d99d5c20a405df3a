#include "anahy/vp.hpp"

namespace anahy {

VirtualProcessor::VirtualProcessor(Scheduler& scheduler, int index)
    : scheduler_(scheduler),
      index_(index),
      thread_([this](std::stop_token st) { loop(st); }) {}

VirtualProcessor::~VirtualProcessor() {
  thread_.request_stop();
  scheduler_.notify_all();
  // jthread joins in its destructor.
}

void VirtualProcessor::loop(const std::stop_token& st) {
  scheduler_.bind_thread_to_vp(index_);
  while (TaskPtr task = scheduler_.wait_for_task(index_, st))
    scheduler_.run_task(task, index_);
}

}  // namespace anahy
