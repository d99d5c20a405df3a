// Pluggable ready-list policies for the executive kernel.
//
// The paper adopts a modular scheduler (Cavalheiro et al. 1998) so that
// "different load-balancing criteria or techniques can be created according
// to the application and target architecture". This interface is that
// extension point: it owns the READY list only; the finished/blocked/
// unblocked bookkeeping lives in the Scheduler.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "anahy/task.hpp"
#include "anahy/types.hpp"

namespace anahy {

namespace observe {
class Telemetry;
}  // namespace observe

/// Abstract ready-task container. All methods must be thread-safe.
///
/// `vp` arguments identify the calling virtual processor (0-based); policies
/// that keep per-VP structures use it for locality, centralized policies
/// ignore it. `vp == kExternalVp` marks calls from a thread that is not a
/// worker (e.g. the program's main flow).
class SchedulingPolicy {
 public:
  static constexpr int kExternalVp = -1;

  /// Sampling period of the kernel's ready-list gauges: one deque-depth
  /// sample per this many pushes per slot, and one ready-peak reading per
  /// this many forks per thread. They are statistical gauges; reading them
  /// on every push or fork costs the hottest path for no extra information.
  static constexpr std::uint32_t kDepthSampleStride = 16;

  virtual ~SchedulingPolicy() = default;

  /// Makes `task` available for execution.
  virtual void push(TaskPtr task, int vp) = 0;

  /// Takes one task for execution, or nullptr when none is available.
  virtual TaskPtr pop(int vp) = 0;

  /// Removes a *specific* ready task so the caller can run it inline
  /// (join-inlining, the mono-processor behaviour of paper §2.2.1).
  /// `vp` identifies the calling thread (kExternalVp for non-VP threads)
  /// so policies with per-caller striped accounting can debit the right
  /// stripe. Returns false when the task is not in the ready list
  /// (already taken).
  virtual bool remove_specific(const TaskPtr& task, int vp) = 0;

  /// Approximate number of queued tasks (monitoring only).
  [[nodiscard]] virtual std::size_t approx_size() const = 0;

  /// Approximate queued tasks per priority class (monitoring only).
  /// Policies without class-aware structures report everything as
  /// Priority::kNormal.
  [[nodiscard]] virtual std::array<std::size_t, kNumPriorities>
  approx_size_by_class() const {
    std::array<std::size_t, kNumPriorities> by_class{};
    by_class[static_cast<std::size_t>(Priority::kNormal)] = approx_size();
    return by_class;
  }

  [[nodiscard]] virtual PolicyKind kind() const = 0;
};

/// Factory: builds the policy implementation for `kind` with `num_vps`
/// worker slots (work-stealing keeps one deque per VP plus one external).
/// Policies that steal or sample deque depths feed `telemetry`, which must
/// outlive the policy; the central queues record nothing.
std::unique_ptr<SchedulingPolicy> make_policy(PolicyKind kind, int num_vps,
                                              observe::Telemetry& telemetry);

}  // namespace anahy
