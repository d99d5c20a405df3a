// Work-stealing ready-list policy: per-VP lock-free deques, owner LIFO /
// thief FIFO, with strict priority classes.
//
// This is the load-balancing strategy the Anahy lineage (Athapascan-1,
// Cilk) implies: each virtual processor pushes and pops its own bottom end
// (depth-first, cache-friendly) while idle VPs steal the oldest task from a
// victim's top end (breadth-first, large-grained steals).
//
// The hot path is lock-free end to end (see docs/SCHEDULER.md):
//  - each worker VP owns one Chase-Lev deque of raw Task* PER PRIORITY
//    CLASS (high/normal/batch, docs/SERVE.md); owner push/pop and thief
//    steal never take a lock;
//  - pop services the owner's classes strictly in priority order (all
//    ready high tasks anywhere on this VP before any normal one), and a
//    thief sweeps every victim's high deques before any victim's normal
//    deque, so class order dominates locality order;
//  - a deque entry keeps its task alive through the task's ready-guard
//    self-reference, set on push and cleared by whichever pop/steal removes
//    the entry;
//  - consumption is decided by Task::try_claim (a CAS on the task state),
//    not by deque membership: join-inlining (remove_specific) claims the
//    task in O(1) and leaves a stale entry behind, which the eventual
//    popper recognizes (lost claim) and discards.
//
// A single-class program (everything Priority::kNormal, the default) pays
// nothing for the classes beyond two empty pop_bottom probes per pop.
//
// External (non-VP) threads are not the performance target and cannot obey
// the Chase-Lev single-owner discipline (any number of them may fork
// concurrently), so they share one small mutex-guarded overflow deque per
// class that worker thieves also scan.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "anahy/policy.hpp"
#include "anahy/steal_deque.hpp"

namespace anahy {

class WorkStealingPolicy final : public SchedulingPolicy {
 public:
  /// `telemetry` receives the per-thief steal attempts/successes and the
  /// push-time deque-depth samples; it must outlive the policy.
  WorkStealingPolicy(int num_vps, observe::Telemetry& telemetry);
  ~WorkStealingPolicy() override;

  void push(TaskPtr task, int vp) override;
  TaskPtr pop(int vp) override;
  bool remove_specific(const TaskPtr& task, int vp) override;
  [[nodiscard]] std::size_t approx_size() const override;
  [[nodiscard]] std::array<std::size_t, kNumPriorities> approx_size_by_class()
      const override;
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kWorkStealing;
  }

  /// Deque length at which push starts purging the stale-entry run at the
  /// bottom (entries whose task was already claimed by join-inlining).
  /// Without the purge a join-heavy flow accumulates one stale entry per
  /// task, keeping finished tasks alive for the whole run.
  static constexpr std::size_t kStalePurgeThreshold = 64;

 private:
  static constexpr std::size_t kClasses = kNumPriorities;

  /// Maps a caller id to its slot; slot num_vps_ is the external queue.
  [[nodiscard]] std::size_t slot(int vp) const;

  /// The (slot, class) deque. Deques are laid out class-major per slot so
  /// one VP's three deques share cache locality.
  [[nodiscard]] ChaseLevDeque<Task*>& deque(std::size_t slot,
                                            std::size_t cls) {
    return *deques_[slot * kClasses + cls];
  }

  /// Claims `raw` popped/stolen out of a lock-free deque; returns the
  /// keep-alive reference on success, nullptr when the entry was stale.
  /// `stolen` attributes the claim to the task's job steal counter;
  /// `claimer` is the calling thread's slot (its ready bank is debited).
  TaskPtr claim_deque_entry(Task* raw, bool stolen, std::size_t claimer);

  TaskPtr pop_external(std::size_t cls);
  TaskPtr steal_external(std::size_t cls, std::size_t claimer);

  /// One full steal sweep of class `cls` over every victim but `self`
  /// (including the external overflow queue).
  TaskPtr steal_class(std::size_t self, std::size_t cls);
  TaskPtr steal_from_others(std::size_t self);

  const std::size_t num_vps_;
  /// num_vps_ * kClasses lock-free deques, see deque().
  std::vector<std::unique_ptr<ChaseLevDeque<Task*>>> deques_;
  mutable std::mutex external_mu_;
  std::array<std::deque<TaskPtr>, kClasses> external_q_;
  /// Claimable-task counters, striped per slot so the hottest path never
  /// touches a shared cache line: +1 on the pushing slot, -1 on the
  /// *claiming* slot (pop, steal or remove_specific). A slot's value goes
  /// negative when its tasks are claimed elsewhere; only the sum over
  /// slots is the live count (O(num_vps) approx_size, transiently off by
  /// in-flight claims). Every write to a worker bank comes from that VP's
  /// own thread (plain load + store); the external bank is shared by any
  /// number of foreign threads (fetch_add). `push_tick` counts pushes for
  /// the deque-depth sampling stride under the same discipline.
  struct alignas(64) ReadyBank {
    std::array<std::atomic<std::int64_t>, kClasses> c{};
    std::atomic<std::uint32_t> push_tick{0};
  };
  std::vector<ReadyBank> ready_;  // num_vps_ + 1; never resized after ctor

  void bump_ready(std::size_t s, std::size_t cls, std::int64_t d) {
    std::atomic<std::int64_t>& v = ready_[s].c[cls];
    if (s == num_vps_) {
      v.fetch_add(d, std::memory_order_relaxed);
    } else {
      v.store(v.load(std::memory_order_relaxed) + d,
              std::memory_order_relaxed);
    }
  }

  /// Advances the slot's push counter; true on every kDepthSampleStride-th
  /// push of that slot.
  bool tick_push(std::size_t s) {
    std::atomic<std::uint32_t>& t = ready_[s].push_tick;
    std::uint32_t v;
    if (s == num_vps_) {
      v = t.fetch_add(1, std::memory_order_relaxed) + 1;
    } else {
      v = t.load(std::memory_order_relaxed) + 1;
      t.store(v, std::memory_order_relaxed);
    }
    return v % kDepthSampleStride == 0;
  }
  /// Counter bank fed per-thief steal attempts/successes and push-time
  /// deque-depth samples.
  observe::Telemetry& tele_;
  std::atomic<std::uint64_t> rr_seed_{0};
};

}  // namespace anahy
