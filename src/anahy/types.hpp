// Fundamental identifiers, states and error codes of the Anahy runtime.
#pragma once

#include <cstddef>
#include <cstdint>

namespace anahy {

/// Cache-line size the runtime pads its hot shared atomics to. Two VPs
/// writing one line on every fork pay a coherence miss per write, so each
/// atomic the fork/join path writes owns a line (docs/SCHEDULER.md).
inline constexpr std::size_t kCacheLine = 64;

/// `T` alone on a cache line: aligned to one and padded to its end, so no
/// neighbouring member can share it.
template <class T>
struct alignas(kCacheLine) OwnLine {
  T value;
};

/// True when every `T` starts a line of its own and, its size being a
/// multiple of its alignment, fills it (the layout guard of the padded hot
/// atomics).
template <class T>
inline constexpr bool kOwnsLine = alignof(T) >= kCacheLine;

/// Unique, monotonically increasing task identifier. Id 0 is reserved for
/// the implicit root flow (the paper's T0, i.e. the program's main flow).
using TaskId = std::uint64_t;

inline constexpr TaskId kRootTaskId = 0;
inline constexpr TaskId kInvalidTaskId = ~TaskId{0};

/// Life cycle of an Anahy task (paper §2.2.1).
///
/// `Created -> Ready -> Running -> Finished -> Joined` is the normal path.
/// A *flow* that executes a join on an unfinished task is logically split:
/// its continuation is "blocked" until the target finishes ("unblocked"),
/// which the scheduler tracks as continuation records, not task states.
enum class TaskState : std::uint8_t {
  kCreated,   ///< allocated, not yet visible to the scheduler
  kReady,     ///< in the ready list, waiting for a VP
  kRunning,   ///< being executed by a virtual processor
  kFinished,  ///< done; result retained until all joins are performed
  kJoined,    ///< all joins performed; result ownership transferred
};

[[nodiscard]] constexpr const char* to_string(TaskState s) {
  switch (s) {
    case TaskState::kCreated: return "created";
    case TaskState::kReady: return "ready";
    case TaskState::kRunning: return "running";
    case TaskState::kFinished: return "finished";
    case TaskState::kJoined: return "joined";
  }
  return "?";
}

/// POSIX-flavoured error codes returned by the athread layer (and by the
/// anahy::serve job service, which reuses the same numbering).
enum Error : int {
  kOk = 0,
  kInvalid = 22,   ///< EINVAL: bad argument / attribute
  kNotFound = 3,   ///< ESRCH: no such task (or join budget exhausted)
  kDeadlock = 35,  ///< EDEADLK: join on a task in the caller's own stack
  kAgain = 11,     ///< EAGAIN: resource temporarily unavailable
  kPerm = 1,       ///< EPERM: operation not permitted in this context
  kBusy = 16,      ///< EBUSY: target not finished (athread_tryjoin)
  kOverloaded = 105,  ///< ENOBUFS: admission queue full, job rejected
  kTimedOut = 110,    ///< ETIMEDOUT: job deadline elapsed before completion
  kAborted = 125,     ///< ECANCELED: job aborted by shutdown/cancel
  kFaulted = 5,       ///< EIO: a job body threw; message in JobResult
  kUnreachable = 113,  ///< EHOSTUNREACH: remote call retries exhausted
  kMigrated = 18,  ///< EXDEV: queued job exported to another mesh node
};

/// Priority class of a task (and of the serve-layer job that forked it).
/// Smaller value = more urgent; the work-stealing policy services classes
/// in this order at every pop and steal (docs/SERVE.md).
enum class Priority : std::uint8_t {
  kHigh = 0,    ///< latency-sensitive, serviced first
  kNormal = 1,  ///< the default class
  kBatch = 2,   ///< throughput work, runs when nothing better is ready
};

inline constexpr std::size_t kNumPriorities = 3;

[[nodiscard]] constexpr const char* to_string(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kBatch: return "batch";
  }
  return "?";
}

/// Ready-list management strategies supported by the executive kernel.
enum class PolicyKind : std::uint8_t {
  kFifo,          ///< single centralized FIFO queue (breadth-first)
  kLifo,          ///< single centralized LIFO stack (depth-first)
  kWorkStealing,  ///< per-VP lock-free Chase-Lev deques (default)
};

[[nodiscard]] constexpr const char* to_string(PolicyKind p) {
  switch (p) {
    case PolicyKind::kFifo: return "fifo";
    case PolicyKind::kLifo: return "lifo";
    case PolicyKind::kWorkStealing: return "steal";
  }
  return "?";
}

}  // namespace anahy
