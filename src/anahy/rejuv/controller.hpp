// anahy::rejuv::AdmissionController — the budget, cached for the submit
// fast path (docs/REJUV.md).
//
// JobServer::submit() sits on the serve hot path and the bench bar says
// the admission check may cost at most ~2% (bench/rejuv_soak). Scoring a
// MemoryBudget needs a pool_snapshot() — a few hundred relaxed loads —
// which is far too much per submit. The controller therefore caches one
// pre-computed verdict per priority class in an atomic, and submit() pays
// exactly one relaxed load. The cache is refreshed from a fresh snapshot
// at job completion, aging samples and rejuvenation cycles; the server's
// housekeeper thread releases held jobs at their defer deadlines.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "anahy/rejuv/budget.hpp"
#include "anahy/task_pool.hpp"
#include "anahy/types.hpp"

namespace anahy::rejuv {

/// What submit() should do with one job of a given class right now.
enum class Decision : std::uint8_t {
  kAdmit,   ///< under budget: enqueue normally
  kDefer,   ///< over budget, batch class: enqueue but hold until the
            ///< pressure clears or the job's defer deadline passes
  kReject,  ///< over budget: resolve kOverloaded immediately
};

struct ControllerOptions {
  MemoryBudget::Options budget;  ///< total_bytes == 0 disables the controller

  /// How an over-budget batch submit is shed. Deferral matches the kBlock
  /// admission temperament (absorb and wait), rejection matches kReject
  /// (fail fast); the server maps its admission policy here by default.
  enum class BatchShed : std::uint8_t { kDefer, kReject };
  BatchShed batch_shed = BatchShed::kDefer;

  /// Upper bound on how long a deferred batch job may be held past its
  /// submit before the server dispatches it regardless (bounded deferral,
  /// never starvation; the job's own deadline still caps it first).
  std::int64_t max_defer_ns = 500'000'000;
};

class AdmissionController {
 public:
  explicit AdmissionController(ControllerOptions opts);

  /// Fast path — one relaxed atomic load. High never sheds below the hard
  /// total; normal sheds by rejection; batch sheds per `batch_shed`.
  [[nodiscard]] Decision admit(Priority cls) const {
    if (!over_[static_cast<std::size_t>(cls)].load(std::memory_order_relaxed))
      return Decision::kAdmit;
    switch (cls) {
      case Priority::kHigh: return Decision::kAdmit;
      case Priority::kBatch:
        return opts_.batch_shed == ControllerOptions::BatchShed::kDefer
                   ? Decision::kDefer
                   : Decision::kReject;
      default: return Decision::kReject;
    }
  }

  /// True when `cls` is currently scored over its budget slice (the
  /// server's hold test for deferred batch work).
  [[nodiscard]] bool over(Priority cls) const {
    return over_[static_cast<std::size_t>(cls)].load(
        std::memory_order_relaxed);
  }

  /// Recomputes the cached per-class verdicts from a live pool snapshot.
  /// Cheap enough for per-job-completion cadence; wait-free readers.
  void refresh(const PoolSnapshot& pool);

  /// Forwards a completed job's pool peak into the budget's EWMA history.
  void note_job_peak(Priority cls, std::uint64_t peak_bytes) {
    budget_.note_job_peak(cls, peak_bytes);
  }

  /// The score of the last refresh (observability; bit-cast through
  /// uint64 so the read stays lock-free).
  [[nodiscard]] double last_score(Priority cls) const;

  [[nodiscard]] const MemoryBudget& budget() const { return budget_; }
  [[nodiscard]] const ControllerOptions& options() const { return opts_; }
  [[nodiscard]] bool enabled() const { return budget_.enabled(); }

 private:
  ControllerOptions opts_;
  MemoryBudget budget_;
  std::array<std::atomic<bool>, kNumPriorities> over_{};
  std::array<std::atomic<std::uint64_t>, kNumPriorities> score_bits_{};
};

}  // namespace anahy::rejuv
