#include "anahy/observe/telemetry.hpp"

#include <algorithm>

namespace anahy::observe {

namespace {

using Field = std::uint64_t VpCounters::*;

/// The VpCounters field of each slot counter, in Telemetry::Counter order.
/// Every one but the depth peak (a high-water mark) adds up across slots
/// and subtracts across snapshots; so does the derived `joins`.
constexpr std::array<Field, 21> kSlotFields = {
    &VpCounters::forks,           &VpCounters::joins_immediate,
    &VpCounters::joins_inlined,   &VpCounters::joins_helped,
    &VpCounters::joins_slept,     &VpCounters::continuations,
    &VpCounters::tasks_run,       &VpCounters::tasks_finished,
    &VpCounters::tasks_retired,   &VpCounters::flows_unblocked,
    &VpCounters::flows_resumed,   &VpCounters::tasks_run_by_main,
    &VpCounters::steal_attempts,  &VpCounters::steal_successes,
    &VpCounters::idle_spins,      &VpCounters::idle_parks,
    &VpCounters::idle_park_ns,    &VpCounters::deque_depth_sum,
    &VpCounters::deque_depth_samples,
    &VpCounters::deque_depth_peak,
    &VpCounters::joins,  // derived: not a slot counter
};

bool additive(Field f) { return f != &VpCounters::deque_depth_peak; }

}  // namespace

VpCounters& VpCounters::operator+=(const VpCounters& o) {
  for (const Field f : kSlotFields)
    if (additive(f)) this->*f += o.*f;
  deque_depth_peak = std::max(deque_depth_peak, o.deque_depth_peak);
  return *this;
}

VpCounters VpCounters::minus(const VpCounters& earlier) const {
  VpCounters d = *this;  // peaks do not subtract
  for (const Field f : kSlotFields)
    if (additive(f)) d.*f -= earlier.*f;
  return d;
}

double Snapshot::steal_success_ratio() const {
  if (total.steal_attempts == 0) return 1.0;
  return static_cast<double>(total.steal_successes) /
         static_cast<double>(total.steal_attempts);
}

double Snapshot::idle_fraction() const {
  if (elapsed_ns <= 0 || num_vps <= 0) return 0.0;
  const double wall =
      static_cast<double>(elapsed_ns) * static_cast<double>(num_vps);
  const double idle = static_cast<double>(total.idle_park_ns);
  const double f = idle / wall;
  return f > 1.0 ? 1.0 : f;
}

double Snapshot::avg_deque_depth() const {
  if (total.deque_depth_samples == 0) return 0.0;
  return static_cast<double>(total.deque_depth_sum) /
         static_cast<double>(total.deque_depth_samples);
}

Snapshot Snapshot::delta(const Snapshot& earlier) const {
  Snapshot d = *this;
  d.elapsed_ns = elapsed_ns - earlier.elapsed_ns;
  for (std::size_t i = 0; i < d.per_vp.size() && i < earlier.per_vp.size();
       ++i)
    d.per_vp[i] = per_vp[i].minus(earlier.per_vp[i]);
  d.total = VpCounters{};
  for (const VpCounters& c : d.per_vp) d.total += c;
  return d;
}

Telemetry::Telemetry(int num_vps)
    : num_vps_(num_vps < 1 ? 1 : num_vps),
      slots_(static_cast<std::size_t>(num_vps_) + 1) {}

void Telemetry::sample_deque_depth(int vp, std::size_t depth) {
  const auto d = static_cast<std::uint64_t>(depth);
  add(vp, kDepthSum, d);
  add(vp, kDepthSamples, 1);
  // Peak needs max semantics, not addition. Worker slots are single-writer
  // (plain read/compare/store); the shared external slot needs a CAS race.
  const std::size_t s = slot_of(vp);
  std::atomic<std::uint64_t>& peak = slots_[s].c[kDepthPeak];
  if (s != static_cast<std::size_t>(num_vps_)) {
    if (d > peak.load(std::memory_order_relaxed))
      peak.store(d, std::memory_order_relaxed);
    return;
  }
  std::uint64_t cur = peak.load(std::memory_order_relaxed);
  while (d > cur && !peak.compare_exchange_weak(cur, d,
                                                std::memory_order_relaxed,
                                                std::memory_order_relaxed)) {
  }
}

VpCounters Telemetry::load(const Slot& slot) {
  static_assert(kSlotFields.size() == kNumCounters + 1,
                "one field per slot counter, then the derived joins");
  VpCounters c;
  for (unsigned i = 0; i < kNumCounters; ++i)
    c.*kSlotFields[i] = slot.c[i].load(std::memory_order_relaxed);
  c.joins =
      c.joins_immediate + c.joins_inlined + c.joins_helped + c.joins_slept;
  return c;
}

Snapshot Telemetry::snapshot() const {
  Snapshot s;
  s.epoch = snapshot_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  s.elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
  s.num_vps = num_vps_;
  s.per_vp.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    s.per_vp.push_back(load(slot));
    s.total += s.per_vp.back();
  }
  return s;
}

VpCounters Telemetry::totals() const {
  VpCounters t;
  for (const Slot& slot : slots_) t += load(slot);
  return t;
}

}  // namespace anahy::observe
