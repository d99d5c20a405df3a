#include "anahy/fault/fault.hpp"

#include <algorithm>
#include <stdexcept>

namespace anahy::fault {
namespace {

/// splitmix64 step — the whole injector's randomness. Seeded per send
/// operation from (seed, op index) so decisions are a pure function of the
/// send sequence, never of timing.
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Uniform draw in [0, 1).
double u01(std::uint64_t& state) {
  return static_cast<double>(mix(state) >> 11) * 0x1.0p-53;
}

}  // namespace

FaultyTransport::FaultyTransport(std::unique_ptr<cluster::Transport> inner,
                                 FaultProfile profile,
                                 std::vector<SeverEvent> severs)
    : inner_(std::move(inner)),
      profile_(profile),
      sever_schedule_(std::move(severs)) {
  std::sort(sever_schedule_.begin(), sever_schedule_.end(),
            [](const SeverEvent& a, const SeverEvent& b) {
              return a.after_op < b.after_op;
            });
}

FaultyTransport::~FaultyTransport() = default;

void FaultyTransport::send(int dst, std::vector<std::uint8_t> frame) {
  // Refused here, on the caller's send: a held-back frame reaches the
  // inner transport from a later send() or recv().
  if (dst < 0 || dst >= inner_->node_count())
    throw std::runtime_error("no such node in the fabric");
  std::vector<std::pair<int, std::vector<std::uint8_t>>> deliver;
  {
    std::lock_guard lock(mu_);
    const std::uint64_t op = ops_++;
    ++stats_.sends;

    // Apply the sever schedule up to this operation.
    while (!sever_schedule_.empty() &&
           sever_schedule_.front().after_op <= op) {
      severed_.insert(sever_schedule_.front().peer);
      sever_schedule_.erase(sever_schedule_.begin());
    }

    flush_delayed_locked(std::chrono::steady_clock::now());

    if (severed_.count(dst) != 0) {
      ++stats_.severed_sends;
      return;
    }

    // Per-op decision stream: a pure function of (seed, op).
    std::uint64_t rng = profile_.seed ^ (op * 0xD1B54A32D192ED03ull);

    if (u01(rng) < profile_.drop) {
      ++stats_.drops;
      return;
    }
    const bool dup = u01(rng) < profile_.duplicate;
    if (dup) ++stats_.duplicates;

    if (u01(rng) < profile_.corrupt && !frame.empty()) {
      const std::uint64_t bit = mix(rng) % (frame.size() * 8);
      frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ++stats_.corruptions;
    }
    if (u01(rng) < profile_.truncate && !frame.empty()) {
      frame.resize(mix(rng) % frame.size());  // loses at least one byte
      ++stats_.truncations;
    }

    if (u01(rng) < profile_.delay) {
      // Held back; released by a later send() or recv() on this endpoint.
      // The hold duration is deterministic; the release point depends on
      // when the endpoint is next pumped, like a real slow link.
      const auto lo = profile_.delay_min.count();
      const auto hi = std::max(profile_.delay_max.count(), lo + 1);
      const auto hold = std::chrono::microseconds{
          lo + static_cast<std::int64_t>(
                   mix(rng) % static_cast<std::uint64_t>(hi - lo))};
      ++stats_.delays;
      delayed_.push_back(
          {std::chrono::steady_clock::now() + hold, dst, std::move(frame)});
      if (dup) {
        // The duplicate of a delayed frame goes out immediately — that is
        // the nastier ordering anyway.
        deliver.push_back({dst, delayed_.back().frame});
      }
    } else {
      if (dup) deliver.push_back({dst, frame});
      deliver.push_back({dst, std::move(frame)});
    }
  }
  // Actual sends happen outside mu_ so a slow inner transport does not
  // serialize concurrent senders more than it already would.
  for (auto& [to, f] : deliver) inner_->send(to, std::move(f));
}

bool FaultyTransport::recv(std::vector<std::uint8_t>& frame,
                           std::chrono::microseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    auto now = std::chrono::steady_clock::now();
    std::chrono::microseconds slice =
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now);
    {
      std::lock_guard lock(mu_);
      flush_delayed_locked(now);
      if (!delayed_.empty()) {
        // Wake early enough to release the next held frame on time.
        auto next = delayed_.front().release;
        for (const Delayed& d : delayed_) next = std::min(next, d.release);
        const auto until_next =
            std::chrono::duration_cast<std::chrono::microseconds>(next - now);
        slice = std::min(slice, std::max(until_next,
                                         std::chrono::microseconds{50}));
      }
    }
    if (slice.count() > 0 && inner_->recv(frame, slice)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
  }
}

void FaultyTransport::flush_delayed_locked(
    std::chrono::steady_clock::time_point now) {
  auto due = std::partition(
      delayed_.begin(), delayed_.end(),
      [now](const Delayed& d) { return d.release > now; });
  for (auto it = due; it != delayed_.end(); ++it) {
    if (severed_.count(it->dst) != 0) {
      ++stats_.severed_sends;
      continue;
    }
    inner_->send(it->dst, std::move(it->frame));
  }
  delayed_.erase(due, delayed_.end());
}

int FaultyTransport::node_id() const { return inner_->node_id(); }

int FaultyTransport::node_count() const { return inner_->node_count(); }

void FaultyTransport::sever(int peer) {
  std::lock_guard lock(mu_);
  severed_.insert(peer);
}

void FaultyTransport::heal(int peer) {
  std::lock_guard lock(mu_);
  severed_.erase(peer);
}

std::uint64_t FaultyTransport::op_index() const {
  std::lock_guard lock(mu_);
  return ops_;
}

FaultStats FaultyTransport::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::vector<observe::ExtraCounter> FaultyTransport::counters() const {
  const FaultStats s = stats();
  std::vector<observe::ExtraCounter> rows{
      {"anahy_fault_sends_total", "", s.sends},
      {"anahy_fault_injected_total", "kind=\"drop\"", s.drops},
      {"anahy_fault_injected_total", "kind=\"duplicate\"", s.duplicates},
      {"anahy_fault_injected_total", "kind=\"corrupt\"", s.corruptions},
      {"anahy_fault_injected_total", "kind=\"truncate\"", s.truncations},
      {"anahy_fault_injected_total", "kind=\"delay\"", s.delays},
      {"anahy_fault_injected_total", "kind=\"severed\"", s.severed_sends},
  };
  // Decorating an event-loop endpoint must not hide its wire telemetry.
  if (dynamic_cast<const cluster::WireStatsSource*>(inner_.get()) != nullptr) {
    for (auto& row : cluster::wire_counter_rows(wire_counters()))
      rows.push_back(std::move(row));
  }
  return rows;
}

cluster::WireCounters FaultyTransport::wire_counters() const {
  const auto* src = dynamic_cast<const cluster::WireStatsSource*>(inner_.get());
  return src != nullptr ? src->wire_counters() : cluster::WireCounters{};
}

}  // namespace anahy::fault
