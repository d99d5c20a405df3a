// RequestTable: the retry and deadline core of AsyncServeClient and
// mesh::MeshRouter (docs/FAULT.md "Client retries"). A pure state machine
// with no thread, lock, clock or transport: the caller passes `now`, sends
// what tick() hands back and resolves what it expires.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/mesh/hash.hpp"
#include "cluster/message.hpp"

namespace cluster {

/// Retry/backoff envelope of one request.
struct CallOptions {
  /// Overall per-request deadline; when it passes without a reply the
  /// request resolves kUnreachable.
  std::chrono::microseconds deadline{2'000'000};
  /// First retransmission happens this long after an unanswered send;
  /// subsequent waits double, capped at max_backoff, plus jitter.
  std::chrono::microseconds initial_backoff{10'000};
  std::chrono::microseconds max_backoff{200'000};
  /// Send attempts before giving up (0 = bounded by the deadline alone).
  /// The last attempt still waits out its backoff slice for a reply.
  int max_attempts = 0;
};

/// `T` is the caller's per-request payload, `TimePoint` its clock's type.
template <class T, class TimePoint>
class RequestTable {
 public:
  using Frame = std::vector<std::uint8_t>;
  /// Frames to resend under their ids; spent entries, already removed.
  struct Due {
    std::vector<std::pair<std::uint64_t, Frame>> resend;
    std::vector<std::pair<std::uint64_t, T>> expired;
  };

  /// `seed` drives the retransmit jitter.
  explicit RequestTable(std::uint64_t seed) : jitter_(seed) {}

  /// Registers `id`, first sent at `now`; only a `kind` reply resolves it.
  T& add(std::uint64_t id, Frame frame, MsgType kind, const CallOptions& o,
         TimePoint now, T payload) {
    const auto first =
        std::max(o.initial_backoff, std::chrono::microseconds{1});
    Entry& e = entries_.insert_or_assign(
        id, Entry{std::move(payload), std::move(frame), kind, now + o.deadline,
                  now, first, first, o.max_backoff, 1, o.max_attempts})
        .first->second;
    arm(e, now);
    return e.payload;
  }

  /// `id`'s payload if it awaits a `kind` reply, else null.
  T* find(std::uint64_t id, MsgType kind) {
    auto it = entries_.find(id);
    if (it == entries_.end() || it->second.kind != kind) return nullptr;
    return &it->second.payload;
  }

  /// Removes and returns `id`'s payload; nothing for a duplicate, a
  /// latecomer or the other reply type.
  std::optional<T> take(std::uint64_t id, MsgType kind) {
    T* p = find(id, kind);
    if (p == nullptr) return std::nullopt;
    std::optional<T> out{std::move(*p)};
    entries_.erase(id);
    return out;
  }

  /// `id` is sent afresh at `now`: its backoff restarts at the initial
  /// slice; attempts and deadline are kept. Returns the frame to send.
  const Frame& rearm(std::uint64_t id, TimePoint now) {
    Entry& e = entries_.at(id);
    e.backoff = e.initial;
    arm(e, now);
    return e.frame;
  }

  /// Expires each entry past its deadline, or whose last attempt's slice
  /// passed unanswered; resends each other entry whose slice passed, with
  /// the next slice doubled up to its cap.
  Due tick(TimePoint now) {
    Due due;
    for (auto it = entries_.begin(); it != entries_.end();) {
      Entry& e = it->second;
      const bool slice_over = now >= e.resend_at;
      if (now >= e.deadline || (slice_over && e.max_attempts > 0 &&
                                e.attempts >= e.max_attempts)) {
        due.expired.emplace_back(it->first, std::move(e.payload));
        it = entries_.erase(it);
        continue;
      }
      if (slice_over) {
        ++e.attempts;
        e.backoff = std::min(e.backoff * 2, e.max_backoff);
        arm(e, now);
        due.resend.emplace_back(it->first, e.frame);
      }
      ++it;
    }
    return due;
  }

  /// Empties the table (teardown), returning every payload in id order.
  std::vector<std::pair<std::uint64_t, T>> take_all() {
    std::vector<std::pair<std::uint64_t, T>> out;
    for (auto& [id, e] : entries_) out.emplace_back(id, std::move(e.payload));
    entries_.clear();
    return out;
  }

  template <class F>  // f(id, payload&)
  void for_each(F&& f) {
    for (auto& [id, e] : entries_) f(id, e.payload);
  }

  bool contains(std::uint64_t id) const { return entries_.count(id) != 0; }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    T payload;
    Frame frame;
    MsgType kind;
    TimePoint deadline, resend_at;
    std::chrono::microseconds initial, backoff, max_backoff;
    int attempts, max_attempts;
  };

  /// Next resend: one slice plus jitter uniform in [0, slice/4].
  void arm(Entry& e, TimePoint now) {
    const std::uint64_t z = mesh::splitmix64(jitter_);
    jitter_ += 0x9E3779B97F4A7C15ull;
    const auto bound = static_cast<std::uint64_t>(e.backoff.count() / 4 + 1);
    e.resend_at = now + e.backoff + std::chrono::microseconds{z % bound};
  }

  std::map<std::uint64_t, Entry> entries_;
  std::uint64_t jitter_;
};

}  // namespace cluster
