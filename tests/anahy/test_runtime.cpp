// Integration tests of the runtime: fork/join semantics across VP counts
// and policies, list bookkeeping, error paths, and statistics.
#include "anahy/anahy.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

namespace {

using namespace anahy;

// gtest has no printer for this struct, so it names each case by a byte
// dump of it, padding included. The padding is spelled out and zeroed so
// the ctest names stay the same from one build to the next.
struct RuntimeCase {
  int num_vps;
  PolicyKind policy;
  std::uint8_t pad[3] = {};
};
static_assert(sizeof(RuntimeCase) == 8,
              "RuntimeCase must have no implicit padding");

class RuntimeTest : public ::testing::TestWithParam<RuntimeCase> {
 protected:
  Options make_options() const {
    Options o;
    o.num_vps = GetParam().num_vps;
    o.policy = GetParam().policy;
    return o;
  }
};

TEST_P(RuntimeTest, SpawnJoinReturnsValue) {
  Runtime rt(make_options());
  auto h = spawn(rt, [] { return 21 * 2; });
  EXPECT_EQ(h.join(), 42);
}

TEST_P(RuntimeTest, ManyIndependentTasks) {
  Runtime rt(make_options());
  constexpr int kN = 200;
  std::vector<Handle<int>> handles;
  handles.reserve(kN);
  for (int i = 0; i < kN; ++i)
    handles.push_back(spawn(rt, [i] { return i * i; }));
  long long sum = 0;
  for (auto& h : handles) sum += h.join();
  long long expect = 0;
  for (int i = 0; i < kN; ++i) expect += 1LL * i * i;
  EXPECT_EQ(sum, expect);
}

TEST_P(RuntimeTest, NestedForkJoinComputesFibonacci) {
  Runtime rt(make_options());
  // Recursive fork/join: every invocation forks one child, the paper's
  // high-sync workload in miniature.
  std::function<int(int)> fib = [&](int n) -> int {
    if (n < 2) return n;
    auto h = spawn(rt, fib, n - 1);
    const int b = fib(n - 2);
    return h.join() + b;
  };
  EXPECT_EQ(fib(15), 610);
}

TEST_P(RuntimeTest, SequentialEquivalence) {
  // The paper's determinism claim: the concurrent result equals the
  // sequential result of the same code.
  Runtime rt(make_options());
  std::vector<int> data(64);
  std::iota(data.begin(), data.end(), 1);

  std::vector<Handle<long long>> handles;
  for (int start = 0; start < 64; start += 8) {
    handles.push_back(spawn(rt, [&data, start] {
      long long s = 0;
      for (int i = start; i < start + 8; ++i) s += data[i] * data[i];
      return s;
    }));
  }
  long long parallel = 0;
  for (auto& h : handles) parallel += h.join();

  long long sequential = 0;
  for (int v : data) sequential += 1LL * v * v;
  EXPECT_EQ(parallel, sequential);
}

TEST_P(RuntimeTest, StatsCountTasksAndJoins) {
  Runtime rt(make_options());
  for (int i = 0; i < 10; ++i) spawn(rt, [] { return 0; }).join();
  const auto s = rt.stats();
  EXPECT_EQ(s.tasks_created, 10u);
  EXPECT_EQ(s.tasks_executed, 10u);
  EXPECT_EQ(s.joins_total, 10u);
  // Every join counts in exactly one category.
  EXPECT_EQ(s.joins_immediate + s.joins_inlined + s.joins_helped +
                s.joins_slept,
            s.joins_total);
}

INSTANTIATE_TEST_SUITE_P(
    VpAndPolicySweep, RuntimeTest,
    ::testing::Values(RuntimeCase{1, PolicyKind::kFifo},
                      RuntimeCase{1, PolicyKind::kLifo},
                      RuntimeCase{1, PolicyKind::kWorkStealing},
                      RuntimeCase{2, PolicyKind::kFifo},
                      RuntimeCase{2, PolicyKind::kWorkStealing},
                      RuntimeCase{4, PolicyKind::kFifo},
                      RuntimeCase{4, PolicyKind::kLifo},
                      RuntimeCase{4, PolicyKind::kWorkStealing},
                      RuntimeCase{8, PolicyKind::kWorkStealing}),
    [](const auto& info) {
      return std::to_string(info.param.num_vps) + "vp_" +
             std::string(to_string(info.param.policy));
    });

TEST(Runtime, JoinCategoriesPartitionJoinsTotal) {
  // Stress the partition where it can break: fib(16) at 4 VPs mixes
  // immediate, inlined, helping and sleeping joins, and the target may
  // finish at any point of the joiner's blocking loop.
  for (int run = 0; run < 60; ++run) {
    Runtime rt(Options{.num_vps = 4});
    std::function<int(int)> fib = [&](int n) -> int {
      if (n < 2) return n;
      auto h = spawn(rt, fib, n - 1);
      const int b = fib(n - 2);
      return h.join() + b;
    };
    ASSERT_EQ(fib(16), 987);
    const auto s = rt.stats();
    ASSERT_EQ(s.joins_total, 1596u) << "run " << run;
    ASSERT_EQ(s.joins_immediate + s.joins_inlined + s.joins_helped +
                  s.joins_slept,
              s.joins_total)
        << "run " << run << ": " << s.to_string();
  }
}

TEST(Runtime, StatsAgreeWithTheObserveTotals) {
  // Runtime::stats() and observe_snapshot() read one counter bank: once a
  // 4-VP fib(16) quiesces, both views report the same events (steals
  // included), and each VP's join categories add up to its joins.
  Runtime rt(Options{.num_vps = 4});
  std::function<int(int)> fib = [&](int n) -> int {
    if (n < 2) return n;
    auto h = spawn(rt, fib, n - 1);
    const int b = fib(n - 2);
    return h.join() + b;
  };
  ASSERT_EQ(fib(16), 987);
  // Idle workers keep sweeping for steals until they park: read both views
  // between two stats() reads that agree, so nothing moved in between.
  RuntimeStats::Snapshot s;
  observe::Snapshot o;
  for (int tries = 0; tries < 1000; ++tries) {
    s = rt.stats();
    o = rt.observe_snapshot();
    if (rt.stats().steal_attempts == s.steal_attempts) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(s.tasks_created, o.total.forks);
  EXPECT_EQ(s.tasks_created, 1596u);
  EXPECT_EQ(s.tasks_executed, o.total.tasks_finished);
  EXPECT_EQ(o.total.tasks_run, o.total.tasks_finished);
  EXPECT_EQ(s.steals, o.total.steal_successes);
  EXPECT_EQ(s.steal_attempts, o.total.steal_attempts);
  EXPECT_GE(s.steal_attempts, s.steals);
  EXPECT_EQ(s.joins_total, o.total.joins);
  EXPECT_EQ(s.joins_total, 1596u);
  EXPECT_EQ(s.continuations, o.total.continuations);
  EXPECT_EQ(s.tasks_run_by_main, o.total.tasks_run_by_main);
  ASSERT_EQ(o.per_vp.size(), 5u);
  for (std::size_t vp = 0; vp < o.per_vp.size(); ++vp) {
    const observe::VpCounters& c = o.per_vp[vp];
    EXPECT_EQ(c.joins_immediate + c.joins_inlined + c.joins_helped +
                  c.joins_slept,
              c.joins)
        << "vp " << vp;
  }
}

TEST(Runtime, OneVpCreatesNoSystemThread) {
  // Table 3/7 behaviour: Anahy with 1 VP runs everything on the caller.
  Runtime rt(Options{.num_vps = 1});
  EXPECT_EQ(rt.worker_threads(), 0);
  auto h = spawn(rt, [] { return 7; });
  EXPECT_EQ(h.join(), 7);
  EXPECT_EQ(rt.stats().tasks_run_by_main, 1u);
}

TEST(Runtime, MainNotParticipatingSpawnsAllWorkers) {
  Options o;
  o.num_vps = 3;
  o.main_participates = false;
  Runtime rt(o);
  EXPECT_EQ(rt.worker_threads(), 3);
  auto h = spawn(rt, [] { return 1; });
  EXPECT_EQ(h.join(), 1);
  EXPECT_EQ(rt.stats().tasks_run_by_main, 0u);
}

TEST(Runtime, RejectsZeroVps) {
  EXPECT_THROW(Runtime rt(Options{.num_vps = 0}), std::invalid_argument);
}

TEST(Runtime, RawForkJoinMovesPointers) {
  Runtime rt(Options{.num_vps = 2});
  int in = 5;
  TaskPtr t = rt.fork(
      [](void* p) -> void* {
        auto* v = static_cast<int*>(p);
        *v *= 3;
        return v;
      },
      &in);
  void* out = nullptr;
  EXPECT_EQ(rt.join(t, &out), kOk);
  EXPECT_EQ(out, &in);
  EXPECT_EQ(in, 15);
}

TEST(Runtime, DoubleJoinExhaustsBudget) {
  Runtime rt(Options{.num_vps = 1});
  TaskPtr t = rt.fork([](void*) -> void* { return nullptr; }, nullptr);
  EXPECT_EQ(rt.join(t, nullptr), kOk);
  EXPECT_EQ(rt.join(t, nullptr), kNotFound);  // budget of 1 already used
}

TEST(Runtime, MultiJoinBudgetAllowsNJoins) {
  Runtime rt(Options{.num_vps = 2});
  TaskAttributes attr;
  attr.set_join_number(3);
  int value = 9;
  TaskPtr t = rt.fork([](void* p) -> void* { return p; }, &value, attr);
  for (int i = 0; i < 3; ++i) {
    void* out = nullptr;
    EXPECT_EQ(rt.join(t, &out), kOk) << "join #" << i;
    EXPECT_EQ(out, &value);
  }
  EXPECT_EQ(rt.join(t, nullptr), kNotFound);
}

TEST(Runtime, DetachedTaskRunsButCannotBeJoined) {
  Runtime rt(Options{.num_vps = 2});
  std::atomic<bool> ran{false};
  TaskAttributes attr;
  attr.set_join_number(0);
  TaskPtr t = rt.fork(
      [&ran](void*) -> void* {
        ran = true;
        return nullptr;
      },
      nullptr, attr);
  EXPECT_EQ(rt.join(t, nullptr), kNotFound);
  // Ensure it runs before the runtime shuts down: spin on a real join task.
  spawn(rt, [] { return 0; }).join();
  while (!ran) {
  }
  EXPECT_TRUE(ran);
}

TEST(Runtime, SelfJoinReturnsDeadlock) {
  Runtime rt(Options{.num_vps = 1});
  TaskPtr captured;
  int rc = -1;
  TaskPtr t = rt.fork(
      [&](void*) -> void* {
        rc = rt.join(captured, nullptr);  // join on the running task itself
        return nullptr;
      },
      nullptr);
  captured = t;
  EXPECT_EQ(rt.join(t, nullptr), kOk);
  EXPECT_EQ(rc, kDeadlock);
}

TEST(Runtime, JoinNullTaskReturnsNotFound) {
  Runtime rt(Options{.num_vps = 1});
  EXPECT_EQ(rt.join(nullptr, nullptr), kNotFound);
}

TEST(Runtime, ListsDrainToEmpty) {
  Runtime rt(Options{.num_vps = 2});
  std::vector<Handle<int>> handles;
  for (int i = 0; i < 50; ++i) handles.push_back(spawn(rt, [i] { return i; }));
  for (auto& h : handles) h.join();
  const auto lists = rt.lists();
  EXPECT_EQ(lists.ready, 0u);
  EXPECT_EQ(lists.finished, 0u);
  EXPECT_EQ(lists.blocked, 0u);
  EXPECT_EQ(lists.unblocked, 0u);
}

TEST(Runtime, ListGaugesAreExactAtQuiescenceOnFourVps) {
  // The FINISHED, BLOCKED and UNBLOCKED sizes are per-VP entries minus
  // exits, and at 4 VPs a flow often enters a list on one VP and leaves
  // it on another. Once a fib(16) returns, every sum must close to zero.
  Runtime rt(Options{.num_vps = 4});
  std::function<int(int)> fib = [&](int n) -> int {
    if (n < 2) return n;
    auto h = spawn(rt, fib, n - 1);
    const int b = fib(n - 2);
    return h.join() + b;
  };
  for (int run = 0; run < 50; ++run) {
    ASSERT_EQ(fib(16), 987);
    const auto lists = rt.lists();
    ASSERT_EQ(lists.ready, 0u) << "run " << run;
    ASSERT_EQ(lists.finished, 0u) << "run " << run;
    ASSERT_EQ(lists.blocked, 0u) << "run " << run;
    ASSERT_EQ(lists.unblocked, 0u) << "run " << run;
  }

  // Five tasks finish on the workers and stay unjoined: FINISHED holds
  // exactly them, and each join takes one out.
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < 5; ++i)
    tasks.push_back(rt.fork([](void*) -> void* { return nullptr; }, nullptr));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (const TaskPtr& t : tasks)
    while (t->state() != TaskState::kFinished &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  for (const TaskPtr& t : tasks)
    ASSERT_EQ(t->state(), TaskState::kFinished);
  EXPECT_EQ(rt.lists().finished, 5u);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ASSERT_EQ(rt.join(tasks[i], nullptr), kOk);
    EXPECT_EQ(rt.lists().finished, 4 - i);
  }
}

TEST(Runtime, FinishedListHoldsUnjoinedResults) {
  Runtime rt(Options{.num_vps = 1});
  // With 1 VP and main participating, nothing runs until we join; join the
  // first task and the second gets run (inlined) too only when joined.
  TaskPtr a = rt.fork([](void*) -> void* { return nullptr; }, nullptr);
  TaskPtr b = rt.fork([](void*) -> void* { return nullptr; }, nullptr);
  EXPECT_EQ(rt.join(a, nullptr), kOk);
  const auto lists = rt.lists();
  // b is either still ready (never run) or finished-but-unjoined, never lost.
  EXPECT_EQ(lists.ready + lists.finished, 1u);
  EXPECT_EQ(rt.join(b, nullptr), kOk);
  EXPECT_EQ(rt.lists().ready + rt.lists().finished, 0u);
}

TEST(Runtime, EnvOptionsParse) {
  ::setenv("ANAHY_NUM_VPS", "7", 1);
  ::setenv("ANAHY_POLICY", "lifo", 1);
  ::setenv("ANAHY_TRACE", "1", 1);
  ::setenv("ANAHY_DRAIN_ON_EXIT", "1", 1);
  const Options o = Options::from_env();
  EXPECT_EQ(o.num_vps, 7);
  EXPECT_EQ(o.policy, PolicyKind::kLifo);
  EXPECT_TRUE(o.trace);
  EXPECT_TRUE(o.drain_on_exit);
  ::unsetenv("ANAHY_NUM_VPS");
  ::unsetenv("ANAHY_POLICY");
  ::unsetenv("ANAHY_TRACE");
  ::unsetenv("ANAHY_DRAIN_ON_EXIT");
}

// Regression: destroying a Runtime with tasks still queued used to drop
// them silently — the VPs were stopped before ever popping the work. With
// drain_on_exit every forked task must execute before the VPs stop.
TEST(Runtime, DrainOnExitRunsQueuedTasksAtDestruction) {
  std::atomic<int> executed{0};
  constexpr int kN = 512;
  {
    Options o;
    o.num_vps = 2;
    o.drain_on_exit = true;
    Runtime rt(o);
    TaskAttributes detached;
    detached.set_join_number(0);
    for (int i = 0; i < kN; ++i)
      rt.fork(
          [](void* in) -> void* {
            static_cast<std::atomic<int>*>(in)->fetch_add(1);
            return nullptr;
          },
          &executed, detached);
    // No joins: destruction must finish the backlog, not discard it.
  }
  EXPECT_EQ(executed.load(), kN);
}

TEST(Runtime, WithoutDrainOnExitQueuedTasksMayBeDropped) {
  // Documents the historical default: forked-but-unjoined tasks are not
  // guaranteed to run when the runtime dies. (They *may* run; what the
  // default must NOT do is hang the destructor waiting for them.)
  std::atomic<int> executed{0};
  {
    Options o;
    o.num_vps = 2;
    Runtime rt(o);
    TaskAttributes detached;
    detached.set_join_number(0);
    for (int i = 0; i < 64; ++i)
      rt.fork(
          [](void* in) -> void* {
            static_cast<std::atomic<int>*>(in)->fetch_add(1);
            return nullptr;
          },
          &executed, detached);
  }
  EXPECT_LE(executed.load(), 64);
}

TEST(Runtime, DrainOnExitDrainsTasksForkedWhileDraining) {
  // A draining task that forks more work: the fixpoint must cover the
  // newly forked tasks too.
  std::atomic<int> executed{0};
  {
    struct Ctx {
      Runtime* rt = nullptr;
      std::atomic<int>* executed = nullptr;
      TaskAttributes detached;
    } ctx;  // declared before rt: outlives the draining destructor
    Options o;
    o.num_vps = 2;
    o.drain_on_exit = true;
    Runtime rt(o);
    TaskAttributes detached;
    detached.set_join_number(0);
    ctx = {&rt, &executed, detached};
    for (int i = 0; i < 16; ++i)
      rt.fork(
          [](void* in) -> void* {
            auto* c = static_cast<Ctx*>(in);
            c->executed->fetch_add(1);
            c->rt->fork(
                [](void* in2) -> void* {
                  static_cast<std::atomic<int>*>(in2)->fetch_add(1);
                  return nullptr;
                },
                c->executed, c->detached);
            return nullptr;
          },
          &ctx, detached);
  }
  EXPECT_EQ(executed.load(), 32);
}

}  // namespace
