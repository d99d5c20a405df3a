// Property tests over randomized fork/join programs: for any random task
// tree, any policy and any VP count, the parallel result must equal the
// sequential evaluation (the paper's determinism guarantee), no task may
// be lost, and the runtime must drain cleanly.
#include "anahy/anahy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>

namespace {

using namespace anahy;

/// Random program specification: a tree where each node owns a value,
/// forks its children, does some "work" between forks and joins, and
/// joins every child a specified number of times (1 or 2).
struct Spec {
  long value = 0;
  std::vector<Spec> children;
  std::vector<int> join_counts;   // per child: 1 or 2
  std::vector<int> join_order;    // permutation of child indices
};

Spec gen(std::mt19937& rng, int depth) {
  Spec s;
  s.value = static_cast<long>(rng() % 1000);
  if (depth <= 0) return s;
  const int nchildren = static_cast<int>(rng() % 4);  // 0..3
  for (int i = 0; i < nchildren; ++i) {
    s.children.push_back(gen(rng, depth - 1 - static_cast<int>(rng() % 2)));
    s.join_counts.push_back(1 + static_cast<int>(rng() % 2));
  }
  s.join_order.resize(s.children.size());
  std::iota(s.join_order.begin(), s.join_order.end(), 0);
  std::shuffle(s.join_order.begin(), s.join_order.end(), rng);
  return s;
}

/// Reference semantics: value + sum over children of count * eval(child).
long eval_seq(const Spec& s) {
  long total = s.value;
  for (std::size_t i = 0; i < s.children.size(); ++i)
    total += s.join_counts[i] * eval_seq(s.children[i]);
  return total;
}

long eval_anahy(Runtime& rt, const Spec& s) {
  struct Forked {
    TaskPtr task;
    std::shared_ptr<long> slot;
  };
  std::vector<Forked> forked;
  forked.reserve(s.children.size());
  for (std::size_t i = 0; i < s.children.size(); ++i) {
    auto slot = std::make_shared<long>(0);
    TaskAttributes attr;
    attr.set_join_number(s.join_counts[i]);
    const Spec* child = &s.children[i];
    TaskPtr task = rt.fork(
        [&rt, child, slot](void*) -> void* {
          *slot = eval_anahy(rt, *child);
          return nullptr;
        },
        nullptr, attr);
    forked.push_back({std::move(task), std::move(slot)});
  }
  long total = s.value;
  // Join children in the shuffled order, each as many times as budgeted.
  for (const int idx : s.join_order) {
    for (int k = 0; k < s.join_counts[static_cast<std::size_t>(idx)]; ++k) {
      // No gtest assertion here: this runs on worker threads too. A failed
      // join skips the accumulation, which the main-thread sum check
      // catches deterministically.
      const int rc =
          rt.join(forked[static_cast<std::size_t>(idx)].task, nullptr);
      if (rc == kOk) total += *forked[static_cast<std::size_t>(idx)].slot;
    }
  }
  return total;
}

std::size_t count_tasks(const Spec& s) {
  std::size_t n = s.children.size();
  for (const auto& c : s.children) n += count_tasks(c);
  return n;
}

// gtest names each case by a byte dump of this struct, padding included;
// the padding is spelled out and zeroed so the ctest names stay the same
// from one build to the next.
struct RandomCase {
  unsigned seed;
  int depth;
  int vps;
  PolicyKind policy;
  std::uint8_t pad[3] = {};
};
static_assert(sizeof(RandomCase) == 16,
              "RandomCase must have no implicit padding");

class RandomProgram : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RandomProgram, ParallelEqualsSequential) {
  const auto& p = GetParam();
  std::mt19937 rng(p.seed);
  const Spec spec = gen(rng, p.depth);

  Options o;
  o.num_vps = p.vps;
  o.policy = p.policy;
  Runtime rt(o);
  EXPECT_EQ(eval_anahy(rt, spec), eval_seq(spec));

  // No task lost, all lists drained.
  EXPECT_EQ(rt.stats().tasks_created, count_tasks(spec));
  EXPECT_EQ(rt.stats().tasks_executed, count_tasks(spec));
  const auto lists = rt.lists();
  EXPECT_EQ(lists.ready + lists.finished + lists.blocked + lists.unblocked,
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomProgram,
    ::testing::Values(
        RandomCase{1, 3, 1, PolicyKind::kFifo},
        RandomCase{2, 3, 2, PolicyKind::kLifo},
        RandomCase{3, 4, 2, PolicyKind::kWorkStealing},
        RandomCase{4, 4, 4, PolicyKind::kFifo},
        RandomCase{5, 4, 4, PolicyKind::kWorkStealing},
        RandomCase{6, 5, 3, PolicyKind::kLifo},
        RandomCase{7, 5, 8, PolicyKind::kWorkStealing},
        RandomCase{8, 6, 4, PolicyKind::kWorkStealing},
        RandomCase{9, 6, 2, PolicyKind::kFifo},
        RandomCase{10, 5, 5, PolicyKind::kLifo},
        RandomCase{11, 4, 1, PolicyKind::kWorkStealing},
        RandomCase{12, 6, 6, PolicyKind::kWorkStealing}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_d" +
             std::to_string(info.param.depth) + "_" +
             std::to_string(info.param.vps) + "vp_" +
             std::string(to_string(info.param.policy));
    });

TEST(RandomProgramTrace, GraphInvariantsHoldOnRandomPrograms) {
  for (unsigned seed = 100; seed < 105; ++seed) {
    std::mt19937 rng(seed);
    const Spec spec = gen(rng, 4);
    Options o;
    o.num_vps = 2;
    o.trace = true;
    Runtime rt(o);
    EXPECT_EQ(eval_anahy(rt, spec), eval_seq(spec)) << "seed " << seed;

    // Invariants: every fork edge connects existing nodes with child level
    // = parent level + 1 (for non-continuations); every non-root task has
    // a parent; work >= span >= 0.
    const auto nodes = rt.trace().nodes();
    const auto find = [&](TaskId id) {
      return std::find_if(nodes.begin(), nodes.end(),
                          [&](const auto& n) { return n.id == id; });
    };
    for (const auto& e : rt.trace().edges()) {
      ASSERT_NE(find(e.from), nodes.end());
      ASSERT_NE(find(e.to), nodes.end());
      if (e.kind == TraceEdgeKind::kFork) {
        const auto& child = *find(e.to);
        if (!child.is_continuation) {
          EXPECT_EQ(child.level, find(e.from)->level + 1);
        }
      }
    }
    EXPECT_GE(rt.trace().work_ns(), rt.trace().span_ns());
  }
}

}  // namespace
