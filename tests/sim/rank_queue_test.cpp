#include "itoyori/sim/rank_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "itoyori/common/rng.hpp"
#include "itoyori/sim/engine.hpp"

namespace is = ityr::sim;
namespace ic = ityr::common;

namespace {

ic::options det_opts(int nodes, int rpn, std::uint64_t seed = 42) {
  ic::options o;
  o.n_nodes = nodes;
  o.ranks_per_node = rpn;
  o.deterministic = true;
  o.seed = seed;
  return o;
}

/// The O(n) oracle the heap replaced: the live rank with the lexicographic
/// (clock, rank) minimum, or -1 when none is live. The strict `<` keeps the
/// first (lowest) rank among equal clocks.
int linear_min(const std::vector<double>& clock, const std::vector<bool>& alive) {
  int best = -1;
  double best_clock = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < clock.size(); r++) {
    if (alive[r] && clock[r] < best_clock) {
      best = static_cast<int>(r);
      best_clock = clock[r];
    }
  }
  return best;
}

/// Drive the heap through a random op sequence and assert every top() agrees
/// with the linear scan. Clock increments are drawn from a small set of
/// exact doubles so ties are frequent (the interesting case).
void fuzz_against_oracle(int n, std::uint64_t seed) {
  is::rank_queue heap(n);
  std::vector<double> clock(static_cast<std::size_t>(n), 0.0);
  std::vector<bool> alive(static_cast<std::size_t>(n), true);
  ic::xoshiro256ss rng(seed);
  const double steps[] = {0.0, 0.25, 0.25, 0.5, 1.0};  // exact in binary; tie-heavy
  int left = n;
  while (left > 0) {
    const int r = heap.top();
    ASSERT_EQ(r, linear_min(clock, alive));
    ASSERT_GE(r, 0);
    if (rng.below(8) == 0) {  // rank finishes
      heap.remove(r);
      alive[static_cast<std::size_t>(r)] = false;
      left--;
      continue;
    }
    clock[static_cast<std::size_t>(r)] += steps[rng.below(5)];
    heap.update(r, clock[static_cast<std::size_t>(r)]);
  }
  EXPECT_EQ(heap.top(), -1);
  EXPECT_EQ(linear_min(clock, alive), -1);
  EXPECT_TRUE(heap.empty());
}

/// One engine run checked online against the linear scan: the resume hook
/// reports each slice's rank and committed clock, and every resumed rank
/// must be the (clock, rank) minimum of the live ranks' clocks as of its
/// pick. Clocks change only inside a rank's own slice, so the hook sees
/// every change. Returns the resume order.
std::vector<int> run_checked(const ic::options& o,
                             const std::function<void(is::engine&, int)>& body) {
  const auto n = static_cast<std::size_t>(o.n_ranks());
  std::vector<double> clock(n, 0.0);
  std::vector<bool> alive(n, true);
  std::vector<bool> done(n, false);
  std::vector<int> order;
  is::engine e(o);
  e.set_resume_hook([&](int r, double clk) {
    EXPECT_EQ(r, linear_min(clock, alive)) << "resume " << order.size();
    order.push_back(r);
    clock[static_cast<std::size_t>(r)] = clk;
    if (done[static_cast<std::size_t>(r)]) alive[static_cast<std::size_t>(r)] = false;
  });
  e.run([&](int r) {
    body(e, r);
    done[static_cast<std::size_t>(r)] = true;
  });
  EXPECT_EQ(linear_min(clock, alive), -1);
  for (std::size_t r = 0; r < n; r++) EXPECT_EQ(e.clock_of(static_cast<int>(r)), clock[r]);
  return order;
}

}  // namespace

TEST(RankQueue, InitialOrderIsRankOrder) {
  is::rank_queue q(8);
  // All clocks equal: ties must break toward the lowest rank, repeatedly.
  for (int r = 0; r < 8; r++) {
    EXPECT_EQ(q.top(), r);
    q.remove(r);
  }
  EXPECT_EQ(q.top(), -1);
}

TEST(RankQueue, TieBreakIsLowestRankAfterUpdates) {
  is::rank_queue q(4);
  // Bring every rank to the same clock via different update sequences.
  q.update(0, 2.0);
  q.update(1, 2.0);
  q.update(3, 2.0);
  q.update(2, 2.0);
  for (int r = 0; r < 4; r++) {
    EXPECT_EQ(q.top(), r);
    q.remove(r);
  }
}

TEST(RankQueue, FuzzMatchesLinearOracle) {
  for (std::uint64_t seed = 1; seed <= 10; seed++) {
    fuzz_against_oracle(33, seed);   // non-power-of-two, deep heap
    fuzz_against_oracle(257, seed);  // crosses several 4-ary levels
  }
}

// The pinned determinism guarantee from the scheduling refactor: the indexed
// heap resumes exactly the ranks a linear scan would pick, across seeds, on a
// workload with rank-dependent advances.
TEST(EngineSched, HeapMatchesLinearScanAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; seed++) {
    auto body = [](is::engine& e, int r) {
      for (int i = 0; i < 20; i++) {
        // Mix of rank-skewed and rng-driven advances, plus O(1) charges that
        // the queue only observes at the next yield.
        e.charge(0.125 * static_cast<double>(r % 3));
        e.advance(0.25 * static_cast<double>(1 + e.rng().below(4)));
      }
    };
    run_checked(det_opts(4, 4, seed), body);
  }
}

// Tie-heavy workload: every rank advances by the same exact dt, so the queue
// is all-ties all the time — the stress case for tie-break stability.
TEST(EngineSched, HeapMatchesLinearScanOnUniformTies) {
  auto body = [](is::engine& e, int) {
    for (int i = 0; i < 50; i++) e.advance(0.5);
  };
  const auto order = run_checked(det_opts(2, 8), body);
  // With all-equal clocks the resume order must cycle 0..n-1.
  ASSERT_FALSE(order.empty());
  for (std::size_t i = 0; i < order.size(); i++) {
    EXPECT_EQ(order[i], static_cast<int>(i % 16));
  }
}
