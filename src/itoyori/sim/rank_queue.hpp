#pragma once

#include <cstddef>
#include <vector>

#include "itoyori/common/error.hpp"

namespace ityr::sim {

/// Priority structure behind engine::pick_next: "which unfinished rank has
/// the smallest virtual clock?".
///
/// A 4-ary min-heap over (clock, rank) with a rank → heap-slot position
/// index, so a clock update after a resume is O(log_4 n) and pick is O(1).
/// This is what makes O(1000)-rank runs resume-bound instead of scan-bound:
/// a linear scan makes every event O(n), i.e. the *whole simulation*
/// O(events · ranks). tests/sim/rank_queue_test.cpp keeps that scan as the
/// differential oracle.
///
/// Ordering is lexicographic (clock, rank): at equal clocks the lowest rank
/// wins, which is exactly the tie-break a linear scan's strict `<` gives
/// (first minimum found). Determinism of the whole simulator rests on this
/// total order, so it must never depend on heap internals.
class rank_queue {
public:
  explicit rank_queue(int n) : pos_(n) {
    heap_.reserve(static_cast<std::size_t>(n));
    reset();
  }

  /// All ranks become alive again with clock 0 (start of engine::run).
  void reset() {
    const int n = static_cast<int>(pos_.size());
    heap_.clear();
    for (int r = 0; r < n; r++) {
      pos_[r] = r;
      heap_.push_back({0.0, r});
    }
    // Already a valid heap: equal clocks, ranks in increasing order.
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Rank with the smallest (clock, rank), or -1 when all ranks finished.
  int top() const { return heap_.empty() ? -1 : heap_[0].rank; }

  /// Reposition `rank` after its clock advanced. Clocks only move forward,
  /// but a sift-up precedes the sift-down anyway so the structure stays
  /// correct even if a future cost model rebates time.
  void update(int rank, double clock) {
    ITYR_CHECK(pos_[rank] >= 0);
    const auto i = static_cast<std::size_t>(pos_[rank]);
    heap_[i].clock = clock;
    sift_up(i);
    sift_down(static_cast<std::size_t>(pos_[rank]));
  }

  /// Drop a finished rank from consideration.
  void remove(int rank) {
    ITYR_CHECK(pos_[rank] >= 0);
    const auto i = static_cast<std::size_t>(pos_[rank]);
    const entry moved = heap_.back();
    heap_[i] = moved;
    pos_[moved.rank] = static_cast<int>(i);
    heap_.pop_back();
    pos_[rank] = -1;
    if (i < heap_.size()) {
      sift_up(i);
      sift_down(i);
    }
  }

private:
  static constexpr std::size_t kArity = 4;

  /// Heap node: the key is stored inline so a sift's child comparisons read
  /// contiguous memory (a 4-ary node's children span one or two cache
  /// lines) instead of gathering clocks through a rank indirection — this
  /// is the difference between the heap being a win or a wash at O(1000)
  /// ranks, where the scattered clock loads would miss L1 on every level.
  struct entry {
    double clock;
    int rank;
  };

  /// (clock, rank) lexicographic — the simulator's total resume order.
  static bool less(const entry& a, const entry& b) {
    return a.clock < b.clock || (a.clock == b.clock && a.rank < b.rank);
  }

  void sift_up(std::size_t i) {
    const entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!less(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i].rank] = static_cast<int>(i);
      i = parent;
    }
    heap_[i] = e;
    pos_[e.rank] = static_cast<int>(i);
  }

  void sift_down(std::size_t i) {
    const entry e = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; c++) {
        if (less(heap_[c], heap_[best])) best = c;
      }
      if (!less(heap_[best], e)) break;
      heap_[i] = heap_[best];
      pos_[heap_[i].rank] = static_cast<int>(i);
      i = best;
    }
    heap_[i] = e;
    pos_[e.rank] = static_cast<int>(i);
  }

  std::vector<int> pos_;  ///< rank → heap slot, -1 once finished
  std::vector<entry> heap_;
};

}  // namespace ityr::sim
