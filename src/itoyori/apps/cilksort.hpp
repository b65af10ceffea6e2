#pragma once

/// \file
/// Cilksort: the recursive parallel merge sort of paper Fig. 1, ported
/// verbatim in structure. The array is recursively split into four spans
/// sorted in parallel, pairs are merged into a temporary buffer, and the
/// final merge lands back in the original span. At the cutoff, spans are
/// checked out and sorted/merged serially. The parallel merge splits at a
/// binary-search point, whose probes are sparse single-element global loads
/// (the "Get" category of Fig. 9).

#include <algorithm>
#include <cstdint>

#include "itoyori/core/ityr.hpp"

namespace ityr::apps {

namespace detail {

/// Branch-free Lomuto pass over [first, last): swaps every element with the
/// store slot and advances the slot by pred(element), so the elements for
/// which pred holds end up in front, with no branch on the data. Returns the
/// end of that front part.
template <typename T, typename Pred>
T* partition_branchfree(T* first, T* last, Pred pred) {
  T* store = first;
  for (T* p = first; p < last; p++) {
    const bool move_front = pred(*p);
    std::swap(*p, *store);
    store += move_front;
  }
  return store;
}

/// Quicksort of [a, a+n) with at most `depth` more partition levels before
/// falling back to heapsort.
template <typename T>
void quicksort_bounded(T* a, std::size_t n, int depth) {
  while (n > 16) {
    if (depth-- == 0) {
      std::make_heap(a, a + n);
      std::sort_heap(a, a + n);
      return;
    }
    // Median of a[n/4], a[n/2], a[3n/4], parked at a[0] as the pivot.
    T* p1 = a + n / 4;
    T* p2 = a + n / 2;
    T* p3 = a + 3 * n / 4;
    if (*p2 < *p1) std::swap(p1, p2);
    if (*p3 < *p2) p2 = (*p3 < *p1) ? p1 : p3;
    std::swap(*a, *p2);
    const T& pivot = *a;

    // [a+1, mid) < pivot <= [mid, a+n); the pivot then moves to mid-1.
    T* mid = partition_branchfree(a + 1, a + n, [&](const T& x) { return x < pivot; });
    std::swap(*a, *(mid - 1));
    const std::size_t left_n = static_cast<std::size_t>(mid - 1 - a);
    // After a lopsided split the pivot may be a heavily repeated key: move
    // the keys equal to it to the front of the right part and drop them (no
    // key there is below the pivot, so "not above" means "equal").
    if (left_n < n / 8) {
      const T& piv = *(mid - 1);
      mid = partition_branchfree(mid, a + n, [&](const T& x) { return !(piv < x); });
    }
    const std::size_t right_n = n - static_cast<std::size_t>(mid - a);
    // Recurse on the smaller side, iterate on the larger (bounded stack).
    if (left_n < right_n) {
      quicksort_bounded(a, left_n, depth);
      a = mid;
      n = right_n;
    } else {
      quicksort_bounded(mid, right_n, depth);
      n = left_n;
    }
  }
  // Insertion sort for small runs.
  for (std::size_t k = 1; k < n; k++) {
    T v = std::move(a[k]);
    std::size_t m = k;
    while (m > 0 && v < a[m - 1]) {
      a[m] = std::move(a[m - 1]);
      m--;
    }
    a[m] = std::move(v);
  }
}

/// Serial quicksort, the leaf kernel of Cilk's original cilksort: a
/// branch-free Lomuto partition around the median of three samples, a pass
/// that skips keys equal to the pivot after a lopsided split, heapsort past
/// 2*log2(n) levels, and insertion sort for runs of at most 16. The guards
/// bound the comparisons by O(n log n) on sorted, reverse, organ-pipe and
/// few-distinct inputs.
template <typename T>
void quicksort_serial(T* a, std::size_t n) {
  int log2n = 0;
  for (std::size_t m = n; m > 1; m >>= 1) log2n++;
  quicksort_bounded(a, n, 2 * log2n);
}

/// Stable serial merge of sorted s1 and s2 into d; on equal keys the s1
/// element goes first. Each step writes the smaller head and advances both
/// cursors by the comparison result, with no branch on the data.
template <typename T>
void merge_serial(const T* s1, std::size_t n1, const T* s2, std::size_t n2, T* d) {
  const T* e1 = s1 + n1;
  const T* e2 = s2 + n2;
  while (s1 != e1 && s2 != e2) {
    const bool take2 = *s2 < *s1;
    *d++ = *(take2 ? s2 : s1);
    s2 += take2;
    s1 += !take2;
  }
  d = std::copy(s1, e1, d);
  std::copy(s2, e2, d);
}

/// Index of the first element of s that is >= key (lower bound), probing
/// global memory element by element — the sparse-access pattern called out
/// in paper Section 3.3 / Fig. 9 ("Get").
template <typename T>
std::size_t binary_search_global(global_span<T> s, const T& key) {
  std::size_t lo = 0, hi = s.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (ityr::get(s.ptr(mid)) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace detail

/// Parallel merge of sorted s1 and s2 into d (paper Fig. 1 lines 25-45).
template <typename T>
void cilkmerge(global_span<T> s1, global_span<T> s2, global_span<T> d, std::size_t cutoff) {
  ITYR_CHECK(s1.size() + s2.size() == d.size());
  // Keep s1 the larger span so the split point is well defined.
  if (s1.size() < s2.size()) std::swap(s1, s2);

  if (d.size() < cutoff || s2.empty() || s1.size() <= 1) {
    with_checkout(s1.data(), s1.size(), access_mode::read, [&](const T* p1) {
      if (s2.empty()) {
        with_checkout(d.data(), d.size(), access_mode::write, [&](T* pd) {
          common::profiler::scope sc(rt().prof(), common::prof_event::serial_b);
          std::copy(p1, p1 + s1.size(), pd);
        });
        return;
      }
      with_checkout(s2.data(), s2.size(), access_mode::read, [&](const T* p2) {
        with_checkout(d.data(), d.size(), access_mode::write, [&](T* pd) {
          common::profiler::scope sc(rt().prof(), common::prof_event::serial_b);
          detail::merge_serial(p1, s1.size(), p2, s2.size(), pd);
        });
      });
    });
    return;
  }

  const std::size_t p1 = (s1.size() + 1) / 2;
  const T pivot = ityr::get(s1.ptr(p1 - 1));
  const std::size_t p2 = detail::binary_search_global(s2, pivot);
  auto [s11, s12] = split_at(s1, p1);
  auto [s21, s22] = split_at(s2, p2);
  auto [d1, d2] = split_at(d, p1 + p2);
  parallel_invoke([=] { cilkmerge(s11, s21, d1, cutoff); },
                  [=] { cilkmerge(s12, s22, d2, cutoff); });
}

/// Sort span a using b as a temporary buffer (paper Fig. 1 lines 1-24).
template <typename T>
void cilksort(global_span<T> a, global_span<T> b, std::size_t cutoff) {
  ITYR_CHECK(a.size() == b.size());
  if (a.size() < std::max<std::size_t>(cutoff, 4)) {
    with_checkout(a.data(), a.size(), access_mode::read_write, [&](T* p) {
      common::profiler::scope sc(rt().prof(), common::prof_event::serial_a);
      detail::quicksort_serial(p, a.size());
    });
    return;
  }

  auto [a12, a34] = split_two(a);
  auto [a1, a2] = split_two(a12);
  auto [a3, a4] = split_two(a34);
  auto [b12, b34] = split_two(b);
  auto [b1, b2] = split_two(b12);
  auto [b3, b4] = split_two(b34);
  parallel_invoke([=] { cilksort(a1, b1, cutoff); },   // sort a1
                  [=] { cilksort(a2, b2, cutoff); },   // sort a2
                  [=] { cilksort(a3, b3, cutoff); },   // sort a3
                  [=] { cilksort(a4, b4, cutoff); });  // sort a4
  parallel_invoke([=] { cilkmerge(a1, a2, b12, cutoff); },   // merge a1,a2 -> b12
                  [=] { cilkmerge(a3, a4, b34, cutoff); });  // merge a3,a4 -> b34
  cilkmerge(b12, b34, a, cutoff);  // merge b12,b34 -> a
}

// ---------------------------------------------------------------------------
// driver helpers shared by tests / examples / benchmarks
// ---------------------------------------------------------------------------

/// Deterministic pseudo-random value for index i (so input generation is a
/// parallel write-only sweep).
inline std::uint32_t cilksort_input(std::size_t i, std::uint64_t seed) {
  std::uint64_t s = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
  return static_cast<std::uint32_t>(common::splitmix64(s));
}

/// Fill [a, a+n) with the deterministic random input.
inline void cilksort_generate(global_ptr<std::uint32_t> a, std::size_t n, std::uint64_t seed,
                              std::size_t grain) {
  parallel_for_each(a, n, grain, access_mode::write,
                    [seed](std::uint32_t& x, std::size_t i) { x = cilksort_input(i, seed); });
}

/// Serially verify sortedness plus an order-independent checksum (catches
/// lost/duplicated elements). Runs on the root thread in grain-sized chunks
/// so arrays larger than the cache can be validated.
inline bool cilksort_validate(global_ptr<std::uint32_t> a, std::size_t n, std::uint64_t seed,
                              std::size_t grain) {
  bool ok = true;
  std::uint64_t sum = 0;
  std::uint32_t prev = 0;
  for (std::size_t base = 0; base < n && ok; base += grain) {
    const std::size_t len = std::min(grain, n - base);
    with_checkout(a + static_cast<std::ptrdiff_t>(base), len, access_mode::read,
                  [&](const std::uint32_t* p) {
                    for (std::size_t i = 0; i < len; i++) {
                      if (p[i] < prev) ok = false;
                      prev = p[i];
                      sum += p[i];
                    }
                  });
  }
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < n; i++) expect += cilksort_input(i, seed);
  return ok && sum == expect;
}

}  // namespace ityr::apps
