#include "itoyori/apps/cilksort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "../support/fixture.hpp"

namespace ia = ityr::apps;

namespace {

ityr::options app_opts(int nodes = 2, int rpn = 2) {
  auto o = ityr::test::tiny_opts(nodes, rpn);
  o.coll_heap_per_rank = 4 * ityr::common::MiB;
  o.cache_size = 128 * ityr::common::KiB;
  return o;
}

/// Input shapes for the serial kernels: random keys plus the classic
/// quicksort adversaries.
enum class pattern { random, sorted, reverse, organ_pipe, all_equal, four_distinct, sawtooth };

constexpr pattern kPatterns[] = {pattern::random,     pattern::sorted,    pattern::reverse,
                                 pattern::organ_pipe, pattern::all_equal, pattern::four_distinct,
                                 pattern::sawtooth};

const char* name(pattern p) {
  switch (p) {
    case pattern::random:        return "random";
    case pattern::sorted:        return "sorted";
    case pattern::reverse:       return "reverse";
    case pattern::organ_pipe:    return "organ_pipe";
    case pattern::all_equal:     return "all_equal";
    case pattern::four_distinct: return "four_distinct";
    case pattern::sawtooth:      return "sawtooth";
  }
  return "?";
}

std::vector<std::uint32_t> make_keys(pattern p, std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::vector<std::uint32_t> v(n);
  for (std::size_t i = 0; i < n; i++) {
    const auto u = static_cast<std::uint32_t>(i);
    switch (p) {
      case pattern::random:        v[i] = static_cast<std::uint32_t>(gen()); break;
      case pattern::sorted:        v[i] = u; break;
      case pattern::reverse:       v[i] = static_cast<std::uint32_t>(n) - u; break;
      case pattern::organ_pipe:    v[i] = i < n / 2 ? u : static_cast<std::uint32_t>(n) - u; break;
      case pattern::all_equal:     v[i] = 7; break;
      case pattern::four_distinct: v[i] = static_cast<std::uint32_t>(gen() % 4); break;
      case pattern::sawtooth:      v[i] = u % 64; break;
    }
  }
  return v;
}

std::vector<std::size_t> kernel_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 64; n++) sizes.push_back(n);
  for (std::size_t n : {1023, 1024, 2048, 4097}) sizes.push_back(n);
  return sizes;
}

/// A key with a tag that takes no part in the order: tells apart elements
/// that compare equal.
struct tagged {
  std::uint32_t key;
  std::uint32_t tag;
  friend bool operator<(const tagged& a, const tagged& b) { return a.key < b.key; }
  friend bool operator==(const tagged& a, const tagged& b) {
    return a.key == b.key && a.tag == b.tag;
  }
};

/// A key that counts the comparisons made on it.
struct counted {
  std::uint32_t key;
  static inline std::uint64_t compares = 0;
  friend bool operator<(const counted& a, const counted& b) {
    compares++;
    return a.key < b.key;
  }
};

}  // namespace

TEST(CilksortSerial, QuicksortSortsRandom) {
  std::mt19937_64 gen(1);
  std::vector<int> v(4097);
  for (auto& x : v) x = static_cast<int>(gen() % 100000);
  auto ref = v;
  ia::detail::quicksort_serial(v.data(), v.size());
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(v, ref);
}

TEST(CilksortSerial, QuicksortEdgeCases) {
  // Empty, single, all-equal, already sorted, reverse sorted.
  std::vector<int> empty;
  ia::detail::quicksort_serial(empty.data(), 0);

  std::vector<int> one{5};
  ia::detail::quicksort_serial(one.data(), 1);
  EXPECT_EQ(one[0], 5);

  std::vector<int> eq(1000, 7);
  ia::detail::quicksort_serial(eq.data(), eq.size());
  EXPECT_TRUE(std::all_of(eq.begin(), eq.end(), [](int x) { return x == 7; }));

  std::vector<int> rev(1000);
  for (int i = 0; i < 1000; i++) rev[static_cast<std::size_t>(i)] = 1000 - i;
  ia::detail::quicksort_serial(rev.data(), rev.size());
  EXPECT_TRUE(std::is_sorted(rev.begin(), rev.end()));
}

TEST(CilksortSerial, MergeInterleaves) {
  std::vector<int> a{1, 3, 5, 7}, b{2, 4, 6, 8, 10}, d(9);
  ia::detail::merge_serial(a.data(), a.size(), b.data(), b.size(), d.data());
  EXPECT_EQ(d, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 10}));
}

TEST(CilksortSerial, MergeEmptySides) {
  std::vector<int> a{1, 2}, d(2);
  ia::detail::merge_serial<int>(a.data(), a.size(), nullptr, 0, d.data());
  EXPECT_EQ(d, a);
  ia::detail::merge_serial<int>(nullptr, 0, a.data(), a.size(), d.data());
  EXPECT_EQ(d, a);
}

TEST(CilksortSerial, QuicksortMatchesStdSortOnEveryPattern) {
  for (pattern p : kPatterns) {
    for (std::size_t n : kernel_sizes()) {
      auto v = make_keys(p, n, n + 1);
      auto ref = v;
      ia::detail::quicksort_serial(v.data(), v.size());
      std::sort(ref.begin(), ref.end());
      ASSERT_EQ(v, ref) << name(p) << " n=" << n;
    }
  }
}

TEST(CilksortSerial, MergeMatchesStdMergeOnEveryPattern) {
  // Tags record each element's input position, so equal keys must come out
  // in exactly std::merge's order (the s1 element first).
  for (pattern p : kPatterns) {
    for (std::size_t n : kernel_sizes()) {
      const auto keys = make_keys(p, n, n + 2);
      std::vector<tagged> v(n);
      for (std::size_t i = 0; i < n; i++) v[i] = {keys[i], static_cast<std::uint32_t>(i)};
      for (std::size_t n1 : {n / 2, n / 3}) {
        auto in = v;
        std::stable_sort(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(n1));
        std::stable_sort(in.begin() + static_cast<std::ptrdiff_t>(n1), in.end());
        std::vector<tagged> got(n), ref(n);
        ia::detail::merge_serial(in.data(), n1, in.data() + n1, n - n1, got.data());
        std::merge(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(n1),
                   in.begin() + static_cast<std::ptrdiff_t>(n1), in.end(), ref.begin());
        ASSERT_EQ(got, ref) << name(p) << " n=" << n << " n1=" << n1;
      }
    }
  }
}

TEST(CilksortSerial, MergeTakesS1FirstOnTies) {
  const std::vector<tagged> s1{{1, 0}, {2, 1}, {2, 2}, {3, 3}};
  const std::vector<tagged> s2{{2, 10}, {3, 11}, {4, 12}};
  std::vector<tagged> d(s1.size() + s2.size());
  ia::detail::merge_serial(s1.data(), s1.size(), s2.data(), s2.size(), d.data());
  const std::vector<tagged> expect{{1, 0}, {2, 1}, {2, 2}, {2, 10}, {3, 3}, {3, 11}, {4, 12}};
  EXPECT_EQ(d, expect);
}

TEST(CilksortSerial, QuicksortComparisonsStayWithinTwoNLogN) {
  // The pivot sampling, the equal-key pass and the heapsort fallback keep
  // every adversarial shape at O(n log n): at most 2 n log2 n comparisons.
  constexpr std::size_t n = 64 * 1024;
  constexpr double bound = 2.0 * n * 16;
  for (pattern p : kPatterns) {
    const auto keys = make_keys(p, n, 5);
    std::vector<counted> v(n);
    for (std::size_t i = 0; i < n; i++) v[i].key = keys[i];
    counted::compares = 0;
    ia::detail::quicksort_serial(v.data(), n);
    EXPECT_LE(static_cast<double>(counted::compares), bound) << name(p);
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end())) << name(p);
  }
}

class CilksortParam : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(CilksortParam, SortsCorrectly) {
  const auto [n, cutoff] = GetParam();
  ityr::runtime rt(app_opts());
  rt.spmd([&, n = n, cutoff = cutoff] {
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    bool ok = ityr::root_exec([=] {
      ia::cilksort_generate(a, n, 42, 1024);
      ia::cilksort(ityr::global_span<std::uint32_t>(a, n),
                   ityr::global_span<std::uint32_t>(b, n), cutoff);
      return ia::cilksort_validate(a, n, 42, 1024);
    });
    EXPECT_TRUE(ok) << "n=" << n << " cutoff=" << cutoff;
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCutoffs, CilksortParam,
    ::testing::Values(std::make_tuple(std::size_t{1000}, std::size_t{64}),
                      std::make_tuple(std::size_t{4096}, std::size_t{64}),
                      std::make_tuple(std::size_t{10000}, std::size_t{256}),
                      std::make_tuple(std::size_t{65536}, std::size_t{1024}),
                      std::make_tuple(std::size_t{100000}, std::size_t{4096}),
                      std::make_tuple(std::size_t{12345}, std::size_t{128})));

TEST(Cilksort, WorksUnderEveryCachePolicy) {
  for (auto policy : {ityr::cache_policy::none, ityr::cache_policy::write_through,
                      ityr::cache_policy::write_back, ityr::cache_policy::write_back_lazy}) {
    auto o = app_opts();
    o.policy = policy;
    ityr::runtime rt(o);
    rt.spmd([&] {
      const std::size_t n = 20000;
      auto a = ityr::coll_new<std::uint32_t>(n);
      auto b = ityr::coll_new<std::uint32_t>(n);
      bool ok = ityr::root_exec([=] {
        ia::cilksort_generate(a, n, 7, 512);
        ia::cilksort(ityr::global_span<std::uint32_t>(a, n),
                     ityr::global_span<std::uint32_t>(b, n), 512);
        return ia::cilksort_validate(a, n, 7, 512);
      });
      EXPECT_TRUE(ok) << "policy=" << ityr::common::to_string(policy);
      ityr::coll_delete(a, n);
      ityr::coll_delete(b, n);
    });
  }
}

TEST(Cilksort, LargerThanCacheWorkingSet) {
  // 1M uint32 = 4 MB per buffer; cache is 128 KiB per rank: heavy eviction.
  auto o = app_opts(2, 2);
  o.coll_heap_per_rank = 8 * ityr::common::MiB;
  ityr::runtime rt(o);
  rt.spmd([&] {
    const std::size_t n = 1 << 20;
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    bool ok = ityr::root_exec([=] {
      ia::cilksort_generate(a, n, 3, 8192);
      ia::cilksort(ityr::global_span<std::uint32_t>(a, n), ityr::global_span<std::uint32_t>(b, n),
                   16384);
      return ia::cilksort_validate(a, n, 3, 8192);
    });
    EXPECT_TRUE(ok);
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
  EXPECT_GT(rt.pgas().aggregate_stats().cache_evictions, 0u);
}

TEST(Cilksort, CacheTooSmallForAMergeLeafThrowsTooMuchCheckout) {
  // A one-block cache cannot hold a merge leaf's three checkouts. The error
  // must reach the caller as too_much_checkout_error: the outer checkouts of
  // the failing leaf are checked in while the exception unwinds, so nothing
  // aborts with "fork while global memory is checked out".
  auto o = app_opts();
  o.block_size = 64 * ityr::common::KiB;
  o.sub_block_size = 4 * ityr::common::KiB;
  o.cache_size = 64 * ityr::common::KiB;
  ityr::runtime rt(o);
  rt.spmd([&] {
    const std::size_t n = 4096;
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    bool caught = false;
    try {
      ityr::root_exec([=] {
        ia::cilksort_generate(a, n, 42, 1024);
        ia::cilksort(ityr::global_span<std::uint32_t>(a, n),
                     ityr::global_span<std::uint32_t>(b, n), 64);
      });
    } catch (const ityr::common::too_much_checkout_error&) {
      caught = true;
    }
    if (ityr::my_rank() == 0) {
      EXPECT_TRUE(caught);
    }
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
}
