/// Regression tests for the front-table fast path: memoized entries must be
/// purged on eviction and on invalidate_all (acquire fences), hits must be
/// observable through stats.fast_path_hits, a partially valid block must
/// serve exactly its valid bytes (and, under prefetching, none), and disabling
/// the table (ITYR_FRONT_TABLE_SIZE=0) must change performance only, never
/// results.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../support/fixture.hpp"
#include "itoyori/pgas/cache_system.hpp"

namespace ip = ityr::pgas;
namespace ic = ityr::common;
namespace it = ityr::test;

using ip::access_mode;

namespace {

/// 2 nodes x 1 rank: every odd block (block_cyclic) is remote to rank 0.
ic::options front_opts(std::size_t front_table_size) {
  auto o = it::tiny_opts(2, 1);
  o.front_table_size = front_table_size;
  return o;
}

/// Rank 1 fills remote block 1 of `g` (two 4 KiB blocks, block_cyclic) with
/// word i = base + i; all ranks then pass a barrier.
void fill_remote_block(int r, ip::pgas_space& s, ip::gaddr_t g, std::uint32_t base) {
  const std::size_t bs = 4 * ic::KiB;
  if (r == 1) {
    auto* p = static_cast<std::uint32_t*>(s.checkout(g + bs, bs, access_mode::write));
    for (std::size_t i = 0; i < bs / 4; i++) p[i] = base + static_cast<std::uint32_t>(i);
    s.checkin(g + bs, bs, access_mode::write);
  }
  s.barrier();
}

/// 64 B read of word `w` of remote block 1 through checkout/checkin; returns
/// the first word.
std::uint32_t read64(ip::pgas_space& s, ip::gaddr_t g, std::size_t w) {
  const ip::gaddr_t a = g + 4 * ic::KiB + 4 * w;
  const std::uint32_t v = *static_cast<const std::uint32_t*>(s.checkout(a, 64, access_mode::read));
  s.checkin(a, 64, access_mode::read);
  return v;
}

}  // namespace

TEST(FrontTable, FastPathHitsAreCounted) {
  it::run_pgas(front_opts(64), [&](int r, ip::pgas_space& s) {
    const std::size_t bs = 4 * ic::KiB;
    auto g = s.heap().coll_alloc(2 * bs, ic::dist_policy::block_cyclic);
    if (r == 1) {
      auto* p = static_cast<std::uint32_t*>(s.checkout(g + bs, bs, access_mode::write));
      for (std::size_t i = 0; i < bs / 4; i++) p[i] = static_cast<std::uint32_t>(i);
      s.checkin(g + bs, bs, access_mode::write);
    }
    s.barrier();
    if (r == 0) {
      EXPECT_GT(s.cache().front_table_entries(), 0u);
      // Cold full-block read: generic path, makes the block fully valid and
      // memoizes it.
      s.checkout(g + bs, bs, access_mode::read);
      s.checkin(g + bs, bs, access_mode::read);
      const auto before = s.cache().get_stats().fast_path_hits;
      for (int i = 0; i < 10; i++) {
        auto* p = static_cast<const std::uint32_t*>(
            s.checkout(g + bs + 64 * i, 64, access_mode::read));
        EXPECT_EQ(*p, static_cast<std::uint32_t>(16 * i));
        s.checkin(g + bs + 64 * i, 64, access_mode::read);
      }
      EXPECT_EQ(s.cache().get_stats().fast_path_hits, before + 10);
    }
    s.barrier();
  });
}

TEST(FrontTable, DisabledTableNeverHits) {
  it::run_pgas(front_opts(0), [&](int r, ip::pgas_space& s) {
    const std::size_t bs = 4 * ic::KiB;
    auto g = s.heap().coll_alloc(2 * bs, ic::dist_policy::block_cyclic);
    s.barrier();
    if (r == 0) {
      EXPECT_EQ(s.cache().front_table_entries(), 0u);
      s.checkout(g + bs, bs, access_mode::read);
      s.checkin(g + bs, bs, access_mode::read);
      for (int i = 0; i < 10; i++) {
        s.checkout(g + bs, 64, access_mode::read);
        s.checkin(g + bs, 64, access_mode::read);
      }
      EXPECT_EQ(s.cache().get_stats().fast_path_hits, 0u);
    }
    s.barrier();
  });
}

TEST(FrontTable, EvictionPurgesMemoizedBlock) {
  // The tiny cache holds 16 blocks. Memoize one remote block, sweep 31 other
  // remote blocks through the cache to force its eviction, then check the
  // block out again: the probe must NOT be served from the stale memo (the
  // mem_block was destroyed) — the re-checkout misses, refetches, and the
  // data is intact.
  it::run_pgas(front_opts(64), [&](int r, ip::pgas_space& s) {
    const std::size_t bs = 4 * ic::KiB;
    const std::size_t n_blocks = 64;  // 256 KiB, 32 of them remote to rank 0
    auto g = s.heap().coll_alloc(n_blocks * bs, ic::dist_policy::block_cyclic);
    if (r == 1) {
      for (std::size_t b = 1; b < n_blocks; b += 2) {
        auto* p = static_cast<std::uint32_t*>(s.checkout(g + b * bs, bs, access_mode::write));
        for (std::size_t i = 0; i < bs / 4; i++)
          p[i] = static_cast<std::uint32_t>(b * 1000 + i);
        s.checkin(g + b * bs, bs, access_mode::write);
      }
    }
    s.barrier();
    if (r == 0) {
      // Memoize remote block 1 (fully valid after a full-block read).
      s.checkout(g + bs, bs, access_mode::read);
      s.checkin(g + bs, bs, access_mode::read);
      const auto fast0 = s.cache().get_stats().fast_path_hits;
      const auto evict0 = s.cache().get_stats().cache_evictions;

      // Sweep every other remote block through the 16-slot cache.
      for (std::size_t b = 3; b < n_blocks; b += 2) {
        s.checkout(g + b * bs, bs, access_mode::read);
        s.checkin(g + b * bs, bs, access_mode::read);
      }
      EXPECT_GT(s.cache().get_stats().cache_evictions, evict0);

      // Re-checkout the memoized-then-evicted block: correct data, and the
      // visit was a genuine miss, not a (dangling) fast-path hit.
      const auto miss0 = s.cache().get_stats().block_misses;
      auto* p = static_cast<const std::uint32_t*>(s.checkout(g + bs, bs, access_mode::read));
      EXPECT_EQ(p[0], 1000u);
      EXPECT_EQ(p[123], 1123u);
      s.checkin(g + bs, bs, access_mode::read);
      EXPECT_EQ(s.cache().get_stats().fast_path_hits, fast0);
      EXPECT_EQ(s.cache().get_stats().block_misses, miss0 + 1);
    }
    s.barrier();
  });
}

TEST(FrontTable, InvalidateAllPurgesWholeTable) {
  // An acquire fence (barrier) wipes cache validity; a memoized fully-valid
  // block must not keep serving stale bytes through the fast path.
  it::run_pgas(front_opts(64), [&](int r, ip::pgas_space& s) {
    const std::size_t bs = 4 * ic::KiB;
    auto g = s.heap().coll_alloc(2 * bs, ic::dist_policy::block_cyclic);
    if (r == 1) {
      auto* p = static_cast<std::uint32_t*>(s.checkout(g + bs, bs, access_mode::write));
      for (std::size_t i = 0; i < bs / 4; i++) p[i] = 1;
      s.checkin(g + bs, bs, access_mode::write);
    }
    s.barrier();
    if (r == 0) {
      // Memoize the remote block with the old contents.
      auto* p = static_cast<const std::uint32_t*>(s.checkout(g + bs, bs, access_mode::read));
      EXPECT_EQ(p[10], 1u);
      s.checkin(g + bs, bs, access_mode::read);
    }
    s.barrier();
    if (r == 1) {
      auto* p = static_cast<std::uint32_t*>(s.checkout(g + bs, bs, access_mode::write));
      for (std::size_t i = 0; i < bs / 4; i++) p[i] = 2;
      s.checkin(g + bs, bs, access_mode::write);
    }
    s.barrier();  // rank 0's acquire must invalidate the memoized block
    if (r == 0) {
      auto* p = static_cast<const std::uint32_t*>(s.checkout(g + bs, bs, access_mode::read));
      EXPECT_EQ(p[10], 2u);
      EXPECT_EQ(p[1000], 2u);
      s.checkin(g + bs, bs, access_mode::read);
    }
    s.barrier();
  });
}

TEST(FrontTable, ResultsIdenticalWithAndWithoutTable) {
  // Differential run: the same access pattern with the front table on and
  // off must produce byte-identical results (the table is a pure memo).
  std::vector<std::uint32_t> results[2];
  const std::size_t table_sizes[2] = {64, 0};
  for (int cfg = 0; cfg < 2; cfg++) {
    it::run_pgas(front_opts(table_sizes[cfg]), [&](int r, ip::pgas_space& s) {
      const std::size_t bs = 4 * ic::KiB;
      const std::size_t n = 8 * bs / 4;
      auto g = s.heap().coll_alloc(8 * bs, ic::dist_policy::block_cyclic);
      if (r == 0) {
        auto* p = static_cast<std::uint32_t*>(s.checkout(g, 8 * bs, access_mode::write));
        for (std::size_t i = 0; i < n; i++) p[i] = static_cast<std::uint32_t>(7 * i + 1);
        s.checkin(g, 8 * bs, access_mode::write);
      }
      s.barrier();
      if (r == 1) {
        // Read-modify-write through mixed single-block checkouts.
        for (std::size_t b = 0; b < 8; b++) {
          auto* p = static_cast<std::uint32_t*>(
              s.checkout(g + b * bs, bs, access_mode::read_write));
          for (std::size_t i = 0; i < bs / 4; i++) p[i] += static_cast<std::uint32_t>(b);
          s.checkin(g + b * bs, bs, access_mode::read_write);
        }
      }
      s.barrier();
      if (r == 0) {
        auto* p = static_cast<const std::uint32_t*>(s.checkout(g, 8 * bs, access_mode::read));
        results[cfg].assign(p, p + n);
        s.checkin(g, 8 * bs, access_mode::read);
      }
      s.barrier();
    });
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0][0], 1u);
}

// The tiny options fetch 1 KiB sub-blocks of 4 KiB blocks, so a sparse read
// leaves its block memoized but only partially valid.
TEST(FrontTable, ServesValidSubBlockOfPartiallyValidBlock) {
  it::run_pgas(front_opts(64), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4 * ic::KiB, ic::dist_policy::block_cyclic);
    fill_remote_block(r, s, g, 100);
    if (r == 0) {
      // Cold read: fetches sub-block 0 and memoizes the block.
      EXPECT_EQ(read64(s, g, 0), 100u);
      const auto st0 = s.cache().get_stats();

      // (a) Another 64 B inside sub-block 0: a fast-path hit.
      EXPECT_EQ(read64(s, g, 32), 132u);
      auto st = s.cache().get_stats();
      EXPECT_EQ(st.fast_path_hits, st0.fast_path_hits + 1);
      EXPECT_EQ(st.block_hits, st0.block_hits + 1);
      EXPECT_EQ(st.block_misses, st0.block_misses);

      // (b) Sub-block 2 is not valid yet: slow path, one miss, one fetch.
      EXPECT_EQ(read64(s, g, 512), 612u);
      st = s.cache().get_stats();
      EXPECT_EQ(st.fast_path_hits, st0.fast_path_hits + 1);
      EXPECT_EQ(st.block_misses, st0.block_misses + 1);
      EXPECT_EQ(st.fetched_bytes, st0.fetched_bytes + ic::KiB);
      // ...after which sub-block 2 is served fast too.
      EXPECT_EQ(read64(s, g, 600), 700u);
      st = s.cache().get_stats();
      EXPECT_EQ(st.fast_path_hits, st0.fast_path_hits + 2);
      EXPECT_EQ(st.block_hits + st.block_misses + st.write_skips, st.block_visits);
    }
    s.barrier();
  });
}

TEST(FrontTable, InvalidateAllStopsServingPartiallyValidBlock) {
  it::run_pgas(front_opts(64), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4 * ic::KiB, ic::dist_policy::block_cyclic);
    fill_remote_block(r, s, g, 100);
    if (r == 0) {
      EXPECT_EQ(read64(s, g, 0), 100u);  // sub-block 0 valid, memoized
    }
    s.barrier();
    fill_remote_block(r, s, g, 200);  // its barrier invalidates rank 0's cache
    if (r == 0) {
      // (c) The partially valid block is gone from the table: a miss that
      // reads the new bytes, for checkout and get alike.
      const auto st0 = s.cache().get_stats();
      std::uint32_t v = 0;
      EXPECT_FALSE(s.get_fast(g + 4 * ic::KiB + 16, &v, sizeof(v)));
      EXPECT_EQ(read64(s, g, 8), 208u);
      const auto st = s.cache().get_stats();
      EXPECT_EQ(st.fast_path_hits, st0.fast_path_hits);
      EXPECT_EQ(st.block_misses, st0.block_misses + 1);
    }
    s.barrier();
  });
}

TEST(FrontTable, GetFastFollowsTheSameRules) {
  it::run_pgas(front_opts(64), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4 * ic::KiB, ic::dist_policy::block_cyclic);
    fill_remote_block(r, s, g, 100);
    if (r == 0) {
      EXPECT_EQ(read64(s, g, 0), 100u);  // sub-block 0 valid, memoized
      const auto st0 = s.cache().get_stats();
      // (d) A word of the valid sub-block is served...
      std::uint32_t v = 0;
      EXPECT_TRUE(s.get_fast(g + 4 * ic::KiB + 4 * 200, &v, sizeof(v)));
      EXPECT_EQ(v, 300u);
      // ...a word of an invalid one is not, and leaves no trace in the stats.
      EXPECT_FALSE(s.get_fast(g + 4 * ic::KiB + 4 * 300, &v, sizeof(v)));
      const auto st = s.cache().get_stats();
      EXPECT_EQ(st.fast_path_hits, st0.fast_path_hits + 1);
      EXPECT_EQ(st.block_hits, st0.block_hits + 1);
      EXPECT_EQ(st.checkouts, st0.checkouts + 1);
      EXPECT_EQ(st.checkins, st0.checkins + 1);
      EXPECT_EQ(st.block_misses, st0.block_misses);
    }
    s.barrier();
  });
}

TEST(FrontTable, PrefetchKeepsPartialBlockHitsOnTheSlowPath) {
  // (e) Under ITYR_PREFETCH the stream detector must see every partial-block
  // hit, so only fully valid blocks are served from the table.
  auto o = front_opts(64);
  o.prefetch = true;
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4 * ic::KiB, ic::dist_policy::block_cyclic);
    fill_remote_block(r, s, g, 100);
    if (r == 0) {
      EXPECT_EQ(read64(s, g, 0), 100u);
      const auto st0 = s.cache().get_stats();
      EXPECT_EQ(read64(s, g, 32), 132u);
      std::uint32_t v = 0;
      EXPECT_FALSE(s.get_fast(g + 4 * ic::KiB + 4 * 40, &v, sizeof(v)));
      const auto st = s.cache().get_stats();
      EXPECT_EQ(st.fast_path_hits, st0.fast_path_hits);
      EXPECT_EQ(st.block_hits, st0.block_hits + 1);
      EXPECT_EQ(st.block_misses, st0.block_misses);
    }
    s.barrier();
  });
}
