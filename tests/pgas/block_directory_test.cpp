/// Direct unit tests for the block_directory layer: slot allocation and
/// reuse, the client escalation hooks (dirty flush before declaring
/// too-much-checkout), and strict-LRU victim order.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>

#include "../support/fixture.hpp"
#include "itoyori/common/error.hpp"
#include "itoyori/pgas/block_directory.hpp"

namespace ip = ityr::pgas;
namespace ic = ityr::common;
namespace it = ityr::test;

namespace {

constexpr std::size_t kBlock = 4 * ic::KiB;

/// Forwarding client so tests can observe/wire the directory's callbacks
/// after construction.
struct test_client final : ip::block_directory::client {
  std::function<void(ip::mem_block&)> on_evict;
  std::function<void()> on_flush;
  void on_block_evicted(ip::mem_block& mb) override {
    if (on_evict) on_evict(mb);
  }
  void flush_dirty_for_eviction() override {
    if (on_flush) on_flush();
  }
};

ip::home_loc remote_home(std::uint64_t mb_id) {
  ip::home_loc h;
  h.rank = 1;
  h.pool_off = mb_id * kBlock;
  return h;
}

/// Runs `body` on rank 0 of a 2-node x 1-rank cluster with a directory over
/// a `cache_blocks`-slot cache.
void with_directory(std::size_t cache_blocks,
                    const std::function<void(ip::block_directory&, test_client&,
                                             ip::cache_stats&)>& body) {
  auto o = it::tiny_opts(2, 1);
  o.cache_size = cache_blocks * kBlock;
  ityr::sim::engine eng(o);
  eng.run([&](int r) {
    if (r != 0) return;
    test_client cl;
    ip::cache_stats st;
    ip::block_directory dir(eng, cl, st, kBlock, /*view_size=*/64 * kBlock, o.cache_size,
                            /*rank=*/0);
    body(dir, cl, st);
  });
}

}  // namespace

TEST(BlockDirectory, SlotsAreReusedAfterEviction) {
  with_directory(2, [](ip::block_directory& dir, test_client&, ip::cache_stats& st) {
    EXPECT_EQ(dir.n_cache_blocks(), 2u);
    ip::mem_block& a = dir.get_cache_block(0, remote_home(0));
    ip::mem_block& b = dir.get_cache_block(1, remote_home(1));
    EXPECT_NE(a.slot, b.slot);
    const std::size_t slot_a = a.slot;
    // Third block: the cache is full, the untouched LRU block (a) dies and
    // its slot is recycled.
    ip::mem_block& c = dir.get_cache_block(2, remote_home(2));
    EXPECT_EQ(c.slot, slot_a);
    EXPECT_EQ(st.cache_evictions, 1u);
    EXPECT_EQ(dir.find_cache_block(0), nullptr);
    EXPECT_NE(dir.find_cache_block(1), nullptr);
  });
}

TEST(BlockDirectory, EvictionCallbackFiresBeforeBlockDies) {
  with_directory(1, [](ip::block_directory& dir, test_client& cl, ip::cache_stats&) {
    std::uint64_t evicted = ~std::uint64_t{0};
    bool was_alive = false;
    cl.on_evict = [&](ip::mem_block& mb) {
      evicted = mb.mb_id;
      was_alive = dir.find_cache_block(mb.mb_id) == &mb;  // not yet destroyed
    };
    dir.get_cache_block(7, remote_home(7));
    dir.get_cache_block(8, remote_home(8));
    EXPECT_EQ(evicted, 7u);
    EXPECT_TRUE(was_alive);
  });
}

TEST(BlockDirectory, DirtyBlocksEscalateThroughClientFlush) {
  with_directory(1, [](ip::block_directory& dir, test_client& cl, ip::cache_stats&) {
    ip::mem_block& a = dir.get_cache_block(0, remote_home(0));
    a.dirty.add({0, 64});  // dirty and unpinned: unevictable until flushed
    bool flushed = false;
    cl.on_flush = [&] {
      flushed = true;
      a.dirty.clear();
    };
    // The only slot is dirty; allocation must ask the client to write back,
    // then succeed on retry.
    dir.get_cache_block(1, remote_home(1));
    EXPECT_TRUE(flushed);
    EXPECT_EQ(dir.find_cache_block(0), nullptr);
  });
}

TEST(BlockDirectory, AllPinnedThrowsTooMuchCheckout) {
  with_directory(1, [](ip::block_directory& dir, test_client&, ip::cache_stats&) {
    ip::mem_block& a = dir.get_cache_block(0, remote_home(0));
    a.ref_count = 1;  // pinned: the flush escalation cannot help
    EXPECT_THROW(dir.get_cache_block(1, remote_home(1)), ic::too_much_checkout_error);
    a.ref_count = 0;
  });
}

/// The same access sequence must pick different victims under LRU and clock:
/// insert A,B,C; touch A; evict twice (allocating D then E).
/// LRU moves A to MRU, so the list reads B,C,A and the victims are B, C.
TEST(BlockDirectory, LruEvictsInRecencyOrder) {
  with_directory(3, [](ip::block_directory& dir, test_client&, ip::cache_stats&) {
    dir.get_cache_block(0, remote_home(0));  // A
    dir.get_cache_block(1, remote_home(1));  // B
    dir.get_cache_block(2, remote_home(2));  // C
    dir.touch(*dir.find_cache_block(0));     // A used again
    dir.get_cache_block(3, remote_home(3));  // evicts B
    EXPECT_EQ(dir.find_cache_block(1), nullptr);
    dir.get_cache_block(4, remote_home(4));  // evicts C
    EXPECT_EQ(dir.find_cache_block(2), nullptr);
    EXPECT_NE(dir.find_cache_block(0), nullptr);  // A survives
  });
}
