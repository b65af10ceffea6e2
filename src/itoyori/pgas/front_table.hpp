#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "itoyori/pgas/block_directory.hpp"
#include "itoyori/pgas/cache_stats.hpp"
#include "itoyori/pgas/global_heap.hpp"
#include "itoyori/pgas/mem_block.hpp"
#include "itoyori/pgas/types.hpp"
#include "itoyori/pgas/write_policy.hpp"
#include "itoyori/rma/channel.hpp"
#include "itoyori/sim/engine.hpp"

namespace ityr::pgas {

class placement_engine;

/// Fast-path layer of the coherence stack: a small direct-mapped memo of
/// recently touched blocks, and the four entry points served from it. A
/// single-block checkout whose block is memoized, mapped and holds the
/// requested bytes (or is a home block) bypasses the hash map, the heap's
/// home lookup and the fetch round; the get/put variants additionally skip
/// the pin/unpin pair. A read of a block that is not fully valid costs one
/// interval lookup; under prefetching only fully valid blocks qualify.
///
/// Memos hold raw mem_block pointers, so the directory's eviction callback
/// must purge() a block before destroying it, and invalidate_all must
/// purge_all() — a front-table hit can then never reference a dead or stale
/// block.
class front_table {
public:
  front_table(sim::engine& eng, global_heap& heap, block_directory& dir, write_policy& wp,
              rma::channel& ch, cache_stats& st, std::size_t& checked_out_bytes,
              std::size_t n_entries, std::size_t block_size, int rank, bool prefetch,
              placement_engine* pl = nullptr);

  std::size_t entries() const { return table_.size(); }

  void memoize(mem_block& mb) {
    if (!table_.empty() && mb.mapped) {
      table_[mb.mb_id & mask_] = {mb.mb_id, &mb};
    }
  }
  void purge(std::uint64_t mb_id) {
    if (table_.empty()) return;
    entry& fe = table_[mb_id & mask_];
    if (fe.mb_id == mb_id) fe = {};
  }
  void purge_all() {
    for (entry& fe : table_) fe = {};
  }

  /// Single-block fast checkout: non-null iff served from the memo.
  void* checkout_fast(gaddr_t g, std::size_t size, access_mode mode);
  /// Matching fast checkin; false means the caller must use the slow path.
  bool checkin_fast(gaddr_t g, std::size_t size, access_mode mode);
  /// One-shot single-element load/store: checkout+copy+checkin fused, no
  /// pin/unpin (nothing can intervene — the copy cannot yield).
  bool get_fast(gaddr_t g, std::size_t size, void* out);
  bool put_fast(gaddr_t g, std::size_t size, const void* in);

private:
  /// Direct-mapped memo of recently touched blocks (mapped ones only).
  struct entry {
    std::uint64_t mb_id = kNoBlock;
    mem_block* mb = nullptr;
  };
  static constexpr std::uint64_t kNoBlock = ~std::uint64_t{0};

  /// Probe shared by the fast paths: the memoized block iff the request is
  /// in-heap, within one block, and memoized.
  mem_block* probe(gaddr_t g, std::size_t size);
  /// Whether cache block `mb` may serve a read of [off0, off0 + size).
  bool holds(const mem_block& mb, std::uint64_t off0, std::size_t size) const;

  sim::engine& eng_;
  global_heap& heap_;
  block_directory& dir_;
  write_policy& wp_;
  rma::channel& ch_;
  cache_stats& st_;
  std::size_t& checked_out_bytes_;
  const std::size_t block_size_;
  const int rank_;
  const bool prefetch_;  ///< stream prefetcher on: fully valid blocks only

  placement_engine* pl_;  ///< dynamic placement (null when off)

  std::vector<entry> table_;  ///< size is a power of two (or empty)
  std::uint64_t mask_ = 0;
};

}  // namespace ityr::pgas
