#include "itoyori/pgas/cache_system.hpp"

#include <algorithm>

#include "itoyori/common/error.hpp"
#include "itoyori/pgas/placement.hpp"

namespace ityr::pgas {

namespace {
// Geometry must be validated before any member sized off it is constructed,
// so the check rides the first initializer.
std::size_t checked_block_size(const common::options& o) {
  common::validate_cache_geometry(o.block_size, o.sub_block_size);
  common::validate_cache_size(o.cache_size, o.block_size);
  return o.block_size;
}
}  // namespace

cache_system::cache_system(sim::engine& eng, rma::context& rma, global_heap& heap,
                           rma::window& ctrl_win, int rank, placement_engine* pl)
    : eng_(eng),
      ch_(rma),
      heap_(heap),
      rank_(rank),
      block_size_(checked_block_size(eng.opts())),
      sub_block_size_(eng.opts().sub_block_size),
      pl_(pl),
      dir_(eng, *this, st_, block_size_, heap.total_size(), eng.opts().cache_size, rank),
      wb_(eng, ch_, dir_, ctrl_win, st_,
          {eng.opts().coalesce_rma, eng.opts().async_release, eng.opts().async_wb_max_inflight,
           rank, pl_}),
      write_policy_(make_write_policy(eng.opts().policy, ch_, dir_, wb_, st_, pl_, rank)),
      fetch_(eng, ch_, dir_, heap, st_,
             {block_size_, sub_block_size_, eng.opts().coalesce_rma,
              eng.opts().prefetch && eng.opts().prefetch_depth > 0 &&
                  eng.opts().prefetch_max_inflight > 0,
              eng.opts().prefetch_depth, eng.opts().prefetch_max_inflight, rank, pl_}),
      front_(eng, heap, dir_, *write_policy_, ch_, st_, checked_out_bytes_,
             eng.opts().front_table_size, block_size_, rank, fetch_.prefetch_enabled(), pl_) {
  jobs_acct_.enabled = eng.opts().serve;
  jobs_acct_.quota = eng.opts().cache_job_quota;
  if (jobs_acct_.enabled) dir_.set_job_accounting(&jobs_acct_);
}

void cache_system::sync_job_deltas() {
  job_cache_stats& row = jobs_acct_.of(jobs_acct_.cur);
  const std::uint64_t wb = st_.written_back_bytes + st_.write_through_bytes;
  row.fetched_bytes += st_.fetched_bytes - job_sync_fetched_;
  row.written_back_bytes += wb - job_sync_wb_;
  row.block_fetches += st_.block_misses - job_sync_misses_;
  job_sync_fetched_ = st_.fetched_bytes;
  job_sync_wb_ = wb;
  job_sync_misses_ = st_.block_misses;
}

void cache_system::on_block_evicted(mem_block& mb) {
  // Unread prefetches die with the block; the front table must never hold a
  // pointer that outlives it.
  fetch_.drop_prefetched(mb);
  front_.purge(mb.mb_id);
}

void* cache_system::checkout(gaddr_t g, std::size_t size, access_mode mode) {
  if (void* p = front_.checkout_fast(g, size, mode)) return p;

  ITYR_CHECK(eng_.my_rank() == rank_);
  ITYR_CHECK(size > 0);
  if (!heap_.in_heap(g, size)) throw common::api_error("checkout outside the global heap");
  st_.checkouts++;

  const std::uint64_t off0 = heap_.view_off(g);
  const std::uint64_t off1 = off0 + size;
  blocks_to_map_.clear();
  fetch_.begin_round();
  // Blocks already pinned by this checkout, for rollback if a later block
  // raises too-much-checkout: the failed checkout must leave no dangling
  // refcounts and no "valid" claims over never-fetched write-mode bytes.
  pinned_.clear();

  auto rollback = [&] {
    for (auto& t : pinned_) {
      ITYR_CHECK(t.mb->ref_count > 0);
      t.mb->ref_count--;
      if (!t.write_added.empty()) {
        t.mb->valid.subtract(t.write_added);
        t.mb->fully_valid = false;
      }
    }
  };

  try {
    for (std::uint64_t mb_id = off0 / block_size_; mb_id <= (off1 - 1) / block_size_; mb_id++) {
      const std::uint64_t block_base = mb_id * block_size_;
      const auto home = heap_.locate_block(mb_id);
      st_.block_visits++;
      // Write intent (write or read_write) invalidates replicas up front:
      // replica bytes must never be fetchable once a writer holds the block.
      if (pl_ != nullptr && mode != access_mode::read) pl_->note_write_intent(mb_id);

      if (home.rank == rank_ || eng_.same_node(home.rank, rank_)) {
        mem_block& mb = dir_.get_home_block(mb_id, home);
        ITYR_CHECK(mb.home.gen == home.gen);
        st_.block_hits++;  // home data is authoritative; nothing to fetch
        if (pl_ != nullptr && home.gen != 0) {
          // Migrated-to-us block: feed the traffic window (and bytes-saved
          // accounting) so a later pass can judge whether to keep it here.
          const std::uint64_t r0 = std::max(off0, block_base);
          const std::uint64_t r1 = std::min(off1, block_base + block_size_);
          pl_->note_local_home_visit(mb_id, rank_, r1 - r0, home);
        }
        if (!mb.mapped) blocks_to_map_.push_back(&mb);
        mb.ref_count++;
        pinned_.push_back({&mb, {}});
        if (fetch_.prefetch_enabled() && mode != access_mode::write) {
          // Home blocks have nothing to prefetch, but a sequential stream
          // runs straight through them (block-cyclic interleaves home and
          // remote blocks), so they still advance the detector.
          const std::uint64_t r0 = std::max(off0, block_base);
          const std::uint64_t r1 = std::min(off1, block_base + block_size_);
          fetch_.feed_stream(static_cast<std::int64_t>(r0 / sub_block_size_),
                             static_cast<std::int64_t>((r1 - 1) / sub_block_size_),
                             /*was_miss=*/false);
        }
        continue;
      }

      mem_block& mb = dir_.get_cache_block(mb_id, home);
      if (pl_ != nullptr && mb.home.gen != home.gen) {
        // A cached record survived a home migration (defensive: migration
        // purges every rank's record first, so this should be unreachable,
        // but a forwarding retry is cheap insurance against future reorders).
        st_.forward_retries++;
        fetch_.drop_prefetched(mb);
        front_.purge(mb.mb_id);
        mb.home = home;
      }
      // Requested region, block-relative.
      const common::interval req{std::max(off0, block_base) - block_base,
                                 std::min(off1, block_base + block_size_) - block_base};
      common::interval write_added{};
      bool was_miss = false;
      if (mode == access_mode::write) {
        // Write-only: the bytes will be fully overwritten; no fetch (Fig. 4
        // line 16). They become "valid" in the sense that the cache copy is
        // the authoritative one from now on.
        st_.write_skips++;
        if (!mb.valid.contains(req)) {
          mb.valid.add(req);
          mb.update_fully_valid(block_size_);
          write_added = req;
        }
      } else if (mb.valid.contains(req)) {
        st_.block_hits++;
      } else {
        st_.block_misses++;
        was_miss = true;
        // Fetch at sub-block granularity for spatial locality, skipping
        // already-valid (possibly dirty!) byte ranges (Fig. 4 lines 18-21).
        if (pl_ != nullptr && pl_->has_replicas()) {
          // Resolve the read source right before queueing: replica reads are
          // issued eagerly inside queue_demand, with no yield in between, so
          // the slot cannot be invalidated under us.
          bool from_replica = false;
          const auto src = pl_->read_source(mb_id, home, rank_, from_replica);
          fetch_.queue_demand(mb, fetch_.pad_to_sub_blocks(req), src, from_replica);
        } else {
          fetch_.queue_demand(mb, fetch_.pad_to_sub_blocks(req));
        }
      }
      if (!mb.mapped) blocks_to_map_.push_back(&mb);
      mb.ref_count++;
      pinned_.push_back({&mb, write_added});
      if (fetch_.prefetch_enabled()) {
        if (mode == access_mode::write) {
          // A write into a range with in-flight prefetches must wait them
          // out (a real RDMA get would overwrite the buffer); prefetched
          // bytes overwritten before being read count as wasted.
          fetch_.consume_prefetch(mb, req, /*is_write=*/true);
        } else {
          // Consume at demand-fetch granularity: every prefetched byte in
          // the padded range is a byte a demand miss would have fetched.
          const common::interval padded = fetch_.pad_to_sub_blocks(req);
          fetch_.consume_prefetch(mb, padded, /*is_write=*/false);
          fetch_.feed_stream(
              static_cast<std::int64_t>((block_base + padded.begin) / sub_block_size_),
              static_cast<std::int64_t>((block_base + padded.end - 1) / sub_block_size_),
              was_miss);
        }
      }
    }
  } catch (const common::too_much_checkout_error&) {
    // Gaps collected so far were already claimed valid; their data must
    // still land before anyone trusts those claims.
    fetch_.issue_round();
    rollback();
    ch_.flush();
    throw;
  }

  const double round_done = fetch_.issue_round();
  // Update memory mappings only after all communication has been issued, to
  // overlap the mmap syscalls with the transfers (Fig. 4 lines 25-29).
  for (mem_block* mb : blocks_to_map_) dir_.map_block(*mb);
  fetch_.wait_round(round_done);
  for (auto& t : pinned_) front_.memoize(*t.mb);

  checked_out_bytes_ += size;
  return dir_.view().at(off0);
}

void cache_system::checkin(gaddr_t g, std::size_t size, access_mode mode) {
  if (front_.checkin_fast(g, size, mode)) return;

  ITYR_CHECK(eng_.my_rank() == rank_);
  ITYR_CHECK(size > 0);
  if (!heap_.in_heap(g, size)) throw common::api_error("checkin outside the global heap");
  st_.checkins++;

  const std::uint64_t off0 = heap_.view_off(g);
  const std::uint64_t off1 = off0 + size;
  bool flushed_any = false;

  for (std::uint64_t mb_id = off0 / block_size_; mb_id <= (off1 - 1) / block_size_; mb_id++) {
    const std::uint64_t block_base = mb_id * block_size_;
    const auto home = heap_.locate_block(mb_id);

    if (home.rank == rank_ || eng_.same_node(home.rank, rank_)) {
      mem_block* mb = dir_.find_home_block(mb_id);
      if (mb == nullptr || mb->ref_count == 0)
        throw common::api_error("checkin without matching checkout (home block)");
      mb->ref_count--;
      continue;
    }

    mem_block* mb = dir_.find_cache_block(mb_id);
    if (mb == nullptr || mb->ref_count == 0)
      throw common::api_error("checkin without matching checkout (cache block)");

    if (mode != access_mode::read) {
      const common::interval req{std::max(off0, block_base) - block_base,
                                 std::min(off1, block_base + block_size_) - block_base};
      flushed_any |= write_policy_->on_dirty(*mb, req);
    }
    mb->ref_count--;
  }

  if (flushed_any) ch_.flush();
  ITYR_CHECK(checked_out_bytes_ >= size);
  checked_out_bytes_ -= size;
}

void cache_system::invalidate_all() {
  dir_.for_each_cache_block([&](mem_block& mb) {
    // Self-invalidation must not happen while data is checked out: checkouts
    // must be checked in before any point where threads can migrate
    // (Section 3.3).
    ITYR_CHECK(mb.ref_count == 0);
    ITYR_CHECK(mb.dirty.empty());
    fetch_.drop_prefetched(mb);
    mb.valid.clear();
    mb.fully_valid = false;
  });
  // Memoized cache blocks just lost all their data; drop every memo (home
  // entries too — an acquire is rare enough that refilling is cheap).
  front_.purge_all();
  // Streams were tracking a working set that a sync point just cut off;
  // start detection afresh rather than prefetching across the fence.
  fetch_.reset_streams();
  st_.acquires++;
}

void cache_system::release() {
  ITYR_CHECK(eng_.my_rank() == rank_);
  wb_.writeback_all();
}

release_handler cache_system::release_lazy() {
  ITYR_CHECK(eng_.my_rank() == rank_);
  return wb_.release_lazy();
}

void cache_system::acquire() {
  ITYR_CHECK(eng_.my_rank() == rank_);
  ITYR_CHECK(!has_dirty());
  invalidate_all();
}

void cache_system::acquire(release_handler h) {
  ITYR_CHECK(eng_.my_rank() == rank_);
  wb_.wait_handler(h);
  invalidate_all();
}

void cache_system::acquire(const release_handler* hs, std::size_t n) {
  ITYR_CHECK(eng_.my_rank() == rank_);
  for (std::size_t i = 0; i < n; i++) wb_.wait_handler(hs[i]);
  invalidate_all();
}

void cache_system::acquire_watermark(double w) {
  ITYR_CHECK(eng_.my_rank() == rank_);
  ITYR_CHECK(!has_dirty());
  wb_.wait_visibility(w);
  invalidate_all();
}

}  // namespace ityr::pgas
