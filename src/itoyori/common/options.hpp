#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "itoyori/common/topology.hpp"

namespace ityr::common {

inline constexpr std::size_t KiB = std::size_t{1} << 10;
inline constexpr std::size_t MiB = std::size_t{1} << 20;
inline constexpr std::size_t GiB = std::size_t{1} << 30;

/// Dirty-data handling policy for the software cache (paper Section 4.4/5.2).
enum class cache_policy {
  none,             ///< no cache: GET/PUT baseline (paper Section 6.1)
  write_through,    ///< flush dirty bytes on every checkin
  write_back,       ///< flush dirty bytes at release fences
  write_back_lazy,  ///< + delay Release #1 until the continuation is stolen
};

const char* to_string(cache_policy p);
cache_policy cache_policy_from_string(const std::string& s);

/// Memory distribution policy for collective allocations (paper Section 4.2).
enum class dist_policy {
  block,         ///< contiguous even split across ranks
  block_cyclic,  ///< fixed-size blocks round-robin across ranks
};

const char* to_string(dist_policy p);

/// Victim-selection policy for work stealing. `random` is the paper's
/// uniformly random stealing; `hierarchical` is an extension implementing
/// the paper's Section 8 future-work direction (locality-aware scheduling):
/// a per-distance-class escalation ladder over the topology's LCA classes
/// that probes class-0 peers first and escalates to farther classes only
/// after steal_escalation_rounds consecutive failures, with
/// last-successful-victim affinity (docs/internals.md "Steal protocol").
enum class steal_policy {
  random,
  hierarchical,
};

const char* to_string(steal_policy p);
steal_policy steal_policy_from_string(const std::string& s);

/// Steal-fairness policy under multi-job serving (ITYR_STEAL_FAIRNESS).
/// `off` is the job-blind protocol: thieves always claim the victim's
/// front-most (oldest) continuation. `job_weighted` makes the probe read the
/// victim's per-job deque occupancy (piggybacking on the one-sided bounds
/// read — no extra modelled traffic) and claim the front-most entry of the
/// job with the FEWEST queued entries, so a job with a deep subtree cannot
/// monopolize the steal channel and starve small jobs' continuations buried
/// behind it. In single-job mode every entry carries job 0, the minimum is
/// the whole deque, and the claim degenerates to the front entry —
/// bit-identical to `off`.
enum class steal_fairness_kind {
  off,
  job_weighted,
};

const char* to_string(steal_fairness_kind k);
steal_fairness_kind steal_fairness_from_string(const std::string& s);

/// How fibers switch contexts (ITYR_FIBER_BACKEND). `asm_switch` is a
/// minimal hand-rolled callee-saved-register switch (no signal-mask syscall,
/// ~10ns); `ucontext` is the portable swapcontext path. The default is
/// asm_switch where supported (x86-64/aarch64, not under ASan), ucontext
/// otherwise.
enum class fiber_backend_kind {
  asm_switch,
  ucontext,
};

const char* to_string(fiber_backend_kind k);
fiber_backend_kind fiber_backend_from_string(const std::string& s);

/// Default backend for this build: honors ITYR_FIBER_BACKEND, then falls
/// back to asm_switch when the architecture supports it and the build is not
/// sanitized (ASan tracks fiber stacks through swapcontext only).
fiber_backend_kind default_fiber_backend();

/// Whether this build can run the asm backend at all (x86-64/aarch64 ELF,
/// not sanitized). Tests use this to skip asm-specific cases gracefully.
bool asm_fiber_backend_supported();

/// Network cost-model constants, LogGP-flavoured.
///
/// An RMA operation of n bytes issued by rank r to rank t costs the issuer
/// `o` (injection overhead) immediately; the payload occupies r's injection
/// channel for n/bandwidth and the data lands at `latency` after the channel
/// slot. Remote atomics are round trips. Defaults approximate a Tofu-D-like
/// interconnect (the paper's testbed): ~1.2 us put/get latency, ~6 GB/s per
/// link; intra-node transfers go through shared memory and are much cheaper.
struct network_model {
  double inter_latency   = 1.2e-6;   ///< seconds, one-way, inter-node
  double inter_bandwidth = 6.0e9;    ///< bytes/second, inter-node
  double intra_latency   = 0.15e-6;  ///< seconds, one-way, intra-node
  double intra_bandwidth = 12.0e9;   ///< bytes/second, intra-node
  double injection_overhead = 0.2e-6;  ///< seconds of issuer CPU per message
  double atomic_latency  = 1.8e-6;   ///< seconds per remote atomic round trip
};

/// All tunables of the runtime, settable programmatically and via
/// ITYR_*-prefixed environment variables (see from_env()).
struct options {
  // --- simulated cluster topology ---
  int n_nodes        = 2;
  int ranks_per_node = 4;

  /// Interconnect shape (ITYR_TOPOLOGY: "flat", "fat_tree:<arity>,<levels>",
  /// "dragonfly:<groups>"); see common/topology.hpp. The default `flat`
  /// reproduces the historic two-tier intra/inter-node cost model
  /// bit-for-bit.
  topology_spec topology;

  // --- memory system (paper Section 6.1 defaults, scaled) ---
  std::size_t block_size     = 64 * KiB;  ///< cache/home block granularity
  std::size_t sub_block_size = 4 * KiB;   ///< remote-fetch granularity
  std::size_t cache_size     = 16 * MiB;  ///< per-rank software cache capacity

  /// Per-rank collective-heap home segment and noncollective-heap segment.
  std::size_t coll_heap_per_rank    = 64 * MiB;
  std::size_t noncoll_heap_per_rank = 32 * MiB;

  /// Modelled `vm.max_map_count`-style ledger (paper Section 4.3.2). The
  /// number of home blocks simultaneously mapped per rank is limited so the
  /// worst-case 2N+1 mapping entries stay under this bound.
  std::size_t max_map_entries = 65530;

  cache_policy policy       = cache_policy::write_back_lazy;
  dist_policy default_dist  = dist_policy::block_cyclic;

  /// Cross-block RMA coalescing: fetch gaps and write-back runs addressed to
  /// the same (window, rank) within one checkout or write-back round are
  /// issued as a single message (contiguous remote runs are merged outright;
  /// disjoint runs ride one gather message, MPI-datatype style). Off = one
  /// message per gap, the paper's baseline behaviour.
  bool coalesce_rma = true;

  /// Entries in the per-rank direct-mapped front table memoizing recently
  /// touched memory blocks; single-block checkouts hitting a memoized
  /// mapped, fully-valid (or home) block skip the hash map, home lookup and
  /// interval algebra entirely. 0 disables the fast path. Rounded up to a
  /// power of two.
  std::size_t front_table_size = 64;

  /// Adaptive sub-block prefetching (ITYR_PREFETCH): read-mode checkout
  /// misses feed a per-rank stream detector; a confirmed sequential stream
  /// (forward or backward) issues nonblocking gets for the next sub-blocks
  /// ahead of the consumer, tracked as in-flight intervals so a later
  /// checkout only waits out the remaining modelled latency. Off by default:
  /// with prefetching disabled every counter, bench and trace is
  /// bit-identical to the pre-prefetch runtime.
  bool prefetch = false;
  /// How far ahead of a confirmed stream to prefetch, in sub-blocks
  /// (ITYR_PREFETCH_DEPTH). 0 disables prefetching.
  std::size_t prefetch_depth = 8;
  /// Cap on modelled in-flight prefetched bytes per rank
  /// (ITYR_PREFETCH_MAX_INFLIGHT). 0 disables prefetching.
  std::size_t prefetch_max_inflight = 1 * MiB;

  /// Asynchronous epoch-pipelined release (ITYR_ASYNC_RELEASE): write-back
  /// rounds issue their put segments nonblocking, record the round's modelled
  /// completion time in a per-rank epoch->ready_at ring, and return to
  /// compute immediately; visibility is enforced on the *acquire* side by a
  /// targeted wait on the releaser's round completion. Idle workers flush
  /// dirty data opportunistically between failed steals. Off by default:
  /// with it disabled every counter, bench and trace is bit-identical to the
  /// synchronous-release runtime.
  bool async_release = false;
  /// Cap on modelled in-flight write-back bytes per rank
  /// (ITYR_ASYNC_WB_MAX_INFLIGHT). A release fence over budget stalls until
  /// enough older rounds complete — never unbounded. 0 degenerates to
  /// draining every previous round before issuing the next.
  std::size_t async_wb_max_inflight = 4 * MiB;

  // --- dynamic data placement (docs/internals.md "dynamic data placement") ---
  /// Counter-driven home migration (ITYR_MIGRATION): a periodic placement
  /// pass moves a block's home to the rank generating most of its miss
  /// traffic; stale cached locations carry a forwarding generation and are
  /// retried through global_heap. Off by default; with it (and replication)
  /// disabled every counter, bench and trace is bit-identical to the
  /// fixed-home runtime.
  bool migration = false;
  /// Virtual seconds between placement passes (ITYR_MIGRATION_INTERVAL).
  /// Shared by migration and replication; must be positive.
  double placement_interval = 1.0e-3;
  /// Minimum remote-miss traffic (bytes) a block must draw within one pass
  /// window before migration considers it (ITYR_MIGRATION_MIN_BYTES).
  std::uint64_t migration_min_bytes = 64 * KiB;
  /// Dominance threshold (ITYR_MIGRATION_SHARE) in (0, 1]: the candidate
  /// rank's surplus over all other readers combined, as a fraction of the
  /// block's window traffic, must reach this before its home moves.
  double migration_share = 0.5;
  /// Per-rank capacity of the migrated-home pool, in blocks
  /// (ITYR_MIGRATION_POOL_BLOCKS); pool-full candidates are skipped, counted
  /// in pgas.pool_full_skips.
  std::size_t migration_pool_blocks = 256;
  /// Read-mostly replication (ITYR_REPLICATION): the placement pass copies
  /// blocks read by several nodes into per-node read-only replicas served on
  /// the cache fetch path; any write intent or write-back invalidates them.
  bool replication = false;
  /// Minimum fetch traffic (bytes) within one pass window before a block is
  /// replicated (ITYR_REPLICATION_MIN_BYTES).
  std::uint64_t replication_min_bytes = 64 * KiB;
  /// Distinct reader nodes (>= 2) required before replication pays off
  /// (ITYR_REPLICATION_MIN_READERS); a single-reader block is a migration
  /// candidate, not a replication one.
  int replication_min_readers = 2;
  /// Per-node capacity of the replica pool, in blocks
  /// (ITYR_REPLICATION_POOL_BLOCKS).
  std::size_t replication_pool_blocks = 256;
  /// Export the N hottest home blocks (id, owner, reader mask, fetch bytes)
  /// as pgas.hot_blocks in the stats JSON (ITYR_HOT_BLOCKS_TOPN); 0 (the
  /// default) disables collection entirely.
  std::size_t hot_blocks_topn = 0;

  // --- scheduler ---
  std::size_t ult_stack_size = 256 * KiB;  ///< user-level thread stacks (ITYR_ULT_STACK_SIZE)
  double steal_backoff       = 2.0e-6;     ///< seconds between failed steal rounds
  double poll_interval       = 0.5e-6;     ///< epoch-poll spin granularity
  /// Victim selection (ITYR_STEAL_POLICY: random | hierarchical). The
  /// default `random` is the paper's protocol, bit-identical to every
  /// pre-knob run.
  steal_policy steal         = steal_policy::random;
  /// Max deque entries one steal's probe+CAS round may claim
  /// (ITYR_STEAL_BATCH). The thief takes min(steal_batch, ceil(depth/2))
  /// contiguous top-of-deque entries — "steal half", capped. 1 (the default)
  /// is the paper's single-entry steal, bit-identical to pre-batch runs; a
  /// large value (e.g. 64) is effectively uncapped steal-half.
  std::size_t steal_batch    = 1;
  /// hierarchical only: consecutive failed probes at the current distance
  /// class before the ladder escalates to the next farther class
  /// (ITYR_STEAL_ESCALATION_ROUNDS); must be >= 1. The default of 3 is the
  /// sweet spot measured at 1024 ranks on a fat tree: 2 gives up on near
  /// victims too early and re-inflates far probe traffic, 4+ lingers on
  /// drained classes.
  int steal_escalation_rounds = 3;
  /// Adaptive per-victim backoff (ITYR_STEAL_ADAPTIVE_BACKOFF): remember
  /// recently-empty victims in a small per-rank table and suppress probes to
  /// them for an exponentially growing window, so failed-probe traffic stops
  /// growing linearly with rank count. Off by default (bit-identical probe
  /// traffic to pre-backoff runs); the idle loop's idle_flush() keeps
  /// running on every suppressed round.
  bool steal_adaptive_backoff = false;

  // --- multi-job serving (docs/internals.md "multi-job serving") ---
  /// Multi-tenant job-stream serving (ITYR_SERVE): the runtime admits an
  /// open-loop stream of independent fork-join jobs through the job manager
  /// instead of running one root task, tags every task and deque entry with
  /// its job id, and accounts cache traffic per job. Off by default: with it
  /// disabled every counter, bench and trace is bit-identical to the
  /// single-root-task runtime.
  bool serve = false;
  /// Open-loop arrival rate in jobs per virtual second
  /// (ITYR_SERVE_ARRIVAL_RATE); inter-arrival gaps are exponential,
  /// generated deterministically from the run seed. Must be positive.
  double serve_arrival_rate = 1000.0;
  /// Not consumed by the runtime: serve() admits exactly the job_specs it is
  /// given. Benches record their stream's job count and workload mix here
  /// (the mix syntax is parse_serve_mix's), and validate_serving still
  /// checks both; no environment variable sets them.
  std::size_t serve_jobs = 16;
  std::string serve_mix = "cilksort";
  /// Victim-side steal fairness across jobs (ITYR_STEAL_FAIRNESS:
  /// off | job_weighted); see steal_fairness_kind. Composes with the PR-9
  /// steal knobs; batch claims never span job boundaries either way.
  steal_fairness_kind steal_fairness = steal_fairness_kind::off;
  /// Per-job software-cache capacity quota in bytes (ITYR_CACHE_JOB_QUOTA);
  /// 0 (the default) disables it. A job holding more cached bytes than the
  /// quota recycles its own clean blocks first when it needs a new slot, so
  /// a scan-heavy job cannot evict a latency-sensitive job's working set.
  /// The quota is soft: pinned or dirty blocks never block an allocation.
  std::size_t cache_job_quota = 0;

  // --- simulator core (docs/internals.md "simulator core") ---
  /// Context-switch backend for fibers (ITYR_FIBER_BACKEND). Defaults to
  /// the syscall-free asm backend where supported; see default_fiber_backend.
  fiber_backend_kind fiber_backend = default_fiber_backend();

  // --- time model ---
  /// If true, measured compute time is replaced by a fixed cost per resume,
  /// making the whole simulation bit-deterministic (used by tests).
  bool deterministic = false;
  double deterministic_resume_cost = 0.5e-6;

  network_model net;

  // --- observability (docs/observability.md) ---
  /// Dump a Chrome/Perfetto trace_events JSON timeline here when the
  /// runtime is destroyed; empty disables tracing (ITYR_TRACE).
  std::string trace_path;
  /// Per-rank ring-buffer capacity in events (ITYR_TRACE_CAP); oldest
  /// events are evicted first once full.
  std::size_t trace_cap = std::size_t{1} << 20;
  /// Dump the unified metrics-registry snapshot here when the runtime is
  /// destroyed; empty disables it (ITYR_STATS_JSON).
  std::string stats_json_path;
  /// Virtual-seconds period for sampling counter time-series into the
  /// trace (ITYR_METRICS_SAMPLE_INTERVAL); <= 0 disables sampling. Only
  /// active while tracing is on.
  double metrics_sample_interval = 1.0e-4;
  /// Emit one per-message "rma" trace flow for every Nth message a rank
  /// issues (ITYR_TRACE_FLOW_SAMPLE). 1 = every message (historic
  /// behaviour), 0 = none; sampling keeps O(1000)-rank traces writable.
  std::uint64_t trace_flow_sample = 1;
  /// Online critical-path (work/span) profiler (ITYR_CRITPATH): every task
  /// carries a running work/span accumulator, joins take the max over child
  /// spans, and span time is attributed into compute / fetch-stall /
  /// release-stall / steal-wait / acquire-fence buckets plus per-distance-
  /// class network shares for the what-if projection. Off by default; the
  /// hooks charge nothing to the virtual clock, so enabling it never
  /// changes a run's schedule or timing.
  bool critpath = false;
  /// Bucket count of the mergeable log2 histograms (task execution time,
  /// steal latency, fence time, RMA message size) exported with p50/p90/p99
  /// in the stats JSON (ITYR_HIST_BUCKETS). Valid range [4, 512].
  std::size_t hist_buckets = 48;

  std::uint64_t seed = 42;

  int n_ranks() const { return n_nodes * ranks_per_node; }

  /// Read overrides from ITYR_* environment variables on top of defaults.
  /// Throws common::error if a value does not parse (naming the variable and
  /// the raw value) or the resulting cache geometry, cluster shape, or
  /// topology is invalid (see validate_cache_geometry / validate_cache_size /
  /// validate_topology / validate_sim_core), and common::api_error naming
  /// the variable if a non-empty ITYR_* variable is not one this function
  /// reads (a retired or misspelled knob must not silently run defaults).
  static options from_env();
};

/// Check the cache-geometry invariants the block/interval arithmetic relies
/// on: both sizes are nonzero powers of two and the sub-block (remote-fetch
/// granularity) fits inside a block. Throws common::error with the offending
/// value otherwise — a garbage ITYR_BLOCK_SIZE must fail loudly at startup,
/// not corrupt interval math later. Called by options::from_env() and by the
/// cache system's constructor (covering programmatically built options).
void validate_cache_geometry(std::size_t block_size, std::size_t sub_block_size);

/// Check that the per-rank cache (ITYR_CACHE_SIZE) is a whole number of
/// blocks, at least one: the cache pool is carved into block-sized frames,
/// and a smaller or ragged size would otherwise be rounded silently. Call it
/// after validate_cache_geometry (block_size must be nonzero). Throws
/// common::error naming ITYR_CACHE_SIZE. Called by options::from_env() and by
/// the cache system's constructor.
void validate_cache_size(std::size_t cache_size, std::size_t block_size);

/// Check the simulator-core knobs: ULT stacks must hold at least a few
/// frames (>= 16 KiB) or the guard page fires on the first fork. Throws
/// common::error with the offending value otherwise. Called by
/// options::from_env() and the engine constructor (covering programmatically
/// built options).
void validate_sim_core(std::size_t ult_stack_size);

/// Check the observability knobs: the histogram bucket count must land in
/// [4, 512] — fewer buckets cannot resolve percentiles, more is a typo'd
/// byte size. Throws common::error with the offending value otherwise.
/// Called by options::from_env().
void validate_observability(std::size_t hist_buckets);

/// Check the dynamic-data-placement knobs (ITYR_MIGRATION* /
/// ITYR_REPLICATION* / ITYR_HOT_BLOCKS_TOPN): the pass interval must be
/// positive, the dominance share must land in (0, 1], enabled features need
/// nonzero pools, replication needs >= 2 reader nodes, and the hot-block
/// export count must be a sane list length. Throws common::error with the
/// offending value otherwise. Called by options::from_env() and the
/// placement engine's constructor (covering programmatically built options).
void validate_placement(bool migration, bool replication, double placement_interval,
                        double migration_share, std::size_t migration_pool_blocks,
                        std::size_t replication_pool_blocks, int replication_min_readers,
                        std::size_t hot_blocks_topn);

/// Check the work-stealing knobs (ITYR_STEAL_BATCH /
/// ITYR_STEAL_ESCALATION_ROUNDS): the batch cap must be >= 1 entry (0, e.g.
/// a malformed env value, would claim nothing and livelock the steal loop)
/// and the escalation round count must be >= 1. Throws common::error with
/// the offending value otherwise. Called by options::from_env() and the
/// scheduler's constructor (covering programmatically built options).
void validate_steal(std::size_t steal_batch, int steal_escalation_rounds);

/// Check the multi-job serving options (ITYR_SERVE / ITYR_SERVE_ARRIVAL_RATE,
/// plus the serve_jobs / serve_mix fields): the arrival rate must be a positive
/// number of jobs per virtual second (an open-loop process with rate 0 never
/// admits anything), serving needs at least one job to admit, and the mix
/// spec must parse (see parse_serve_mix). Throws common::error (or
/// common::api_error for a malformed mix) with the offending value
/// otherwise. Called by options::from_env() and the job manager (covering
/// programmatically built options).
void validate_serving(bool serve, double serve_arrival_rate, std::size_t serve_jobs,
                      const std::string& serve_mix);

/// Parse a serve-mix spec (options::serve_mix) — comma-separated
/// `name[:weight]` tokens over {cilksort, uts, taskbench} with positive
/// integer weights, e.g. "cilksort:3,uts:1" — into (name, weight) pairs.
/// Throws common::api_error on an unknown workload name, a malformed weight,
/// or an empty spec.
std::vector<std::pair<std::string, int>> parse_serve_mix(const std::string& spec);

}  // namespace ityr::common
