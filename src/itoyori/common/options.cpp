#include "itoyori/common/options.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "itoyori/common/error.hpp"

extern char** environ;  // POSIX; not every <unistd.h> declares it

namespace ityr::common {

const char* to_string(cache_policy p) {
  switch (p) {
    case cache_policy::none:            return "none";
    case cache_policy::write_through:   return "write_through";
    case cache_policy::write_back:      return "write_back";
    case cache_policy::write_back_lazy: return "write_back_lazy";
  }
  return "?";
}

cache_policy cache_policy_from_string(const std::string& s) {
  if (s == "none") return cache_policy::none;
  if (s == "write_through") return cache_policy::write_through;
  if (s == "write_back") return cache_policy::write_back;
  if (s == "write_back_lazy") return cache_policy::write_back_lazy;
  throw api_error("unknown cache policy: " + s);
}

const char* to_string(steal_policy p) {
  switch (p) {
    case steal_policy::random:       return "random";
    case steal_policy::hierarchical: return "hierarchical";
  }
  return "?";
}

steal_policy steal_policy_from_string(const std::string& s) {
  if (s == "random") return steal_policy::random;
  if (s == "hierarchical") return steal_policy::hierarchical;
  throw api_error("unknown steal policy (ITYR_STEAL_POLICY): " + s +
                  " (expected random or hierarchical)");
}

const char* to_string(steal_fairness_kind k) {
  switch (k) {
    case steal_fairness_kind::off:          return "off";
    case steal_fairness_kind::job_weighted: return "job_weighted";
  }
  return "?";
}

steal_fairness_kind steal_fairness_from_string(const std::string& s) {
  if (s == "off") return steal_fairness_kind::off;
  if (s == "job_weighted") return steal_fairness_kind::job_weighted;
  throw api_error("unknown steal fairness policy (ITYR_STEAL_FAIRNESS): " + s +
                  " (expected off or job_weighted)");
}

const char* to_string(fiber_backend_kind k) {
  switch (k) {
    case fiber_backend_kind::asm_switch: return "asm";
    case fiber_backend_kind::ucontext:   return "ucontext";
  }
  return "?";
}

fiber_backend_kind fiber_backend_from_string(const std::string& s) {
  if (s == "asm") return fiber_backend_kind::asm_switch;
  if (s == "ucontext") return fiber_backend_kind::ucontext;
  throw api_error("unknown fiber backend (ITYR_FIBER_BACKEND): " + s +
                  " (expected asm or ucontext)");
}

namespace {

#if defined(__SANITIZE_ADDRESS__)
#define ITYR_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ITYR_UNDER_ASAN 1
#endif
#endif

constexpr bool asm_fiber_supported() {
#if (defined(__x86_64__) || defined(__aarch64__)) && defined(__ELF__) && \
    !defined(ITYR_UNDER_ASAN)
  return true;
#else
  return false;
#endif
}

}  // namespace

bool asm_fiber_backend_supported() { return asm_fiber_supported(); }

fiber_backend_kind default_fiber_backend() {
  // Honoring the env var here (not only in from_env) lets test suites that
  // build options programmatically be re-run under ITYR_FIBER_BACKEND=
  // ucontext without editing every test, mirroring the fixture's
  // ITYR_ASYNC_RELEASE handling.
  const char* v = std::getenv("ITYR_FIBER_BACKEND");
  if (v != nullptr && *v != '\0') {
    const fiber_backend_kind k = fiber_backend_from_string(v);
    if (k == fiber_backend_kind::asm_switch && !asm_fiber_supported()) {
      return fiber_backend_kind::ucontext;  // portability/ASan fallback
    }
    return k;
  }
  return asm_fiber_supported() ? fiber_backend_kind::asm_switch
                               : fiber_backend_kind::ucontext;
}

const char* to_string(dist_policy p) {
  switch (p) {
    case dist_policy::block:        return "block";
    case dist_policy::block_cyclic: return "block_cyclic";
  }
  return "?";
}

namespace {

/// Reads ITYR_* variables into option fields and remembers every name it
/// was asked for, so from_env can reject the variables nobody reads.
class env_reader {
public:
  template <typename T>
  void operator()(const char* name, T& out) {
    read_.emplace_back(name);
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') return;  // empty counts as unset (CI matrices)
    if constexpr (std::is_same_v<T, bool>) {
      const std::string_view s(v);
      if (s != "0" && s != "1" && s != "false" && s != "true") {
        bad_value(name, v, "0, 1, false or true");
      }
      out = s == "1" || s == "true";
    } else if constexpr (std::is_floating_point_v<T>) {
      char* end = nullptr;
      const double x = std::strtod(v, &end);
      if (end == v || *end != '\0') bad_value(name, v, "a number");
      out = static_cast<T>(x);
    } else if constexpr (std::is_same_v<T, cache_policy>) {
      out = cache_policy_from_string(v);
    } else if constexpr (std::is_same_v<T, fiber_backend_kind>) {
      out = fiber_backend_from_string(v);
    } else if constexpr (std::is_same_v<T, steal_policy>) {
      out = steal_policy_from_string(v);
    } else if constexpr (std::is_same_v<T, steal_fairness_kind>) {
      out = steal_fairness_from_string(v);
    } else if constexpr (std::is_same_v<T, topology_spec>) {
      out = topology_spec::parse(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      out = v;
    } else {
      static_assert(std::is_integral_v<T>);
      // Base 0 keeps 0x... and 0... literals; the whole value must be used,
      // so "16M" or "half" is an error, not 16 or 0.
      char* end = nullptr;
      errno = 0;
      if constexpr (std::is_signed_v<T>) {
        const long long x = std::strtoll(v, &end, 0);
        if (end == v || *end != '\0' || errno == ERANGE ||
            x < std::numeric_limits<T>::min() || x > std::numeric_limits<T>::max()) {
          bad_value(name, v, "an integer");
        }
        out = static_cast<T>(x);
      } else {
        const unsigned long long x = std::strtoull(v, &end, 0);
        if (end == v || *end != '\0' || errno == ERANGE || std::strchr(v, '-') != nullptr ||
            x > std::numeric_limits<T>::max()) {
          bad_value(name, v, "a non-negative integer");
        }
        out = static_cast<T>(x);
      }
    }
  }

  /// Throw for the first non-empty ITYR_* variable that was never read: a
  /// retired or misspelled knob would otherwise run the defaults silently.
  void reject_unread() const {
    for (char** e = environ; *e != nullptr; e++) {
      const std::string_view kv(*e);
      const std::size_t eq = kv.find('=');
      if (kv.rfind("ITYR_", 0) != 0 || eq == std::string_view::npos || eq + 1 == kv.size()) {
        continue;
      }
      const std::string_view name = kv.substr(0, eq);
      if (std::find(read_.begin(), read_.end(), name) == read_.end()) {
        throw api_error("unknown environment variable " + std::string(name) +
                        ": not a runtime option (retired or misspelled?)");
      }
    }
  }

private:
  [[noreturn]] static void bad_value(const char* name, const char* value, const char* expected) {
    throw error("invalid value for " + std::string(name) + ": \"" + value + "\" (expected " +
                expected + ")");
  }

  std::vector<std::string_view> read_;
};

}  // namespace

options options::from_env() {
  options o;
  env_reader env_get;
  env_get("ITYR_N_NODES", o.n_nodes);
  env_get("ITYR_RANKS_PER_NODE", o.ranks_per_node);
  env_get("ITYR_BLOCK_SIZE", o.block_size);
  env_get("ITYR_SUB_BLOCK_SIZE", o.sub_block_size);
  env_get("ITYR_CACHE_SIZE", o.cache_size);
  env_get("ITYR_COLL_HEAP_PER_RANK", o.coll_heap_per_rank);
  env_get("ITYR_NONCOLL_HEAP_PER_RANK", o.noncoll_heap_per_rank);
  env_get("ITYR_MAX_MAP_ENTRIES", o.max_map_entries);
  env_get("ITYR_POLICY", o.policy);
  env_get("ITYR_COALESCE_RMA", o.coalesce_rma);
  env_get("ITYR_FRONT_TABLE_SIZE", o.front_table_size);
  env_get("ITYR_PREFETCH", o.prefetch);
  env_get("ITYR_PREFETCH_DEPTH", o.prefetch_depth);
  env_get("ITYR_PREFETCH_MAX_INFLIGHT", o.prefetch_max_inflight);
  env_get("ITYR_ASYNC_RELEASE", o.async_release);
  env_get("ITYR_ASYNC_WB_MAX_INFLIGHT", o.async_wb_max_inflight);
  env_get("ITYR_MIGRATION", o.migration);
  env_get("ITYR_MIGRATION_INTERVAL", o.placement_interval);
  env_get("ITYR_MIGRATION_MIN_BYTES", o.migration_min_bytes);
  env_get("ITYR_MIGRATION_SHARE", o.migration_share);
  env_get("ITYR_MIGRATION_POOL_BLOCKS", o.migration_pool_blocks);
  env_get("ITYR_REPLICATION", o.replication);
  env_get("ITYR_REPLICATION_MIN_BYTES", o.replication_min_bytes);
  env_get("ITYR_REPLICATION_MIN_READERS", o.replication_min_readers);
  env_get("ITYR_REPLICATION_POOL_BLOCKS", o.replication_pool_blocks);
  env_get("ITYR_HOT_BLOCKS_TOPN", o.hot_blocks_topn);
  env_get("ITYR_ULT_STACK_SIZE", o.ult_stack_size);
  env_get("ITYR_STEAL_POLICY", o.steal);
  env_get("ITYR_STEAL_BATCH", o.steal_batch);
  env_get("ITYR_STEAL_ESCALATION_ROUNDS", o.steal_escalation_rounds);
  env_get("ITYR_STEAL_ADAPTIVE_BACKOFF", o.steal_adaptive_backoff);
  env_get("ITYR_SERVE", o.serve);
  env_get("ITYR_SERVE_ARRIVAL_RATE", o.serve_arrival_rate);
  env_get("ITYR_STEAL_FAIRNESS", o.steal_fairness);
  env_get("ITYR_CACHE_JOB_QUOTA", o.cache_job_quota);
  env_get("ITYR_FIBER_BACKEND", o.fiber_backend);
  env_get("ITYR_TOPOLOGY", o.topology);
  env_get("ITYR_DETERMINISTIC", o.deterministic);
  env_get("ITYR_TRACE", o.trace_path);
  env_get("ITYR_TRACE_CAP", o.trace_cap);
  env_get("ITYR_TRACE_FLOW_SAMPLE", o.trace_flow_sample);
  env_get("ITYR_CRITPATH", o.critpath);
  env_get("ITYR_HIST_BUCKETS", o.hist_buckets);
  env_get("ITYR_STATS_JSON", o.stats_json_path);
  env_get("ITYR_METRICS_SAMPLE_INTERVAL", o.metrics_sample_interval);
  env_get("ITYR_SEED", o.seed);
  env_get("ITYR_NET_INTER_LATENCY", o.net.inter_latency);
  env_get("ITYR_NET_INTER_BANDWIDTH", o.net.inter_bandwidth);
  env_get("ITYR_NET_INTRA_LATENCY", o.net.intra_latency);
  env_get("ITYR_NET_INTRA_BANDWIDTH", o.net.intra_bandwidth);
  env_get.reject_unread();
  validate_cache_geometry(o.block_size, o.sub_block_size);
  validate_cache_size(o.cache_size, o.block_size);
  validate_topology(o.n_nodes, o.ranks_per_node, o.topology);
  validate_sim_core(o.ult_stack_size);
  validate_observability(o.hist_buckets);
  validate_placement(o.migration, o.replication, o.placement_interval, o.migration_share,
                     o.migration_pool_blocks, o.replication_pool_blocks,
                     o.replication_min_readers, o.hot_blocks_topn);
  validate_steal(o.steal_batch, o.steal_escalation_rounds);
  validate_serving(o.serve, o.serve_arrival_rate, o.serve_jobs, o.serve_mix);
  return o;
}

namespace {

bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

void validate_cache_geometry(std::size_t block_size, std::size_t sub_block_size) {
  if (!is_pow2(block_size)) {
    throw error("invalid cache geometry: block size (ITYR_BLOCK_SIZE) must be a nonzero "
                "power of two, got " + std::to_string(block_size));
  }
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  if (block_size % page != 0) {
    throw error("invalid cache geometry: block size (ITYR_BLOCK_SIZE = " +
                std::to_string(block_size) + ") must be a multiple of the OS page size (" +
                std::to_string(page) + "), since blocks are mmap/unmap granules");
  }
  if (!is_pow2(sub_block_size)) {
    throw error("invalid cache geometry: sub-block size (ITYR_SUB_BLOCK_SIZE) must be a "
                "nonzero power of two, got " + std::to_string(sub_block_size));
  }
  if (sub_block_size > block_size) {
    throw error("invalid cache geometry: sub-block size (ITYR_SUB_BLOCK_SIZE = " +
                std::to_string(sub_block_size) + ") must not exceed block size "
                "(ITYR_BLOCK_SIZE = " + std::to_string(block_size) + ")");
  }
}

void validate_cache_size(std::size_t cache_size, std::size_t block_size) {
  if (cache_size < block_size) {
    throw error("invalid cache size (ITYR_CACHE_SIZE = " + std::to_string(cache_size) +
                "): must hold at least one block (ITYR_BLOCK_SIZE = " +
                std::to_string(block_size) + ")");
  }
  if (cache_size % block_size != 0) {
    throw error("invalid cache size (ITYR_CACHE_SIZE = " + std::to_string(cache_size) +
                "): must be a multiple of the block size (ITYR_BLOCK_SIZE = " +
                std::to_string(block_size) + ")");
  }
}

void validate_sim_core(std::size_t ult_stack_size) {
  if (ult_stack_size < 16 * KiB) {
    throw error("invalid ULT stack size (ITYR_ULT_STACK_SIZE = " +
                std::to_string(ult_stack_size) +
                "): must be at least 16 KiB or the guard page fires on the first fork");
  }
}

void validate_observability(std::size_t hist_buckets) {
  if (hist_buckets < 4 || hist_buckets > 512) {
    throw error("invalid histogram bucket count (ITYR_HIST_BUCKETS = " +
                std::to_string(hist_buckets) + "): must be in [4, 512]");
  }
}

void validate_placement(bool migration, bool replication, double placement_interval,
                        double migration_share, std::size_t migration_pool_blocks,
                        std::size_t replication_pool_blocks, int replication_min_readers,
                        std::size_t hot_blocks_topn) {
  if (!(placement_interval > 0)) {
    throw error("invalid placement pass interval (ITYR_MIGRATION_INTERVAL = " +
                std::to_string(placement_interval) +
                "): must be a positive number of virtual seconds");
  }
  if (!(migration_share > 0) || migration_share > 1.0) {
    throw error("invalid migration dominance share (ITYR_MIGRATION_SHARE = " +
                std::to_string(migration_share) + "): must be in (0, 1]");
  }
  if (migration && migration_pool_blocks == 0) {
    throw error("invalid migration pool size (ITYR_MIGRATION_POOL_BLOCKS = 0): "
                "ITYR_MIGRATION needs at least one per-rank pool block to move homes into");
  }
  if (replication && replication_pool_blocks == 0) {
    throw error("invalid replication pool size (ITYR_REPLICATION_POOL_BLOCKS = 0): "
                "ITYR_REPLICATION needs at least one per-node pool block for read-only copies");
  }
  if (replication_min_readers < 2) {
    throw error("invalid replication reader threshold (ITYR_REPLICATION_MIN_READERS = " +
                std::to_string(replication_min_readers) +
                "): must be >= 2 — a single-reader block is a migration candidate, "
                "not a replication one");
  }
  if (hot_blocks_topn > 65536) {
    throw error("invalid hot-block export count (ITYR_HOT_BLOCKS_TOPN = " +
                std::to_string(hot_blocks_topn) +
                "): must be <= 65536 (this is a top-N list length, not a byte size)");
  }
}

void validate_steal(std::size_t steal_batch, int steal_escalation_rounds) {
  if (steal_batch == 0) {
    throw error("invalid steal batch cap (ITYR_STEAL_BATCH = 0): a steal must claim "
                "at least one deque entry per probe+CAS round (1 = the paper's "
                "single-entry steal)");
  }
  if (steal_escalation_rounds < 1) {
    throw error("invalid steal escalation round count (ITYR_STEAL_ESCALATION_ROUNDS = " +
                std::to_string(steal_escalation_rounds) +
                "): the hierarchical ladder needs at least one failed probe per "
                "distance class before escalating");
  }
}

std::vector<std::pair<std::string, int>> parse_serve_mix(const std::string& spec) {
  std::vector<std::pair<std::string, int>> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) {
      throw api_error("malformed serve mix (options::serve_mix = \"" + spec +
                      "\"): empty workload token");
    }
    int weight = 1;
    const std::size_t colon = tok.find(':');
    if (colon != std::string::npos) {
      const std::string w = tok.substr(colon + 1);
      char* end = nullptr;
      const long v = std::strtol(w.c_str(), &end, 10);
      if (w.empty() || end != w.c_str() + w.size() || v < 1) {
        throw api_error("malformed serve mix (options::serve_mix = \"" + spec +
                        "\"): weight \"" + w + "\" must be a positive integer");
      }
      weight = static_cast<int>(v);
      tok = tok.substr(0, colon);
    }
    if (tok != "cilksort" && tok != "uts" && tok != "taskbench") {
      throw api_error("unknown serve workload (options::serve_mix): \"" + tok +
                      "\" (expected cilksort, uts, or taskbench)");
    }
    out.emplace_back(tok, weight);
  }
  return out;
}

void validate_serving(bool serve, double serve_arrival_rate, std::size_t serve_jobs,
                      const std::string& serve_mix) {
  if (!(serve_arrival_rate > 0)) {
    throw error("invalid serve arrival rate (ITYR_SERVE_ARRIVAL_RATE = " +
                std::to_string(serve_arrival_rate) +
                "): must be a positive number of jobs per virtual second — an "
                "open-loop arrival process with rate 0 never admits anything");
  }
  if (serve && serve_jobs == 0) {
    throw error("invalid serve job count (options::serve_jobs = 0): ITYR_SERVE needs at "
                "least one job to admit");
  }
  parse_serve_mix(serve_mix);  // throws api_error on a malformed spec
}

}  // namespace ityr::common
