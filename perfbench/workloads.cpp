/// The three benchmark workloads (NOTES.md "Workloads"), each one pass per
/// call: construct the runtime, allocate and generate the input (set-up),
/// run the timed region, validate, and read the layer counters of the timed
/// region through the public stats API.

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <vector>

#include "itoyori/apps/cilksort.hpp"
#include "itoyori/apps/uts.hpp"
#include "itoyori/common/histogram.hpp"
#include "itoyori/common/rng.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/metrics.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace ic = ityr::common;

// ---------------------------------------------------------------------------
// values, options
// ---------------------------------------------------------------------------

void values::set(const std::string& name, double v) {
  for (auto& kv : kv_) {
    if (kv.first == name) {
      kv.second = v;
      return;
    }
  }
  kv_.emplace_back(name, v);
}

void values::add(const std::string& name, double v) { set(name, get(name) + v); }

double values::get(const std::string& name) const {
  for (const auto& kv : kv_) {
    if (kv.first == name) return kv.second;
  }
  return 0.0;
}

double reference_kernel_s() {
  // One random cycle through 8 Mi entries (Sattolo's shuffle), built once.
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> p(std::size_t{8} << 20);
    std::iota(p.begin(), p.end(), 0u);
    ic::xoshiro256ss rng(0x7265666b65726e6cULL);
    for (std::size_t i = p.size() - 1; i > 0; i--) std::swap(p[i], p[rng.below(i)]);
    return p;
  }();
  const auto t0 = clock::now();
  std::uint64_t x = 1;
  for (int i = 0; i < 6'000'000; i++) {
    x += 0x9e3779b97f4a7c15ULL;
    const std::uint64_t z = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    if (z & 1) x ^= z >> 27;
  }
  std::uint32_t j = 0;
  for (int i = 0; i < 300'000; i++) j = next[j];
  // Page faults on fresh anonymous memory: about a quarter of the
  // simulator's host time is kernel time, mostly first touches of fiber
  // stacks, heaps and cache pages.
  constexpr std::size_t kFaultBytes = std::size_t{16} << 20;
  for (int round = 0; round < 3; round++) {
    void* m = ::mmap(nullptr, kFaultBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    ITYR_CHECK(m != MAP_FAILED);
    for (std::size_t off = 0; off < kFaultBytes; off += 4096) {
      static_cast<volatile char*>(m)[off] = 1;
    }
    ::munmap(m, kFaultBytes);
  }
  const double t = seconds_since(t0);
  ITYR_CHECK(x != 0 || j != 0);  // keeps both loops
  return t;
}

const char* to_string(pass_kind k) {
  switch (k) {
    case pass_kind::measured: return "measured";
    case pass_kind::det:      return "det";
    case pass_kind::traced:   return "traced";
    case pass_kind::profiled: return "profiled";
  }
  return "?";
}

bool is_deterministic(pass_kind k) { return k == pass_kind::det || k == pass_kind::traced; }

ic::options cluster_opts(int n_nodes, int ranks_per_node, std::uint64_t seed, bool deterministic) {
  ic::options o;
  o.n_nodes = n_nodes;
  o.ranks_per_node = ranks_per_node;
  o.block_size = 64 * ic::KiB;
  o.sub_block_size = 4 * ic::KiB;
  o.cache_size = 4 * ic::MiB;
  o.coll_heap_per_rank = 32 * ic::MiB;
  o.noncoll_heap_per_rank = 32 * ic::MiB;
  o.default_dist = ic::dist_policy::block_cyclic;
  o.policy = ic::cache_policy::write_back_lazy;
  o.deterministic = deterministic;
  o.seed = seed;
  return o;
}

namespace {

double vnow() { return ityr::rt().eng().now(); }

// ---------------------------------------------------------------------------
// per-layer counters of a timed region
// ---------------------------------------------------------------------------

/// Additive totals of the metrics-registry series the per-layer metrics are
/// built from, summed over the timed regions of a pass (serve has two). Each
/// timed region is one root_exec or serve() call.
struct layer_raw {
  values sum;
  double mapped_bytes = 0;  ///< a gauge: the largest end-of-region value
  ic::log_histogram steal_latency;
  bool have_hist = false;

  void add(const ityr::metrics_snapshot& delta, const ityr::metrics_snapshot& end) {
    static const char* const kSeries[] = {
        "engine.resumes",         "net.messages.intra",        "net.messages.inter",
        "net.bytes.intra",        "net.bytes.inter",           "vm.map_calls",
        "cache.checkouts",        "cache.block_visits",        "cache.block_hits",
        "cache.fast_path_hits",   "cache.fetched_bytes",       "cache.written_back_bytes",
        "cache.write_through_bytes", "cache.cache_evictions",  "cache.fetch_stall_s",
        "cache.release_stall_s",  "cache.lazy_release_waits",  "prof.Checkout.self_s",
        "prof.Checkin.self_s",    "prof.Release.self_s",       "prof.Lazy Release.self_s",
        "prof.Acquire.self_s",    "prof.Serial A.self_s",      "prof.Serial B.self_s",
        "sched.forks",            "sched.steals",              "sched.steal_attempts",
        "sched.steal.failed_probe_s", "sched.migrated_stack_bytes", "critpath.work_s",
        "critpath.span_s",        "critpath.span.compute_s",   "critpath.span.fetch_stall_s",
        "critpath.span.release_stall_s", "critpath.span.steal_wait_s",
        "critpath.span.acquire_fence_s",
    };
    for (const char* s : kSeries) sum.add(s, delta.total(s));
    // The phase timeline restarts with every fork-join region, so at the end
    // of the timed region it holds exactly that region.
    for (const char* s : {"timeline.busy_s", "timeline.steal_s", "timeline.idle_s"}) {
      sum.add(s, end.total(s));
    }
    mapped_bytes = std::max(mapped_bytes, end.total("vm.mapped_bytes"));
    if (const auto* h = delta.find_histogram("hist.steal_latency_s"); h != nullptr) {
      if (!have_hist) {
        steal_latency = h->hist;
        have_hist = true;
      } else {
        steal_latency.merge(h->hist);
      }
    }
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The per-layer metrics of NOTES.md "Per-layer metrics", from the raw
/// totals. host_s is the pass's timed-region host time.
void derive_layers(const layer_raw& r, double host_s, values& v) {
  const values& s = r.sum;
  v.set("sim.resumes", s.get("engine.resumes"));
  v.set("sim.host_ns_per_resume", ratio(host_s * 1e9, s.get("engine.resumes")));
  v.set("rma.messages.intra", s.get("net.messages.intra"));
  v.set("rma.messages.inter", s.get("net.messages.inter"));
  v.set("rma.bytes.intra", s.get("net.bytes.intra"));
  v.set("rma.bytes.inter", s.get("net.bytes.inter"));
  v.set("vm.map_calls", s.get("vm.map_calls"));
  v.set("vm.mapped_bytes", r.mapped_bytes);
  v.set("pgas.checkouts", s.get("cache.checkouts"));
  v.set("pgas.hit_ratio", ratio(s.get("cache.block_hits"), s.get("cache.block_visits")));
  v.set("pgas.fast_path_ratio", ratio(s.get("cache.fast_path_hits"), s.get("cache.checkouts")));
  v.set("pgas.fetched_bytes", s.get("cache.fetched_bytes"));
  v.set("pgas.written_back_bytes",
        s.get("cache.written_back_bytes") + s.get("cache.write_through_bytes"));
  v.set("pgas.evictions", s.get("cache.cache_evictions"));
  v.set("pgas.fetch_stall_s", s.get("cache.fetch_stall_s"));
  v.set("pgas.release_stall_s", s.get("cache.release_stall_s"));
  v.set("pgas.checkout_self_s", s.get("prof.Checkout.self_s") + s.get("prof.Checkin.self_s"));
  v.set("sched.forks", s.get("sched.forks"));
  v.set("sched.steals", s.get("sched.steals"));
  v.set("sched.steal_success_ratio", ratio(s.get("sched.steals"), s.get("sched.steal_attempts")));
  v.set("sched.failed_probe_s", s.get("sched.steal.failed_probe_s"));
  v.set("sched.migrated_stack_bytes", s.get("sched.migrated_stack_bytes"));
  v.set("sched.busy_s", s.get("timeline.busy_s"));
  v.set("sched.steal_s", s.get("timeline.steal_s"));
  v.set("sched.idle_s", s.get("timeline.idle_s"));
  v.set("sched.release_s", s.get("prof.Release.self_s") + s.get("prof.Lazy Release.self_s"));
  v.set("sched.acquire_s", s.get("prof.Acquire.self_s"));
  v.set("sched.lazy_release_waits", s.get("cache.lazy_release_waits"));
  v.set("sched.steal_rtt_s", r.have_hist ? r.steal_latency.percentile(50) : 0.0);
  const double span = s.get("critpath.span_s");
  v.set("critpath.span_s", span);
  v.set("critpath.parallelism", ratio(s.get("critpath.work_s"), span));
  for (const char* b : {"compute", "fetch_stall", "release_stall", "steal_wait", "acquire_fence"}) {
    v.set(std::string("critpath.") + b + "_s", s.get(std::string("critpath.span.") + b + "_s"));
  }
  v.set("apps.kernel_self_s", s.get("prof.Serial A.self_s") + s.get("prof.Serial B.self_s"));
}

/// Runtime options of one pass: the clock, and for traced/profiled passes
/// the probes that the metrics read.
void apply_kind(ic::options& o, pass_kind kind) {
  o.deterministic = is_deterministic(kind);
  o.critpath = kind == pass_kind::traced;
}

void enable_profiler(ityr::runtime& rt, pass_kind kind) {
  rt.prof().set_enabled(kind == pass_kind::traced || kind == pass_kind::profiled);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + salt;
  return ic::splitmix64(s);
}

// ---------------------------------------------------------------------------
// cilksort: Fig. 7 fine-cutoff regime
// ---------------------------------------------------------------------------

constexpr std::size_t kSortN = std::size_t{8} << 20;  // 8 Mi uint32
constexpr std::size_t kSortCutoff = 1024;
constexpr std::size_t kSortGrain = 16384;  // input generation / validation chunks

ic::options cilksort_opts(std::uint64_t seed, pass_kind kind) {
  auto o = cluster_opts(4, 8, seed, true);
  o.coll_heap_per_rank =
      3 * kSortN * sizeof(std::uint32_t) / static_cast<std::size_t>(o.n_ranks()) + 4 * ic::MiB;
  apply_kind(o, kind);
  return o;
}

pass_result cilksort_pass(const workload_setup& w, pass_kind kind) {
  pass_result res;
  res.kind = kind;
  const auto t_pass = clock::now();
  values* spans = kind == pass_kind::traced ? &res.v : nullptr;
  span_log span(spans);
  const std::uint64_t input_seed = mix_seed(w.seed, 1);

  auto rt_ptr = span("runtime_ctor", nullptr, [&] {
    return std::make_unique<ityr::runtime>(cilksort_opts(w.seed, kind));
  });
  ityr::runtime& rt = *rt_ptr;
  enable_profiler(rt, kind);

  double setup_s = 0, host_s = 0, virtual_s = 0;
  bool ok = false;
  layer_raw raw;
  rt.spmd([&] {
    const auto a = span("coll_new", vnow, [] { return ityr::coll_new<std::uint32_t>(kSortN); });
    const auto b = span("coll_new", vnow, [] { return ityr::coll_new<std::uint32_t>(kSortN); });
    span("input_gen", vnow, [&] {
      ityr::root_exec([=] { ityr::apps::cilksort_generate(a, kSortN, input_seed, kSortGrain); });
    });
    span("barrier", vnow, [] { ityr::barrier(); });

    ityr::metrics_snapshot m0;
    clock::time_point h0{};
    double v0 = 0;
    if (ityr::my_rank() == 0) {
      setup_s = seconds_since(t_pass);
      if (kind == pass_kind::det) res.ref_s.push_back(reference_kernel_s());
      m0 = rt.metrics();
      h0 = clock::now();
      v0 = vnow();
    }
    span("root_exec", vnow, [&] {
      ityr::root_exec([=] {
        ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a, kSortN),
                             ityr::global_span<std::uint32_t>(b, kSortN), kSortCutoff);
      });
    });
    span("barrier", vnow, [] { ityr::barrier(); });
    if (ityr::my_rank() == 0) {
      host_s = seconds_since(h0);
      virtual_s = vnow() - v0;
      const auto m1 = rt.metrics();
      raw.add(m1.delta(m0), m1);
      if (kind == pass_kind::det) res.ref_s.push_back(reference_kernel_s());
    }

    const bool sorted = span("validate", vnow, [&] {
      return ityr::root_exec(
          [=] { return ityr::apps::cilksort_validate(a, kSortN, input_seed, kSortGrain); });
    });
    if (ityr::my_rank() == 0) ok = sorted;
    span("coll_delete", vnow, [&] {
      ityr::coll_delete(a, kSortN);
      ityr::coll_delete(b, kSortN);
    });
  });

  res.attempted = 1;
  res.failed = ok ? 0 : 1;
  res.virtual_s.push_back(virtual_s);
  res.host_s.push_back(host_s);
  res.v.set("setup_s", setup_s);
  derive_layers(raw, host_s, res.v);
  return res;
}

// ---------------------------------------------------------------------------
// uts_mem: Fig. 10 regime
// ---------------------------------------------------------------------------

// Timed traversals per pass. Deterministic passes feed host_rel, so they
// repeat more: the per-traversal host time varies by about 15% even on a
// quiet host. Measured ones (--trace 1) feed the median virtual_s.
constexpr int kUtsDetReps = 16;
constexpr int kUtsMeasuredReps = 6;

// The tree and where the build placed its nodes are the input, the same for
// every run: the build runs with this fixed runtime seed, and the run seed
// then reseeds the ranks' victim selection for the traversals.
constexpr std::uint64_t kUtsBuildSeed = 19;

ityr::apps::uts_params uts_mem_params() {
  ityr::apps::uts_params p;
  p.b0 = 4.0;
  p.gen_mx = 16;
  p.root_seed = 19;
  return p;
}

/// uts_count_serial of the fixed UTS-Mem tree, computed once per process.
std::uint64_t uts_mem_expected() {
  static const std::uint64_t n = ityr::apps::uts_count_serial(uts_mem_params());
  return n;
}

ic::options uts_mem_opts(std::uint64_t seed, pass_kind kind) {
  auto o = cluster_opts(16, 8, seed, true);
  o.topology = ic::topology_spec::parse("fat_tree:4,2");
  // ~96 B per node in the noncollective heaps, spread over every rank.
  o.noncoll_heap_per_rank =
      uts_mem_expected() * 96 / static_cast<std::size_t>(o.n_ranks()) + 4 * ic::MiB;
  o.coll_heap_per_rank = 4 * ic::MiB;
  apply_kind(o, kind);
  return o;
}

pass_result uts_mem_pass(const workload_setup& w, pass_kind kind, bool brief) {
  pass_result res;
  res.kind = kind;
  const std::uint64_t expect = uts_mem_expected();  // before the set-up clock starts
  const auto t_pass = clock::now();
  values* spans = kind == pass_kind::traced ? &res.v : nullptr;
  span_log span(spans);
  const auto p = uts_mem_params();

  auto rt_ptr = span("runtime_ctor", nullptr, [&] {
    return std::make_unique<ityr::runtime>(uts_mem_opts(kUtsBuildSeed, kind));
  });
  ityr::runtime& rt = *rt_ptr;
  enable_profiler(rt, kind);

  // The tree is the input; the traversal is the timed region, repeated on
  // the same tree (each repetition starts after a barrier's fences).
  const int reps = brief                        ? 1
                   : kind == pass_kind::measured ? kUtsMeasuredReps
                   : kind == pass_kind::det      ? kUtsDetReps
                                                 : 1;
  double setup_s = 0;
  std::uint64_t built = 0;
  std::vector<std::uint64_t> traversed;
  layer_raw raw;
  rt.spmd([&] {
    const auto tree = span("input_gen", vnow, [&] {
      return ityr::root_exec([p] { return ityr::apps::uts_mem_build(p); });
    });
    span("barrier", vnow, [] { ityr::barrier(); });
    // From here on the run seed drives every rank's victim selection.
    const auto me = static_cast<std::uint64_t>(ityr::my_rank());
    ityr::rt().eng().rng() = ic::xoshiro256ss(mix_seed(w.seed, 1000 + me));
    if (ityr::my_rank() == 0) {
      setup_s = seconds_since(t_pass);
      built = tree.n_nodes;
    }

    for (int r = 0; r < reps; r++) {
      ityr::metrics_snapshot m0;
      clock::time_point h0{};
      double v0 = 0;
      if (ityr::my_rank() == 0) {
        if (kind == pass_kind::det) res.ref_s.push_back(reference_kernel_s());
        if (r == 0) m0 = rt.metrics();
        h0 = clock::now();
        v0 = vnow();
      }
      const auto count = span("root_exec", vnow, [&] {
        return ityr::root_exec([root = tree.root] { return ityr::apps::uts_mem_traverse(root); });
      });
      span("barrier", vnow, [] { ityr::barrier(); });
      if (ityr::my_rank() == 0) {
        res.host_s.push_back(seconds_since(h0));
        res.virtual_s.push_back(vnow() - v0);
        traversed.push_back(count);
        if (r == 0) {
          const auto m1 = rt.metrics();
          raw.add(m1.delta(m0), m1);
        }
        if (kind == pass_kind::det && r == reps - 1) res.ref_s.push_back(reference_kernel_s());
      }
    }
  });

  res.attempted = traversed.size();
  for (const std::uint64_t c : traversed) {
    if (built != expect || c != expect) res.failed++;
  }
  res.v.set("setup_s", setup_s);
  derive_layers(raw, res.host_s.empty() ? 0.0 : res.host_s[0], res.v);
  return res;
}

// ---------------------------------------------------------------------------
// serve: open-loop job streams through ityr::serve
// ---------------------------------------------------------------------------

constexpr const char* kServeMix = "cilksort:3,uts:1";
constexpr std::size_t kJobSortN = std::size_t{1} << 15;  // one cilksort job's slice
constexpr std::size_t kJobSortCutoff = 2048;
constexpr std::size_t kJobSortGrain = 4096;
constexpr int kJobUtsGenMx = 10;

struct stream_spec {
  double rate;         ///< offered jobs per virtual second
  std::size_t n_jobs;
};
constexpr stream_spec kLatencyStream{16000.0, 1000};
constexpr stream_spec kOverloadStream{100000.0, 200};

/// Ordinal of each job within its class: cilksort job k sorts slice k of
/// the shared arrays, and UTS job k counts the tree with root seed 100 + k.
/// Every stream thus holds the same trees in arrival order, whatever the
/// seed's mix draw: their sizes are heavy-tailed (1 to ~37k nodes), and
/// drawing them anew per seed would dominate the latency tail's spread.
std::vector<std::size_t> job_slots(const std::vector<std::string>& names) {
  std::vector<std::size_t> slot(names.size());
  std::size_t n_sort = 0, n_uts = 0;
  for (std::size_t j = 0; j < names.size(); j++) {
    slot[j] = names[j] == "cilksort" ? n_sort++ : n_uts++;
  }
  return slot;
}

ityr::apps::uts_params job_uts_params(std::size_t k) {
  ityr::apps::uts_params p;
  p.b0 = 4.0;
  p.gen_mx = kJobUtsGenMx;
  p.root_seed = static_cast<int>(100 + k);
  return p;
}

/// Serial UTS node counts of the job trees, memoized per process.
std::uint64_t job_uts_expected(std::size_t k) {
  static std::map<std::size_t, std::uint64_t> memo;
  auto it = memo.find(k);
  if (it == memo.end()) it = memo.emplace(k, ityr::apps::uts_count_serial(job_uts_params(k))).first;
  return it->second;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

/// Due times of a served stream's jobs. job_manager::drive draws the
/// exponential inter-arrival gaps from xoshiro256ss(seed ^ 0x6a09e667f3bcc908)
/// and schedules each arrival relative to the previous one; the same draw,
/// anchored at the first admission, gives every job's due time.
std::vector<double> due_times(const std::vector<ityr::sched::job_record>& recs,
                              std::uint64_t seed, double rate) {
  ic::xoshiro256ss rng(seed ^ 0x6a09e667f3bcc908ULL);
  std::vector<double> due(recs.size());
  double t = 0;
  for (std::size_t i = 0; i < recs.size(); i++) {
    const double gap = -std::log1p(-rng.uniform()) / rate;
    t = i == 0 ? recs[0].t_admit : t + gap;
    due[i] = t;
  }
  return due;
}

struct stream_outcome {
  double host_s = 0, virtual_s = 0, setup_s = 0;
  std::vector<double> ref_s;  ///< reference kernel before and after (det passes)
  std::uint64_t attempted = 0, failed = 0;
  std::vector<ityr::sched::job_record> recs;
  double admit_p99_s = 0;  ///< the program's own latency: from admission
};

stream_outcome serve_stream(const workload_setup& w, pass_kind kind, const stream_spec& spec,
                            span_log& span, layer_raw& raw) {
  stream_outcome out;
  const auto t_setup = clock::now();
  auto o = cluster_opts(4, 8, w.seed, true);
  o.serve = true;
  o.serve_arrival_rate = spec.rate;
  o.serve_jobs = spec.n_jobs;
  o.serve_mix = kServeMix;
  apply_kind(o, kind);

  const auto names = ityr::sched::job_manager::assign_mix(kServeMix, spec.n_jobs, o.seed);
  const auto slot = job_slots(names);
  const std::size_t n_sort = static_cast<std::size_t>(
      std::count(names.begin(), names.end(), std::string("cilksort")));
  const std::size_t total = std::max<std::size_t>(n_sort, 1) * kJobSortN;
  o.coll_heap_per_rank = 3 * total * sizeof(std::uint32_t) / static_cast<std::size_t>(o.n_ranks()) +
                         4 * ic::MiB;
  const std::uint64_t input_seed = mix_seed(w.seed, 2);
  const auto slice_seed = [input_seed](std::size_t j) { return input_seed + j; };

  auto rt_ptr = span("runtime_ctor", nullptr, [&] { return std::make_unique<ityr::runtime>(o); });
  ityr::runtime& rt = *rt_ptr;
  enable_profiler(rt, kind);

  std::vector<std::uint64_t> uts_counts(spec.n_jobs, 0);
  std::uint64_t* counts = uts_counts.data();
  std::vector<char> sort_ok(spec.n_jobs, 1);
  rt.spmd([&] {
    const auto a = span("coll_new", vnow, [&] { return ityr::coll_new<std::uint32_t>(total); });
    const auto b = span("coll_new", vnow, [&] { return ityr::coll_new<std::uint32_t>(total); });
    span("input_gen", vnow, [&] {
      ityr::root_exec([=, &names, &slot] {
        for (std::size_t j = 0; j < spec.n_jobs; j++) {
          if (names[j] != "cilksort") continue;
          ityr::apps::cilksort_generate(a + static_cast<std::ptrdiff_t>(slot[j] * kJobSortN),
                                        kJobSortN, slice_seed(j), kJobSortGrain);
        }
      });
    });
    span("barrier", vnow, [] { ityr::barrier(); });

    std::vector<ityr::sched::job_spec> jobs;
    jobs.reserve(spec.n_jobs);
    for (std::size_t j = 0; j < spec.n_jobs; j++) {
      if (names[j] == "cilksort") {
        const auto off = static_cast<std::ptrdiff_t>(slot[j] * kJobSortN);
        jobs.push_back({names[j], [=] {
                          ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a + off, kJobSortN),
                                               ityr::global_span<std::uint32_t>(b + off, kJobSortN),
                                               kJobSortCutoff);
                        }});
      } else {
        const std::size_t k = slot[j];
        jobs.push_back(
            {names[j], [=] { counts[j] = ityr::apps::uts_count_parallel(job_uts_params(k)); }});
      }
    }

    ityr::metrics_snapshot m0;
    clock::time_point h0{};
    double v0 = 0;
    if (ityr::my_rank() == 0) {
      out.setup_s = seconds_since(t_setup);
      if (kind == pass_kind::det) out.ref_s.push_back(reference_kernel_s());
      m0 = rt.metrics();
      h0 = clock::now();
      v0 = vnow();
    }
    span("serve", vnow, [&] { ityr::serve(std::move(jobs)); });
    span("barrier", vnow, [] { ityr::barrier(); });
    if (ityr::my_rank() == 0) {
      out.host_s = seconds_since(h0);
      out.virtual_s = vnow() - v0;
      const auto m1 = rt.metrics();
      raw.add(m1.delta(m0), m1);
      if (kind == pass_kind::det) out.ref_s.push_back(reference_kernel_s());
    }

    span("validate", vnow, [&] {
      if (ityr::my_rank() == 0) {
        for (std::size_t j = 0; j < spec.n_jobs; j++) {
          if (names[j] != "cilksort") continue;
          sort_ok[j] = ityr::apps::cilksort_validate(
              a + static_cast<std::ptrdiff_t>(slot[j] * kJobSortN), kJobSortN, slice_seed(j),
              kJobSortGrain);
        }
      }
      ityr::barrier();
    });
    span("coll_delete", vnow, [&] {
      ityr::coll_delete(a, total);
      ityr::coll_delete(b, total);
    });
  });

  out.recs = rt.jobs().records();
  out.admit_p99_s = rt.jobs().latency_quantile(0.99);
  out.attempted = spec.n_jobs;
  for (std::size_t j = 0; j < spec.n_jobs; j++) {
    const bool done = j < out.recs.size() && out.recs[j].done;
    const bool valid = names[j] == "cilksort" ? sort_ok[j] != 0
                                              : uts_counts[j] == job_uts_expected(slot[j]);
    if (!done || !valid) out.failed++;
  }
  return out;
}

pass_result serve_pass(const workload_setup& w, pass_kind kind) {
  pass_result res;
  res.kind = kind;
  values* spans = kind == pass_kind::traced ? &res.v : nullptr;
  span_log span(spans);
  layer_raw raw;

  const stream_outcome lat = serve_stream(w, kind, kLatencyStream, span, raw);
  const stream_outcome ovl = serve_stream(w, kind, kOverloadStream, span, raw);

  // Latency stream: every job timed from its due time (NOTES.md).
  const auto due = due_times(lat.recs, w.seed, kLatencyStream.rate);
  std::vector<double> latency, gen_lag, queue, exec;
  // Anchoring at the first admission shifts every due time by that job's
  // own admission lag, which is below one poll step of the driver; an
  // admission earlier than that before its due time is a generator error.
  const double tolerance = cluster_opts(4, 8, w.seed, true).poll_interval;
  std::size_t early = 0;
  for (std::size_t i = 0; i < lat.recs.size(); i++) {
    const auto& r = lat.recs[i];
    if (!r.done) continue;
    latency.push_back(r.t_complete - due[i]);
    gen_lag.push_back(r.t_admit - due[i]);
    queue.push_back(r.t_start - r.t_admit);
    exec.push_back(r.t_complete - r.t_start);
    if (r.t_admit < due[i] - tolerance) early++;
  }
  // Overload stream: completed jobs over first admission to last completion.
  double t_first = 0, t_last = 0;
  std::size_t n_done = 0;
  for (const auto& r : ovl.recs) {
    if (!r.done) continue;
    t_first = n_done == 0 ? r.t_admit : std::min(t_first, r.t_admit);
    t_last = n_done == 0 ? r.t_complete : std::max(t_last, r.t_complete);
    n_done++;
  }

  res.attempted = lat.attempted + ovl.attempted;
  res.failed = lat.failed + ovl.failed;
  const double host_s = lat.host_s + ovl.host_s;
  res.virtual_s.push_back(lat.virtual_s + ovl.virtual_s);
  res.host_s.push_back(host_s);
  res.ref_s = lat.ref_s;
  res.ref_s.insert(res.ref_s.end(), ovl.ref_s.begin(), ovl.ref_s.end());
  res.v.set("setup_s", lat.setup_s + ovl.setup_s);
  res.v.set("jobs.samples", static_cast<double>(latency.size()));
  res.v.set("jobs.p50_s", quantile(latency, 0.50));
  res.v.set("jobs.p99_s", quantile(latency, 0.99));
  res.v.set("jobs.per_s", ratio(static_cast<double>(n_done), t_last - t_first));
  res.v.set("jobs.overload_done", static_cast<double>(n_done));
  res.v.set("jobs.overload_span_s", t_last - t_first);
  res.latency_s = std::move(latency);
  res.v.set("jobs.admit_p99_s", lat.admit_p99_s);
  res.v.set("jobs.early_admissions", static_cast<double>(early));
  res.v.set("jobs.gen_lag_p99_s", quantile(gen_lag, 0.99));
  res.v.set("jobs.queue_p50_s", quantile(queue, 0.50));
  res.v.set("jobs.exec_p50_s", quantile(exec, 0.50));
  derive_layers(raw, host_s, res.v);
  return res;
}

}  // namespace

void serve_measured_repro(std::uint64_t seed) {
  span_log no_spans(nullptr);
  layer_raw raw;
  serve_stream({"serve", seed}, pass_kind::measured, stream_spec{8000.0, 1000}, no_spans, raw);
}

bool known_workload(const std::string& name) {
  return name == "cilksort" || name == "uts_mem" || name == "serve";
}

pass_result run_pass(const workload_setup& w, pass_kind kind, int variant, bool brief) {
  workload_setup v = w;
  if (variant != 0) v.seed = mix_seed(w.seed, 100 + static_cast<std::uint64_t>(variant));
  pass_result r = w.name == "cilksort" ? cilksort_pass(v, kind)
                  : w.name == "uts_mem" ? uts_mem_pass(v, kind, brief)
                                        : serve_pass(v, kind);
  r.variant = variant;
  return r;
}

ic::options probe_opts(const workload_setup& w) {
  if (w.name == "cilksort") return cilksort_opts(w.seed, pass_kind::det);
  if (w.name == "uts_mem") return uts_mem_opts(w.seed, pass_kind::det);
  return cluster_opts(4, 8, w.seed, true);
}

double serial_baseline_s(const workload_setup& w) {
  if (w.name == "uts_mem") {
    const auto t0 = clock::now();
    const std::uint64_t n = ityr::apps::uts_count_serial(uts_mem_params());
    const double t = seconds_since(t0);
    ITYR_CHECK(n == uts_mem_expected());
    return t;
  }
  // Sorts with the runtime elided: the same 4-way recursive mergesort and
  // serial kernels on local memory.
  struct rec {
    static void sort(std::uint32_t* a, std::uint32_t* b, std::size_t n, std::size_t cutoff) {
      if (n < std::max<std::size_t>(cutoff, 4)) {
        ityr::apps::detail::quicksort_serial(a, n);
        return;
      }
      const std::size_t q1 = n / 4, q2 = n / 2, q3 = q1 + (n / 2);
      sort(a, b, q1, cutoff);
      sort(a + q1, b + q1, q2 - q1, cutoff);
      sort(a + q2, b + q2, q3 - q2, cutoff);
      sort(a + q3, b + q3, n - q3, cutoff);
      ityr::apps::detail::merge_serial(a, q1, a + q1, q2 - q1, b);
      ityr::apps::detail::merge_serial(a + q2, q3 - q2, a + q3, n - q3, b + q2);
      ityr::apps::detail::merge_serial(b, q2, b + q2, n - q2, a);
    }
  };
  if (w.name == "cilksort") {
    std::vector<std::uint32_t> a(kSortN), b(kSortN);
    const std::uint64_t input_seed = mix_seed(w.seed, 1);
    for (std::size_t i = 0; i < kSortN; i++) a[i] = ityr::apps::cilksort_input(i, input_seed);
    const auto t0 = clock::now();
    rec::sort(a.data(), b.data(), kSortN, kSortCutoff);
    const double t = seconds_since(t0);
    ITYR_CHECK(std::is_sorted(a.begin(), a.end()));
    return t;
  }
  // serve: the overload stream's job bodies, one after another.
  const auto names =
      ityr::sched::job_manager::assign_mix(kServeMix, kOverloadStream.n_jobs, w.seed);
  const auto slot = job_slots(names);
  std::vector<std::uint32_t> a(kJobSortN), b(kJobSortN);
  const std::uint64_t input_seed = mix_seed(w.seed, 2);
  double t = 0;
  for (std::size_t j = 0; j < names.size(); j++) {
    if (names[j] == "cilksort") {
      for (std::size_t i = 0; i < kJobSortN; i++) {
        a[i] = ityr::apps::cilksort_input(i, input_seed + j);
      }
      const auto t0 = clock::now();
      rec::sort(a.data(), b.data(), kJobSortN, kJobSortCutoff);
      t += seconds_since(t0);
      ITYR_CHECK(std::is_sorted(a.begin(), a.end()));
    } else {
      const auto t0 = clock::now();
      const std::uint64_t n = ityr::apps::uts_count_serial(job_uts_params(slot[j]));
      t += seconds_since(t0);
      ITYR_CHECK(n == job_uts_expected(slot[j]));
    }
  }
  return t;
}

}  // namespace perfbench
