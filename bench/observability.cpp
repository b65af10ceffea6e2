/// Observability-layer overhead and output measurement, emitted as
/// BENCH_observability.json: the fig8 cilksort configuration run with the
/// tracer/sampler fully disabled vs enabled, wall-clock host seconds for
/// both (the disabled path is the no-regression guard: instrumentation
/// compiles down to one predicted branch per hook), virtual time (which must
/// be identical — tracing charges nothing to the DES clock), trace volume,
/// and a delta-snapshot demonstration from the metrics registry.
///
/// Usage: ./build/bench/observability [output.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "itoyori/apps/cilksort.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/metrics.hpp"
#include "itoyori/core/runtime.hpp"
#include "support/bench_common.hpp"

namespace ib = ityr::bench;

namespace {

constexpr std::size_t kN = 1 << 20;
constexpr std::size_t kCutoff = 16384;

struct run_out {
  bool ok = false;
  double wall_s = 0;     ///< host seconds for the whole runtime lifecycle
  double virtual_s = 0;  ///< virtual seconds of the sort region
  std::size_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::size_t trace_json_bytes = 0;
  ityr::metrics_snapshot sort_delta;  ///< registry delta across the sort
  double sort_busy_s = 0;  ///< profiler phase totals of the sort region
  double sort_idle_s = 0;
};

run_out run_once(bool tracing) {
  auto o = ib::cluster_opts(2, 4);
  // Deterministic virtual time: the tracing-on and tracing-off runs must
  // reproduce the same schedule, so equal virtual times demonstrate that
  // instrumentation charges nothing to the simulated clock.
  o.deterministic = true;

  run_out out;
  const auto w0 = std::chrono::steady_clock::now();
  {
    ityr::runtime rt(o);
    if (tracing) rt.trace().set_enabled(true);
    double elapsed = 0;
    bool sorted = false;
    ityr::metrics_snapshot base;
    rt.spmd([&] {
      auto a = ityr::coll_new<std::uint32_t>(kN);
      auto b = ityr::coll_new<std::uint32_t>(kN);
      ityr::root_exec([=] { ityr::apps::cilksort_generate(a, kN, 42, 16384); });
      ityr::barrier();
      if (ityr::my_rank() == 0) base = rt.metrics();
      const double t0 = rt.eng().now();
      ityr::root_exec([=] {
        ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a, kN),
                             ityr::global_span<std::uint32_t>(b, kN), kCutoff);
      });
      ityr::barrier();
      const double t1 = rt.eng().now();
      if (ityr::my_rank() == 0) {
        // The profiler's phases cover one root_exec region at a time; read
        // the sort region's totals before the validate region resets them.
        out.sort_busy_s = rt.prof().total_busy();
        out.sort_idle_s = rt.prof().total_idle();
      }
      sorted = ityr::root_exec([=] { return ityr::apps::cilksort_validate(a, kN, 42, 16384); });
      if (ityr::my_rank() == 0) elapsed = t1 - t0;
      ityr::coll_delete(a, kN);
      ityr::coll_delete(b, kN);
    });
    out.ok = sorted;
    out.virtual_s = elapsed;
    out.sort_delta = rt.metrics().delta(base);
    if (tracing) {
      out.trace_events = rt.trace().total_events();
      out.trace_dropped = rt.trace().total_dropped();
      out.trace_json_bytes = rt.trace().to_json().size();
    }
  }
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - w0).count();
  return out;
}

/// Best-of-k wall time (first run additionally warms the page cache and
/// allocator), keeping the measured point stable on a shared host.
run_out run_best(bool tracing, int reps) {
  run_out best = run_once(tracing);
  for (int i = 1; i < reps; i++) {
    run_out r = run_once(tracing);
    if (r.wall_s < best.wall_s) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_observability.json";

  const run_out off = run_best(false, 3);
  const run_out on = run_best(true, 3);

  const double overhead = off.wall_s > 0 ? on.wall_s / off.wall_s - 1.0 : 0.0;
  const bool virtual_identical = off.virtual_s == on.virtual_s;

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"observability_overhead\",\n"
               "  \"workload\": \"cilksort n=%zu cutoff=%zu ranks=8 policy=write_back_lazy "
               "deterministic=1\",\n"
               "  \"tracing_off\": {\"ok\": %s, \"wall_s\": %.6f, \"virtual_s\": %.9f},\n"
               "  \"tracing_on\": {\"ok\": %s, \"wall_s\": %.6f, \"virtual_s\": %.9f, "
               "\"trace_events\": %zu, \"trace_dropped\": %llu, \"trace_json_bytes\": %zu},\n"
               "  \"tracing_overhead_ratio\": %.4f,\n"
               "  \"virtual_time_identical\": %s,\n"
               "  \"sort_region_delta\": {\n"
               "    \"net.messages.intra\": %lld,\n"
               "    \"net.messages.inter\": %lld,\n"
               "    \"net.bytes.intra\": %lld,\n"
               "    \"net.bytes.inter\": %lld,\n"
               "    \"sched.steals\": %lld\n"
               "  },\n"
               "  \"sort_region_timeline\": {\"busy_s\": %.9f, \"idle_s\": %.9f}\n"
               "}\n",
               kN, kCutoff, off.ok ? "true" : "false", off.wall_s, off.virtual_s,
               on.ok ? "true" : "false", on.wall_s, on.virtual_s, on.trace_events,
               static_cast<unsigned long long>(on.trace_dropped), on.trace_json_bytes, overhead,
               virtual_identical ? "true" : "false",
               static_cast<long long>(on.sort_delta.total("net.messages.intra")),
               static_cast<long long>(on.sort_delta.total("net.messages.inter")),
               static_cast<long long>(on.sort_delta.total("net.bytes.intra")),
               static_cast<long long>(on.sort_delta.total("net.bytes.inter")),
               static_cast<long long>(on.sort_delta.total("sched.steals")),
               on.sort_busy_s, on.sort_idle_s);
  std::fclose(f);

  std::printf("wrote %s\n", out_path);
  std::printf("  tracing off: wall %.3fs, virtual %.6fs (ok=%d)\n", off.wall_s, off.virtual_s,
              off.ok ? 1 : 0);
  std::printf("  tracing on:  wall %.3fs, virtual %.6fs, %zu events (%llu dropped), %zu JSON "
              "bytes (ok=%d)\n",
              on.wall_s, on.virtual_s, on.trace_events,
              static_cast<unsigned long long>(on.trace_dropped), on.trace_json_bytes,
              on.ok ? 1 : 0);
  std::printf("  tracing overhead: %+.1f%% wall, virtual time identical: %s\n", overhead * 100.0,
              virtual_identical ? "yes" : "NO");
  return off.ok && on.ok && virtual_identical ? 0 : 1;
}
