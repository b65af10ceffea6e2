// Reconciliation of the profiler's views. On deterministic cilksort, UTS and
// serving runs with the profiler and the tracer on, the attribution paths
// must agree exactly:
//
//  (a) per rank, busy + steal + idle is the region length;
//  (b) in serving, per-job busy time summed over every job id (0 included)
//      is the busy time summed over ranks;
//  (c) under write_back_lazy, every fence the histogram saw is one Release
//      or Acquire scope;
//  (d) with fairness and backoff off, every Steal scope ends in exactly one
//      steal-latency or failed-probe sample;
//  (e) with no trace events dropped, each Fig. 9 category has as many trace
//      spans as profiler scopes.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "../support/fixture.hpp"
#include "itoyori/apps/cilksort.hpp"
#include "itoyori/apps/uts.hpp"
#include "itoyori/common/json.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/metrics.hpp"

namespace {

namespace ic = ityr::common;

ityr::options reconcile_opts() {
  auto o = ityr::test::tiny_opts(2, 4);
  o.policy = ic::cache_policy::write_back_lazy;
  o.coll_heap_per_rank = 1 * ic::MiB;
  return o;
}

ityr::apps::uts_params small_uts(int seed) {
  ityr::apps::uts_params p;
  p.b0 = 3.0;
  p.gen_mx = 8;
  p.root_seed = seed;
  return p;
}

/// Runs `body` on a fresh runtime with the profiler and the tracer on, then
/// checks identities (a), (c), (d) and (e) on the last region.
void check_run(const ityr::options& o, const std::function<void()>& body,
               const std::function<void(ityr::runtime&)>& extra = {}) {
  ityr::runtime rt(o);
  rt.prof().set_enabled(true);
  rt.trace().set_enabled(true);
  rt.spmd(body);
  const ic::profiler& prof = rt.prof();
  const int n = rt.eng().n_ranks();

  // (a) The phases partition each rank's region.
  for (int r = 0; r < n; r++) {
    const double region = prof.region_of(r);
    const double sum = prof.busy_of(r) + prof.steal_of(r) + prof.idle_of(r);
    EXPECT_GT(region, 0) << "rank " << r;
    EXPECT_LE(std::fabs(sum - region), 1e-12 * region) << "rank " << r;
  }

  const ityr::metrics_snapshot snap = rt.metrics();
  const auto hist_count = [&](const char* name) {
    const ityr::metric_histogram* h = snap.find_histogram(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->hist.count());
  };
  // (c) Fences: Release #2/#3 and Acquire #1/#2 are the timed fence scopes.
  EXPECT_GT(hist_count("hist.fence_s"), 0);
  EXPECT_EQ(hist_count("hist.fence_s"),
            snap.total("prof.Release.count") + snap.total("prof.Acquire.count"));
  // (d) Steal rounds: one outcome sample per Steal scope.
  EXPECT_GT(snap.total("prof.Steal.count"), 0);
  EXPECT_EQ(snap.total("prof.Steal.count"),
            hist_count("hist.steal_latency_s") + hist_count("hist.steal_fail_s"));

  // (e) Trace spans per category against the profiler's counts.
  ASSERT_EQ(rt.trace().total_dropped(), 0u);
  ic::json_value root;
  std::string error;
  ASSERT_TRUE(ic::parse_json(rt.trace().to_json(), root, error)) << error;
  std::map<std::string, double> spans;
  for (const ic::json_value& e : root.find("traceEvents")->arr) {
    const ic::json_value* ph = e.find("ph");
    if (ph != nullptr && ph->str == "B") spans[e.find("name")->str]++;
  }
  for (std::size_t i = 0; i < ic::n_prof_events; i++) {
    const std::string name = ic::to_string(static_cast<ic::prof_event>(i));
    EXPECT_EQ(spans[name], snap.total("prof." + name + ".count")) << name;
  }
  if (extra) extra(rt);
}

}  // namespace

TEST(Reconcile, Cilksort) {
  constexpr std::size_t n = 1 << 14;
  check_run(reconcile_opts(), [] {
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    ityr::root_exec([=] { ityr::apps::cilksort_generate(a, n, 42, 1024); });
    ityr::root_exec([=] {
      ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a, n),
                           ityr::global_span<std::uint32_t>(b, n), 256);
    });
    EXPECT_TRUE(ityr::root_exec([=] { return ityr::apps::cilksort_validate(a, n, 42, 1024); }));
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
}

TEST(Reconcile, Uts) {
  check_run(reconcile_opts(), [] {
    const auto p = small_uts(19);
    const std::uint64_t count = ityr::root_exec([=] { return ityr::apps::uts_count_parallel(p); });
    EXPECT_EQ(count, ityr::apps::uts_count_serial(p));
  });
}

TEST(Reconcile, Serve) {
  auto o = reconcile_opts();
  o.serve = true;
  o.serve_arrival_rate = 20000;
  static constexpr std::size_t n_jobs = 6;
  check_run(
      o,
      [] {
        // serve() is the only region, so every job's busy time lies in it.
        std::vector<ityr::sched::job_spec> jobs;
        for (std::size_t j = 0; j < n_jobs; j++) {
          jobs.push_back({"uts", [j] {
                            ityr::apps::uts_count_parallel(small_uts(static_cast<int>(100 + j)));
                          }});
        }
        ityr::serve(std::move(jobs));
      },
      [](ityr::runtime& rt) {
        // (b) Per-job busy time adds up to the ranks' busy time.
        ASSERT_EQ(rt.jobs().records().size(), n_jobs);
        double by_job = 0;
        for (ic::job_id_t j = 0; j <= n_jobs; j++) by_job += rt.prof().busy_of_job(j);
        const double by_rank = rt.prof().total_busy();
        EXPECT_GT(rt.prof().busy_of_job(ic::no_job), 0);  // the driver counts too
        EXPECT_LE(std::fabs(by_job - by_rank), 1e-9 * by_rank);
      });
}
