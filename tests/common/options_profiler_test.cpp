#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "itoyori/common/options.hpp"
#include "itoyori/common/profiler.hpp"
#include "itoyori/common/trace.hpp"

namespace ic = ityr::common;

TEST(Options, DefaultsAreSane) {
  ic::options o;
  EXPECT_EQ(o.n_ranks(), o.n_nodes * o.ranks_per_node);
  EXPECT_GT(o.block_size, 0u);
  EXPECT_EQ(o.block_size % o.sub_block_size, 0u);
  EXPECT_GE(o.cache_size, o.block_size);
  EXPECT_EQ(o.policy, ic::cache_policy::write_back_lazy);
}

TEST(Options, FromEnvOverrides) {
  ::setenv("ITYR_N_NODES", "7", 1);
  ::setenv("ITYR_RANKS_PER_NODE", "3", 1);
  ::setenv("ITYR_POLICY", "write_through", 1);
  ::setenv("ITYR_CACHE_SIZE", "1048576", 1);
  ::setenv("ITYR_DETERMINISTIC", "1", 1);
  ::setenv("ITYR_SEED", "999", 1);
  auto o = ic::options::from_env();
  EXPECT_EQ(o.n_nodes, 7);
  EXPECT_EQ(o.ranks_per_node, 3);
  EXPECT_EQ(o.n_ranks(), 21);
  EXPECT_EQ(o.policy, ic::cache_policy::write_through);
  EXPECT_EQ(o.cache_size, 1048576u);
  EXPECT_TRUE(o.deterministic);
  EXPECT_EQ(o.seed, 999u);
  ::unsetenv("ITYR_N_NODES");
  ::unsetenv("ITYR_RANKS_PER_NODE");
  ::unsetenv("ITYR_POLICY");
  ::unsetenv("ITYR_CACHE_SIZE");
  ::unsetenv("ITYR_DETERMINISTIC");
  ::unsetenv("ITYR_SEED");
}

TEST(Options, ObservabilityEnvRoundTrip) {
  ::setenv("ITYR_TRACE", "/tmp/out.json", 1);
  ::setenv("ITYR_TRACE_CAP", "4096", 1);
  ::setenv("ITYR_STATS_JSON", "/tmp/stats.json", 1);
  ::setenv("ITYR_METRICS_SAMPLE_INTERVAL", "0.0025", 1);
  auto o = ic::options::from_env();
  EXPECT_EQ(o.trace_path, "/tmp/out.json");
  EXPECT_EQ(o.trace_cap, 4096u);
  EXPECT_EQ(o.stats_json_path, "/tmp/stats.json");
  EXPECT_DOUBLE_EQ(o.metrics_sample_interval, 0.0025);
  ::unsetenv("ITYR_TRACE");
  ::unsetenv("ITYR_TRACE_CAP");
  ::unsetenv("ITYR_STATS_JSON");
  ::unsetenv("ITYR_METRICS_SAMPLE_INTERVAL");
}

TEST(Options, ObservabilityEnvDefaults) {
  ::unsetenv("ITYR_TRACE");
  ::unsetenv("ITYR_TRACE_CAP");
  ::unsetenv("ITYR_STATS_JSON");
  ::unsetenv("ITYR_METRICS_SAMPLE_INTERVAL");
  auto o = ic::options::from_env();
  EXPECT_TRUE(o.trace_path.empty());  // tracing off by default
  EXPECT_TRUE(o.stats_json_path.empty());
  EXPECT_GT(o.trace_cap, 0u);
  EXPECT_GT(o.metrics_sample_interval, 0.0);
}

TEST(Options, ZeroObservabilityEnvIsBenign) {
  // The tracer clamps a 0 cap to min_cap and a 0 sample interval disables
  // sampling — no crash, no surprises.
  ::setenv("ITYR_TRACE_CAP", "0", 1);
  ::setenv("ITYR_METRICS_SAMPLE_INTERVAL", "0", 1);
  auto o = ic::options::from_env();
  EXPECT_EQ(o.trace_cap, 0u);
  EXPECT_DOUBLE_EQ(o.metrics_sample_interval, 0.0);

  ic::tracer t;
  t.configure(1, 1, o.trace_cap);
  t.set_enabled(true);
  t.set_sample_interval(o.metrics_sample_interval);
  int fired = 0;
  t.set_sampler([&](int, double) { fired++; });
  for (int i = 0; i < 100; i++) {
    t.instant(0, i * 1.0, "x");
    t.poll_sample(0, i * 1.0);
  }
  EXPECT_EQ(t.n_events(0), ic::tracer::min_cap);  // clamped, ring intact
  EXPECT_EQ(fired, 0);                            // sampling disabled

  ::unsetenv("ITYR_TRACE_CAP");
  ::unsetenv("ITYR_METRICS_SAMPLE_INTERVAL");
}

TEST(Options, PrefetchEnvRoundTrip) {
  ::setenv("ITYR_PREFETCH", "1", 1);
  ::setenv("ITYR_PREFETCH_DEPTH", "16", 1);
  ::setenv("ITYR_PREFETCH_MAX_INFLIGHT", "262144", 1);
  auto o = ic::options::from_env();
  EXPECT_TRUE(o.prefetch);
  EXPECT_EQ(o.prefetch_depth, 16u);
  EXPECT_EQ(o.prefetch_max_inflight, 262144u);
  ::setenv("ITYR_PREFETCH", "true", 1);
  EXPECT_TRUE(ic::options::from_env().prefetch);
  ::setenv("ITYR_PREFETCH", "0", 1);
  EXPECT_FALSE(ic::options::from_env().prefetch);
  ::unsetenv("ITYR_PREFETCH");
  ::unsetenv("ITYR_PREFETCH_DEPTH");
  ::unsetenv("ITYR_PREFETCH_MAX_INFLIGHT");
}

TEST(Options, PrefetchEnvDefaults) {
  ::unsetenv("ITYR_PREFETCH");
  ::unsetenv("ITYR_PREFETCH_DEPTH");
  ::unsetenv("ITYR_PREFETCH_MAX_INFLIGHT");
  auto o = ic::options::from_env();
  EXPECT_FALSE(o.prefetch);  // strictly additive: off by default
  EXPECT_GT(o.prefetch_depth, 0u);
  EXPECT_GT(o.prefetch_max_inflight, 0u);
}

TEST(Options, ZeroPrefetchEnvIsBenign) {
  // A 0 depth or a 0 in-flight budget disables prefetching — no crash, no
  // partial configuration.
  ::setenv("ITYR_PREFETCH", "false", 1);
  ::setenv("ITYR_PREFETCH_DEPTH", "0", 1);
  ::setenv("ITYR_PREFETCH_MAX_INFLIGHT", "0", 1);
  auto o = ic::options::from_env();
  EXPECT_FALSE(o.prefetch);
  EXPECT_EQ(o.prefetch_depth, 0u);
  EXPECT_EQ(o.prefetch_max_inflight, 0u);
  ::unsetenv("ITYR_PREFETCH");
  ::unsetenv("ITYR_PREFETCH_DEPTH");
  ::unsetenv("ITYR_PREFETCH_MAX_INFLIGHT");
}

TEST(Options, MalformedEnvValuesThrow) {
  // A value that does not parse whole fails at startup, naming the variable
  // and the raw value, instead of reading as a prefix ("16M" -> 16, "1us" ->
  // 1 s) or as 0/false ("half", "yes").
  const std::pair<const char*, const char*> cases[] = {
      {"ITYR_STEAL_BATCH", "half"},
      {"ITYR_NET_INTER_LATENCY", "1us"},
      {"ITYR_PREFETCH", "yes"},
      {"ITYR_CACHE_SIZE", "16M"},
      {"ITYR_N_NODES", "2x"},
      {"ITYR_SEED", "-1"},
      {"ITYR_TRACE_CAP", ""},  // empty counts as unset: no throw
  };
  for (const auto& [name, value] : cases) {
    ::setenv(name, value, 1);
    if (*value == '\0') {
      EXPECT_NO_THROW(ic::options::from_env()) << name;
    } else {
      try {
        ic::options::from_env();
        ADD_FAILURE() << "expected ic::error for " << name << "=" << value;
      } catch (const ic::error& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find(std::string("\"") + value + "\""),
                  std::string::npos)
            << e.what();
      }
    }
    ::unsetenv(name);
  }
}

TEST(Options, WellFormedEnvValuesParse) {
  // Integers keep base-0 literals; booleans take exactly 0/1/false/true.
  ::setenv("ITYR_CACHE_SIZE", "0x200000", 1);
  ::setenv("ITYR_N_NODES", "010", 1);  // octal
  ::setenv("ITYR_NET_INTER_LATENCY", "1e-6", 1);
  ::setenv("ITYR_PREFETCH", "true", 1);
  auto o = ic::options::from_env();
  EXPECT_EQ(o.cache_size, 2 * ic::MiB);
  EXPECT_EQ(o.n_nodes, 8);
  EXPECT_DOUBLE_EQ(o.net.inter_latency, 1e-6);
  EXPECT_TRUE(o.prefetch);
  ::setenv("ITYR_PREFETCH", "0", 1);
  EXPECT_FALSE(ic::options::from_env().prefetch);
  ::unsetenv("ITYR_CACHE_SIZE");
  ::unsetenv("ITYR_N_NODES");
  ::unsetenv("ITYR_NET_INTER_LATENCY");
  ::unsetenv("ITYR_PREFETCH");
}

TEST(Options, BadPolicyStringThrows) {
  EXPECT_THROW(ic::cache_policy_from_string("bogus"), ic::api_error);
}

TEST(Options, UnreadItyrEnvThrows) {
  // A retired knob and a misspelled one must fail loudly, naming the
  // variable, instead of running the defaults.
  for (const char* name :
       {"ITYR_EVICTION_POLICY", "ITYR_CACHE_SIZ", "ITYR_SERVE_JOBS", "ITYR_SERVE_MIX"}) {
    ::setenv(name, "clock", 1);
    try {
      ic::options::from_env();
      ADD_FAILURE() << "expected ic::api_error for " << name;
    } catch (const ic::api_error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
    ::setenv(name, "", 1);  // empty counts as unset
    EXPECT_NO_THROW(ic::options::from_env());
    ::unsetenv(name);
  }
}

TEST(Options, CacheGeometryValidation) {
  // Direct checks: power-of-two block and sub-block, block page-aligned,
  // sub <= block.
  ic::validate_cache_geometry(4096, 1024);  // must not throw
  ic::validate_cache_geometry(8192, 8192);
  EXPECT_THROW(ic::validate_cache_geometry(3000, 1024), ic::error);
  EXPECT_THROW(ic::validate_cache_geometry(0, 1024), ic::error);
  EXPECT_THROW(ic::validate_cache_geometry(4096, 1000), ic::error);
  EXPECT_THROW(ic::validate_cache_geometry(4096, 0), ic::error);
  EXPECT_THROW(ic::validate_cache_geometry(1024, 4096), ic::error);  // sub > block
  EXPECT_THROW(ic::validate_cache_geometry(64, 64), ic::error);      // below page size
  // The error message names the offending knob so a bad env override is
  // diagnosable from the exception alone.
  try {
    ic::validate_cache_geometry(3000, 1024);
    FAIL() << "expected ic::error";
  } catch (const ic::error& e) {
    EXPECT_NE(std::string(e.what()).find("ITYR_BLOCK_SIZE"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("3000"), std::string::npos);
  }
}

TEST(Options, BadCacheGeometryEnvThrows) {
  ::setenv("ITYR_BLOCK_SIZE", "3000", 1);
  EXPECT_THROW(ic::options::from_env(), ic::error);
  ::setenv("ITYR_BLOCK_SIZE", "4096", 1);
  ::setenv("ITYR_SUB_BLOCK_SIZE", "8192", 1);  // sub > block
  EXPECT_THROW(ic::options::from_env(), ic::error);
  ::setenv("ITYR_SUB_BLOCK_SIZE", "256", 1);
  EXPECT_EQ(ic::options::from_env().block_size, 4096u);  // valid pair passes
  ::unsetenv("ITYR_BLOCK_SIZE");
  ::unsetenv("ITYR_SUB_BLOCK_SIZE");
}

TEST(Options, CacheSizeBelowOneBlockThrows) {
  ic::validate_cache_size(65536, 65536);  // exactly one block: fine
  EXPECT_THROW(ic::validate_cache_size(16, 65536), ic::error);
  EXPECT_THROW(ic::validate_cache_size(0, 4096), ic::error);
  ::setenv("ITYR_CACHE_SIZE", "16", 1);  // default 64 KiB blocks
  try {
    ic::options::from_env();
    ADD_FAILURE() << "expected ic::error";
  } catch (const ic::error& e) {
    EXPECT_NE(std::string(e.what()).find("ITYR_CACHE_SIZE"), std::string::npos) << e.what();
  }
  ::unsetenv("ITYR_CACHE_SIZE");
}

TEST(Options, CacheSizeNotBlockMultipleThrows) {
  ic::validate_cache_size(3 * 65536, 65536);
  EXPECT_THROW(ic::validate_cache_size(100000, 65536), ic::error);
  ::setenv("ITYR_BLOCK_SIZE", "4096", 1);
  ::setenv("ITYR_CACHE_SIZE", "10000", 1);
  try {
    ic::options::from_env();
    ADD_FAILURE() << "expected ic::error";
  } catch (const ic::error& e) {
    EXPECT_NE(std::string(e.what()).find("ITYR_CACHE_SIZE"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("10000"), std::string::npos) << e.what();
  }
  ::setenv("ITYR_CACHE_SIZE", "12288", 1);
  EXPECT_EQ(ic::options::from_env().cache_size, 12288u);
  ::unsetenv("ITYR_BLOCK_SIZE");
  ::unsetenv("ITYR_CACHE_SIZE");
}

TEST(Options, PolicyRoundTrip) {
  for (auto p : {ic::cache_policy::none, ic::cache_policy::write_through,
                 ic::cache_policy::write_back, ic::cache_policy::write_back_lazy}) {
    EXPECT_EQ(ic::cache_policy_from_string(ic::to_string(p)), p);
  }
}

namespace {

/// Profiler harness with a hand-cranked clock.
struct prof_fixture {
  double now = 0;
  int rank = 0;
  ic::profiler prof;

  prof_fixture() {
    prof.configure(
        2, [this] { return now; }, [this] { return rank; });
    prof.set_enabled(true);
  }
};

}  // namespace

TEST(Profiler, SimpleScopeAttribution) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::checkout);
  f.now = 5;
  f.prof.end(ic::prof_event::checkout);
  EXPECT_DOUBLE_EQ(f.prof.accumulated(0, ic::prof_event::checkout), 5);
  EXPECT_DOUBLE_EQ(f.prof.accumulated(1, ic::prof_event::checkout), 0);
}

TEST(Profiler, NestedScopesAreExclusive) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::checkout);  // t=0
  f.now = 1;
  f.prof.begin(ic::prof_event::get);  // nested
  f.now = 4;
  f.prof.end(ic::prof_event::get);  // get self = 3
  f.now = 6;
  f.prof.end(ic::prof_event::checkout);  // checkout self = 6 - 3 = 3
  EXPECT_DOUBLE_EQ(f.prof.total(ic::prof_event::get), 3);
  EXPECT_DOUBLE_EQ(f.prof.total(ic::prof_event::checkout), 3);
  EXPECT_DOUBLE_EQ(f.prof.total_all_events(), 6);
}

TEST(Profiler, SiblingScopesAccumulate) {
  prof_fixture f;
  for (int i = 0; i < 3; i++) {
    f.prof.begin(ic::prof_event::release);
    f.now += 2;
    f.prof.end(ic::prof_event::release);
    f.now += 1;  // unattributed gap
  }
  EXPECT_DOUBLE_EQ(f.prof.total(ic::prof_event::release), 6);
}

TEST(Profiler, PerRankSeparation) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::steal);
  f.now = 2;
  f.prof.end(ic::prof_event::steal);
  f.rank = 1;
  f.prof.begin(ic::prof_event::steal);
  f.now = 7;
  f.prof.end(ic::prof_event::steal);
  EXPECT_DOUBLE_EQ(f.prof.accumulated(0, ic::prof_event::steal), 2);
  EXPECT_DOUBLE_EQ(f.prof.accumulated(1, ic::prof_event::steal), 5);
  EXPECT_DOUBLE_EQ(f.prof.total(ic::prof_event::steal), 7);
}

TEST(Profiler, DisabledProfilerIsFree) {
  prof_fixture f;
  f.prof.set_enabled(false);
  f.prof.begin(ic::prof_event::acquire);
  f.now = 100;
  f.prof.end(ic::prof_event::acquire);
  EXPECT_DOUBLE_EQ(f.prof.total(ic::prof_event::acquire), 0);
}

TEST(Profiler, ResetClearsAccumulators) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::checkin);
  f.now = 3;
  f.prof.end(ic::prof_event::checkin);
  f.prof.reset();
  EXPECT_DOUBLE_EQ(f.prof.total_all_events(), 0);
}

TEST(Profiler, ScopeRecordsAtExitOnlyIfAtEntry) {
  prof_fixture f;
  f.prof.set_enabled(false);
  {
    ic::profiler::scope sc(f.prof, ic::prof_event::get);
    f.prof.set_enabled(true);  // turning on mid-scope must not pop a frame never pushed
    f.now = 2;
  }
  EXPECT_EQ(f.prof.total_count(ic::prof_event::get), 0u);
  {
    ic::profiler::scope sc(f.prof, ic::prof_event::get);
    f.prof.set_enabled(false);  // ...and turning off must still pop the pushed one
    f.now = 5;
  }
  EXPECT_EQ(f.prof.total_count(ic::prof_event::get), 1u);
  EXPECT_DOUBLE_EQ(f.prof.total(ic::prof_event::get), 3);
}

TEST(Profiler, TimedScopeMeasuresWhileInactive) {
  // Fence and steal histograms need the interval whether or not profiling
  // is on; an inactive timed scope measures it without recording anything.
  prof_fixture f;
  f.prof.set_enabled(false);
  f.now = 1;
  ic::profiler::scope outer(f.prof, ic::prof_event::steal, /*timed=*/true);
  EXPECT_DOUBLE_EQ(outer.start(), 1);
  f.now = 2;
  {
    ic::profiler::scope inner(f.prof, ic::prof_event::acquire, /*timed=*/true);
    f.now = 4.5;
    EXPECT_DOUBLE_EQ(inner.close(), 2.5);
  }
  f.now = 6;
  EXPECT_DOUBLE_EQ(outer.close(), 5);
  EXPECT_DOUBLE_EQ(outer.close(), 0);  // already closed
  EXPECT_DOUBLE_EQ(f.prof.total_all_events(), 0);
  EXPECT_EQ(f.prof.total_count(ic::prof_event::steal), 0u);
}

TEST(Profiler, CountsAndMaxDuration) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::get);
  f.now = 2;
  f.prof.end(ic::prof_event::get);  // duration 2
  f.prof.begin(ic::prof_event::get);
  f.now = 7;
  f.prof.end(ic::prof_event::get);  // duration 5
  EXPECT_EQ(f.prof.count_of(0, ic::prof_event::get), 2u);
  EXPECT_EQ(f.prof.total_count(ic::prof_event::get), 2u);
  EXPECT_DOUBLE_EQ(f.prof.max_duration_of(0, ic::prof_event::get), 5);
  EXPECT_DOUBLE_EQ(f.prof.max_duration(ic::prof_event::get), 5);
}

TEST(Profiler, MaxDurationIsInclusive) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::checkout);  // t=0
  f.now = 1;
  f.prof.begin(ic::prof_event::get);
  f.now = 4;
  f.prof.end(ic::prof_event::get);
  f.now = 5;
  f.prof.end(ic::prof_event::checkout);
  // Self time of checkout is 2, but max duration reports the inclusive 5.
  EXPECT_DOUBLE_EQ(f.prof.total(ic::prof_event::checkout), 2);
  EXPECT_DOUBLE_EQ(f.prof.max_duration(ic::prof_event::checkout), 5);
}

TEST(Profiler, ConfigureOnLiveProfilerThrows) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::checkout);  // open scope -> live
  EXPECT_THROW(f.prof.configure(
                   2, [] { return 0.0; }, [] { return 0; }),
               ic::api_error);
  f.now = 1;
  f.prof.end(ic::prof_event::checkout);  // closed scope, but data accumulated
  EXPECT_THROW(f.prof.configure(
                   2, [] { return 0.0; }, [] { return 0; }),
               ic::api_error);
  f.prof.reset();  // scopes closed and data cleared -> reconfigure is fine
  f.prof.configure(
      2, [] { return 0.0; }, [] { return 0; });
  SUCCEED();
}

TEST(ProfilerDeathTest, AggregateReadWithOpenScopeDies) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::checkout);
  // Aggregate accessors assert that every per-rank scope stack is empty; a
  // read mid-scope would silently under-report.
  EXPECT_DEATH((void)f.prof.total(ic::prof_event::checkout), "check failed");
  EXPECT_DEATH((void)f.prof.total_all_events(), "check failed");
}

TEST(Profiler, TracerMakesDisabledProfilerActive) {
  // An attached, enabled tracer turns scope begin/end into trace spans even
  // with stats accumulation disabled.
  prof_fixture f;
  f.prof.set_enabled(false);
  ic::tracer t;
  t.configure(2, 2, 1 << 10);
  t.set_enabled(true);
  f.prof.set_tracer(&t);
  EXPECT_TRUE(f.prof.active());

  f.prof.begin(ic::prof_event::checkout);
  f.now = 5;
  f.prof.end(ic::prof_event::checkout);
  const auto r = ic::validate_trace_json(t.to_json());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.n_spans, 1u);
}
