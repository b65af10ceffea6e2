#include "itoyori/common/trace.hpp"

#include <gtest/gtest.h>

#include "itoyori/common/profiler.hpp"

#include <string>

namespace ityr::common {
namespace {

tracer make_tracer(int n_ranks = 2, int rpn = 2, std::size_t cap = 1 << 10) {
  tracer t;
  t.configure(n_ranks, rpn, cap);
  t.set_enabled(true);
  return t;
}

TEST(TraceTest, DisabledRecordsNothing) {
  tracer t;
  t.configure(2, 2, 1 << 10);
  ASSERT_FALSE(t.enabled());
  t.span_begin(0, 0.0, "A");
  t.span_end(0, 1.0, "A");
  t.instant(1, 0.5, "X");
  EXPECT_EQ(t.flow(0, 0.1, 1, 0.2, "F"), 0u);
  t.counter(0, 0.3, "c", 1.0);
  EXPECT_EQ(t.total_events(), 0u);
}

TEST(TraceTest, SpanNestingRoundTrip) {
  tracer t = make_tracer();
  t.span_begin(0, 0.0, "Outer");
  t.span_begin(0, 0.25, "Inner");
  t.instant(0, 0.5, "tick");
  t.span_end(0, 0.75, "Inner");
  t.span_end(0, 1.0, "Outer");
  t.span_begin(1, 0.0, "Other");
  t.span_end(1, 2.0, "Other");

  const auto r = validate_trace_json(t.to_json());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.n_spans, 3u);
  EXPECT_EQ(r.n_flows, 0u);
}

TEST(TraceTest, OpenSpansClosedAtDump) {
  tracer t = make_tracer();
  t.span_begin(0, 0.0, "Outer");
  t.span_begin(0, 0.5, "Inner");
  t.instant(0, 1.0, "last");
  // Neither span ended: the dump must auto-close both at the rank's last
  // timestamp so the checker still sees balanced pairs.
  const auto r = validate_trace_json(t.to_json());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.n_spans, 2u);
}

TEST(TraceTest, CapEvictionCountsAndRepairs) {
  tracer t;
  t.configure(1, 1, tracer::min_cap);
  t.set_enabled(true);
  // 3x the cap of nested spans: the oldest begins are evicted, leaving
  // orphan end events the dump has to skip.
  const int total = static_cast<int>(tracer::min_cap) * 3;
  for (int i = 0; i < total; i++) {
    t.span_begin(0, i * 1.0, "S");
    t.span_end(0, i * 1.0 + 0.5, "S");
  }
  EXPECT_EQ(t.n_events(0), tracer::min_cap);
  EXPECT_EQ(t.dropped(0), static_cast<std::uint64_t>(2 * total - tracer::min_cap));
  EXPECT_EQ(t.total_dropped(), t.dropped(0));

  const auto r = validate_trace_json(t.to_json());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.n_spans, 0u);
}

TEST(TraceTest, CapIsClamped) {
  tracer t;
  t.configure(1, 1, 0);  // malformed ITYR_TRACE_CAP parses as 0
  t.set_enabled(true);
  for (int i = 0; i < 100; i++) t.instant(0, i * 1.0, "x");
  EXPECT_EQ(t.n_events(0), tracer::min_cap);
  EXPECT_EQ(t.dropped(0), 100u - tracer::min_cap);
}

TEST(TraceTest, FlowPairingSurvivesDump) {
  tracer t = make_tracer();
  const auto id1 = t.flow(0, 0.1, 1, 0.2, "steal");
  const auto id2 = t.flow(1, 0.3, 0, 0.4, "rma");
  EXPECT_NE(id1, 0u);
  EXPECT_NE(id2, id1);

  const auto r = validate_trace_json(t.to_json());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.n_flows, 2u);
}

TEST(TraceTest, HalfEvictedFlowIsDropped) {
  // Rank 0 has min_cap capacity; record a flow, then push enough events on
  // rank 0 to evict its flow_start half. The dump must then drop the
  // surviving flow_finish on rank 1 too, or the checker would reject the
  // trace as having an unpaired flow.
  tracer t;
  t.configure(2, 2, tracer::min_cap);
  t.set_enabled(true);
  t.flow(0, 0.0, 1, 0.1, "steal");
  for (int i = 0; i < static_cast<int>(tracer::min_cap) + 4; i++) {
    t.instant(0, 1.0 + i, "x");
  }
  EXPECT_GT(t.dropped(0), 0u);

  const auto r = validate_trace_json(t.to_json());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.n_flows, 0u);
}

TEST(TraceTest, CounterSamplesAndPolling) {
  tracer t = make_tracer();
  int fired = 0;
  t.set_sample_interval(1.0);
  t.set_sampler([&](int rank, double now) {
    fired++;
    t.counter(rank, now, "c", static_cast<double>(fired));
  });
  t.poll_sample(0, 0.0);   // fires (first sample)
  t.poll_sample(0, 0.5);   // within interval: no fire
  t.poll_sample(0, 1.25);  // fires
  EXPECT_EQ(fired, 2);

  const auto r = validate_trace_json(t.to_json());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.n_counters, 2u);
}

TEST(TraceTest, SamplingDisabledByNonPositiveInterval) {
  tracer t = make_tracer();
  int fired = 0;
  t.set_sample_interval(0.0);  // malformed env value parses as 0 -> disabled
  t.set_sampler([&](int, double) { fired++; });
  t.poll_sample(0, 0.0);
  t.poll_sample(0, 10.0);
  EXPECT_EQ(fired, 0);
}

TEST(TraceTest, ClearResets) {
  tracer t = make_tracer();
  t.span_begin(0, 0.0, "A");
  t.span_end(0, 1.0, "A");
  EXPECT_GT(t.total_events(), 0u);
  t.clear();
  EXPECT_EQ(t.total_events(), 0u);
  EXPECT_EQ(t.total_dropped(), 0u);
}

// ---- validate_trace_json on handcrafted inputs ----

std::string wrap(const std::string& events) { return "{\"traceEvents\": [" + events + "]}"; }

TEST(TraceCheckTest, AcceptsMinimalValidTrace) {
  const auto r = validate_trace_json(
      wrap("{\"ph\": \"B\", \"pid\": 0, \"tid\": 0, \"ts\": 0.0, \"name\": \"A\"},"
           "{\"ph\": \"E\", \"pid\": 0, \"tid\": 0, \"ts\": 1.0, \"name\": \"A\"}"));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.n_spans, 1u);
}

TEST(TraceCheckTest, RejectsMalformedJson) {
  EXPECT_FALSE(validate_trace_json("{\"traceEvents\": [").ok);
  EXPECT_FALSE(validate_trace_json("not json").ok);
  EXPECT_FALSE(validate_trace_json("{}").ok);  // no traceEvents
  EXPECT_FALSE(validate_trace_json(wrap("") + "garbage").ok);
}

TEST(TraceCheckTest, RejectsNameMismatchedEnd) {
  const auto r = validate_trace_json(
      wrap("{\"ph\": \"B\", \"pid\": 0, \"tid\": 0, \"ts\": 0.0, \"name\": \"A\"},"
           "{\"ph\": \"E\", \"pid\": 0, \"tid\": 0, \"ts\": 1.0, \"name\": \"B\"}"));
  EXPECT_FALSE(r.ok);
}

TEST(TraceCheckTest, RejectsUnclosedSpan) {
  const auto r = validate_trace_json(
      wrap("{\"ph\": \"B\", \"pid\": 0, \"tid\": 0, \"ts\": 0.0, \"name\": \"A\"}"));
  EXPECT_FALSE(r.ok);
}

TEST(TraceCheckTest, RejectsEndWithoutBegin) {
  const auto r = validate_trace_json(
      wrap("{\"ph\": \"E\", \"pid\": 0, \"tid\": 0, \"ts\": 0.0, \"name\": \"A\"}"));
  EXPECT_FALSE(r.ok);
}

TEST(TraceCheckTest, RejectsUnpairedFlow) {
  const auto r = validate_trace_json(
      wrap("{\"ph\": \"s\", \"pid\": 0, \"tid\": 0, \"ts\": 0.0, \"name\": \"F\", \"id\": 1}"));
  EXPECT_FALSE(r.ok);
}

TEST(TraceCheckTest, TracksAreIndependent) {
  // Overlapping spans on different (pid,tid) tracks are fine.
  const auto r = validate_trace_json(
      wrap("{\"ph\": \"B\", \"pid\": 0, \"tid\": 0, \"ts\": 0.0, \"name\": \"A\"},"
           "{\"ph\": \"B\", \"pid\": 0, \"tid\": 1, \"ts\": 0.5, \"name\": \"B\"},"
           "{\"ph\": \"E\", \"pid\": 0, \"tid\": 0, \"ts\": 1.0, \"name\": \"A\"},"
           "{\"ph\": \"E\", \"pid\": 0, \"tid\": 1, \"ts\": 1.5, \"name\": \"B\"}"));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.n_spans, 2u);
}

// ---- profiler phases (busy / steal / idle) ----

/// Profiler driven with explicit (rank, time) stamps instead of the
/// simulator's clock and rank.
struct stamped_profiler : profiler {
  double now = 0;
  int rank = 0;

  explicit stamped_profiler(int n_ranks) {
    configure(
        n_ranks, [this] { return now; }, [this] { return rank; });
  }
  void begin_region(int r, double t) {
    at(r, t);
    profiler::begin_region();
  }
  void enter(int r, phase p, double t) {
    at(r, t);
    profiler::enter(p);
  }
  void end_region(int r, double t) {
    at(r, t);
    profiler::end_region();
  }
  void set_job(int r, job_id_t job, double t) {
    at(r, t);
    profiler::set_job(job);
  }

private:
  void at(int r, double t) {
    rank = r;
    now = t;
  }
};

using phase = profiler::phase;

TEST(PhaseTimelineTest, AccountsPhases) {
  stamped_profiler tl(2);

  tl.begin_region(0, 0.0);
  tl.enter(0, phase::busy, 1.0);   // idle [0,1)
  tl.enter(0, phase::steal, 3.0);  // busy [1,3)
  tl.enter(0, phase::busy, 3.5);   // steal [3,3.5)
  tl.end_region(0, 4.0);           // busy [3.5,4)

  tl.begin_region(1, 0.0);
  tl.enter(1, phase::busy, 0.0);
  tl.end_region(1, 4.0);

  EXPECT_DOUBLE_EQ(tl.idle_of(0), 1.0);
  EXPECT_DOUBLE_EQ(tl.busy_of(0), 2.5);
  EXPECT_DOUBLE_EQ(tl.steal_of(0), 0.5);
  EXPECT_DOUBLE_EQ(tl.busy_of(1), 4.0);
  EXPECT_DOUBLE_EQ(tl.total_busy(), 6.5);
  EXPECT_DOUBLE_EQ(tl.total_steal(), 0.5);
  EXPECT_DOUBLE_EQ(tl.total_idle(), 1.0);
  EXPECT_DOUBLE_EQ(tl.makespan(), 4.0);
  // 1 - 6.5 / (2 * 4)
  EXPECT_NEAR(tl.idleness(), 1.0 - 6.5 / 8.0, 1e-12);
}

TEST(PhaseTimelineTest, EnterIsIdempotentAndRegionGated) {
  stamped_profiler tl(1);
  // Before begin_region: transitions are ignored.
  tl.enter(0, phase::busy, 1.0);
  EXPECT_DOUBLE_EQ(tl.busy_of(0), 0.0);

  tl.begin_region(0, 0.0);
  tl.enter(0, phase::busy, 1.0);
  tl.enter(0, phase::busy, 2.0);  // no-op, stays since t=1
  tl.end_region(0, 3.0);
  EXPECT_DOUBLE_EQ(tl.busy_of(0), 2.0);

  // end_region is final until the next begin_region.
  tl.enter(0, phase::busy, 3.0);
  tl.end_region(0, 5.0);
  EXPECT_DOUBLE_EQ(tl.busy_of(0), 2.0);
}

TEST(PhaseTimelineTest, BeginRegionResets) {
  stamped_profiler tl(1);
  tl.begin_region(0, 0.0);
  tl.enter(0, phase::busy, 0.0);
  tl.end_region(0, 2.0);
  EXPECT_DOUBLE_EQ(tl.busy_of(0), 2.0);

  tl.begin_region(0, 10.0);
  tl.enter(0, phase::busy, 10.5);
  tl.end_region(0, 11.0);
  EXPECT_DOUBLE_EQ(tl.busy_of(0), 0.5);
  EXPECT_DOUBLE_EQ(tl.idle_of(0), 0.5);
  EXPECT_DOUBLE_EQ(tl.makespan(), 1.0);
}

TEST(PhaseTimelineTest, StealIdleStealRoundTrip) {
  // Regression: the worker loop's steal backoff transitions steal -> idle ->
  // steal repeatedly; each leg must be attributed to the phase that was
  // active, never double-counted or dropped.
  stamped_profiler tl(1);

  tl.begin_region(0, 0.0);
  tl.enter(0, phase::steal, 1.0);  // idle  [0,1)
  tl.enter(0, phase::idle, 3.0);   // steal [1,3)
  tl.enter(0, phase::steal, 4.0);  // idle  [3,4)
  tl.enter(0, phase::busy, 6.0);   // steal [4,6)
  tl.end_region(0, 7.0);           // busy  [6,7)

  EXPECT_DOUBLE_EQ(tl.busy_of(0), 1.0);
  EXPECT_DOUBLE_EQ(tl.steal_of(0), 4.0);
  EXPECT_DOUBLE_EQ(tl.idle_of(0), 2.0);
  EXPECT_DOUBLE_EQ(tl.makespan(), 7.0);
}

TEST(PhaseTimelineTest, RejectsTimeGoingBackwards) {
  // Virtual time is monotone per rank; a transition stamped before the
  // current phase began can only be an accounting bug upstream.
  stamped_profiler tl(1);
  tl.begin_region(0, 0.0);
  tl.enter(0, phase::busy, 2.0);
  EXPECT_DEATH(tl.enter(0, phase::idle, 1.0), "");
}

TEST(PhaseTimelineTest, EmitsBusySpansIntoTracer) {
  tracer t = make_tracer(1, 1);
  stamped_profiler tl(1);
  tl.set_tracer(&t);

  tl.begin_region(0, 0.0);
  tl.enter(0, phase::busy, 1.0);
  tl.enter(0, phase::idle, 2.0);
  tl.enter(0, phase::busy, 3.0);
  tl.end_region(0, 4.0);

  const auto r = validate_trace_json(t.to_json());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.n_spans, 2u);  // two "Busy" slices
}

TEST(PhaseTimelineTest, CreditsBusyTimeToTheRunningJob) {
  // Busy stretches split at job switches; a switch outside busy credits
  // nothing, and job 0 counts like any other job.
  stamped_profiler tl(1);
  tl.begin_region(0, 0.0);
  tl.set_job(0, 2, 0.5);
  tl.enter(0, phase::busy, 1.0);
  tl.set_job(0, no_job, 3.0);     // job 2: [1,3)
  tl.enter(0, phase::idle, 4.0);  // job 0: [3,4)
  tl.end_region(0, 6.0);
  EXPECT_DOUBLE_EQ(tl.busy_of_job(2), 2.0);
  EXPECT_DOUBLE_EQ(tl.busy_of_job(no_job), 1.0);
  EXPECT_DOUBLE_EQ(tl.busy_of_job(7), 0.0);
  EXPECT_DOUBLE_EQ(tl.busy_of(0), 3.0);
  EXPECT_DOUBLE_EQ(tl.region_of(0), 6.0);
}

}  // namespace
}  // namespace ityr::common
