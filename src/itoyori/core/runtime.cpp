#include "itoyori/core/runtime.hpp"

#include <cstdio>
#include <exception>

#include "itoyori/core/metrics.hpp"

namespace ityr {

namespace {
runtime* g_runtime = nullptr;
}

runtime& runtime::instance() {
  ITYR_CHECK(g_runtime != nullptr);
  return *g_runtime;
}

bool runtime::active() { return g_runtime != nullptr; }

runtime::runtime(const common::options& opt)
    : eng_(opt), rma_(eng_), pgas_(eng_, rma_), sched_(eng_, pgas_), jobs_(eng_, sched_) {
  ITYR_CHECK(g_runtime == nullptr || !"only one ityr::runtime may exist at a time");
  // Observability wiring. The tracer is always configured (so tests can
  // enable it programmatically) but only enabled when ITYR_TRACE asks for a
  // dump; every instrumentation hook is behind an enabled check, keeping
  // the disabled-path overhead to one predicted branch.
  trace_.configure(eng_.n_ranks(), opt.ranks_per_node, opt.trace_cap);
  trace_.set_sample_interval(opt.metrics_sample_interval);
  trace_.set_sampler([this](int rank, double now) { sample_counters(rank, now); });
  pgas_.set_tracer(&trace_);
  sched_.set_tracer(&trace_);
  jobs_.set_tracer(&trace_);
  rma_.net().set_tracer(&trace_);
  if (!opt.trace_path.empty()) trace_.set_enabled(true);

  g_runtime = this;
}

runtime::~runtime() {
  const auto& opt = eng_.opts();
  // Dump observability outputs before teardown; destructors must not throw.
  try {
    if (!opt.trace_path.empty()) trace_.write_json(opt.trace_path);
    if (!opt.stats_json_path.empty()) metrics().write_json(opt.stats_json_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ityr: observability dump failed: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "ityr: observability dump failed\n");
  }
  if (g_runtime == this) g_runtime = nullptr;
}

void runtime::spmd(std::function<void()> fn) {
  eng_.run([&fn](int) { fn(); });
}

metrics_snapshot runtime::metrics() { return collect_metrics(*this); }

/// Periodic counter time-series sampled into the trace: a handful of the
/// registry's fastest-moving per-rank counters, cheap enough for the
/// scheduler's poll points.
void runtime::sample_counters(int rank, double now) {
  const auto& cst = pgas_.cache_of(rank).get_stats();
  trace_.counter(rank, now, "fetched bytes", static_cast<double>(cst.fetched_bytes));
  trace_.counter(rank, now, "written bytes",
                 static_cast<double>(cst.written_back_bytes + cst.write_through_bytes));
  trace_.counter(rank, now, "net bytes", static_cast<double>(rma_.net().bytes_of(rank)));
  trace_.counter(rank, now, "steals", static_cast<double>(sched_.stats_of(rank).steals));
  trace_.counter(rank, now, "deque depth", static_cast<double>(sched_.deque_depth_of(rank)));
}

}  // namespace ityr
