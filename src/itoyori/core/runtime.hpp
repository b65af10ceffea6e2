#pragma once

#include <functional>
#include <memory>

#include "itoyori/common/options.hpp"
#include "itoyori/common/profiler.hpp"
#include "itoyori/common/trace.hpp"
#include "itoyori/pgas/pgas_space.hpp"
#include "itoyori/rma/window.hpp"
#include "itoyori/sched/job_manager.hpp"
#include "itoyori/sched/scheduler.hpp"
#include "itoyori/sim/engine.hpp"

namespace ityr {

class metrics_snapshot;

/// The whole simulated Itoyori cluster: DES engine + RMA + PGAS + scheduler
/// + profiler + tracer, wired together.
///
/// Usage mirrors an mpiexec-launched Itoyori program (paper Section 3.1):
///
///   ityr::runtime rt(opts);
///   rt.spmd([] {
///     auto a = ityr::coll_new<int>(n);          // SPMD region
///     ityr::root_exec([=] { ... fork-join ... });  // fork-join region
///     ityr::coll_delete(a, n);
///   });
///
/// Exactly one runtime exists at a time; the free functions in ityr.hpp
/// dispatch to it.
///
/// Observability (docs/observability.md): options::trace_path (ITYR_TRACE)
/// turns on the virtual-time tracer and dumps a Chrome/Perfetto JSON
/// timeline at destruction; options::stats_json_path (ITYR_STATS_JSON)
/// likewise dumps the unified metrics snapshot.
class runtime {
public:
  explicit runtime(const common::options& opt);
  ~runtime();

  runtime(const runtime&) = delete;
  runtime& operator=(const runtime&) = delete;

  /// Run `fn` as the SPMD program on every simulated rank.
  void spmd(std::function<void()> fn);

  sim::engine& eng() { return eng_; }
  rma::context& rma() { return rma_; }
  pgas::pgas_space& pgas() { return pgas_; }
  sched::scheduler& sched() { return sched_; }
  sched::job_manager& jobs() { return jobs_; }
  common::profiler& prof() { return sched_.prof(); }
  common::tracer& trace() { return trace_; }
  const common::options& opts() const { return eng_.opts(); }

  /// Unified counter snapshot (cache + scheduler + network + VM + engine +
  /// timeline + profiler); see core/metrics.hpp.
  metrics_snapshot metrics();

  /// Scratch slot for root_exec return values (copied out by every rank).
  static constexpr std::size_t root_result_capacity = 256;
  void* root_result_buf() { return root_result_; }

  static runtime& instance();
  static bool active();

private:
  void sample_counters(int rank, double now);

  sim::engine eng_;
  rma::context rma_;
  pgas::pgas_space pgas_;
  sched::scheduler sched_;
  sched::job_manager jobs_;
  common::tracer trace_;
  alignas(std::max_align_t) unsigned char root_result_[root_result_capacity]{};
};

}  // namespace ityr
