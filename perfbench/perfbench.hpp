#pragma once

/// \file
/// Shared types of the repository benchmark (see NOTES.md). One process runs
/// one workload: several passes through the public itoyori API, each
/// reported as a flat list of named values that run.py aggregates.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "itoyori/common/options.hpp"
#include "itoyori/core/ityr.hpp"

namespace perfbench {

/// Insertion-ordered name -> value list (the JSON object of one pass).
class values {
public:
  void set(const std::string& name, double v);
  void add(const std::string& name, double v);  ///< accumulate (0 if absent)
  double get(const std::string& name) const;    ///< 0 if absent
  const std::vector<std::pair<std::string, double>>& all() const { return kv_; }

private:
  std::vector<std::pair<std::string, double>> kv_;
};

/// How a pass runs. `det` and `traced` use the deterministic clock; `traced`
/// additionally turns on the critical-path profiler, the Fig. 9 profiler and
/// the benchmark's own spans. `measured` is the paper's clock with every
/// probe off; `profiled` is measured mode with the Fig. 9 profiler on (for
/// the application-kernel self time, which is 0 in the deterministic clock).
enum class pass_kind { measured, det, traced, profiled };

const char* to_string(pass_kind k);
bool is_deterministic(pass_kind k);

struct pass_result {
  pass_kind kind = pass_kind::det;
  int variant = 0;              ///< seed variant of the run's seed (0 = the seed itself)
  std::uint64_t attempted = 0;  ///< validated items: runs, or jobs for serve
  std::uint64_t failed = 0;
  std::vector<double> virtual_s;  ///< virtual seconds of each timed repetition
  std::vector<double> host_s;     ///< host seconds of each timed repetition
  /// Host seconds of the reference kernel, run before each timed repetition
  /// and after the last one (`det` passes only, see reference_kernel_s).
  std::vector<double> ref_s;
  /// serve: due-time latency of every completed job of the latency stream.
  std::vector<double> latency_s;
  /// setup_s, then per-layer counts over the first timed repetition, job
  /// latency summaries (serve) and span.* (traced passes only).
  values v;
};

using clock = std::chrono::steady_clock;

inline double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

/// Host seconds of one run of a fixed reference kernel that uses no part of
/// itoyori (integer hashing, a random pointer chase over 32 MiB and page
/// faults on fresh anonymous memory, in roughly the simulator's mix). The
/// deterministic passes run it next to every timed repetition, and host_rel
/// divides the simulator's host time by it, so that changes in host speed
/// while the benchmark runs cancel out (NOTES.md "End-to-end metrics").
double reference_kernel_s();

/// Benchmark-side spans around the calls into each layer, kept in memory
/// and emitted with the pass (traced passes only; a no-op otherwise).
/// Recorded on rank 0: host seconds include every rank the single host
/// thread ran meanwhile, virtual seconds are rank 0's clock.
class span_log {
public:
  explicit span_log(values* out) : out_(out) {}

  /// Run `fn` as span `name`. `vclock` reads rank 0's virtual clock; pass
  /// nullptr outside the simulated cluster (spmd) region.
  template <typename Fn>
  decltype(auto) operator()(const char* name, double (*vclock)(), Fn&& fn) {
    if (out_ == nullptr || (vclock != nullptr && ityr::my_rank() != 0)) return fn();
    const auto h0 = clock::now();
    const double v0 = vclock != nullptr ? vclock() : 0.0;
    struct closer {
      span_log* s;
      const char* name;
      clock::time_point h0;
      double v0;
      double (*vclock)();
      ~closer() {
        s->out_->add(std::string("span.") + name + ".host_s", seconds_since(h0));
        if (vclock != nullptr) {
          s->out_->add(std::string("span.") + name + ".virtual_s", vclock() - v0);
        }
      }
    } c{this, name, h0, v0, vclock};
    return fn();
  }

private:
  values* out_;
};

/// The cluster every workload starts from: the repo's scaled-down Table 1
/// environment (64 KiB blocks, 4 KiB sub-blocks, 4 MiB cache per rank,
/// block-cyclic collective allocations, lazy write-back).
ityr::common::options cluster_opts(int n_nodes, int ranks_per_node, std::uint64_t seed,
                                   bool deterministic);

// ---- workloads (workloads.cpp) ----

struct workload_setup {
  std::string name;
  std::uint64_t seed = 1;
};

/// One pass of workload `w` with the run seed's `variant`-th derived seed
/// (variant 0 is the seed itself); every input and the runtime seed follow
/// from it, so a repeated (variant, deterministic kind) repeats bit for bit.
/// A `brief` pass times the region once (uts_mem repeats it otherwise): a
/// deterministic repeat only needs the start of the pass it checks.
pass_result run_pass(const workload_setup& w, pass_kind kind, int variant, bool brief = false);

/// Options of the workload's main runtime (topology, ranks, policy) in the
/// deterministic clock: the layer probes run in this configuration.
ityr::common::options probe_opts(const workload_setup& w);

/// Host seconds of the runtime-elided serial baseline of the workload.
double serial_baseline_s(const workload_setup& w);

bool known_workload(const std::string& name);

/// One serve latency stream (1000 jobs at 8000 jobs/s) in the measured
/// clock: the repro of the known defect in NOTES.md. Aborts when it hits.
void serve_measured_repro(std::uint64_t seed);

// ---- layer probes (probes.cpp) ----

/// Per-call costs of each layer, measured by calling its public functions
/// from the benchmark: *_s in deterministic virtual seconds, *_host_ns in
/// host nanoseconds.
values run_probes(const ityr::common::options& opt);

}  // namespace perfbench
