/// Paper Table 2: idleness of the statically partitioned "MPI" FMM as a
/// function of node count.
///
/// Idleness = 1 - (sum of per-rank busy time) / (ranks * makespan) for the
/// traversal+downward phase, read from the profiler's busy/idle/steal phases
/// (the runtime-wide source of truth; fmm_solve_static records its phases
/// there). Claim to reproduce: idleness is ~0 on one node and grows
/// with node count (paper: 0 / 0.01 / 0.04 / 0.14 / 0.27 on 1/2/6/12/36
/// nodes) because the particle-count-based static partition cannot balance
/// the irregular tree interactions.

#include <cstdio>

#include "support/bench_common.hpp"

namespace ib = ityr::bench;

namespace {

struct topo {
  int nodes, rpn;
};
const topo kTopos[] = {{1, 4}, {2, 4}, {6, 4}, {12, 4}};

constexpr std::size_t kBodies = 50000;

ib::result_table g_table("Table 2 analog: load balance of static (MPI-style) FMM, 5e4 bodies",
                         {"nodes", "ranks", "makespan[s]", "busy[s]", "idle[s]", "idleness",
                          "pot-err"});

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  ityr::apps::fmm::fmm_config cfg;
  cfg.theta = 0.5;
  cfg.ncrit = 32;
  cfg.nspawn = 1000;

  for (const topo& t : kTopos) {
    std::string name = "table2/nodes:" + std::to_string(t.nodes);
    ib::register_sim_benchmark(name, [t, cfg](benchmark::State& state) {
      auto opt = ib::cluster_opts(t.nodes, t.rpn);
      auto m = ib::run_fmm(opt, kBodies, cfg, /*static_baseline=*/true);
      state.counters["idleness"] = m.idleness;
      g_table.add_row({std::to_string(t.nodes), std::to_string(t.nodes * t.rpn),
                       ib::result_table::fmt(m.solve.time),
                       ib::result_table::fmt(m.timeline_busy_s),
                       ib::result_table::fmt(m.timeline_idle_s),
                       ib::result_table::fmt(m.idleness, 3),
                       ib::result_table::fmt(m.err.pot, 6)});
      return m.solve.time;
    });
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  g_table.print();
  return 0;
}
