/// Paper Fig. 9: per-category breakdown of accumulated time for Cilksort
/// under Write-Back (Lazy), normalized to the total accumulated time on the
/// largest core count for each input size.
///
/// Categories follow the paper: Others / Get / Checkout / Checkin / Release
/// / Lazy Release / Acquire / Serial Merge / Serial Quicksort, taken from
/// the unified metrics registry (`prof.*.self_s` series); the capacity term
/// behind "Others" comes from the profiler's busy/steal/idle phases. The
/// claims to reproduce: serial-compute time stays roughly constant as ranks
/// grow while communication-related categories inflate,
/// and the small input leaves the larger "Others" (idle scheduling) share at
/// scale.

#include <cstdio>

#include "support/bench_common.hpp"

namespace ib = ityr::bench;

namespace {

const std::size_t kSizes[] = {1 << 20, 1 << 22};

struct topo {
  int nodes, rpn;
};
const topo kTopos[] = {{1, 4}, {2, 4}, {6, 4}, {12, 4}};

ib::result_table g_table(
    "Fig. 9 analog: Cilksort accumulated-time breakdown, Write-Back (Lazy), cutoff 16Ki",
    {"elements", "ranks", "category", "sum[s]", "share-of-max-total"});

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  for (std::size_t n : kSizes) {
    // Collect rows, then normalize to the largest configuration's total.
    struct result {
      int ranks;
      std::vector<ib::breakdown_row> rows;
      double total;
    };
    auto results = std::make_shared<std::vector<result>>();

    for (const topo& t : kTopos) {
      std::string name =
          "fig9/n:" + std::to_string(n) + "/ranks:" + std::to_string(t.nodes * t.rpn);
      ib::register_sim_benchmark(name, [n, t, results](benchmark::State&) {
        auto opt = ib::cluster_opts(t.nodes, t.rpn);
        double total = 0;
        auto rows = ib::run_cilksort_breakdown(opt, n, 16384, &total);
        results->push_back({t.nodes * t.rpn, std::move(rows), total});
        return total / (t.nodes * t.rpn);
      });
    }

    ib::register_sim_benchmark("fig9/n:" + std::to_string(n) + "/summarize",
                               [n, results](benchmark::State&) {
                                 double max_total = 0;
                                 for (const auto& r : *results) {
                                   max_total = std::max(max_total, r.total);
                                 }
                                 for (const auto& r : *results) {
                                   for (const auto& row : r.rows) {
                                     g_table.add_row(
                                         {std::to_string(n), std::to_string(r.ranks),
                                          row.category, ib::result_table::fmt(row.seconds),
                                          ib::result_table::fmt(row.seconds / max_total, 3)});
                                   }
                                 }
                                 return 1e-9;
                               });
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  g_table.print();
  return 0;
}
