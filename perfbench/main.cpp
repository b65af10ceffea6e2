/// perfbench: one workload of the repository benchmark in one process.
///
///   perfbench <cilksort|uts_mem|serve> --seed N --seconds S --trace 0|1
///
/// --trace 0 runs the end-to-end passes with every probe off: deterministic
/// passes over a fixed set of seed variants, one repeat, and further passes
/// over the same variants while they fit in S seconds, each next to the
/// reference kernel. --trace 1 runs one untraced and one traced
/// deterministic pass, a measured and a profiled measured pass (serve has
/// neither, see NOTES.md), the layer probes and the serial baseline.
/// Either way it prints one JSON object with every pass's values; run.py
/// turns that into the benchmark's result line.
///
///   perfbench serve-measured --seed N
///
/// reproduces the known measured-mode serve abort (NOTES.md).

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace pb = perfbench;

namespace {

void print_values(const pb::values& v) {
  std::printf("{");
  bool first = true;
  for (const auto& [k, x] : v.all()) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), x);
    first = false;
  }
  std::printf("}");
}

void print_list(const std::vector<double>& xs) {
  std::printf("[");
  for (std::size_t i = 0; i < xs.size(); i++) std::printf("%s%.17g", i == 0 ? "" : ", ", xs[i]);
  std::printf("]");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench <cilksort|uts_mem|serve> --seed N --seconds S --trace 0|1\n"
               "       perfbench serve-measured --seed N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "serve-measured") == 0 &&
      std::strcmp(argv[2], "--seed") == 0) {
    pb::serve_measured_repro(std::strtoull(argv[3], nullptr, 10));
    std::printf("ok\n");
    return 0;
  }
  if (argc < 2 || !pb::known_workload(argv[1])) return usage();
  pb::workload_setup w;
  w.name = argv[1];
  double seconds = 10;
  int trace = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      w.seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = std::atoi(argv[i + 1]);
    } else {
      return usage();
    }
  }

  try {
    pb::reference_kernel_s();  // builds its table before any pass starts
    const auto t0 = pb::clock::now();
    std::vector<pb::pass_result> passes;
    pb::values probes;
    double serial_s = 0;
    const bool has_measured = w.name != "serve";  // see NOTES.md "Known defect"
    if (trace == 0) {
      // Deterministic passes over a fixed set of seed variants, then variant
      // 0 again (briefly) to check that it repeats. Further passes cycle
      // over the variants while another one still fits in the time left;
      // each of them must repeat its variant's first pass too.
      const int variants = w.name == "cilksort" ? 4 : w.name == "serve" ? 5 : 1;
      double last_s = 0;
      for (int i = 0; i <= variants || pb::seconds_since(t0) + last_s <= seconds; i++) {
        const auto t = pb::clock::now();
        const int variant = i < variants ? i : i == variants ? 0 : (i - variants - 1) % variants;
        passes.push_back(pb::run_pass(w, pb::pass_kind::det, variant, i == variants));
        if (i != variants) last_s = pb::seconds_since(t);
      }
    } else {
      passes.push_back(pb::run_pass(w, pb::pass_kind::det, 0, true));
      passes.push_back(pb::run_pass(w, pb::pass_kind::traced, 0, true));
      if (has_measured) {
        passes.push_back(pb::run_pass(w, pb::pass_kind::measured, 0));
        passes.push_back(pb::run_pass(w, pb::pass_kind::profiled, 0, true));
      }
      probes = pb::run_probes(pb::probe_opts(w));
      serial_s = pb::serial_baseline_s(w);
    }

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"peak_rss_mb\": %.17g, "
                "\"serial_s\": %.17g, \"probes\": ",
                w.name.c_str(), static_cast<unsigned long long>(w.seed), trace, peak_rss_mb(),
                serial_s);
    print_values(probes);
    std::printf(", \"passes\": [");
    for (std::size_t i = 0; i < passes.size(); i++) {
      const auto& p = passes[i];
      std::printf("%s{\"kind\": \"%s\", \"variant\": %d, \"attempted\": %llu, "
                  "\"failed\": %llu, \"values\": ",
                  i == 0 ? "" : ", ", pb::to_string(p.kind), p.variant,
                  static_cast<unsigned long long>(p.attempted),
                  static_cast<unsigned long long>(p.failed));
      print_values(p.v);
      std::printf(", \"virtual_s\": ");
      print_list(p.virtual_s);
      std::printf(", \"host_s\": ");
      print_list(p.host_s);
      std::printf(", \"ref_s\": ");
      print_list(p.ref_s);
      std::printf(", \"latency_s\": ");
      print_list(p.latency_s);
      std::printf("}");
    }
    std::printf("]}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
