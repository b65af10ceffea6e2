/// Layer probes: the per-call cost table of NOTES.md, measured by calling
/// each layer's public functions from the benchmark. Virtual costs (*_s)
/// come from the deterministic clock, so they are exact model costs; host
/// costs (*_host_ns) time loops of calls that never yield to the simulator,
/// so no other rank's work lands inside them.

#include <cstring>
#include <vector>

#include "itoyori/core/ityr.hpp"
#include "itoyori/vm/physical_pool.hpp"
#include "itoyori/vm/view_region.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace ic = ityr::common;

namespace {

constexpr int kRepsVirtual = 16;
constexpr int kRepsHost = 200000;

double per_call_ns(clock::time_point t0, int n) { return seconds_since(t0) * 1e9 / n; }

/// sim and sched fast paths on a single-rank cluster: nothing can steal, so
/// every fork/join takes the fast path and every advance() resumes at once.
void probe_single_rank(values& v) {
  auto o = cluster_opts(1, 1, 1, true);
  ityr::runtime rt(o);
  rt.spmd([&] {
    auto& eng = ityr::rt().eng();
    auto t0 = clock::now();
    for (int i = 0; i < kRepsHost; i++) eng.advance(1e-9);
    v.set("sim.switch_host_ns", per_call_ns(t0, kRepsHost));

    ityr::root_exec([&] {
      const double v0 = eng.now();
      const auto h0 = clock::now();
      for (int i = 0; i < kRepsHost; i++) ityr::parallel_invoke([] {}, [] {});
      v.set("sched.fork_join_host_ns", per_call_ns(h0, kRepsHost));
      v.set("sched.fork_join_s", (eng.now() - v0) / kRepsHost);
    });
  });
}

/// vm: remap one 64 KiB view page range between two pool blocks.
void probe_vm(values& v) {
  constexpr std::size_t kBlock = 64 * ic::KiB;
  ityr::vm::physical_pool pool(kBlock, 2, "perfbench_probe");
  ityr::vm::view_region view(kBlock);
  constexpr int kReps = 20000;
  const auto t0 = clock::now();
  for (int i = 0; i < kReps; i++) {
    view.map(0, pool, static_cast<std::uint64_t>(i & 1) * kBlock, kBlock);
  }
  v.set("vm.remap_host_ns", per_call_ns(t0, kReps));
}

/// Virtual seconds per call of `fn` on the calling rank.
template <typename Fn>
double virtual_per_call(int reps, Fn&& fn) {
  auto& eng = ityr::rt().eng();
  const double v0 = eng.now();
  for (int i = 0; i < reps; i++) fn(i);
  return (eng.now() - v0) / reps;
}

/// rma, pgas and sched fences in the workload's own cluster configuration:
/// rank 0 probes while every other rank waits in a barrier.
void probe_cluster(const ic::options& opt, values& v) {
  ityr::runtime rt(opt);
  const int n = rt.eng().n_ranks();
  const auto& topo = rt.eng().topo();

  // First rank of distance class 0, 1 and 2 as seen from rank 0 (-1: no such
  // class in this topology).
  std::vector<int> target(3, -1);
  for (int t = n - 1; t >= 1; t--) {
    const auto c = static_cast<std::size_t>(topo.class_of(0, t));
    if (c < target.size()) target[c] = t;
  }
  const int t1 = target[1] >= 0 ? target[1] : target[0];

  // One 8-word window region per rank for the raw RMA probes.
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n) * 8, 0);
  std::vector<ityr::rma::window::region> regions;
  for (std::size_t r = 0; r < static_cast<std::size_t>(n); r++) {
    regions.push_back({reinterpret_cast<std::byte*>(&words[r * 8]), 8 * sizeof(std::uint64_t)});
  }
  ityr::rma::window& win = *rt.rma().create_window(std::move(regions));

  const std::size_t block = opt.block_size;
  const std::size_t n_blocks = static_cast<std::size_t>(n) * 8;
  rt.spmd([&] {
    const auto g = ityr::coll_new<std::byte>(n_blocks * block);
    if (ityr::my_rank() == 0) {
      auto& ctx = ityr::rt().rma();
      for (std::size_t k = 0; k < target.size(); k++) {
        const std::string cls = ".class" + std::to_string(k);
        const int t = target[k];
        const auto u = [](int i) { return static_cast<std::uint64_t>(i); };
        v.set("rma.get_s" + cls, t < 0 ? 0 : virtual_per_call(kRepsVirtual, [&](int) {
          ctx.get_value(win, t, 0);
        }));
        v.set("rma.put_s" + cls, t < 0 ? 0 : virtual_per_call(kRepsVirtual, [&](int i) {
          ctx.put_value(win, t, 0, u(i));
        }));
        v.set("rma.cas_s" + cls, t < 0 ? 0 : virtual_per_call(kRepsVirtual, [&](int i) {
          ctx.compare_and_swap(win, t, 8, u(i), u(i + 1));
        }));
      }
      auto t0 = clock::now();
      for (int i = 0; i < kRepsHost; i++) ctx.net().issue(t1, 8);
      v.set("rma.issue_host_ns", per_call_ns(t0, kRepsHost));
      ctx.net().flush();

      // Blocks homed on t1 (block-cyclic: block j lives on rank j % n),
      // each touched for the first time here.
      const auto blk = [&](int m) {
        const std::size_t j = static_cast<std::size_t>(t1 + n * m);
        return g + static_cast<std::ptrdiff_t>(j * block);
      };
      v.set("pgas.checkout_miss_s", virtual_per_call(4, [&](int i) {
              ityr::checkout(blk(i), 64, ityr::access_mode::read);
              ityr::checkin(blk(i), 64, ityr::access_mode::read);
            }));
      v.set("pgas.fetch_round_s", virtual_per_call(2, [&](int i) {
              ityr::checkout(blk(4 + i), block, ityr::access_mode::read);
              ityr::checkin(blk(4 + i), block, ityr::access_mode::read);
            }));

      // Hits: block 0's first sub-block and block 4's whole block are cached.
      t0 = clock::now();
      for (int i = 0; i < kRepsHost; i++) {
        ityr::checkout(blk(0), 64, ityr::access_mode::read);
        ityr::checkin(blk(0), 64, ityr::access_mode::read);
      }
      v.set("pgas.checkout_hit_host_ns", per_call_ns(t0, kRepsHost));
      const auto words4 = ityr::global_ptr<std::uint64_t>(blk(4).raw());
      std::uint64_t sink = 0;
      t0 = clock::now();
      for (int i = 0; i < kRepsHost; i++) {
        sink ^= ityr::get(words4 + static_cast<std::ptrdiff_t>((i * 97) % 8192));
      }
      v.set("pgas.get_hit_host_ns", per_call_ns(t0, kRepsHost));
      volatile std::uint64_t keep = sink;  // the loads must not be elided
      (void)keep;

      auto& pg = ityr::rt().pgas();
      // Release fences after dirtying `len` bytes of each of two remote
      // blocks: a whole block is one write-back round, 64 bytes the smallest
      // fence with data (one message).
      const auto release_after_write = [&](int first, std::size_t len) {
        double s = 0;
        for (int i = 0; i < 2; i++) {
          std::byte* p = ityr::checkout(blk(first + i), len, ityr::access_mode::write);
          std::memset(p, i + 1, len);
          ityr::checkin(blk(first + i), len, ityr::access_mode::write);
          s += virtual_per_call(1, [&](int) { pg.release(); });
        }
        return s / 2;
      };
      v.set("pgas.writeback_round_s", release_after_write(6, block));
      v.set("sched.release_fence_s", release_after_write(2, 64));
      // Acquire against a remote releaser whose epoch is already reached:
      // one epoch poll, then the invalidation.
      const ityr::pgas::release_handler h{t1, 0};
      v.set("sched.acquire_fence_s", virtual_per_call(kRepsVirtual, [&](int) { pg.acquire(h); }));
    }
    ityr::barrier();
    ityr::coll_delete(g, n_blocks * block);
  });
}

}  // namespace

values run_probes(const ic::options& opt) {
  values v;
  probe_single_rank(v);
  probe_vm(v);
  probe_cluster(opt, v);
  return v;
}

}  // namespace perfbench
