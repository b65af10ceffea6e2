#include "itoyori/apps/fmm/fmm.hpp"

#include <algorithm>
#include <cmath>

#include "itoyori/apps/cilksort.hpp"

namespace ityr::apps::fmm {

namespace {

constexpr std::size_t kMetaGrain = 4096;

/// (Morton key, body index) record, sorted with the Cilksort app. The index
/// breaks ties between equal keys, so the body order is a total order that
/// does not depend on how the sort's serial kernels treat equal elements.
struct key_index {
  std::uint64_t key = 0;
  std::uint64_t idx = 0;
  friend bool operator<(const key_index& a, const key_index& b) {
    return a.key < b.key || (a.key == b.key && a.idx < b.idx);
  }
};

cell_meta read_meta(const fmm_tree& t, std::int32_t ci) {
  return ityr::get(t.cells + ci);
}

global_ptr<complex_t> M_of(const fmm_tree& t, std::int32_t ci) {
  return t.M + static_cast<std::ptrdiff_t>(ci) * kNTerm;
}
global_ptr<complex_t> L_of(const fmm_tree& t, std::int32_t ci) {
  return t.L + static_cast<std::ptrdiff_t>(ci) * kNTerm;
}

}  // namespace

void fmm_generate_bodies(global_ptr<body> bodies, std::size_t n, std::uint64_t seed,
                         std::size_t grain) {
  const real_t q = 1.0 / static_cast<real_t>(n);
  parallel_for_each(bodies, n, grain, access_mode::write, [seed, q](body& b, std::size_t i) {
    std::uint64_t s = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
    const auto u = [&s] {
      return static_cast<real_t>(common::splitmix64(s) >> 11) * 0x1.0p-53;
    };
    b.X = {u() - 0.5, u() - 0.5, u() - 0.5};
    b.q = q;
  });
}

fmm_tree fmm_build_tree(global_ptr<body> bodies, std::size_t n, const fmm_config& cfg) {
  fmm_tree t;
  t.bodies = bodies;
  t.n_bodies = n;
  t.cfg = cfg;

  auto keys = coll_new<key_index>(n);
  auto sorted = coll_new<body>(n);
  auto tmp = coll_new<key_index>(n);

  std::vector<cell_meta> local_cells;

  struct cube {
    vec3 center{};
    real_t radius = 0;
  };
  const cube box = root_exec([bodies, n, keys, sorted, tmp] {
    // 1. Bounding cube (parallel reduction over body positions).
    struct bounds {
      vec3 lo{1e30, 1e30, 1e30}, hi{-1e30, -1e30, -1e30};
    };
    bounds bb = parallel_reduce(
        bodies, n, kMetaGrain, bounds{},
        [](const body& b) {
          return bounds{b.X, b.X};
        },
        [](bounds a, bounds b) {
          return bounds{{std::min(a.lo.x, b.lo.x), std::min(a.lo.y, b.lo.y),
                         std::min(a.lo.z, b.lo.z)},
                        {std::max(a.hi.x, b.hi.x), std::max(a.hi.y, b.hi.y),
                         std::max(a.hi.z, b.hi.z)}};
        });
    const vec3 center = (bb.lo + bb.hi) * 0.5;
    const real_t radius =
        std::max({bb.hi.x - bb.lo.x, bb.hi.y - bb.lo.y, bb.hi.z - bb.lo.z}) * 0.5 * 1.0001 +
        1e-12;

    // 2. Morton keys, sorted with Cilksort.
    const vec3 c = center;
    const real_t r = radius;
    parallel_transform(bodies, keys, n, kMetaGrain, [c, r](const body& b) {
      return key_index{morton_key(b.X, c, r), 0};
    });
    // Attach original indices (second sweep keeps the transform simple).
    parallel_for_each(keys, n, kMetaGrain, access_mode::read_write,
                      [](key_index& k, std::size_t i) { k.idx = i; });
    cilksort(global_span<key_index>(keys, n), global_span<key_index>(tmp, n),
             std::max<std::size_t>(kMetaGrain, n / 256));

    // 3. Permute bodies into Morton order (random-access gathers go through
    // the cache).
    for_each_chunk(sorted, n, kMetaGrain, access_mode::write,
                   [bodies, keys](body* out, std::size_t len, std::size_t base) {
                     with_checkout(keys + static_cast<std::ptrdiff_t>(base), len,
                                   access_mode::read, [&](const key_index* k) {
                                     for (std::size_t i = 0; i < len; i++) {
                                       out[i] = ityr::get(
                                           bodies + static_cast<std::ptrdiff_t>(k[i].idx));
                                     }
                                   });
                   });
    // Copy back into the caller's body array.
    parallel_transform(sorted, bodies, n, kMetaGrain, [](const body& b) { return b; });
    return cube{center, radius};
  });
  const vec3 center = box.center;
  const real_t radius = box.radius;

  // 4. Build the cell hierarchy from the sorted keys. This is a serial
  // section on rank 0 (no forks -> no migration), using a local key copy.
  if (rt().eng().my_rank() == 0) {
    std::vector<std::uint64_t> key_copy(n);
    for (std::size_t base = 0; base < n; base += kMetaGrain) {
      const std::size_t len = std::min(kMetaGrain, n - base);
      with_checkout(keys + static_cast<std::ptrdiff_t>(base), len, access_mode::read,
                    [&](const key_index* k) {
                      for (std::size_t i = 0; i < len; i++) key_copy[base + i] = k[i].key;
                    });
    }

    struct build_frame {
      std::size_t lo, hi;
      vec3 X;
      real_t R;
      std::uint32_t level;
      std::int32_t cell;
    };
    local_cells.push_back({center, radius, 0, static_cast<std::uint32_t>(n), -1, 0, 0});
    std::vector<build_frame> queue;  // breadth-first so children are contiguous
    queue.push_back({0, n, center, radius, 0, 0});
    for (std::size_t qi = 0; qi < queue.size(); qi++) {
      const build_frame f = queue[qi];
      if (f.hi - f.lo <= cfg.ncrit || f.level >= 20) continue;  // leaf
      const auto first_child = static_cast<std::int32_t>(local_cells.size());
      int n_children = 0;
      std::size_t pos = f.lo;
      for (int oct = 0; oct < 8; oct++) {
        // Keys are sorted: the octant's range is contiguous.
        std::size_t end = pos;
        while (end < f.hi && key_octant(key_copy[end], static_cast<int>(f.level)) == oct) end++;
        if (end == pos) continue;
        const real_t hr = f.R * 0.5;
        const vec3 cX{f.X.x + ((oct & 4) ? hr : -hr), f.X.y + ((oct & 2) ? hr : -hr),
                      f.X.z + ((oct & 1) ? hr : -hr)};
        local_cells.push_back({cX, hr, static_cast<std::uint32_t>(pos),
                               static_cast<std::uint32_t>(end - pos), -1, 0, f.level + 1});
        queue.push_back({pos, end, cX, hr, f.level + 1,
                         static_cast<std::int32_t>(local_cells.size() - 1)});
        n_children++;
        pos = end;
      }
      ITYR_CHECK(pos == f.hi);
      local_cells[static_cast<std::size_t>(f.cell)].child_begin = first_child;
      local_cells[static_cast<std::size_t>(f.cell)].n_children = n_children;
    }
  }
  barrier();

  // 5. Publish the cell array and the expansion arrays.
  std::size_t n_cells = local_cells.size();
  {
    // Broadcast the cell count (tiny shared slot via global memory).
    auto count_slot = coll_new<std::uint64_t>(1);
    if (rt().eng().my_rank() == 0) {
      ityr::put(count_slot, static_cast<std::uint64_t>(n_cells));
      rt().pgas().release();
    }
    barrier();
    n_cells = static_cast<std::size_t>(ityr::get(count_slot));
    barrier();
    coll_delete(count_slot, 1);
  }
  t.n_cells = n_cells;
  t.cells = coll_new<cell_meta>(n_cells);
  t.M = coll_new<complex_t>(n_cells * kNTerm);
  t.L = coll_new<complex_t>(n_cells * kNTerm);
  t.acc = coll_new<body_acc>(n);

  if (rt().eng().my_rank() == 0) {
    for (std::size_t base = 0; base < n_cells; base += kMetaGrain) {
      const std::size_t len = std::min(kMetaGrain, n_cells - base);
      with_checkout(t.cells + static_cast<std::ptrdiff_t>(base), len, access_mode::write,
                    [&](cell_meta* out) {
                      for (std::size_t i = 0; i < len; i++) out[i] = local_cells[base + i];
                    });
    }
    rt().pgas().release();
  }
  barrier();

  coll_delete(keys, n);
  coll_delete(sorted, n);
  coll_delete(tmp, n);
  return t;
}

void fmm_destroy_tree(fmm_tree& t) {
  coll_delete(t.cells, t.n_cells);
  coll_delete(t.M, t.n_cells * kNTerm);
  coll_delete(t.L, t.n_cells * kNTerm);
  coll_delete(t.acc, t.n_bodies);
  t = fmm_tree{};
}

// ---------------------------------------------------------------------------
// upward pass
// ---------------------------------------------------------------------------

namespace {

void upward_cell(const fmm_tree& t, std::int32_t ci);

/// Parallel recursion over a contiguous child range. The tree descriptor is
/// copied by value into tasks: tasks must never reference a parent stack.
void upward_children(const fmm_tree& t, std::int32_t lo, std::int32_t hi) {
  if (hi - lo == 1) {
    upward_cell(t, lo);
    return;
  }
  const std::int32_t mid = lo + (hi - lo) / 2;
  const fmm_tree tc = t;
  parallel_invoke([tc, lo, mid] { upward_children(tc, lo, mid); },
                  [tc, mid, hi] { upward_children(tc, mid, hi); });
}

void upward_cell(const fmm_tree& t, std::int32_t ci) {
  const cell_meta mi = read_meta(t, ci);
  if (mi.is_leaf()) {
    with_checkout(t.bodies + mi.body_offset, mi.n_bodies, access_mode::read,
                  [&](const body* bs) {
                    with_checkout(M_of(t, ci), kNTerm, access_mode::read_write,
                                  [&](complex_t* M) { p2m(bs, mi.n_bodies, mi.X, M); });
                  });
    return;
  }

  // Children first (in parallel if the subtree is large enough)...
  if (mi.n_bodies >= t.cfg.nspawn && mi.n_children > 1) {
    upward_children(t, mi.child_begin, mi.child_begin + mi.n_children);
  } else {
    for (std::int32_t c = mi.child_begin; c < mi.child_begin + mi.n_children; c++) {
      upward_cell(t, c);
    }
  }

  // ...then M2M into this cell.
  with_checkout(M_of(t, ci), kNTerm, access_mode::read_write, [&](complex_t* Mp) {
    for (std::int32_t c = mi.child_begin; c < mi.child_begin + mi.n_children; c++) {
      const cell_meta mc = read_meta(t, c);
      with_checkout(M_of(t, c), kNTerm, access_mode::read,
                    [&](const complex_t* Mc) { m2m(Mc, mc.X, mi.X, Mp); });
    }
  });
}

}  // namespace

void fmm_upward(const fmm_tree& t) { upward_cell(t, 0); }

// ---------------------------------------------------------------------------
// horizontal pass: dual tree traversal (M2L + P2P)
// ---------------------------------------------------------------------------

namespace {

void do_m2l(const fmm_tree& t, std::int32_t ci, const cell_meta& mi, std::int32_t cj,
            const cell_meta& mj) {
  with_checkout(M_of(t, cj), kNTerm, access_mode::read, [&](const complex_t* M) {
    with_checkout(L_of(t, ci), kNTerm, access_mode::read_write,
                  [&](complex_t* L) { m2l(M, mj.X, mi.X, L); });
  });
}

void do_p2p(const fmm_tree& t, const cell_meta& mi, const cell_meta& mj) {
  with_checkout(t.bodies + mi.body_offset, mi.n_bodies, access_mode::read, [&](const body* bi) {
    with_checkout(t.acc + mi.body_offset, mi.n_bodies, access_mode::read_write,
                  [&](body_acc* acc) {
                    if (mi.body_offset == mj.body_offset) {
                      p2p(bi, mi.n_bodies, acc, bi, mi.n_bodies);  // self leaf
                      return;
                    }
                    with_checkout(t.bodies + mj.body_offset, mj.n_bodies, access_mode::read,
                                  [&](const body* bj) {
                                    p2p(bi, mi.n_bodies, acc, bj, mj.n_bodies);
                                  });
                  });
  });
}

void traverse_pair(const fmm_tree& t, std::int32_t ci, std::int32_t cj);

/// Parallel recursion over target children; each task owns a disjoint
/// target subtree (so all L / acc writes are race-free).
void traverse_target_children(const fmm_tree& t, std::int32_t lo, std::int32_t hi,
                              std::int32_t cj) {
  if (hi - lo == 1) {
    traverse_pair(t, lo, cj);
    return;
  }
  const std::int32_t mid = lo + (hi - lo) / 2;
  const fmm_tree tc = t;
  parallel_invoke([tc, lo, mid, cj] { traverse_target_children(tc, lo, mid, cj); },
                  [tc, mid, hi, cj] { traverse_target_children(tc, mid, hi, cj); });
}

void traverse_pair(const fmm_tree& t, std::int32_t ci, std::int32_t cj) {
  const cell_meta mi = read_meta(t, ci);
  const cell_meta mj = read_meta(t, cj);

  const vec3 dX = mi.X - mj.X;
  const real_t R2 = norm2(dX) * t.cfg.theta * t.cfg.theta;
  const real_t RiRj = mi.R + mj.R;

  if (R2 > RiRj * RiRj && (ci != cj)) {
    do_m2l(t, ci, mi, cj, mj);
    return;
  }
  if (mi.is_leaf() && mj.is_leaf()) {
    do_p2p(t, mi, mj);
    return;
  }
  // Split the larger cell; prefer splitting the target so work fans out over
  // disjoint target subtrees (Taura et al.'s parallelization).
  const bool split_target = !mi.is_leaf() && (mj.is_leaf() || mi.R >= mj.R);
  if (split_target) {
    if (mi.n_bodies >= t.cfg.nspawn && mi.n_children > 1) {
      traverse_target_children(t, mi.child_begin, mi.child_begin + mi.n_children, cj);
    } else {
      for (std::int32_t c = mi.child_begin; c < mi.child_begin + mi.n_children; c++) {
        traverse_pair(t, c, cj);
      }
    }
  } else {
    // Source split: serial within the owning target task.
    for (std::int32_t c = mj.child_begin; c < mj.child_begin + mj.n_children; c++) {
      traverse_pair(t, ci, c);
    }
  }
}

}  // namespace

void fmm_traverse(const fmm_tree& t) { traverse_pair(t, 0, 0); }

// ---------------------------------------------------------------------------
// downward pass (L2L + L2P)
// ---------------------------------------------------------------------------

namespace {

void downward_cell(const fmm_tree& t, std::int32_t ci);

void downward_children(const fmm_tree& t, std::int32_t lo, std::int32_t hi) {
  if (hi - lo == 1) {
    downward_cell(t, lo);
    return;
  }
  const std::int32_t mid = lo + (hi - lo) / 2;
  const fmm_tree tc = t;
  parallel_invoke([tc, lo, mid] { downward_children(tc, lo, mid); },
                  [tc, mid, hi] { downward_children(tc, mid, hi); });
}

void downward_cell(const fmm_tree& t, std::int32_t ci) {
  const cell_meta mi = read_meta(t, ci);
  if (mi.is_leaf()) {
    with_checkout(L_of(t, ci), kNTerm, access_mode::read, [&](const complex_t* L) {
      with_checkout(t.bodies + mi.body_offset, mi.n_bodies, access_mode::read,
                    [&](const body* bs) {
                      with_checkout(t.acc + mi.body_offset, mi.n_bodies, access_mode::read_write,
                                    [&](body_acc* acc) { l2p(L, mi.X, bs, mi.n_bodies, acc); });
                    });
    });
    return;
  }

  // L2L from this cell into each child, then recurse (children own disjoint
  // L/acc ranges).
  with_checkout(L_of(t, ci), kNTerm, access_mode::read, [&](const complex_t* Lp) {
    for (std::int32_t c = mi.child_begin; c < mi.child_begin + mi.n_children; c++) {
      const cell_meta mc = read_meta(t, c);
      with_checkout(L_of(t, c), kNTerm, access_mode::read_write,
                    [&](complex_t* Lc) { l2l(Lp, mi.X, mc.X, Lc); });
    }
  });

  if (mi.n_bodies >= t.cfg.nspawn && mi.n_children > 1) {
    downward_children(t, mi.child_begin, mi.child_begin + mi.n_children);
  } else {
    for (std::int32_t c = mi.child_begin; c < mi.child_begin + mi.n_children; c++) {
      downward_cell(t, c);
    }
  }
}

}  // namespace

void fmm_downward(const fmm_tree& t) { downward_cell(t, 0); }

void fmm_solve(const fmm_tree& t) {
  parallel_fill(t.acc, t.n_bodies, kMetaGrain, body_acc{});
  // Expansions must start from zero: allocation contents are unspecified
  // and repeated solves accumulate otherwise.
  parallel_fill(t.M, t.n_cells * kNTerm, kMetaGrain, complex_t{});
  parallel_fill(t.L, t.n_cells * kNTerm, kMetaGrain, complex_t{});
  fmm_upward(t);
  fmm_traverse(t);
  fmm_downward(t);
}

// ---------------------------------------------------------------------------
// verification
// ---------------------------------------------------------------------------

fmm_error fmm_check(const fmm_tree& t, std::size_t n_sample) {
  const std::size_t ns = std::min(n_sample, t.n_bodies);
  // Exact reference for the first ns bodies by direct summation, computed in
  // a task-parallel sweep over source chunks.
  std::vector<body> sample(ns);
  std::vector<body_acc> exact(ns), approx(ns);

  for (std::size_t base = 0; base < ns; base += kMetaGrain) {
    const std::size_t len = std::min(kMetaGrain, ns - base);
    with_checkout(t.bodies + static_cast<std::ptrdiff_t>(base), len, access_mode::read,
                  [&](const body* b) { std::copy(b, b + len, sample.begin() + base); });
    with_checkout(t.acc + static_cast<std::ptrdiff_t>(base), len, access_mode::read,
                  [&](const body_acc* a) { std::copy(a, a + len, approx.begin() + base); });
  }
  for (std::size_t base = 0; base < t.n_bodies; base += kMetaGrain) {
    const std::size_t len = std::min(kMetaGrain, t.n_bodies - base);
    with_checkout(t.bodies + static_cast<std::ptrdiff_t>(base), len, access_mode::read,
                  [&](const body* src) { p2p(sample.data(), ns, exact.data(), src, len); });
  }

  real_t perr = 0, pref = 0, gerr = 0, gref = 0;
  for (std::size_t i = 0; i < ns; i++) {
    perr += (approx[i].p - exact[i].p) * (approx[i].p - exact[i].p);
    pref += exact[i].p * exact[i].p;
    gerr += norm2(approx[i].dphi - exact[i].dphi);
    gref += norm2(exact[i].dphi);
  }
  return {std::sqrt(perr / (pref + 1e-300)), std::sqrt(gerr / (gref + 1e-300))};
}

// ---------------------------------------------------------------------------
// static owner-computes baseline (the paper's "MPI" series)
// ---------------------------------------------------------------------------

double static_run_result::idleness() const {
  double total_busy = 0;
  for (double b : busy) total_busy += b;
  const double capacity = makespan * static_cast<double>(busy.size());
  return capacity <= 0 ? 0 : 1.0 - total_busy / capacity;
}

namespace {

/// Serial traversal generating all interactions of the given target subtree
/// against the whole source tree (used by the static baseline: no forks).
void traverse_serial(const fmm_tree& t, std::int32_t ci, std::int32_t cj) {
  const cell_meta mi = read_meta(t, ci);
  const cell_meta mj = read_meta(t, cj);
  const vec3 dX = mi.X - mj.X;
  const real_t R2 = norm2(dX) * t.cfg.theta * t.cfg.theta;
  const real_t RiRj = mi.R + mj.R;
  if (R2 > RiRj * RiRj && ci != cj) {
    do_m2l(t, ci, mi, cj, mj);
    return;
  }
  if (mi.is_leaf() && mj.is_leaf()) {
    do_p2p(t, mi, mj);
    return;
  }
  const bool split_target = !mi.is_leaf() && (mj.is_leaf() || mi.R >= mj.R);
  if (split_target) {
    for (std::int32_t c = mi.child_begin; c < mi.child_begin + mi.n_children; c++) {
      traverse_serial(t, c, cj);
    }
  } else {
    for (std::int32_t c = mj.child_begin; c < mj.child_begin + mj.n_children; c++) {
      traverse_serial(t, ci, c);
    }
  }
}

void downward_serial(const fmm_tree& t, std::int32_t ci) {
  const cell_meta mi = read_meta(t, ci);
  if (mi.is_leaf()) {
    with_checkout(L_of(t, ci), kNTerm, access_mode::read, [&](const complex_t* L) {
      with_checkout(t.bodies + mi.body_offset, mi.n_bodies, access_mode::read,
                    [&](const body* bs) {
                      with_checkout(t.acc + mi.body_offset, mi.n_bodies, access_mode::read_write,
                                    [&](body_acc* acc) { l2p(L, mi.X, bs, mi.n_bodies, acc); });
                    });
    });
    return;
  }
  with_checkout(L_of(t, ci), kNTerm, access_mode::read, [&](const complex_t* Lp) {
    for (std::int32_t c = mi.child_begin; c < mi.child_begin + mi.n_children; c++) {
      const cell_meta mc = read_meta(t, c);
      with_checkout(L_of(t, c), kNTerm, access_mode::read_write,
                    [&](complex_t* Lc) { l2l(Lp, mi.X, mc.X, Lc); });
    }
  });
  for (std::int32_t c = mi.child_begin; c < mi.child_begin + mi.n_children; c++) {
    downward_serial(t, c);
  }
}

/// Serial upward pass (post-order, no forks) used by the static baseline.
void upward_serial_all(const fmm_tree& t) {
  // Also reset M/L: the baseline may run after (or before) other solves.
  for (std::size_t base = 0; base < t.n_cells * kNTerm; base += kMetaGrain) {
    const std::size_t len = std::min(kMetaGrain, t.n_cells * kNTerm - base);
    with_checkout(t.M + static_cast<std::ptrdiff_t>(base), len, access_mode::write,
                  [&](complex_t* m) { std::fill(m, m + len, complex_t{}); });
    with_checkout(t.L + static_cast<std::ptrdiff_t>(base), len, access_mode::write,
                  [&](complex_t* l) { std::fill(l, l + len, complex_t{}); });
  }
  // Post-order via explicit stack.
  std::vector<std::pair<std::int32_t, bool>> stack{{0, false}};
  while (!stack.empty()) {
    auto [ci, expanded] = stack.back();
    stack.pop_back();
    const cell_meta mi = read_meta(t, ci);
    if (mi.is_leaf()) {
      with_checkout(t.bodies + mi.body_offset, mi.n_bodies, access_mode::read,
                    [&](const body* bs) {
                      with_checkout(M_of(t, ci), kNTerm, access_mode::read_write,
                                    [&](complex_t* M) { p2m(bs, mi.n_bodies, mi.X, M); });
                    });
      continue;
    }
    if (!expanded) {
      stack.push_back({ci, true});
      for (std::int32_t c = mi.child_begin; c < mi.child_begin + mi.n_children; c++) {
        stack.push_back({c, false});
      }
      continue;
    }
    with_checkout(M_of(t, ci), kNTerm, access_mode::read_write, [&](complex_t* Mp) {
      for (std::int32_t c = mi.child_begin; c < mi.child_begin + mi.n_children; c++) {
        const cell_meta mc = read_meta(t, c);
        with_checkout(M_of(t, c), kNTerm, access_mode::read,
                      [&](const complex_t* Mc) { m2m(Mc, mc.X, mi.X, Mp); });
      }
    });
  }
}

/// Frontier of target subtrees for the static partition: descend until we
/// have at least ~4 subtrees per rank (or hit leaves).
std::vector<std::int32_t> static_frontier(const fmm_tree& t) {
  std::vector<std::int32_t> frontier{0};
  const std::size_t want = static_cast<std::size_t>(ityr::n_ranks()) * 4;
  bool grew = true;
  while (frontier.size() < want && grew) {
    grew = false;
    std::vector<std::int32_t> next;
    for (std::int32_t ci : frontier) {
      const cell_meta m = read_meta(t, ci);
      if (m.is_leaf()) {
        next.push_back(ci);
      } else {
        for (std::int32_t c = m.child_begin; c < m.child_begin + m.n_children; c++) {
          next.push_back(c);
        }
        grew = true;
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

}  // namespace

static_run_result fmm_solve_static(const fmm_tree& t) {
  const int me = ityr::my_rank();
  const int n_ranks = ityr::n_ranks();
  auto& eng = rt().eng();

  // Result accumulators must start clean; rank 0 also computes the upward
  // pass (a serial stand-in for the MPI version's replicated/local trees).
  if (me == 0) {
    for (std::size_t base = 0; base < t.n_bodies; base += kMetaGrain) {
      const std::size_t len = std::min(kMetaGrain, t.n_bodies - base);
      with_checkout(t.acc + static_cast<std::ptrdiff_t>(base), len, access_mode::write,
                    [&](body_acc* a) { std::fill(a, a + len, body_acc{}); });
    }
    upward_serial_all(t);
    rt().pgas().release();
  }
  barrier();

  // Static partition of the target frontier by particle count (the MPI
  // ExaFMM's load model, paper Section 6.4 / Table 2).
  const std::vector<std::int32_t> frontier = static_frontier(t);
  std::vector<std::uint32_t> weight(frontier.size());
  std::uint64_t total_weight = 0;
  for (std::size_t i = 0; i < frontier.size(); i++) {
    weight[i] = read_meta(t, frontier[i]).n_bodies;
    total_weight += weight[i];
  }

  // Contiguous greedy split: rank r takes frontier entries until its share
  // of particles reaches total/n_ranks.
  static_run_result res;
  res.busy.assign(static_cast<std::size_t>(n_ranks), 0.0);

  // Busy/idle accounting goes through the profiler's phases — the same
  // source of truth the fork-join path uses for Table 2 idleness — so static
  // and dynamic runs are directly comparable. Phases read now_precise:
  // home-local traversal may never yield, so the committed clock alone would
  // under-report busy time.
  common::profiler& prof = rt().prof();
  using phase = common::profiler::phase;

  const double t0 = eng.now();
  prof.begin_region();
  {
    std::uint64_t acc_weight = 0;
    const std::uint64_t share = (total_weight + static_cast<std::uint64_t>(n_ranks) - 1) /
                                static_cast<std::uint64_t>(n_ranks);
    prof.enter(phase::busy);
    for (std::size_t i = 0; i < frontier.size(); i++) {
      const int owner = static_cast<int>(std::min<std::uint64_t>(
          acc_weight / std::max<std::uint64_t>(share, 1),
          static_cast<std::uint64_t>(n_ranks - 1)));
      acc_weight += weight[i];
      if (owner != me) continue;
      traverse_serial(t, frontier[i], 0);
      downward_serial(t, frontier[i]);
    }
    prof.enter(phase::idle);
  }
  rt().pgas().release();
  barrier();
  const double t1 = eng.now();
  res.makespan = t1 - t0;
  prof.end_region();

  // The profiler is shared state (the DES serializes access): after the
  // barrier every rank reads every rank's busy time directly.
  barrier();
  for (int r = 0; r < n_ranks; r++) {
    res.busy[static_cast<std::size_t>(r)] = prof.busy_of(r);
  }
  return res;
}

}  // namespace ityr::apps::fmm
