#pragma once

/// \file
/// Itoyori public API: global memory management, checkout/checkin access,
/// fork-join task parallelism, and high-level parallel patterns.
///
/// This is the header applications include. All functions must be called
/// from inside runtime::spmd() (i.e., on a simulated rank).

#include <memory>
#include <new>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "itoyori/core/global_ptr.hpp"
#include "itoyori/core/runtime.hpp"

namespace ityr {

using common::cache_policy;
using common::dist_policy;
using common::options;
using pgas::access_mode;

// ---------------------------------------------------------------------------
// topology
// ---------------------------------------------------------------------------

inline runtime& rt() { return runtime::instance(); }
inline int my_rank() { return rt().eng().my_rank(); }
inline int n_ranks() { return rt().eng().n_ranks(); }
inline int n_nodes() { return rt().opts().n_nodes; }

/// SPMD barrier with release/acquire fences.
inline void barrier() {
  common::profiler::scope sc(rt().prof(), common::prof_event::spmd);
  rt().pgas().barrier();
}

// ---------------------------------------------------------------------------
// global memory allocation (paper Section 4.2)
// ---------------------------------------------------------------------------

/// Collectively allocate an array of `n` T across all ranks. Contents are
/// unspecified (like malloc: fresh pages are zero, reused pool space is
/// not). Collective allocation is a synchronization point (the underlying
/// MPI_Win_create is collective), so it carries barrier + fence semantics:
/// in particular, stale cache entries for previously freed space are
/// invalidated before the space can be reused.
template <typename T>
global_ptr<T> coll_new(std::size_t n, dist_policy policy) {
  common::profiler::scope sc(rt().prof(), common::prof_event::spmd);
  rt().pgas().barrier();
  return global_ptr<T>(rt().pgas().heap().coll_alloc(n * sizeof(T), policy));
}

template <typename T>
global_ptr<T> coll_new(std::size_t n) {
  return coll_new<T>(n, rt().opts().default_dist);
}

/// Collectively free. The leading barrier flushes and invalidates every
/// rank's cache, so no dirty write-back can land on the region after it is
/// reused by a later allocation.
template <typename T>
void coll_delete(global_ptr<T> p, std::size_t /*n*/) {
  common::profiler::scope sc(rt().prof(), common::prof_event::spmd);
  rt().pgas().barrier();
  rt().pgas().heap().coll_free(p.raw());
}

/// Noncollective allocation from the calling rank's local heap segment:
/// fine-grained, asynchronous, callable from any task (paper Section 4.2).
template <typename T>
global_ptr<T> noncoll_new(std::size_t n = 1) {
  return global_ptr<T>(rt().pgas().heap().alloc(n * sizeof(T)));
}

/// Free noncollectively allocated memory; any rank may call this.
template <typename T>
void noncoll_delete(global_ptr<T> p, std::size_t n = 1) {
  rt().pgas().heap().free(p.raw(), n * sizeof(T));
}

// ---------------------------------------------------------------------------
// checkout / checkin (paper Section 3.3)
// ---------------------------------------------------------------------------

/// Claim access to [p, p+n) in `mode`. Returns a raw pointer valid until the
/// matching checkin with identical arguments. Requires a caching policy;
/// under cache_policy::none use with_checkout()/get()/put(), which fall back
/// to GET/PUT semantics.
template <typename T>
T* checkout(global_ptr<T> p, std::size_t n, access_mode mode) {
  common::profiler::scope sc(rt().prof(), common::prof_event::checkout);
  if (rt().opts().policy == cache_policy::none)
    throw common::api_error("checkout requires a caching policy (use with_checkout under none)");
  return reinterpret_cast<T*>(rt().pgas().checkout(p.raw(), n * sizeof(T), mode));
}

template <typename T>
void checkin(global_ptr<T> p, std::size_t n, access_mode mode) {
  common::profiler::scope sc(rt().prof(), common::prof_event::checkin);
  rt().pgas().checkin(p.raw(), n * sizeof(T), mode);
}

/// RAII checkout guard exposing the checked-out region as a raw span.
template <typename T>
class checkout_span {
public:
  checkout_span(global_ptr<T> p, std::size_t n, access_mode mode)
      : p_(p), n_(n), mode_(mode), ptr_(checkout(p, n, mode)) {}
  ~checkout_span() {
    if (ptr_ != nullptr) checkin(p_, n_, mode_);
  }
  checkout_span(const checkout_span&) = delete;
  checkout_span& operator=(const checkout_span&) = delete;

  T* data() const { return ptr_; }
  std::size_t size() const { return n_; }
  T& operator[](std::size_t i) const {
    ITYR_CHECK(i < n_);
    return ptr_[i];
  }
  T* begin() const { return ptr_; }
  T* end() const { return ptr_ + n_; }

private:
  global_ptr<T> p_;
  std::size_t n_;
  access_mode mode_;
  T* ptr_;
};

/// Run `fn(T* data)` with [p, p+n) accessible in `mode`.
///
/// Under a caching policy this is checkout/fn/checkin (zero copy). Under
/// cache_policy::none it reproduces the paper's "No Cache" baseline: a user
/// buffer is allocated, GET fills it for read modes, fn runs on the buffer,
/// and PUT writes it back for write modes (Fig. 2a's double copy).
template <typename T, typename Fn>
decltype(auto) with_checkout(global_ptr<T> p, std::size_t n, access_mode mode, Fn&& fn) {
  if (rt().opts().policy == cache_policy::none) {
    // GET/PUT into a freshly allocated user buffer, as in the paper's
    // evaluation ("replacing the checkout/checkin calls with the GET/PUT
    // calls by allocating user buffers for them"). Note the paper's own
    // caveat (Section 6.4): for non-trivially-copyable T this baseline is
    // technically illegal C++ — data is moved as raw bytes.
    auto buf = std::make_unique<std::byte[]>(n * sizeof(T));
    T* data = reinterpret_cast<T*>(buf.get());
    if (mode != access_mode::write) {
      common::profiler::scope sc(rt().prof(), common::prof_event::checkout);
      rt().pgas().get(p.raw(), data, n * sizeof(T));
    }
    if constexpr (std::is_void_v<decltype(fn(data))>) {
      fn(data);
      if (mode != access_mode::read) {
        common::profiler::scope sc(rt().prof(), common::prof_event::checkin);
        rt().pgas().put(data, p.raw(), n * sizeof(T));
      }
      return;
    } else {
      auto r = fn(data);
      if (mode != access_mode::read) {
        common::profiler::scope sc(rt().prof(), common::prof_event::checkin);
        rt().pgas().put(data, p.raw(), n * sizeof(T));
      }
      return r;
    }
  }
  T* ptr = checkout(p, n, mode);
  // If fn throws, check the region in before the exception leaves this task,
  // so that the failure (e.g. a nested too_much_checkout_error) surfaces as
  // itself and not as a later "fork while checked out" abort.
  auto guarded = [&] {
    try {
      return fn(ptr);
    } catch (...) {
      checkin(p, n, mode);
      throw;
    }
  };
  if constexpr (std::is_void_v<decltype(fn(ptr))>) {
    guarded();
    checkin(p, n, mode);
  } else {
    auto r = guarded();
    checkin(p, n, mode);
    return r;
  }
}

/// Load one element (profiled separately: the "Get" bar of Fig. 9, e.g. the
/// sparse loads of Cilksort's binary search).
template <typename T>
T get(global_ptr<T> p) {
  common::profiler::scope sc(rt().prof(), common::prof_event::get);
  if (rt().opts().policy == cache_policy::none) {
    std::remove_const_t<T> v;
    rt().pgas().get(p.raw(), &v, sizeof(T));
    return v;
  }
  // Single-element loads are the classic front-table case (e.g. the sparse
  // probes of Cilksort's binary search hitting the same block repeatedly):
  // a memoized fully-valid block answers with one memcpy, no pin/unpin.
  if constexpr (std::is_trivially_copyable_v<std::remove_const_t<T>>) {
    std::remove_const_t<T> v;
    if (rt().pgas().get_fast(p.raw(), &v, sizeof(T))) return v;
  }
  const T* ptr =
      reinterpret_cast<const T*>(rt().pgas().checkout(p.raw(), sizeof(T), access_mode::read));
  std::remove_const_t<T> v = *ptr;
  rt().pgas().checkin(p.raw(), sizeof(T), access_mode::read);
  return v;
}

/// Store one element (profiled as "Put", distinct from "Get").
template <typename T>
void put(global_ptr<T> p, const T& v) {
  common::profiler::scope sc(rt().prof(), common::prof_event::put);
  if (rt().opts().policy == cache_policy::none) {
    rt().pgas().put(&v, p.raw(), sizeof(T));
    return;
  }
  if constexpr (std::is_trivially_copyable_v<T>) {
    if (rt().pgas().put_fast(&v, p.raw(), sizeof(T))) return;
  }
  T* ptr = reinterpret_cast<T*>(rt().pgas().checkout(p.raw(), sizeof(T), access_mode::write));
  *ptr = v;
  rt().pgas().checkin(p.raw(), sizeof(T), access_mode::write);
}

/// Construct a T in noncollectively allocated global memory (supports
/// non-trivially-copyable types, paper Section 3.2).
template <typename T, typename... Args>
global_ptr<T> make_global(Args&&... args) {
  global_ptr<T> p = noncoll_new<T>(1);
  with_checkout(p, 1, access_mode::write,
                [&](T* ptr) { new (ptr) T(std::forward<Args>(args)...); });
  return p;
}

template <typename T>
void destroy_global(global_ptr<T> p) {
  with_checkout(p, 1, access_mode::read_write, [&](T* ptr) { ptr->~T(); });
  noncoll_delete(p, 1);
}

// ---------------------------------------------------------------------------
// fork-join tasking (paper Sections 2.1, 3.1)
// ---------------------------------------------------------------------------

namespace detail {

template <typename F>
sched::thread_handle fork_typed(F&& f) {
  using R = std::invoke_result_t<std::decay_t<F>>;
  if constexpr (std::is_void_v<R>) {
    return rt().sched().fork([fn = std::decay_t<F>(std::forward<F>(f))](sched::thread_state*) {
      fn();
    });
  } else {
    static_assert(sizeof(R) <= sched::thread_state::result_capacity,
                  "task result too large; return it through global memory");
    return rt().sched().fork([fn = std::decay_t<F>(std::forward<F>(f))](sched::thread_state* ts) {
      new (ts->result) R(fn());
    });
  }
}

template <typename R>
auto join_typed(sched::thread_handle& h) {
  auto& s = rt().sched();
  if constexpr (std::is_void_v<R>) {
    s.join(h);
    s.recycle(h);
    return std::monostate{};
  } else {
    s.join(h);
    R* p = std::launder(reinterpret_cast<R*>(h.ts->result));
    R r = std::move(*p);
    p->~R();
    s.recycle(h);
    return r;
  }
}

template <typename F>
auto run_last(F&& f) {
  using R = std::invoke_result_t<std::decay_t<F>>;
  if constexpr (std::is_void_v<R>) {
    f();
    return std::monostate{};
  } else {
    return f();
  }
}

template <typename F, typename... Rest>
auto parallel_invoke_impl(F&& f, Rest&&... rest) {
  using R = std::invoke_result_t<std::decay_t<F>>;
  if constexpr (sizeof...(Rest) == 0) {
    return std::make_tuple(run_last(std::forward<F>(f)));
  } else {
    // Child-first: fork f (it executes immediately; our continuation becomes
    // stealable), then process the remaining closures, then join.
    sched::thread_handle h = fork_typed(std::forward<F>(f));
    auto rest_results = parallel_invoke_impl(std::forward<Rest>(rest)...);
    auto r = join_typed<R>(h);
    return std::tuple_cat(std::make_tuple(std::move(r)), std::move(rest_results));
  }
}

template <typename... Fs>
inline constexpr bool all_void_v = (std::is_void_v<std::invoke_result_t<std::decay_t<Fs>>> && ...);

}  // namespace detail

/// Fork the given closures as parallel tasks and join them all (Fig. 1).
/// Returns std::tuple of the results (std::monostate for void closures), or
/// void if every closure returns void.
template <typename... Fs>
auto parallel_invoke(Fs&&... fs) {
  static_assert(sizeof...(Fs) >= 1);
  if constexpr (detail::all_void_v<Fs...>) {
    detail::parallel_invoke_impl(std::forward<Fs>(fs)...);
  } else {
    return detail::parallel_invoke_impl(std::forward<Fs>(fs)...);
  }
}

/// Switch from the SPMD region to the fork-join region: run `f` once as the
/// root thread (it may migrate between ranks); all ranks participate as
/// workers and all receive a copy of the result.
template <typename F>
auto root_exec(F&& f) {
  using R = std::invoke_result_t<std::decay_t<F>>;
  auto& r = rt();
  if constexpr (std::is_void_v<R>) {
    r.jobs().run_single([fn = std::decay_t<F>(std::forward<F>(f))] { fn(); });
  } else {
    static_assert(sizeof(R) <= runtime::root_result_capacity,
                  "root result too large; return it through global memory");
    static_assert(std::is_copy_constructible_v<R>);
    void* buf = r.root_result_buf();
    r.jobs().run_single(
        [fn = std::decay_t<F>(std::forward<F>(f)), buf] { new (buf) R(fn()); });
    // Every rank copies the result out, then exactly one destroys it.
    R result = *std::launder(reinterpret_cast<R*>(buf));
    r.pgas().barrier();
    if (my_rank() == 0) std::launder(reinterpret_cast<R*>(buf))->~R();
    r.pgas().barrier();
    return result;
  }
}

/// Multi-tenant serving (ITYR_SERVE, docs/internals.md "Multi-job serving"):
/// collective — admit `jobs` as an open-loop stream of independent fork-join
/// jobs into one scheduler region and return when all have completed. Query
/// results through rt().jobs() (records, latency quantiles, jobs/sec).
inline void serve(std::vector<sched::job_spec> jobs) { rt().jobs().serve(std::move(jobs)); }

// ---------------------------------------------------------------------------
// high-level parallel patterns (paper Section 3.3: automatic chunking)
// ---------------------------------------------------------------------------

/// Apply `fn(T* chunk, std::size_t len, std::size_t base_index)` over
/// [first, first+n) in `mode`, recursively splitting until chunks are at
/// most `grain` elements, each leaf processed under one checkout. The grain
/// bounds the per-task checkout size, so arrays far larger than the cache
/// can be swept (Section 3.3).
template <typename T, typename Fn>
void for_each_chunk(global_ptr<T> first, std::size_t n, std::size_t grain, access_mode mode,
                    Fn fn, std::size_t base_index = 0) {
  if (n == 0) return;
  ITYR_CHECK(grain > 0);
  if (n <= grain) {
    with_checkout(first, n, mode, [&](T* p) { fn(p, n, base_index); });
    return;
  }
  const std::size_t half = n / 2;
  parallel_invoke(
      [=] { for_each_chunk(first, half, grain, mode, fn, base_index); },
      [=] {
        for_each_chunk(first + static_cast<std::ptrdiff_t>(half), n - half, grain, mode, fn,
                       base_index + half);
      });
}

/// Element-wise parallel for: fn(T& element, std::size_t index).
template <typename T, typename Fn>
void parallel_for_each(global_ptr<T> first, std::size_t n, std::size_t grain, access_mode mode,
                       Fn fn) {
  for_each_chunk(first, n, grain, mode, [fn](T* p, std::size_t len, std::size_t base) {
    for (std::size_t i = 0; i < len; i++) fn(p[i], base + i);
  });
}

/// Parallel reduction over global memory: acc = combine(acc, transform(x)).
template <typename T, typename Acc, typename Transform, typename Combine>
Acc parallel_reduce(global_ptr<T> first, std::size_t n, std::size_t grain, Acc init,
                    Transform transform, Combine combine) {
  static_assert(sizeof(Acc) <= sched::thread_state::result_capacity);
  if (n == 0) return init;
  if (n <= grain) {
    return with_checkout(first, n, access_mode::read, [&](T* p) {
      Acc acc = init;
      for (std::size_t i = 0; i < n; i++) acc = combine(acc, transform(p[i]));
      return acc;
    });
  }
  const std::size_t half = n / 2;
  auto [l, r2] = parallel_invoke(
      [=] { return parallel_reduce(first, half, grain, init, transform, combine); },
      [=] {
        return parallel_reduce(first + static_cast<std::ptrdiff_t>(half), n - half, grain, init,
                               transform, combine);
      });
  return combine(l, r2);
}

/// Fill [first, first+n) with `value` in parallel.
template <typename T>
void parallel_fill(global_ptr<T> first, std::size_t n, std::size_t grain, const T& value) {
  for_each_chunk(first, n, grain, access_mode::write,
                 [value](T* p, std::size_t len, std::size_t) {
                   for (std::size_t i = 0; i < len; i++) p[i] = value;
                 });
}

// ---- global_span convenience overloads ----

template <typename T, typename Fn>
void parallel_for_each(global_span<T> s, std::size_t grain, access_mode mode, Fn fn) {
  parallel_for_each(s.data(), s.size(), grain, mode, std::move(fn));
}

template <typename T, typename Acc, typename Transform, typename Combine>
Acc parallel_reduce(global_span<T> s, std::size_t grain, Acc init, Transform transform,
                    Combine combine) {
  return parallel_reduce(s.data(), s.size(), grain, init, std::move(transform),
                         std::move(combine));
}

template <typename T>
void parallel_fill(global_span<T> s, std::size_t grain, const T& value) {
  parallel_fill(s.data(), s.size(), grain, value);
}

/// Parallel transform from one global array into another (element-wise).
template <typename T, typename U, typename Fn>
void parallel_transform(global_ptr<T> in, global_ptr<U> out, std::size_t n, std::size_t grain,
                        Fn fn) {
  if (n == 0) return;
  if (n <= grain) {
    with_checkout(in, n, access_mode::read, [&](T* pi) {
      with_checkout(out, n, access_mode::write, [&](U* po) {
        for (std::size_t i = 0; i < n; i++) po[i] = fn(pi[i]);
      });
    });
    return;
  }
  const std::size_t half = n / 2;
  parallel_invoke([=] { parallel_transform(in, out, half, grain, fn); },
                  [=] {
                    parallel_transform(in + static_cast<std::ptrdiff_t>(half),
                                       out + static_cast<std::ptrdiff_t>(half), n - half, grain,
                                       fn);
                  });
}

}  // namespace ityr
