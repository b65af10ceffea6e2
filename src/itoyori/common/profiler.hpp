#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "itoyori/common/error.hpp"
#include "itoyori/common/job.hpp"
#include "itoyori/common/trace.hpp"

namespace ityr::common {

/// Profiling categories matching the paper's Fig. 9 breakdown, plus a few
/// runtime-internal ones.
enum class prof_event : std::uint8_t {
  get,            ///< single-element global loads (e.g. binary search)
  put,            ///< single-element global stores
  checkout,
  checkin,
  release,        ///< normal releases (Release #2/#3)
  release_lazy,   ///< delayed write-backs requested by thieves (Release #1)
  acquire,        ///< includes lazy-release wait time
  steal,          ///< steal attempts and migrations
  spmd,           ///< SPMD-mode collective work (alloc, barrier, init)
  serial_a,       ///< app-defined serial kernel A (e.g. Serial Quicksort)
  serial_b,       ///< app-defined serial kernel B (e.g. Serial Merge)
  serial_c,       ///< app-defined serial kernel C
  count_
};

inline constexpr std::size_t n_prof_events = static_cast<std::size_t>(prof_event::count_);

inline const char* to_string(prof_event e) {
  switch (e) {
    case prof_event::get:          return "Get";
    case prof_event::put:          return "Put";
    case prof_event::checkout:     return "Checkout";
    case prof_event::checkin:      return "Checkin";
    case prof_event::release:      return "Release";
    case prof_event::release_lazy: return "Lazy Release";
    case prof_event::acquire:      return "Acquire";
    case prof_event::steal:        return "Steal";
    case prof_event::spmd:         return "SPMD";
    case prof_event::serial_a:     return "Serial A";
    case prof_event::serial_b:     return "Serial B";
    case prof_event::serial_c:     return "Serial C";
    case prof_event::count_:       break;
  }
  return "?";
}

/// Per-rank time attribution over virtual time: the one object behind the
/// Fig. 9 breakdown, the Table 2 idleness and the per-job busy rows. Time and
/// rank come from injected sources, keeping this layer simulator-agnostic.
///
/// Nested scopes attribute intervals exclusively to the innermost scope (a
/// child's duration is subtracted from its parent) and record, per (rank,
/// event), self-time, count and maximum inclusive duration. They record only
/// while active(): with profiling off and no tracer, untimed scopes read no
/// clock. Phases are always on: inside a begin_region()/end_region() bracket
/// each rank is busy, stealing or idle, the three adding up to the region,
/// and busy time is credited to the rank's current job (set_job(); job 0 is
/// the single-job root task and the serve driver). An attached tracer gets
/// every recorded scope and every busy phase as a B/E span.
class profiler {
public:
  enum class phase : std::uint8_t { idle = 0, busy = 1, steal = 2 };

  /// Reconfiguring a profiler that still holds state (open scopes or
  /// accumulated data) would silently discard it; that is an API error.
  void configure(int n_ranks, std::function<double()> time_source,
                 std::function<int()> rank_source) {
    for (const per_rank& r : ranks_) {
      const bool used = std::any_of(r.ev.begin(), r.ev.end(),
                                    [](const stat& st) { return st.self != 0 || st.count != 0; });
      if (used || !r.stack.empty()) {
        throw api_error(
            "profiler::configure() called on a live profiler "
            "(open scopes or unreset accumulated data)");
      }
    }
    ranks_.assign(static_cast<std::size_t>(n_ranks), {});
    busy_by_job_.clear();
    time_ = std::move(time_source);
    rank_ = std::move(rank_source);
  }

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Mirror scopes and busy phases into `t`'s per-rank trace tracks
  /// (nullptr detaches).
  void set_tracer(tracer* t) { trace_ = t; }

  /// Whether scopes currently record anything: profiling enabled or an
  /// attached tracer collecting span events.
  bool active() const { return enabled_ || (trace_ != nullptr && trace_->enabled()); }

  void begin(prof_event e) {
    if (active()) push(e, true);
  }
  void end(prof_event e) {
    if (active()) pop(e);
  }

  /// RAII scope. It records at exit only if it recorded at entry. A `timed`
  /// scope also keeps its frame while the profiler is inactive, so close()
  /// can hand the interval to callers that always need it (fence and steal
  /// histograms); an inactive untimed scope costs one branch.
  class scope {
  public:
    scope(profiler& p, prof_event e, bool timed = false)
        : p_(timed || p.active() ? &p : nullptr), e_(e) {
      if (p_ != nullptr) p_->push(e_, p_->active());
    }
    ~scope() { close(); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

    /// End the scope now; returns its inclusive duration (0 for an inactive
    /// untimed scope). The destructor then does nothing.
    double close() {
      if (p_ == nullptr) return 0;
      const double d = p_->pop(e_);
      p_ = nullptr;
      return d;
    }
    /// Entry time; valid for a timed scope while it is the innermost open one.
    double start() const { return p_->self().stack.back().t0; }

  private:
    profiler* p_;
    prof_event e_;
  };

  /// Per-rank accumulated self-time. Deliberately not checked against open
  /// scopes: the metrics sampler reads mid-run while other ranks legally
  /// hold open SPMD scopes across barrier suspension.
  double accumulated(int rank, prof_event e) const { return of(rank, e).self; }
  std::uint64_t count_of(int rank, prof_event e) const { return of(rank, e).count; }
  /// Maximum inclusive (wall) duration of a single scope.
  double max_duration_of(int rank, prof_event e) const { return of(rank, e).max; }

  /// Aggregate reads assert that no scope is still open anywhere — a
  /// missing end() would otherwise surface as silently-low totals.
  double total(prof_event e) const {
    double t = 0;
    for (int r = 0; r < n_ranks(); r++) t += checked(r, e).self;
    return t;
  }
  std::uint64_t total_count(prof_event e) const {
    std::uint64_t c = 0;
    for (int r = 0; r < n_ranks(); r++) c += checked(r, e).count;
    return c;
  }
  double max_duration(prof_event e) const {
    double m = 0;
    for (int r = 0; r < n_ranks(); r++) m = std::max(m, checked(r, e).max);
    return m;
  }
  double total_all_events() const {
    double t = 0;
    for (std::size_t i = 0; i < n_prof_events; i++) t += total(static_cast<prof_event>(i));
    return t;
  }

  /// Zero the scope accumulators (open scopes, if any, survive and attribute
  /// their self-time from their original begin on their eventual end()).
  /// Phases restart with each region instead.
  void reset() {
    for (per_rank& r : ranks_) r.ev.fill({});
  }

  // ---- phases (always on) ----
  /// Start (or restart) the calling rank's region: phase totals reset, the
  /// phase starts idle and the current job is 0.
  void begin_region() {
    per_rank& r = self();
    const double now = time_();
    close_phase(r, now);
    r.in = {};
    r.start = r.since = r.end = now;
    r.job = no_job;
    r.open = true;
  }

  /// Move the calling rank to phase `p`; no-op outside a region or if
  /// already in `p`.
  void enter(phase p) {
    per_rank& r = self();
    if (!r.open || r.cur == p) return;
    const double now = time_();
    account(r, now);
    r.cur = p;
    if (p == phase::busy) {
      r.job_since = now;
      if (trace_ != nullptr) trace_->span_begin(rank_(), now, "Busy");
    }
  }

  /// Close the calling rank's region: the current phase is accounted up to now.
  void end_region() {
    per_rank& r = self();
    const double now = time_();
    close_phase(r, now);
    r.end = now;
  }

  /// Record that `job`'s task now runs on the calling rank; busy time from
  /// here on is credited to it. Returns whether the job changed.
  bool set_job(job_id_t job) {
    per_rank& r = self();
    if (r.job == job) return false;
    if (r.open && r.cur == phase::busy) credit_job(r, time_());
    r.job = job;
    return true;
  }
  job_id_t job_of(int rank) const { return ranks_[static_cast<std::size_t>(rank)].job; }

  double busy_of(int rank) const { return in_phase(rank, phase::busy); }
  double steal_of(int rank) const { return in_phase(rank, phase::steal); }
  double idle_of(int rank) const { return in_phase(rank, phase::idle); }
  /// Length of the rank's last region (busy + steal + idle once closed).
  double region_of(int rank) const {
    const per_rank& r = ranks_[static_cast<std::size_t>(rank)];
    return r.end - r.start;
  }

  double total_busy() const { return total_in(phase::busy); }
  double total_steal() const { return total_in(phase::steal); }
  double total_idle() const { return total_in(phase::idle); }

  /// Region makespan: max end over ranks minus min start.
  double makespan() const {
    if (ranks_.empty()) return 0;
    double lo = ranks_[0].start;
    double hi = ranks_[0].end;
    for (const per_rank& r : ranks_) {
      lo = std::min(lo, r.start);
      hi = std::max(hi, r.end);
    }
    return std::max(0.0, hi - lo);
  }

  /// Paper Table 2: 1 - sum(busy) / (n_ranks * makespan).
  double idleness() const {
    const double span = makespan();
    if (ranks_.empty() || span <= 0) return 0;
    return 1.0 - total_busy() / (static_cast<double>(ranks_.size()) * span);
  }

  /// Busy seconds credited to `job` over every region so far.
  double busy_of_job(job_id_t job) const {
    return job < busy_by_job_.size() ? busy_by_job_[job] : 0.0;
  }

private:
  struct frame {
    prof_event e;
    bool rec;  ///< accumulate and trace at pop (active at push)
    double t0;
    double child_time;
  };
  struct stat {
    double self = 0;
    std::uint64_t count = 0;
    double max = 0;
  };
  struct per_rank {
    std::array<stat, n_prof_events> ev{};
    std::vector<frame> stack;
    std::array<double, 3> in{};  ///< seconds per phase in the current region
    double start = 0, end = 0, since = 0;
    double job_since = 0;  ///< start of the current job's busy stretch
    phase cur = phase::idle;
    bool open = false;
    job_id_t job = no_job;
  };

  int n_ranks() const { return static_cast<int>(ranks_.size()); }
  per_rank& self() { return ranks_[static_cast<std::size_t>(rank_())]; }
  const stat& of(int rank, prof_event e) const {
    return ranks_[static_cast<std::size_t>(rank)].ev[static_cast<std::size_t>(e)];
  }
  const stat& checked(int rank, prof_event e) const {
    ITYR_CHECK(ranks_[static_cast<std::size_t>(rank)].stack.empty());
    return of(rank, e);
  }
  double in_phase(int rank, phase p) const {
    return ranks_[static_cast<std::size_t>(rank)].in[static_cast<std::size_t>(p)];
  }
  double total_in(phase p) const {
    double t = 0;
    for (int r = 0; r < n_ranks(); r++) t += in_phase(r, p);
    return t;
  }

  void push(prof_event e, bool rec) {
    const double now = time_();
    self().stack.push_back({e, rec, now, 0.0});
    if (rec && trace_ != nullptr) trace_->span_begin(rank_(), now, to_string(e));
  }

  /// Returns the scope's inclusive duration.
  double pop(prof_event e) {
    per_rank& r = self();
    ITYR_CHECK(!r.stack.empty() && r.stack.back().e == e);
    const frame f = r.stack.back();
    r.stack.pop_back();
    const double now = time_();
    const double total = now - f.t0;
    if (!r.stack.empty()) r.stack.back().child_time += total;
    if (f.rec) {
      stat& st = r.ev[static_cast<std::size_t>(e)];
      const double self_t = total - f.child_time;
      st.self += self_t > 0 ? self_t : 0;
      st.count++;
      if (total > st.max) st.max = total;
      if (trace_ != nullptr) trace_->span_end(rank_(), now, to_string(e));
    }
    return total;
  }

  void account(per_rank& r, double now) {
    // Transitions must move forward in virtual time: a phase can only be
    // closed at or after the instant it was entered. A violation means a
    // caller fed a stale `now` (e.g. cached before a yield) and the
    // busy/steal/idle split is garbage from here on.
    ITYR_CHECK(now >= r.since);
    r.in[static_cast<std::size_t>(r.cur)] += now - r.since;
    r.since = now;
    if (r.cur == phase::busy) {
      credit_job(r, now);
      if (trace_ != nullptr) trace_->span_end(rank_(), now, "Busy");
    }
  }

  void credit_job(per_rank& r, double now) {
    if (r.job >= busy_by_job_.size()) busy_by_job_.resize(r.job + 1, 0.0);
    busy_by_job_[r.job] += now - r.job_since;
    r.job_since = now;
  }

  void close_phase(per_rank& r, double now) {
    if (!r.open) return;
    account(r, now);
    r.cur = phase::idle;
    r.open = false;
  }

  bool enabled_ = false;
  tracer* trace_ = nullptr;
  std::function<double()> time_;
  std::function<int()> rank_;
  std::vector<per_rank> ranks_;
  std::vector<double> busy_by_job_;  ///< busy seconds per job id
};

}  // namespace ityr::common
