#include "itoyori/common/trace.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "itoyori/common/json.hpp"

namespace ityr::common {

void tracer::configure(int n_ranks, int ranks_per_node, std::size_t cap_per_rank) {
  ranks_per_node_ = ranks_per_node > 0 ? ranks_per_node : 1;
  cap_ = std::min(std::max(cap_per_rank, min_cap), max_cap);
  rings_.assign(static_cast<std::size_t>(n_ranks), {});
  next_sample_.assign(static_cast<std::size_t>(n_ranks), 0.0);
  flow_id_ = 0;
}

std::size_t tracer::total_events() const {
  std::size_t n = 0;
  for (const ring& r : rings_) n += r.n;
  return n;
}

std::uint64_t tracer::total_dropped() const {
  std::uint64_t n = 0;
  for (const ring& r : rings_) n += r.dropped;
  return n;
}

void tracer::clear() {
  for (ring& r : rings_) r = {};
  next_sample_.assign(next_sample_.size(), 0.0);
  flow_id_ = 0;
}

namespace {

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

std::string tracer::to_json() const {
  // Flow arrows span two rank rings; ring eviction can orphan one half.
  // Pre-scan so only fully-paired flows are emitted.
  std::map<std::uint64_t, std::pair<bool, bool>> flow_halves;
  for (const ring& r : rings_) {
    for (std::size_t i = 0; i < r.n; i++) {
      const event& e = r.buf[(r.head + i) % cap_];
      if (e.k == event_kind::flow_start) {
        flow_halves[e.id].first = true;
      } else if (e.k == event_kind::flow_finish) {
        flow_halves[e.id].second = true;
      }
    }
  }
  const auto flow_paired = [&](std::uint64_t id) {
    const auto it = flow_halves.find(id);
    return it != flow_halves.end() && it->second.first && it->second.second;
  };

  std::string out;
  out.reserve(256 + total_events() * 96);
  out += "{\n\"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Metadata: one trace process per simulated node, one thread per rank.
  const int n = n_ranks();
  const int n_nodes = n > 0 ? (n + ranks_per_node_ - 1) / ranks_per_node_ : 0;
  for (int node = 0; node < n_nodes; node++) {
    sep();
    append_fmt(out,
               "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
               "\"args\":{\"name\":\"node %d\"}}",
               node, node);
  }
  for (int rank = 0; rank < n; rank++) {
    sep();
    append_fmt(out,
               "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\","
               "\"args\":{\"name\":\"rank %d\"}}",
               rank / ranks_per_node_, rank, rank);
  }

  for (int rank = 0; rank < n; rank++) {
    const ring& r = rings_[static_cast<std::size_t>(rank)];
    const int pid = rank / ranks_per_node_;

    // Reconstruct chronological order. Pushes are time-ordered per rank
    // except flow_finish events recorded by a remote issuer with a future
    // completion timestamp; a stable sort restores per-rank monotonicity
    // while preserving begin-before-end for equal timestamps.
    std::vector<event> evs;
    evs.reserve(r.n);
    for (std::size_t i = 0; i < r.n; i++) evs.push_back(r.buf[(r.head + i) % cap_]);
    std::stable_sort(evs.begin(), evs.end(),
                     [](const event& a, const event& b) { return a.t < b.t; });

    // Repair ring eviction damage so every track has balanced B/E pairs:
    // drop end events whose begin was evicted, auto-close still-open spans
    // at the rank's last timestamp.
    std::vector<const char*> stack;
    double last_t = evs.empty() ? 0.0 : evs.back().t;
    for (const event& e : evs) {
      const double ts = e.t * 1e6;  // virtual seconds -> microseconds
      switch (e.k) {
        case event_kind::begin:
          stack.push_back(e.name);
          sep();
          append_fmt(out, "{\"ph\":\"B\",\"pid\":%d,\"tid\":%d,\"ts\":%.4f,\"name\":\"", pid, rank,
                     ts);
          append_json_escaped(out, e.name);
          out += "\"}";
          break;
        case event_kind::end:
          if (stack.empty() || std::strcmp(stack.back(), e.name) != 0) break;  // orphan end
          stack.pop_back();
          sep();
          append_fmt(out, "{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%.4f,\"name\":\"", pid, rank,
                     ts);
          append_json_escaped(out, e.name);
          out += "\"}";
          break;
        case event_kind::instant:
          sep();
          append_fmt(out,
                     "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%.4f,\"name\":\"", pid,
                     rank, ts);
          append_json_escaped(out, e.name);
          out += '"';
          // Job annotation (serving mode); unannotated instants stay
          // byte-identical to the historic form.
          if (e.job != no_job) append_fmt(out, ",\"args\":{\"job\":%u}", e.job);
          out += '}';
          break;
        case event_kind::flow_start:
          if (!flow_paired(e.id)) break;
          sep();
          append_fmt(out,
                     "{\"ph\":\"s\",\"cat\":\"ityr\",\"id\":%llu,\"pid\":%d,\"tid\":%d,"
                     "\"ts\":%.4f,\"name\":\"",
                     static_cast<unsigned long long>(e.id), pid, rank, ts);
          append_json_escaped(out, e.name);
          out += '"';
          // Batch annotation (flow_batch): size + this endpoint's deque
          // depth transition; plain flows stay byte-identical. A job tag
          // (serving mode) merges into the same args object.
          if (e.value > 0) {
            append_fmt(out, ",\"args\":{\"batch\":%u,\"deque_before\":%u,\"deque_after\":%u",
                       static_cast<unsigned>(e.value), e.a0, e.a1);
            if (e.job != no_job) append_fmt(out, ",\"job\":%u", e.job);
            out += '}';
          } else if (e.job != no_job) {
            append_fmt(out, ",\"args\":{\"job\":%u}", e.job);
          }
          out += '}';
          break;
        case event_kind::flow_finish:
          if (!flow_paired(e.id)) break;
          sep();
          append_fmt(out,
                     "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"ityr\",\"id\":%llu,\"pid\":%d,"
                     "\"tid\":%d,\"ts\":%.4f,\"name\":\"",
                     static_cast<unsigned long long>(e.id), pid, rank, ts);
          append_json_escaped(out, e.name);
          out += '"';
          if (e.value > 0) {
            append_fmt(out, ",\"args\":{\"batch\":%u,\"deque_before\":%u,\"deque_after\":%u",
                       static_cast<unsigned>(e.value), e.a0, e.a1);
            if (e.job != no_job) append_fmt(out, ",\"job\":%u", e.job);
            out += '}';
          } else if (e.job != no_job) {
            append_fmt(out, ",\"args\":{\"job\":%u}", e.job);
          }
          out += '}';
          break;
        case event_kind::counter:
          // Rank-suffixed counter name: each rank gets its own counter
          // track instead of the ranks overwriting one shared series.
          sep();
          append_fmt(out, "{\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\"ts\":%.4f,\"name\":\"", pid, rank,
                     ts);
          append_json_escaped(out, e.name);
          append_fmt(out, " (r%d)\",\"args\":{\"value\":%.3f}}", rank, e.value);
          break;
      }
    }
    while (!stack.empty()) {
      const char* name = stack.back();
      stack.pop_back();
      sep();
      append_fmt(out, "{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%.4f,\"name\":\"", pid, rank,
                 last_t * 1e6);
      append_json_escaped(out, name);
      out += "\"}";
    }
  }

  out += "\n],\n";
  append_fmt(out, "\"dropped_events\": %llu\n}\n",
             static_cast<unsigned long long>(total_dropped()));
  return out;
}

bool tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ityr: cannot open trace output '%s'\n", path.c_str());
    return false;
  }
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "ityr: short write on trace output '%s'\n", path.c_str());
  return ok;
}

// ---------------------------------------------------------------------------
// Trace checker
// ---------------------------------------------------------------------------

namespace {

double jnum(const json_value* v, double dflt = 0) {
  return (v != nullptr && v->t == json_value::type::number) ? v->num : dflt;
}

std::string jstr(const json_value* v) {
  return (v != nullptr && v->t == json_value::type::string) ? v->str : std::string();
}

}  // namespace

trace_check_result validate_trace_json(const std::string& json_text) {
  trace_check_result res;

  json_value root;
  std::string parse_error;
  if (!parse_json(json_text, root, parse_error)) {
    res.error = "JSON parse error: " + parse_error;
    return res;
  }
  if (root.t != json_value::type::object) {
    res.error = "top-level value is not an object";
    return res;
  }
  const json_value* events = root.find("traceEvents");
  if (events == nullptr || events->t != json_value::type::array) {
    res.error = "missing traceEvents array";
    return res;
  }
  res.n_events = events->arr.size();
  res.dropped_events =
      static_cast<std::uint64_t>(jnum(root.find("dropped_events"), 0));

  using track_key = std::pair<long long, long long>;
  std::map<track_key, std::vector<std::string>> stacks;
  std::map<track_key, double> last_ts;
  struct flow_state {
    bool has_s = false, has_f = false;
    double ts_s = 0, ts_f = 0;
    long long batch_s = -1, batch_f = -1;  ///< -1 = half not batch-annotated
  };
  std::map<std::string, flow_state> flows;

  // Job lifecycle windows (serving mode): every job-annotated event must
  // nest inside its job's admit -> complete window. Events interleave
  // across ranks in file order, so windows are collected during the main
  // pass and the nesting check runs afterwards.
  struct job_window {
    bool has_admit = false, has_start = false, has_complete = false;
    double t_admit = 0, t_start = 0, t_complete = 0;
  };
  std::map<long long, job_window> job_windows;
  struct job_event_ref {
    long long job;
    double ts;
    std::size_t idx;
  };
  std::vector<job_event_ref> job_events;

  for (std::size_t i = 0; i < events->arr.size(); i++) {
    const json_value& e = events->arr[i];
    if (e.t != json_value::type::object) {
      res.error = "traceEvents[" + std::to_string(i) + "] is not an object";
      return res;
    }
    const std::string ph = jstr(e.find("ph"));
    if (ph == "M") continue;  // metadata carries no timestamp
    if (ph.empty()) {
      res.error = "traceEvents[" + std::to_string(i) + "] has no ph";
      return res;
    }

    const track_key key{static_cast<long long>(jnum(e.find("pid"))),
                        static_cast<long long>(jnum(e.find("tid")))};
    const json_value* ts_v = e.find("ts");
    if (ts_v == nullptr || ts_v->t != json_value::type::number) {
      res.error = "traceEvents[" + std::to_string(i) + "] (ph=" + ph + ") has no numeric ts";
      return res;
    }
    const double ts = ts_v->num;
    auto it = last_ts.find(key);
    if (it != last_ts.end() && ts < it->second) {
      res.error = "non-monotonic ts on pid=" + std::to_string(key.first) +
                  " tid=" + std::to_string(key.second) + " at traceEvents[" + std::to_string(i) +
                  "]";
      return res;
    }
    last_ts[key] = ts;

    const std::string name = jstr(e.find("name"));

    const json_value* args_v = e.find("args");
    const json_value* job_v = args_v != nullptr ? args_v->find("job") : nullptr;
    if (job_v != nullptr) {
      if (job_v->t != json_value::type::number || job_v->num < 1) {
        res.error = "malformed job annotation at traceEvents[" + std::to_string(i) +
                    "] (job must be a number >= 1)";
        return res;
      }
      const long long job = static_cast<long long>(job_v->num);
      res.n_job_annotated++;
      job_events.push_back({job, ts, i});
      if (ph == "i" && name == "job admit") {
        job_window& w = job_windows[job];
        if (w.has_admit) {
          res.error = "duplicate 'job admit' for job " + std::to_string(job) +
                      " at traceEvents[" + std::to_string(i) + "]";
          return res;
        }
        w.has_admit = true;
        w.t_admit = ts;
        res.n_job_admits++;
      } else if (ph == "i" && name == "job start") {
        job_window& w = job_windows[job];
        w.has_start = true;
        w.t_start = ts;
        res.n_job_starts++;
      } else if (ph == "i" && name == "job complete") {
        job_window& w = job_windows[job];
        if (w.has_complete) {
          res.error = "duplicate 'job complete' for job " + std::to_string(job) +
                      " at traceEvents[" + std::to_string(i) + "]";
          return res;
        }
        w.has_complete = true;
        w.t_complete = ts;
        res.n_job_completes++;
      }
    } else if (ph == "i" &&
               (name == "job admit" || name == "job start" || name == "job complete")) {
      res.error = "job lifecycle instant '" + name + "' without a job annotation at traceEvents[" +
                  std::to_string(i) + "]";
      return res;
    }

    if (ph == "B") {
      stacks[key].push_back(name);
    } else if (ph == "E") {
      auto& st = stacks[key];
      if (st.empty()) {
        res.error = "unmatched E event '" + name + "' at traceEvents[" + std::to_string(i) + "]";
        return res;
      }
      if (st.back() != name) {
        res.error = "E event '" + name + "' does not match open B '" + st.back() +
                    "' at traceEvents[" + std::to_string(i) + "]";
        return res;
      }
      st.pop_back();
      res.n_spans++;
      if (name == "Write Back (async)") res.n_wb_async_spans++;
    } else if (ph == "s" || ph == "f") {
      const json_value* id_v = e.find("id");
      std::string id;
      if (id_v != nullptr && id_v->t == json_value::type::number) {
        id = std::to_string(static_cast<long long>(id_v->num));
      } else {
        id = jstr(id_v);
      }
      if (id.empty()) {
        res.error = "flow event without id at traceEvents[" + std::to_string(i) + "]";
        return res;
      }
      auto& halves = flows[id];
      if (ph == "s") {
        halves.has_s = true;
        halves.ts_s = ts;
      } else {
        halves.has_f = true;
        halves.ts_f = ts;
      }
      if (ph == "s" && name == "prefetch") res.n_prefetch_flows++;
      if (ph == "s" && name == "writeback") res.n_writeback_flows++;
      if (ph == "s" && name == "wb acquire") res.n_wb_acquire_flows++;
      if (ph == "s" && name == "steal") res.n_steal_flows++;

      // Batch-steal annotation: both halves must carry a consistent batch
      // size and deque-depth deltas that balance — the start (victim) half
      // loses exactly `batch` entries, the finish (thief) half gains exactly
      // `batch - 1` (the triggering entry runs immediately, never queued).
      const json_value* args = e.find("args");
      const json_value* batch_v = args != nullptr ? args->find("batch") : nullptr;
      if (batch_v != nullptr) {
        const long long batch = static_cast<long long>(jnum(batch_v));
        const long long before = static_cast<long long>(jnum(args->find("deque_before"), -1));
        const long long after = static_cast<long long>(jnum(args->find("deque_after"), -1));
        if (batch < 2 || before < 0 || after < 0) {
          res.error = "malformed batch annotation on flow id " + id + " at traceEvents[" +
                      std::to_string(i) + "]";
          return res;
        }
        if (ph == "s") {
          halves.batch_s = batch;
          if (before - after != batch) {
            res.error = "batch steal flow id " + id + ": victim deque delta " +
                        std::to_string(before - after) + " != batch " + std::to_string(batch);
            return res;
          }
          if (name == "steal") res.n_batch_steal_flows++;
        } else {
          halves.batch_f = batch;
          if (after - before != batch - 1) {
            res.error = "batch steal flow id " + id + ": thief deque delta " +
                        std::to_string(after - before) + " != batch - 1 (" +
                        std::to_string(batch - 1) + ")";
            return res;
          }
        }
      }
    } else if (ph == "C") {
      res.n_counters++;
    } else if (ph == "i") {
      if (name == "prefetch consume") {
        res.n_prefetch_consumes++;
      } else if (name == "prefetch evict") {
        res.n_prefetch_evicts++;
      }
    } else {
      res.error = "unknown ph '" + ph + "' at traceEvents[" + std::to_string(i) + "]";
      return res;
    }
  }

  for (const auto& kv : stacks) {
    if (!kv.second.empty()) {
      res.error = "unclosed B event '" + kv.second.back() +
                  "' on pid=" + std::to_string(kv.first.first) +
                  " tid=" + std::to_string(kv.first.second);
      return res;
    }
  }
  for (const auto& kv : flows) {
    if (!kv.second.has_s || !kv.second.has_f) {
      res.error = "flow id " + kv.first + " is missing its " +
                  (kv.second.has_s ? std::string("finish (f)") : std::string("start (s)")) +
                  " half";
      return res;
    }
    // Causality: an arrow cannot land before it was launched. For "wb
    // acquire" flows this is exactly the async-release safety property (no
    // acquire completes before the releaser's round was visible).
    if (kv.second.ts_f < kv.second.ts_s) {
      res.error = "flow id " + kv.first + " finishes before it starts";
      return res;
    }
    if (kv.second.batch_s != kv.second.batch_f) {
      res.error = "flow id " + kv.first + " has inconsistent batch annotation (start " +
                  std::to_string(kv.second.batch_s) + ", finish " +
                  std::to_string(kv.second.batch_f) + ")";
      return res;
    }
    res.n_flows++;
  }

  // Job-window nesting: lifecycle order within each job, then every
  // job-annotated event inside its job's admit -> complete window. The
  // missing-admit case is relaxed when the ring dropped events (the admit
  // may simply have been overwritten); ordering against a *present* admit
  // or complete is enforced unconditionally.
  for (const auto& kv : job_windows) {
    const job_window& w = kv.second;
    if (w.has_admit && w.has_start && w.t_start < w.t_admit) {
      res.error = "job " + std::to_string(kv.first) + " starts before it is admitted";
      return res;
    }
    if (w.has_start && w.has_complete && w.t_complete < w.t_start) {
      res.error = "job " + std::to_string(kv.first) + " completes before it starts";
      return res;
    }
  }
  for (const auto& je : job_events) {
    auto wit = job_windows.find(je.job);
    if (wit == job_windows.end() || !wit->second.has_admit) {
      if (res.dropped_events == 0) {
        res.error = "job-annotated event at traceEvents[" + std::to_string(je.idx) + "] for job " +
                    std::to_string(je.job) + " with no 'job admit'";
        return res;
      }
      continue;
    }
    const job_window& w = wit->second;
    if (je.ts < w.t_admit) {
      res.error = "job-annotated event at traceEvents[" + std::to_string(je.idx) +
                  "] precedes job " + std::to_string(je.job) + "'s admit";
      return res;
    }
    if (w.has_complete && je.ts > w.t_complete) {
      res.error = "job-annotated event at traceEvents[" + std::to_string(je.idx) +
                  "] follows job " + std::to_string(je.job) + "'s complete";
      return res;
    }
  }

  res.ok = true;
  return res;
}

}  // namespace ityr::common
