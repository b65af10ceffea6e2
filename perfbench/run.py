#!/usr/bin/env python3
"""Repository benchmark: cilksort, UTS-Mem and open-loop serving.

Builds the perfbench binary from the sources in this checkout, runs one
workload in its own process and prints one JSON result line:

    python3 perfbench/run.py --workload cilksort --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Metric definitions, units and clocks are in perfbench/NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("cilksort", "uts_mem", "serve")
RUN_TIMEOUT_S = 170

# Values read from the host clock: they differ between repeated
# deterministic passes, everything else must not.
HOST_KEYS = ("setup_s", "sim.host_ns_per_resume")

# Spans the benchmark records around its calls into each layer.
SPANS = ("runtime_ctor", "coll_new", "input_gen", "barrier", "root_exec", "serve", "validate",
         "coll_delete")


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "itoyori", "itoyori.hpp")):
        die("itoyori sources not found next to perfbench/ (run from a full checkout)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                           env=env)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            die("build failed: " + " ".join(cmd))


def run_workload(args):
    cmd = [BINARY, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload timed out after %d s" % RUN_TIMEOUT_S)
    if r.returncode != 0:
        die("workload exited with code %d" % r.returncode)
    lines = r.stdout.strip().splitlines()
    if not lines:
        die("workload printed nothing")
    return json.loads(lines[-1])


def same_pass(a, b):
    """A deterministic repeat `b` of pass `a` (one seed variant) agrees bit for bit,
    host readings aside. A brief repeat times fewer repetitions: compare that prefix."""
    if a["virtual_s"][:len(b["virtual_s"])] != b["virtual_s"] or a["latency_s"] != b["latency_s"]:
        return False
    return all(b["values"].get(k) == v for k, v in a["values"].items() if k not in HOST_KEYS)


def host_rel(p):
    """Host seconds of a deterministic pass's timed region per host second of
    the reference kernel run next to it (mean over the pass)."""
    return statistics.fmean(p["host_s"]) / statistics.fmean(p["ref_s"])


def end_to_end(out):
    det = [p for p in out["passes"] if p["kind"] == "det"]
    variants, rel, ok = {}, {}, True
    for p in det:
        if p["variant"] in variants:
            ok = ok and same_pass(variants[p["variant"]], p)
        else:
            variants[p["variant"]] = p
        rel.setdefault(p["variant"], []).append(host_rel(p))
    variants = list(variants.values())
    det_v = statistics.median([x for p in variants for x in p["virtual_s"]])
    m = {
        "det_virtual_s": det_v,
        # Each variant's mean over its passes, then the median over variants,
        # like det_virtual_s: the variants differ in work.
        "host_rel": statistics.median([statistics.fmean(r) for r in rel.values()]),
        "setup_s": statistics.median([p["values"]["setup_s"] for p in det]),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    if out["workload"] == "serve":
        # Latency: the median over the variants' streams. One stream in a few
        # stalls long enough to set the tail of a pooled sample on its own.
        for name, key in (("job_p50_s", "jobs.p50_s"), ("job_p99_s", "jobs.p99_s")):
            m[name] = statistics.median([p["values"][key] for p in variants])
        # Capacity: completed overload jobs over their summed spans.
        m["jobs_per_s"] = (sum(p["values"]["jobs.overload_done"] for p in variants)
                           / sum(p["values"]["jobs.overload_span_s"] for p in variants))
        ok = ok and all(p["values"]["jobs.early_admissions"] == 0 for p in variants)
    else:
        # One run of the timed region is one job, due when the region opens.
        m["jobs_per_s"] = 1.0 / det_v
        m["job_p50_s"] = det_v
        m["job_p99_s"] = det_v
    return m, ok


def per_layer(out):
    passes = {p["kind"]: p for p in out["passes"]}
    det, traced = passes["det"], passes["traced"]
    t = traced["values"]
    m = {k: v for k, v in t.items() if not k.startswith(("span.", "jobs.")) and k not in HOST_KEYS}
    m["sim.host_ns_per_resume"] = det["values"]["sim.host_ns_per_resume"]
    m["host_s"] = det["host_s"][0]
    m["host.ref_s"] = statistics.fmean(det["ref_s"])
    # The paper's clock. serve has no measured clock yet (NOTES.md "Known defect").
    measured = passes.get("measured")
    m["virtual_s"] = statistics.median(measured["virtual_s"]) if measured else det["virtual_s"][0]
    m.update(out["probes"])
    for name in SPANS:
        for clock in ("host_s", "virtual_s"):
            if name == "runtime_ctor" and clock == "virtual_s":
                continue  # before the simulated cluster exists
            m["span.%s.%s" % (name, clock)] = t.get("span.%s.%s" % (name, clock), 0.0)
    for k in ("gen_lag_p99_s", "queue_p50_s", "exec_p50_s", "admit_p99_s", "samples"):
        m["jobs." + k] = t.get("jobs." + k, 0.0)
    # The application kernels' self time exists only in the measured clock.
    profiled = passes.get("profiled")
    m["apps.kernel_self_s"] = profiled["values"]["apps.kernel_self_s"] if profiled else 0.0
    m["apps.serial_s"] = out["serial_s"]
    m["trace.host_overhead"] = traced["host_s"][0] / det["host_s"][0]
    m["trace.det_virtual_delta_s"] = traced["virtual_s"][0] - det["virtual_s"][0]
    attempted = sum(p["attempted"] for p in out["passes"])
    failed = sum(p["failed"] for p in out["passes"])
    m["check.failed_frac"] = failed / attempted
    buckets = sum(m["critpath.%s_s" % b] for b in
                  ("compute", "fetch_stall", "release_stall", "steal_wait", "acquire_fence"))
    ok = (m["trace.det_virtual_delta_s"] == 0
          and abs(buckets - m["critpath.span_s"]) <= 1e-9 * max(1.0, m["critpath.span_s"])
          and t.get("jobs.early_admissions", 0) == 0)
    return m, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    out = run_workload(args)

    metrics, ok = (per_layer if args.trace else end_to_end)(out)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        die("metrics not produced: " + ", ".join(missing))
    attempted = sum(p["attempted"] for p in out["passes"])
    failed = sum(p["failed"] for p in out["passes"])
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
