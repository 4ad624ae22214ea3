#!/usr/bin/env python3
"""End-to-end benchmark of dlearn: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a dlearn source tree. It builds the program and the
measuring executable (perfbench/bench.ml) with dune in release mode, runs
the workload, checks its outputs and prints, as the last line of standard
output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured with tracing off; with --trace 1 they are the per-layer ones,
taken from a traced run (self times from the Chrome trace, counters from
the Obs registry). See perfbench/README.md.
"""

import argparse
import hashlib
import heapq
import json
import os
import signal
import subprocess
import sys
from collections import defaultdict
from statistics import fmean, median

WORKLOADS = ("learn-imdb3", "serve-walmart", "topk-scale")
WORK = os.path.join("perfbench", ".work")
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
DLEARN_EXE = os.path.join("_build", "default", "bin", "dlearn_cli.exe")
# The sources the benchmark builds from; a directory without them is not
# a dlearn tree.
REQUIRED = ("dune-project", "lib", "bin/dlearn_cli.ml", "perfbench/bench.ml")
# A run must end within 180 s once the program is built; a first build in
# a fresh checkout may take longer and does not count against the workload.
RUN_LIMIT_S = 170.0
# Self times must sum to the traced wall time within this share.
CLOSURE_TOLERANCE = 0.05
# Layer of a span, by name prefix (first match wins). The benchmark's own
# spans are named bench.<layer>.<call>.
LAYER_PREFIXES = (
    ("learn.normalize", "logic"),
    ("learn.sim_search", "similarity"),
    ("subsumption.", "logic"),
    ("normalize.", "logic"),
    ("sim_index.", "similarity"),
    ("coverage.", "core"),
    ("learn", "core"),
    ("cv.", "eval"),
    ("pool.", "parallel"),
    ("serve.", "serve"),
)
LAYERS = ("relation", "similarity", "logic", "core", "parallel", "serve", "eval")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def clean_env():
    # DLEARN_* knobs change the program's configuration; runs use defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DLEARN_")}
    env["DUNE_CACHE"] = "disabled"
    return env


def build(env):
    for path in REQUIRED:
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a dlearn source tree")
    cmd = ["dune", "build", "--profile", "release", "--root", ".",
           "./perfbench/bench.exe", "./bin/dlearn_cli.exe"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    except FileNotFoundError:
        fail("dune not found on PATH")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("build failed", 1)


def run_bench(args, env):
    os.makedirs(WORK, exist_ok=True)
    cmd = [BENCH_EXE, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work", WORK,
           "--dlearn", DLEARN_EXE]
    trace_file = None
    if args.trace:
        trace_file = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
        cmd += ["--trace", trace_file]
    # A session of its own, so a timeout stops the server it started too.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload did not finish in time", 1)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        fail(f"bench.exe exited with {proc.returncode}", 1)
    return json.loads(out.strip().splitlines()[-1]), trace_file


# ---------------------------------------------------------------------------
# Trace analysis.

def layer_of(name):
    if name.startswith("bench."):
        return name.split(".")[1]
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "other"


def self_times(events):
    """Self time of every complete event, in seconds: each instant of a
    thread's timeline goes to the innermost span open then (the latest
    started; the shorter on a tie). For properly nested spans this is a
    span's duration minus what its children cover. Spans of requests that
    overlap on one domain (two connections of the server) are not nested;
    there each instant still goes to exactly one span, so self times
    never count an instant twice."""
    out = [0.0] * len(events)
    by_tid = defaultdict(list)
    for i, e in enumerate(events):
        by_tid[e["tid"]].append(i)
    for idxs in by_tid.values():
        points = []
        for i in idxs:
            e = events[i]
            points.append((e["ts"], 1, i))
            points.append((e["ts"] + e["dur"], 0, i))
        points.sort()
        open_heap, ended, prev = [], set(), None
        for t, kind, i in points:
            while open_heap and open_heap[0][2] in ended:
                heapq.heappop(open_heap)
            if open_heap and prev is not None:
                out[open_heap[0][2]] += t - prev
            prev = t
            if kind == 1:
                e = events[i]
                heapq.heappush(open_heap, (-e["ts"], e["dur"], i))
            else:
                ended.add(i)
    return [s / 1e6 for s in out]


def load_trace(path):
    with open(path) as f:
        doc = json.load(f)
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


def counter_values(counters_json):
    if not isinstance(counters_json, dict):
        return {}
    return {c["name"]: c["value"] for c in counters_json.get("counters", [])}


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(res, trace_file, workload):
    tr = res["trace"]
    events = load_trace(trace_file)
    selfs = self_times(events)
    by_name_self = defaultdict(float)
    by_name_count = defaultdict(int)
    by_layer = defaultdict(float)
    for e, s in zip(events, selfs):
        by_name_self[e["name"]] += s
        by_name_count[e["name"]] += 1
        by_layer[layer_of(e["name"])] += s
    total_self = sum(selfs)
    c = counter_values(tr["counters"])

    def durs(name):
        # Durations in ms of the spans named [name] that did not fail.
        return [e["dur"] / 1e3 for e in events
                if e["name"] == name and "exception" not in e.get("args", {})]

    m = {}
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (by_layer[layer], "s")
    m["subsumption.sat_self_s"] = (by_name_self["subsumption.sat"], "s")
    m["subsumption.sat_calls"] = (by_name_count["subsumption.sat"], "count")
    m["subsumption.solves"] = (c.get("subsumption.solves", 0), "count")
    m["coverage.resolve_self_s"] = (by_name_self["coverage.resolve"], "s")
    m["coverage.tested"] = (c.get("coverage.tested", 0), "count")
    hits = c.get("coverage.cache_hits", 0)
    m["coverage.cache_hit_ratio"] = (ratio(hits, hits + c.get("coverage.tested", 0)), "ratio")
    m["armg.self_s"] = (by_name_self["learn.armg"], "s")
    m["armg.computed"] = (c.get("armg.computed", 0), "count")
    m["normalize.self_s"] = (sum(v for k, v in by_name_self.items()
                                 if k.startswith("normalize.") or k == "learn.normalize"), "s")
    m["normalize.rename_fallbacks"] = (c.get("normalize.rename_fallbacks", 0), "count")
    m["bottom_clause.self_s"] = (by_name_self["learn.bottom_clause"], "s")
    m["sim_search.self_s"] = (by_name_self["learn.sim_search"], "s")
    m["delta.invalidated_per_commit"] = (
        ratio(c.get("delta.invalidated_examples", 0), c.get("delta.commits", 0)), "count")
    # Server-side latencies from the serve.<op> spans; the first learn is
    # the prime learn of set-up.
    learns = durs("serve.learn")[1:]
    m["serve.learn_server_s"] = (median(learns) / 1e3 if learns else 0.0, "s")
    cov = durs("serve.coverage")
    m["serve.coverage_server_ms"] = (median(cov) if cov else 0.0, "ms")
    writes = durs("serve.update") + durs("serve.insert")
    m["serve.write_server_ms"] = (median(writes) if writes else 0.0, "ms")
    # Client p50 minus server p50 for reads: framing, lock wait, switches.
    reads = cov + durs("serve.query")
    client_reads = res.get("coverage_ms", []) + res.get("query_ms", [])
    m["serve.read_wait_ms"] = (
        median(client_reads) - median(reads) if reads and client_reads else 0.0, "ms")
    for name in ("coverage", "query", "write", "title_write"):
        xs = res.get(f"{name}_ms", [])
        m[f"serve.{name}_client_p50_ms"] = (median(xs) if xs else 0.0, "ms")
    measured = c.get("sim_index.measured", 0)
    m["sim_index.measured"] = (measured, "count")
    m["sim_index.measured_per_query"] = (ratio(measured, res.get("queries", 0)), "count")
    m["sim_index.length_pruned_ratio"] = (
        ratio(c.get("sim_index.length_pruned", 0), c.get("sim_index.candidates", 0)), "ratio")
    m["sim_index.hits_per_measured"] = (ratio(res.get("hits", 0), measured), "ratio")
    m["sim_index.build_s"] = (
        sum(e["dur"] for e in events if e["name"] == "sim_index.build") / 1e6, "s")
    m["storage.scan_rows_per_s"] = (ratio(res.get("scan_rows", 0), res.get("scan_s", 0)), "rows/s")
    m["storage.load_s"] = (res.get("load_s", 0.0), "s")
    # Closure: self times against the wall they should account for. On
    # serve-walmart that is the time some request was outstanding at the
    # client (the server idles between requests).
    wall = res["client_busy_s"] if workload == "serve-walmart" else tr["traced_wall_s"]
    closure = ratio(total_self, wall)
    m["trace.closure_ratio"] = (closure, "ratio")
    m["trace.overhead_ratio"] = (ratio(tr["traced_wall_s"], tr["untraced_wall_s"]), "ratio")
    problems = []
    if abs(1.0 - closure) > CLOSURE_TOLERANCE:
        problems.append(f"self times sum to {total_self:.3f}s against a traced wall of "
                        f"{wall:.3f}s (tolerance {CLOSURE_TOLERANCE:.0%})")
    if tr["traced_digest"] != tr["untraced_digest"]:
        problems.append("the traced run learned a different definition than the untraced one")
    return m, problems, by_layer, total_self, wall


# ---------------------------------------------------------------------------
# Provenance.

def git_rev():
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench", "dune-project", "dune"):
        paths = []
        if os.path.isfile(top):
            paths = [top]
        else:
            for root, dirs, files in os.walk(top):
                dirs[:] = sorted(d for d in dirs if not d.startswith("."))
                paths += [os.path.join(root, f) for f in sorted(files)]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(args, res):
    config = json.dumps({"workload": args.workload, "seconds": args.seconds,
                         "config": res["config"]}, sort_keys=True)
    return {
        "cores": os.cpu_count(),
        "ocaml": res.get("ocaml"),
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "seed": args.seed,
        "config_digest": hashlib.sha256(config.encode()).hexdigest()[:16],
    }


# ---------------------------------------------------------------------------

def slow_op(workload, samples):
    # The warm serve learn has two modes (about 0.15 and 0.22 s, in no
    # order a round controls): a median of a run's few learns jumps between
    # them, their mean moves with the share of each. Elsewhere the median.
    return fmean(samples) if workload == "serve-walmart" else median(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        fail("BENCHMARK.json not found: run from the root of a dlearn source tree")
    env = clean_env()
    build(env)
    res, trace_file = run_bench(args, env)

    problems = list(res.get("checks_failed", []))
    if args.trace:
        metrics, more, by_layer, total_self, wall = per_layer(res, trace_file, args.workload)
        os.remove(trace_file)
        problems += more
        split = ", ".join(f"{k} {v:.3f}s" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1]))
        print(f"self time by layer: {split} (sum {total_self:.3f}s, traced wall {wall:.3f}s)")
    else:
        metrics = {
            "setup_s": (median(res["setup_s"]), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "slow_op_s": (slow_op(args.workload, res["slow_op_s"]), "s"),
            "fast_op_mean_ms": (fmean(res["fast_op_ms"]), "ms"),
        }

    declared = {(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]}
    emitted = {(k, u) for k, (_, u) in metrics.items()}
    if declared != emitted:
        fail(f"metrics differ from BENCHMARK.json: {sorted(declared ^ emitted)}", 1)
    print("provenance: " + json.dumps(provenance(args, res), sort_keys=True))
    print(f"inputs: {res.get('sizes')}")
    print(f"samples: setup {len(res['setup_s'])}, slow op {len(res['slow_op_s'])}, "
          f"fast op {len(res['fast_op_ms'])}")
    if "f1" in res:
        print(f"held-out f1: {res['f1']:.4f}")
    print("definition digests: " + " ".join(res.get("digests", [])))
    if res.get("rescore_errors"):
        print("failed re-scores: " + " | ".join(res["rescore_errors"]))
    for p in problems:
        print(f"check failed: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
