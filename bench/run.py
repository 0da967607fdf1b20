"""graphtv benchmark: staged CLI pipeline, end-to-end metrics and a per-module trace.

Run from the root of a checkout:

    python3 bench/run.py --workload moons-solve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end metrics
listed in ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
rounds and reports the per-module metrics, the tracing overhead, and a
check that both kinds of round wrote byte-identical outputs.  ``--workload
all`` runs every workload, each in its own process, and prints one table.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every correctness and determinism check passed.

The benchmark imports the package from ``src/`` of the checkout it runs in
and writes only under ``.bench_work/`` there.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("knn-build", "moons-solve", "sbm-grid")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def tree_digest(root, dirs):
    """Hash of every file under ``dirs``: keys the cross-run output digests."""
    h = hashlib.sha256()
    for d in dirs:
        for base, subdirs, files in os.walk(os.path.join(root, d)):
            subdirs[:] = sorted(s for s in subdirs if s != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def load_store(path):
    """Output digests of earlier runs, keyed by code, workload and seed."""
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def save_store(path, store):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def measure(seconds, one_round):
    """Closed loop of rounds until the next would overrun ``seconds``."""
    start = time.perf_counter()
    walls = []
    while True:
        t0 = time.perf_counter()
        walls.append(one_round())
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return walls


def play_round(wl, runner, ctx):
    """One round of the workload; returns its timed wall."""
    runner.begin_round()
    wl.round(runner, ctx)
    return runner.end_round()


def run_untraced(wl, args, work, runner):
    from harness import failure_share, summarize

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = wl.setup(work, args.seed)
        setups.append(time.perf_counter() - t0)
    wl.warmup(runner, ctx)
    walls = measure(args.seconds, lambda: play_round(wl, runner, ctx))
    # per round, the mean over the stressed stage's calls: the rounds repeat
    # one fixed list, while single calls differ by partition or metric
    stage = []
    for timed in runner.rounds:
        calls = [t for kind in wl.stage_kinds for t in timed.get(kind, [])]
        if calls:
            stage.append(statistics.fmean(calls) / wl.stage_cells)
    quality = wl.quality(ctx) or (0.0, 0.0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = {
        "setup_s": (summarize(setups), "s"),
        "wall_s": (summarize(walls), "s"),
        "stage_s": (summarize(stage), "s"),
    }
    for kind in ("build_euclidean", "build_cosine", "solve"):
        if runner.samples(kind):
            rows[f"{kind}_s"] = (summarize(runner.samples(kind)), "s")
    if wl.stage_cells > 1:
        rates = [wl.stage_cells / t for t in runner.samples("experiment")]
        rows["cells_per_s"] = (summarize(rates), "1/s")
    failed_frac = failure_share(runner.failed, runner.attempted)
    scalars = {
        "accuracy": (quality[0], "frac"),
        "auc": (quality[1], "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
        "failed_frac": (failed_frac, "frac"),
        "ok_frac": (1.0 - failed_frac, "frac"),
    }
    return rows, scalars


def run_traced(wl, args, work, runner, trace_path):
    import layers
    from harness import NullTracer, Tracer
    from workloads import OBSERVERS, WRAP_TARGETS, operator_norm_probe

    ctx = wl.setup(work, args.seed)
    wl.warmup(runner, ctx)
    tracer = Tracer()
    plain, traced, per_round = [], [], []

    def pair():
        plain.append(play_round(wl, runner, ctx))
        tracer.run = f"traced-{len(traced)}"
        first = len(tracer.spans)
        with tracer:
            tracer.wrap(WRAP_TARGETS, OBSERVERS)
            runner.tracer = tracer
            try:
                traced.append(play_round(wl, runner, ctx))
            finally:
                runner.tracer = NullTracer()
        metrics = layers.layer_metrics(tracer.spans[first:], tracer.absent)
        metrics["evaluation.baseline_accuracy"] = (
            statistics.fmean(ctx["baseline_accuracy"])
            if ctx.get("baseline_accuracy") else 0.0
        )
        per_round.append(metrics)
        return plain[-1] + traced[-1]

    measure(args.seconds, pair)
    values = layers.median_metrics(per_round)
    tracer.run = "probe"
    first = len(tracer.spans)
    if ctx.get("graph") is not None:
        operator_norm_probe(tracer, ctx["graph"])
    probe = layers.layer_metrics(tracer.spans[first:])
    values["operators.operator_norm_s"] = probe["operators.operator_norm_s"]
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    with open(trace_path, "w") as fh:
        json.dump({"absent": tracer.absent,
                   "spans": [s.to_dict() for s in tracer.spans]}, fh)
    return values


def environment_stamp(nproc):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
    }


def run_all(args):
    """Every workload in its own process, so peak RSS is per workload."""
    worst = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        try:
            summary[name] = json.loads(lines[-1])
        except ValueError:
            summary[name] = None
    print(json.dumps(summary))
    return worst


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "graphtv", "__init__.py")):
        print("error: src/graphtv not found; run from the root of a graphtv checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args)

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:  # must precede the first numpy import
        os.environ[var] = str(nproc)
    sys.path.insert(0, src)
    import graphtv
    from harness import NullTracer
    from workloads import WORKLOADS, Runner

    if os.path.dirname(os.path.abspath(graphtv.__file__)) != os.path.join(src, "graphtv"):
        print(f"error: imported graphtv from {graphtv.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = os.path.join(root, ".bench_work", wl.name)
    os.makedirs(work, exist_ok=True)
    stamp = environment_stamp(nproc)
    store_path = os.path.join(root, ".bench_work", "digests.json")
    store = load_store(store_path)
    code = tree_digest(root, ("src", os.path.relpath(BENCH_DIR, root)))
    key = f"{code}:{wl.name}:{args.seed}"
    runner = Runner(NullTracer(), earlier=store.get(key))
    print(f"# graphtv benchmark workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))

    if args.trace:
        trace_path = os.path.join(work, f"trace-seed{args.seed}.json")
        values = run_traced(wl, args, work, runner, trace_path)
        wanted = spec["per_layer"]
        absent = sorted(name for name, v in values.items() if v is None)
        for m in wanted:
            v = values.get(m["name"])
            shown = "absent" if v is None else f"{v:.6g}"
            print(f"{m['name']:36s} {shown:>14s} {m['unit']}")
        print(f"# spans written to {os.path.relpath(trace_path, root)}")
        if absent:
            print("# absent: " + ", ".join(absent))
    else:
        rows, scalars = run_untraced(wl, args, work, runner)
        wanted = spec["end_to_end"]
        for name, (s, unit) in rows.items():
            if s["n"]:
                print(f"{name:17s} median {s['median']:.6g} {unit}  "
                      f"max {s['max']:.6g} {unit}  n={s['n']}")
        for name, (v, unit) in scalars.items():
            print(f"{name:17s} {v:.6g} {unit}")
        print(f"{'attempted':17s} {runner.attempted}  failed {runner.failed}")
        values = {name: s["median"] for name, (s, _) in rows.items()}
        values.update((name, v) for name, (v, _) in scalars.items())

    store[key] = {**runner.digests, **store.get(key, {})}
    save_store(store_path, store)
    for problem in runner.problems:
        print(f"# FAILED CHECK {problem}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"error: the benchmark does not compute {m['name']}", file=sys.stderr)
            return 2
        v = values[m["name"]]
        metrics[m["name"]] = {"value": 0.0 if v is None else v, "unit": m["unit"]}
    correct = not runner.problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
