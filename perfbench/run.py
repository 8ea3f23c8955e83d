#!/usr/bin/env python3
"""The sdah benchmark: one workload, one closed loop, one JSON result line.

    python3 perfbench/run.py --workload train_micro|train_224|eval_infer \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  With
--trace 0 the last line carries the end-to-end metrics, their timings scaled
to the reference host speed by the probe of hostprobe.py; with --trace 1 it
carries the per-layer metrics of a traced run, which first repeats part of
the workload untraced to measure the tracing overhead and to check that the
traced arithmetic is bit-identical.  Lines before the last one are a
readable summary and a JSON report with every metric, the gate results and
the environment.  See perfbench/README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()
# one BLAS thread, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
UNTRACED_SHARE = 0.4    # traced runs: share of the budget run untraced first
COVERAGE_MIN = 0.9      # top-level spans must cover this share of their wall
# A run whose host probe shows a speed outside SPEED_RANGE of the reference
# is marked "unresolved" in the report: so far from the reference speed the
# scaling by the probe may leave part of the drift in.
SPEED_RANGE = (2 / 3, 3 / 2)

E2E_UNITS = {"setup_s": "s", "op_ms.p50": "ms", "op_ms.tail": "ms",
             "throughput_per_s": "1/s", "peak_rss_mb": "MiB"}
TRACE_METRICS = ("trace.overhead_ms", "trace.overhead_share", "trace.coverage",
                 "trace.spans")
_RATIOS = ("inference.tiles_per_call", "inference.overlap",
           "trace.overhead_share", "trace.coverage")


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("_per_s"):
        return "1/s"
    if ".bytes_" in name:
        return "B"
    return "ratio" if name in _RATIOS else "count"


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy: record what is known
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def timed_setup(W, w, seed, work) -> tuple[dict, float, float]:
    """Median of SETUP_REPEATS set-ups, each followed by a host probe;
    returns the last one's state, the median set-up and the median probe."""
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        env = W.setup(w, seed, work)
        times.append(time.perf_counter() - t0)
        probes.append(W.PROBE())
    return env, statistics.median(times), statistics.median(probes)


def host_verdict(host: dict) -> str:
    steady = SPEED_RANGE[0] <= host["speed"] <= SPEED_RANGE[1]
    return "steady" if steady else "unresolved"


def run_untraced(W, w, env, seed, seconds, work) -> tuple[dict, dict, int, int, list]:
    if w.kind == "train":
        run = W.run_train(w, env, seed, work / "train", seconds=seconds)
        res = W.train_results(w, run)
        e2e = {"op_ms.p50": res["step_ms.p50"], "op_ms.tail": res["step_ms.tail"],
               "throughput_per_s": res["samples_per_s"]}
        return e2e, res, run.steps, run.failed, run.problems
    run = W.run_eval(w, env, work, seconds)
    res = W.eval_results(run)
    e2e = {"op_ms.p50": res["infer_ms.p50"], "op_ms.tail": res["infer_ms.tail"],
           "throughput_per_s": res["eval_images_per_s"]}
    return e2e, res, run.attempted, run.failed, run.problems


def run_traced(W, T, w, env, seed, seconds, work) -> tuple[dict, dict, int, int, list]:
    from collections import Counter

    sums = Counter()
    n_spans = 0

    def fold():
        nonlocal n_spans
        spans = tracer.drain()
        n_spans += len(spans)
        sums.update(T.layer_sums(spans))

    tracer = T.Tracer()
    if w.kind == "train":
        before = W.run_train(w, env, seed, work / "untraced", seconds=UNTRACED_SHARE * seconds)
        with tracer:
            fresh = W.network.build_model(W.model_config(w, seed))
            tracer.drain()
            run = W.run_train(w, env, seed, work / "traced", chunks=len(before.rows),
                              model=fresh, on_chunk=fold)
        problems = before.problems + run.problems
        failed = before.failed + run.failed
        if run.rows != before.rows:
            failed += 1
            problems.append("traced losses differ from the untraced run")
        units, attempted = run.steps, before.steps + run.steps
        op_before, op_after = before.step_ref, run.step_ref
        res = {"untraced": W.train_results(w, before), "traced": W.train_results(w, run)}
    else:
        before = W.run_eval(w, env, work / "untraced", UNTRACED_SHARE * seconds)
        with tracer:
            run = W.run_eval(w, env, work / "traced", (1 - UNTRACED_SHARE) * seconds,
                             span=tracer.span, on_round=fold)
        problems = before.problems + run.problems
        failed = before.failed + run.failed
        if len(run.eval_masks) != len(before.eval_masks) or not all(
                (a == b).all() for a, b in zip(run.eval_masks, before.eval_masks)):
            failed += 1
            problems.append("traced eval predictions differ from the untraced run")
        units = run.images + len(run.infer_s) + len(run.explain_s)
        attempted = before.attempted + run.attempted
        op_before, op_after = before.infer_ref, run.infer_ref
        res = {"untraced": W.eval_results(before), "traced": W.eval_results(run)}
    layers = T.layer_metrics(sums, units)
    cov = T.coverage(sums)
    base = W.p50(op_before) * 1000.0
    over = W.p50(op_after) * 1000.0 - base
    layers.update(zip(TRACE_METRICS, (over, over / base, cov, n_spans / max(units, 1))))
    if cov < COVERAGE_MIN:
        failed += 1
        problems.append(f"top-level spans cover {cov:.3f} of their wall, < {COVERAGE_MIN}")
    res.update(units=units, absent=tracer.absent,
               absent_metrics=[m for m in layers if m.split(".")[0] in
                               {a.split(".")[0] for a in tracer.absent}])
    return layers, res, attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sdah" / "__init__.py").is_file():
        print(f"error: no sdah package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import tracing as T
    import workloads as W
    from hostprobe import at_reference

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 1
    import_s = time.perf_counter() - T_START
    w = W.WORKLOADS[args.workload]
    work = WORK / f"{w.name}-{os.getpid()}"
    try:
        env, setup_s, setup_probe_s = timed_setup(W, w, args.seed, work)
        if args.trace:
            metrics, res, attempted, failed, problems = run_traced(
                W, T, w, env, args.seed, args.seconds, work)
        else:
            metrics, res, attempted, failed, problems = run_untraced(
                W, w, env, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics.update(setup_s=at_reference(import_s + setup_s, setup_probe_s),
                       peak_rss_mb=peak)
        units = E2E_UNITS
    report = {
        "environment": environment(args),
        "setup": {"import_s": import_s, "setup_median_s": setup_s,
                  "repeats": SETUP_REPEATS, "probe_ms.p50": setup_probe_s * 1000.0},
        "results": res,
        "host": host_verdict(res["host"] if "host" in res else res["untraced"]["host"]),
        "peak_rss_mb": peak,
        "attempted": attempted, "failed": failed,
        "failed_share": failed / max(attempted, 1),
        "problems": problems,
    }
    for k, v in metrics.items():
        print(f"{k:34s} {v:14.4f} {units[k]}")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
