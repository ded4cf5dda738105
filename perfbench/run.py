"""tfcgc benchmark: four workloads, end-to-end metrics, a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decode --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs each operation once untraced and once traced on the
same input, and reports the per-layer metrics of the traced runs and the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit.  A fuller record, with the
environment, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3



def metric_units() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def import_library():
    """Import tfcgc from this checkout's ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "tfcgc")):
        sys.exit(f"benchmark: no tfcgc sources under {SRC}")
    sys.path.insert(0, SRC)
    import tfcgc

    if os.path.dirname(os.path.dirname(os.path.abspath(tfcgc.__file__))) != SRC:
        sys.exit(f"benchmark: imported tfcgc from {tfcgc.__file__}, not {SRC}")
    return tfcgc


def environment() -> dict:
    import numpy
    import scipy

    build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{build.get('name')} {build.get('version')}",
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def attempt(workload, inputs, i, tally, extras) -> tuple[float, float]:
    """One operation: returns its wall time and units of work.

    A workload whose work varies with its input reports it as ``units``;
    the others count one.  Failures are counted, not raised.
    """
    t0 = time.perf_counter()
    try:
        result = workload.op(inputs, i)
        elapsed = time.perf_counter() - t0
        problems = workload.check(inputs, result)
    except Exception:
        elapsed = time.perf_counter() - t0
        result = {}
        problems = ["op raised: " + traceback.format_exc(limit=3).strip()]
    tally.record(problems)
    for key, value in result.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            extras.setdefault(key, []).append(float(value))
    return elapsed, result.get("units", 1)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scratch: str, import_s: float
):
    import layers
    import stats
    from workloads import WORKLOADS

    workload = WORKLOADS[name](scratch)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)

    tally = stats.Tally()
    extras: dict[str, list[float]] = {}
    runs: list[tuple[float, float]] = []
    record: dict = {"import_s": import_s, "setup_s_samples": setup_times}
    start = time.perf_counter()
    if not trace:
        while not runs or time.perf_counter() - start < seconds:
            runs.append(attempt(workload, inputs, len(runs), tally, extras))
    else:
        spool = tempfile.mkdtemp(prefix="spool-", dir=scratch)
        totals = layers.Totals()
        untraced, traced = [], []
        # the same input each time, so per-operation counts repeat exactly
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(attempt(workload, inputs, 0, tally, extras))
            recorder, patcher = layers.install(spool)
            try:
                traced.append(attempt(workload, inputs, 0, tally, extras))
            finally:
                patcher.restore()
            totals.add(recorder.collect())
        runs = traced
        record["per_layer"] = layers.per_layer(
            totals,
            len(traced),
            sum(wall for wall, _ in traced),
            sum(wall for wall, _ in untraced),
            getattr(workload, "pool_workers", 1),
        )
        record["untraced_op_s_samples"] = [wall / units for wall, units in untraced]
    op_times = [wall / units for wall, units in runs]
    record.update(
        {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "op": workload.op_label,
            "op_s": stats.describe(op_times),
            "op_s_samples": op_times,
            "extras": {k: stats.describe(v) for k, v in extras.items()},
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failure_ratio": tally.failure_ratio,
            "failures": tally.reasons,
        }
    )
    end_to_end = {
        "op_s": statistics.median(op_times),
        # the import is paid once per process; the input build is repeated
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "success_pct": tally.success_pct,
    }
    record["end_to_end"] = end_to_end
    return record


def summary_lines(record: dict, units: dict) -> list[str]:
    """Human-readable metrics, each with its name and unit."""
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  "
        f"trace {record['trace']}  ops {record['op_s']['n']}"
    ]
    op = record["op_s"]
    tail = (
        f"p{op['tail_percentile']:g} {op['tail_value']:.4f} s"
        if "tail_percentile" in op
        else "no tail percentile (fewer than 10 samples beyond p75)"
    )
    lines.append(
        f"  {'op_s':28s} {op['median']:.4f} s   ({record['op']}; "
        f"median of {op['n']}, {tail})"
    )
    for key, value in record["end_to_end"].items():
        if key != "op_s":
            lines.append(f"  {key:28s} {value:.4f} {units['end_to_end'][key]}")
    lines.append(f"  {'failure_ratio':28s} {record['failure_ratio']:.4f} ratio")
    for key, desc in record["extras"].items():
        lines.append(f"  {key:28s} {desc['median']:.4f}   (median of {desc['n']})")
    for key, value in record.get("per_layer", {}).items():
        lines.append(f"  {key:40s} {value:.6g} {units['per_layer'][key]}")
    for reason in record["failures"]:
        lines.append(f"  FAILED: {reason}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import_library()
    import_s = time.perf_counter() - t0
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)} or all")

    units = metric_units()
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    env = environment()
    try:
        records = [
            run_workload(n, args.seed, args.seconds, bool(args.trace), scratch, import_s)
            for n in names
        ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for record in records:
        record["environment"] = env
        path = os.path.join(
            OUT, f"{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        )
        with open(path, "w", encoding="ascii") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        print("\n".join(summary_lines(record, units)))

    kind = "per_layer" if args.trace else "end_to_end"

    def metrics_of(record):
        return {k: {"value": record[kind][k], "unit": u} for k, u in units[kind].items()}

    if len(records) == 1:
        metrics = metrics_of(records[0])
    else:
        metrics = {
            f"{r['workload']}.{k}": v for r in records for k, v in metrics_of(r).items()
        }
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
