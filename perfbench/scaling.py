"""One-off worker-scaling measurement of the decode workload.

    python3 perfbench/scaling.py [--seeds 3]

Times one ``decode`` operation per seed at 1, 2 and 8 pool workers with
the BLAS thread count left unset, and at 2 workers with
``OPENBLAS_NUM_THREADS=1``.  Each setting runs in a fresh interpreter,
because OpenBLAS reads its thread count when numpy loads.  Prints one
line per setting; the numbers recorded for the baseline are in
baseline/SCALING.md.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETTINGS = [(1, None), (2, None), (2, "1"), (8, None)]


def child(workers: int, seed: int) -> None:
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    from workloads import Decode

    decode = Decode(os.path.join(HERE, "out"))
    decode.pool_workers = workers
    inputs = decode.setup(seed)  # builds a RunConfig with threads=workers
    t0 = time.perf_counter()
    result = decode.op(inputs, 0)
    print(time.perf_counter() - t0, result["crops"], result["accuracy_pct"])


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--child", nargs=2, type=int, metavar=("WORKERS", "SEED"))
    args = parser.parse_args()
    if args.child:
        child(*args.child)
        return
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workers, blas in SETTINGS:
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        times = []
        for seed in range(args.seeds):
            out = subprocess.run(
                [sys.executable, __file__, "--child", str(workers), str(seed)],
                env=env, check=True, capture_output=True, text=True,
            ).stdout.split()
            times.append(float(out[0]))
        print(
            f"workers {workers}  OPENBLAS_NUM_THREADS {blas or 'unset'}  "
            f"decode_s median {statistics.median(times):.2f}  "
            f"samples {' '.join(f'{t:.2f}' for t in times)}  crops {out[1]}",
            flush=True,
        )


if __name__ == "__main__":
    main()
