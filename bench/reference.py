"""Reference figures for the benchmark README.

    python3 bench/reference.py floors            # LAPACK floors at each n
    python3 bench/reference.py threads [--busy]
    python3 bench/reference.py overhead

floors: median time of np.linalg.eigh, svd and eig at the sizes the
workloads use, with one BLAS thread.  threads: per-process medians of a
herm_spectral n=32 loop, run in PROCS processes of THREAD_SECONDS each, one
after another, with OpenBLAS's default threading and with one thread; --busy
keeps another core loaded by a spinning process meanwhile, as a second job
would.  overhead: each workload once untraced and once traced with seed
OVERHEAD_SEED, each run as long as BENCHMARK.json's run_seconds; the traced
run's throughput (traced.ops_per_s) against the untraced ops_per_s.
"""

import os
import sys

if len(sys.argv) > 1 and sys.argv[1] != "threads":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROCS = 6
THREAD_SECONDS = 4
OVERHEAD_SEED = 101

_LOOP = """
import sys, time, statistics
sys.path.insert(0, {src!r})
from dclinalg import gen_random, herm_spectral
a = gen_random("hermitian", 32, 32, 1)
times, end = [], time.perf_counter() + {seconds}
while time.perf_counter() < end:
    t0 = time.perf_counter(); herm_spectral(a); times.append(time.perf_counter() - t0)
print(statistics.median(times))
"""


def floors():
    import numpy as np

    rng = np.random.default_rng(0)

    def cg(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    def med(fn, x, reps=15):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(x)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    for n in (32, 64, 128, 256):
        h = cg(n, n)
        print(f"eigh  n={n:<4d} {med(np.linalg.eigh, h + h.conj().T):8.3f} ms")
    for m, n in ((32, 32), (64, 48), (96, 64), (128, 96), (128, 128)):
        print(f"svd   {m}x{n:<5d} {med(np.linalg.svd, cg(m, n)):8.3f} ms")
    for n in (16, 32, 48):
        print(f"eig   n={n:<4d} {med(np.linalg.eig, cg(n, n)):8.3f} ms")


def threads(busy):
    spinner = subprocess.Popen([sys.executable, "-c", "while True: pass"]) if busy else None
    try:
        _threads()
    finally:
        if spinner:
            spinner.kill()
            spinner.wait()


def _threads():
    code = _LOOP.format(src=str(ROOT / "src"), seconds=THREAD_SECONDS)
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    for label, env in (("default threads", base), ("one thread", {**base, "OPENBLAS_NUM_THREADS": "1"})):
        meds = []
        for _ in range(PROCS):
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=THREAD_SECONDS + 60)
            meds.append(float(out.stdout) * 1e3)
        print(f"{label:16s} per-process medians {min(meds):.2f}-{max(meds):.2f} ms: "
              + " ".join(f"{m:.2f}" for m in meds))


def overhead():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in ("herm-spectral", "svd", "eig-general", "cli-roundtrip"):
        rates = []
        for trace, key in ((0, "ops_per_s"), (1, "traced.ops_per_s")):
            out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                  "--seed", str(OVERHEAD_SEED), "--seconds", str(seconds),
                                  "--trace", str(trace)],
                                 cwd=ROOT, check=True, capture_output=True, text=True,
                                 timeout=seconds + 170)
            rates.append(json.loads(out.stdout.splitlines()[-1])["metrics"][key]["value"])
        print(f"{workload:14s} untraced {rates[0]:8.2f}/s  traced {rates[1]:8.2f}/s  "
              f"overhead {rates[0] / rates[1] - 1:+.1%}")


def main():
    parser = argparse.ArgumentParser(description="reference figures for the README")
    parser.add_argument("what", choices=("floors", "threads", "overhead"))
    parser.add_argument("--busy", action="store_true")
    args = parser.parse_args()
    if args.what == "floors":
        floors()
    elif args.what == "threads":
        threads(args.busy)
    else:
        overhead()


if __name__ == "__main__":
    main()
