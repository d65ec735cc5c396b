"""Benchmark of dclinalg: one closed-loop caller over a seeded round of inputs.

    python3 bench/run.py --workload herm-spectral --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from src/.
The BLAS pool is pinned to one thread before numpy is imported.  The run
repeats whole rounds of the workload's operations until --seconds have
passed (and at least 10 rounds and 100 successful operations are done,
unless a whole round fails),
checks every output with checks.py, and prints one JSON object as its last
line of stdout.  Times are scaled to a fixed machine speed (see Speed).
With --trace 0 it reports the end-to-end metrics; with --trace 1 it wraps
the package's functions (spans.py) and reports the per-layer metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import selftest
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 5
MIN_SAMPLES = 100
MIN_ROUNDS = 10
# The reference call's time on an uncontended core of the 2-vCPU x86-64
# machine behind the README's figures; see Speed.
REF_SECONDS = 250e-6
REF_WINDOW = 9


def _fresh_import():
    """Import dclinalg anew, so that each set-up pays for the package import."""
    for name in [k for k in sys.modules if k == "dclinalg" or k.startswith("dclinalg.")]:
        del sys.modules[name]
    lib = importlib.import_module("dclinalg")
    importlib.import_module("dclinalg.cli")
    return lib


class Speed:
    """The machine's current speed, from a fixed reference call.

    On a shared machine the speed drifts by up to 1.8x over seconds as other
    tenants load the same cores; raw wall times moved 10-30% between runs of
    the same code.  A reference call (eigh of a fixed 48x48
    matrix, best of three, so that it runs with warm caches) is timed
    before each operation, outside the operation's timed region, and each
    operation's time is scaled by REF_SECONDS over the median of the last
    REF_WINDOW reference times.
    """

    def __init__(self):
        m = np.random.default_rng(0).standard_normal((48, 48))
        self.matrix = m + m.T
        self.recent = collections.deque(maxlen=REF_WINDOW)

    def sample(self):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            np.linalg.eigh(self.matrix)
            times.append(time.perf_counter() - t0)
        self.recent.append(min(times))

    def scale(self):
        return REF_SECONDS / statistics.median(self.recent)


def _quantile(sorted_values, q):
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _floor(fn, args):
    """Mean over the recorded inputs of the median of three timed calls."""
    if not args:
        return 0.0
    per_input = []
    for a in args:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn(a.standard)
            times.append(time.perf_counter() - t0)
        per_input.append(statistics.median(times))
    return sum(per_input) / len(per_input)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dclinalg" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}/dclinalg", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    speed = Speed()
    setups = []
    for _ in range(SETUP_REPEATS):
        for _ in range(REF_WINDOW):
            speed.sample()
        t0 = time.perf_counter()
        lib = _fresh_import()
        ops = workloads.build(args.workload, args.seed, lib, workdir)
        setups.append((time.perf_counter() - t0) * speed.scale())

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    first = {}          # op index -> (fingerprint, worst residual) of its first success
    samples = []        # (label, wall seconds, scaled seconds) of successful operations
    bad = []            # descriptions of outputs that failed a check
    errors = {}         # exception type -> count
    worst = 0.0
    attempted = failed = 0
    busy = 0.0          # scaled seconds of every attempted operation, failed ones too
    rounds = 0
    round_ok = True     # whether the last round had a successful operation
    bytes_seen = {"read": 0, "written": 0, "result_written": 0}
    start = time.perf_counter()
    # Past the minimum rounds and --seconds, keep going for MIN_SAMPLES only
    # while rounds still succeed, so a package that always fails ends the run.
    while (rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds
           or (len(samples) < MIN_SAMPLES and round_ok)):
        round_start = len(samples)
        if tracer:
            tracer.record_args = rounds == 0
        for idx, op in enumerate(ops):
            if op.prepare:
                op.prepare()
            if tracer:
                tracer.op = attempted
            attempted += 1
            speed.sample()
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                busy += (time.perf_counter() - t0) * speed.scale()
                failed += 1
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
                continue
            dt = time.perf_counter() - t0
            busy += dt * speed.scale()
            if op.must_repeat and out != 0:
                failed += 1
                errors[f"exit {out}"] = errors.get(f"exit {out}", 0) + 1
                continue
            samples.append((op.label, dt, dt * speed.scale()))
            if tracer and op.io:
                for key, value in op.io().items():
                    bytes_seen[key] += value
            fp = op.fingerprint(out)
            if idx in first and first[idx][0] == fp:
                continue
            if idx in first and op.must_repeat:
                bad.append(f"{op.label}: repeated job wrote different bytes")
                continue
            ok, resid, reason = op.check(out)
            if not ok:
                bad.append(f"{op.label}: {reason}")
            worst = max(worst, resid)
            first.setdefault(idx, (fp, resid))
        rounds += 1
        round_ok = len(samples) > round_start
    elapsed = time.perf_counter() - start

    if tracer:
        tracer.uninstall()
    ok_selftest, selftest_report = selftest.run(lib)
    bad.extend(selftest_report)
    for kind, count in sorted(errors.items()):
        print(f"bench: {count} of {attempted} operations failed with {kind}", file=sys.stderr)
    for line in bad[:20]:
        print(f"bench: check failed: {line}", file=sys.stderr)
    if not samples:
        print("bench: no operation succeeded", file=sys.stderr)
        return 1
    _report_wall_times(samples, speed)
    times = sorted(scaled for _, _, scaled in samples)
    if tracer:
        floors = {
            "eigh": _floor(np.linalg.eigh, tracer.args["spectral.herm_spectral"]),
            "svd": _floor(np.linalg.svd, tracer.args["svd.dc_svd"]),
            "eig": _floor(np.linalg.eig, tracer.args["eig.complex_right_eigs"]
                          + tracer.args["eig.dual_right_eigs"]),
        }
        values = tracer.metrics(attempted, bytes_seen, floors)
        values["traced.ops_per_s"] = len(times) / busy
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
        RUN_DIR.mkdir(exist_ok=True)
        tracer.write(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "ops_per_s": len(times) / busy,
            "latency_s.p50": _quantile(times, 0.5),
            "latency_s.p90": _quantile(times, 0.9),
            "accuracy_digits": -math.log10(max(worst, 1e-300)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} operations "
          f"in {elapsed:.1f} s", file=sys.stderr)
    result = {
        "correct": not bad and ok_selftest,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _report_wall_times(samples, speed):
    """Unscaled wall times, per kind of operation and overall, on stderr."""
    by_label = {}
    for label, dt, _ in samples:
        by_label.setdefault(label, []).append(dt)
    for label, dts in by_label.items():
        print(f"bench:   {label:24s} {len(dts):5d} ok  median wall {statistics.median(dts) * 1e3:9.3f} ms",
              file=sys.stderr)
    wall = sorted(dt for _, dt, _ in samples)
    print(f"bench: wall time: {len(wall) / sum(wall):.4g} ops/s, p50 {_quantile(wall, 0.5):.4g} s, "
          f"p90 {_quantile(wall, 0.9):.4g} s; reference call now "
          f"{statistics.median(speed.recent) * 1e6:.0f} us", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
