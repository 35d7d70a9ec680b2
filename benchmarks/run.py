"""shearks benchmark: one workload per invocation, run from the repository root.

    python3 benchmarks/run.py --workload suppress3d --seed 11 --seconds 10 --trace 0

With ``--trace 0`` it runs whole rounds of the workload until ``--seconds``
have passed (at least one) and prints the end-to-end metrics.  With
``--trace 1`` it runs one untraced round and one traced round and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suppress3d", "sweep2d", "ratefit")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5


def cap_threads():
    """Cap numpy/BLAS thread pools at the CPU count (before numpy loads)."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0
                              else nproc)


def environment() -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy_present": find_spec("scipy") is not None,
        "fft_backend": "+".join(m for m in ("numpy.fft", "scipy.fft", "pyfftw")
                                if m in sys.modules),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Package import, config parsing and initial states, in this fresh process."""
    start = time.perf_counter()
    import workloads

    inputs = workloads.setup(workload, ROOT, seed, HERE / "out" / workload)
    workloads.build_states(workload, inputs)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> float:
    """Median of SETUP_REPEATS set-ups, each in a new interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def play(workload, inputs, out, tracer=None):
    """One round: clean outputs, then scenarios and checks, timed."""
    import workloads

    workloads.clear(out)
    rnd = workloads.Round(tracer)
    if tracer is None:
        start = time.perf_counter_ns()
        workloads.ROUNDS[workload](inputs, rnd)
        wall_ns = time.perf_counter_ns() - start
        return rnd, wall_ns / 1e9, None

    import layers
    import spans

    missing = layers.install(tracer)
    root = tracer.begin(layers.ROOT_SPAN)
    try:
        workloads.ROUNDS[workload](inputs, rnd)
    finally:
        tracer.end(root)
        tracer.restore()
    for name in missing:
        print(f"trace: no target {name}; its layer reads 0", file=sys.stderr)
    wall_ns = tracer.spans[root][2] - tracer.spans[root][1]
    totals = spans.totals_by_name(tracer.spans)
    if sum(ns for ns, _ in totals.values()) != wall_ns:
        raise RuntimeError("span self times do not add up to the root span")
    return rnd, wall_ns / 1e9, layers.layer_metrics(totals, tracer.counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="generated-input seed (default: the shipped config's)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shearks" / "__init__.py").is_file() or \
            not (ROOT / "configs").is_dir():
        print(f"error: no shearks source tree (src/shearks, configs) under {ROOT}",
              file=sys.stderr)
        return 2
    cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.setup_probe:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0

    import spans
    import workloads

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")
    out = HERE / "out" / args.workload
    inputs = workloads.setup(args.workload, ROOT, seed, out)

    rounds = []
    if args.trace:
        rounds.append(play(args.workload, inputs, out))
        tracer = spans.Tracer()
        rounds.append(play(args.workload, inputs, out, tracer))
        layer = rounds[-1][2]
        layer["trace.wall_s"] = (rounds[-1][1], "s")
        layer["trace.overhead_s"] = (rounds[-1][1] - rounds[0][1], "s")
        (out / "trace.json").write_text(json.dumps(
            {"spans": tracer.spans, "counts": dict(tracer.counts),
             "metrics": {k: v for k, (v, _) in layer.items()}}))
        metrics = layer
    else:
        setup_s = measure_setup(args.workload, seed)
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(play(args.workload, inputs, out))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": (statistics.median(w for _, w, _ in rounds), "s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_mb, "MB")}

    ops = [op for rnd, _, _ in rounds for op in rnd.ops]
    env = environment()
    for op in rounds[-1][0].ops:
        verdict = "PASS" if op.ok else ("FAIL (known fault)" if op.expected_fault else "FAIL")
        print(f"{verdict:<18} {op.name}: {op.detail}"
              + (f" -- {op.expected_fault}" if op.expected_fault else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": all(op.ok or op.expected_fault for op in ops),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": seed, "rounds": len(rounds),
         "env": env, "ops": [vars(op) for op in rounds[-1][0].ops]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
