"""Benchmark of the cmtheta package: five seeded workloads, end to end and per layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload {verify,theta-table,artin,towers,modularity} \\
        --seed N --seconds T --trace {0,1}

BENCHMARK.json lists all but verify, which runs by hand only:
`cmtheta verify` fails its multiplier-cross-validation check at some seeds
(perfbench/METRICS.md), and a benchmark workload must not fail.

The package is imported from the checkout's src/ directory.  Load is a closed
loop in this one single-threaded process: every public call starts after the
previous one returns.  A run builds the workload's inputs from --seed, does one
warm-up pass, then repeats the pass for about --seconds seconds, checking the
outputs of every pass outside the timed region.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  The line before it records
the run: seed, operation counts, environment, self-test results and the
metrics that are not timings (fail_ratio, max_err_ratio, actor_reuse_share).
perfbench/METRICS.md says which layer metric should move which end-to-end
metric on which workload.
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
from fractions import Fraction
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # pin BLAS/OpenMP before numpy is first imported
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("verify", "theta-table", "artin", "towers", "modularity")
SETUP_RUNS = 11
MIN_PASSES = 3  # timed passes per untraced run, whatever --seconds is
MIN_TRACE_PASSES = 2  # per half of a traced run
MAX_PASSES = 128  # rows of the latency buffer; at most about 40 passes fit into 20 s on a 2-vCPU Xeon VM
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import cmtheta\n"
    "cmtheta.build_context()\n"
    "elapsed = time.perf_counter() - start\n"
    "from run import kernel_time\n"
    "print(elapsed, kernel_time())\n"
)

# Shared hosts can run the same code up to 1.7x slower for stretches of seconds
# to minutes (seen on a 2-vCPU Intel Xeon VM, pure Python and numpy alike), so
# raw pass times spread by 20-40% between runs.  Every timed pass, and every
# set-up process, is followed or bracketed by a fixed calibration kernel, and
# times are rescaled to a machine on which that kernel takes CALIBRATION_REF_S.
# Raw times are in the run record.
CALIBRATION_REF_S = 0.0025

clock = time.perf_counter


def _calibration_kernel() -> None:
    """Pure-Python integers, Fractions and small numpy arrays, like the program."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    frac = Fraction(0)
    for i in range(1, 300):
        frac += Fraction(i, i + 7)
    arr = np.arange(64.0)
    for _ in range(200):
        arr = np.exp(1j * arr).real


def kernel_time(repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        _calibration_kernel()
        best = min(best, clock() - t0)
    return best


def environment() -> dict:
    import mpmath

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(runs: int) -> tuple[list[float], list[float]]:
    """Import cmtheta plus build_context, each time in a fresh interpreter that
    then times the calibration kernel.  Returns raw times and speed factors."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(HERE)))}
    times, factors = [], []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
        elapsed, kernel = (float(v) for v in done.stdout.split()[-2:])
        times.append(elapsed)
        factors.append(CALIBRATION_REF_S / kernel)
    return times, factors


class Tally:
    """Operations attempted and failed over every pass of the run, warm-up included."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, workload, outputs) -> None:
        self.attempted += workload.ops_per_pass
        self.failed += workload.check(outputs)


def run_passes(workload, seconds: float, min_passes: int, tally: Tally, tracer=None):
    """Repeat the pass while the next one fits into `seconds`, at most MAX_PASSES times.

    Returns raw pass wall times, each pass's speed factor (CALIBRATION_REF_S over
    the kernel time around the pass), a row per pass of operation latencies
    rescaled by that factor and, when tracing, each pass's (first, end) span
    indices.  A failing pass may time fewer operations; its row ends in NaN.
    """
    walls, factors, segments = [], [], []
    latencies = None
    start = clock()
    while True:
        before = kernel_time()
        first = len(tracer.spans) if tracer else 0
        t0 = clock()
        lat, outputs = workload.run_pass()
        walls.append(clock() - t0)
        if tracer:
            segments.append((first, len(tracer.spans)))
        factor = CALIBRATION_REF_S / ((before + kernel_time()) / 2)
        factors.append(factor)
        if latencies is None:  # filled at once, so peak RSS does not grow with the pass count
            latencies = np.full((MAX_PASSES, len(lat)), np.nan)
        n = min(len(lat), latencies.shape[1])
        latencies[len(walls) - 1, :n] = np.array(lat[:n]) * factor
        tally.add(workload, outputs)
        done = len(walls) >= min_passes and clock() - start + statistics.median(walls) > seconds
        if done or len(walls) == MAX_PASSES:
            return walls, factors, latencies[: len(walls)], segments


def scaled_median(walls: list[float], factors: list[float]) -> float:
    return statistics.median(w * f for w, f in zip(walls, factors))


def end_to_end(name: str, data: dict, seconds: float, tally: Tally, info: dict) -> dict:
    import cmtheta
    import workloads

    setup, setup_factors = measure_setup(SETUP_RUNS)
    workload = workloads.WORKLOADS[name](data, cmtheta.build_context())
    tally.add(workload, workload.run_pass()[1])  # warm-up: caches fill, lazy set-up finishes
    walls, factors, passes, _ = run_passes(workload, seconds, MIN_PASSES, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the medians' copies
    wall = scaled_median(walls, factors)
    samples = int(np.isfinite(passes).sum())
    # Each operation's median over the passes: a pass repeats the same operations,
    # so a slow stretch that the speed factor misses moves single samples only.
    lat = np.nanmedian(passes, axis=0)
    p50, p95 = np.quantile(lat, [0.5, 0.95])  # linear interpolation between order statistics
    info.update(workload.info)
    info.update(
        setup_runs_s=setup,
        setup_speed_factors=setup_factors,
        passes=len(walls),
        raw_wall_s=statistics.median(walls),
        pass_walls_s=walls,
        speed_factors=factors,
        ops_per_pass=workload.ops_per_pass,
        op_samples=samples,
        ops_beyond_p95=int((lat > p95).sum()),
    )
    return {
        "setup_s": (scaled_median(setup, setup_factors), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (samples / len(walls) / wall, "1/s"),
        "op_p50_ms": (float(p50) * 1e3, "ms"),
        "op_p95_ms": (float(p95) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(name: str, data: dict, seed: int, seconds: float, tally: Tally, info: dict) -> tuple[dict, bool]:
    """Untraced passes for half the time, traced passes for the other half."""
    import cmtheta
    import layers
    import workloads
    from tracer import Tracer, is_restored, write_spans

    tracer = Tracer()
    layers.install(tracer)
    workload = workloads.WORKLOADS[name](data, cmtheta.build_context())
    restored = is_restored(tracer.remove())
    setup_spans = len(tracer.spans)

    tally.add(workload, workload.run_pass()[1])
    plain, plain_factors, _, _ = run_passes(workload, seconds / 2, MIN_TRACE_PASSES, tally)
    layers.install(tracer)
    try:
        traced, factors, _, segments = run_passes(workload, seconds / 2, MIN_TRACE_PASSES, tally, tracer)
    finally:
        restored = is_restored(tracer.remove()) and restored

    per_pass = []
    for (a, b), wall, factor in zip(segments, traced, factors):
        m = layers.pass_metrics(tracer.spans[a:b], wall, with_harness=name == "verify")
        per_pass.append({k: v * factor if layers.unit(k) == "s" else v for k, v in m.items()})
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["cmfield.context_builds"] += len(layers.context_durations(tracer.spans[:setup_spans]))
    metrics["cmfield.context_s"] = statistics.median(layers.context_durations(tracer.spans))
    metrics["trace.overhead_ratio"] = scaled_median(traced, factors) / scaled_median(plain, plain_factors)
    within_wall = all(p["trace.self_share"] <= 1.0 for p in per_pass)

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{name}-seed{seed}.tsv"
    write_spans(tracer.spans, spans_file)
    info.update(workload.info)
    info.update(
        untraced_passes=len(plain),
        traced_passes=len(traced),
        spans=len(tracer.spans),
        spans_file=str(spans_file.relative_to(ROOT)),
        tracer_restored=restored,
        self_time_within_wall=within_wall,
    )
    out = {key: (value, layers.unit(key)) for key, value in metrics.items()}
    return out, restored and within_wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "cmtheta" / "__init__.py").is_file():
        print(f"cmtheta sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cmtheta

    if SRC.resolve() not in Path(cmtheta.__file__).resolve().parents:
        print(f"imported cmtheta from {cmtheta.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import checks
    import inputs
    import tracer

    self_tests = {**checks.self_test(), **tracer.self_test()}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "self_tests": self_tests,
    }
    data = inputs.generate(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        metrics, tracer_ok = per_layer(args.workload, data, args.seed, args.seconds, tally, info)
    else:
        metrics, tracer_ok = end_to_end(args.workload, data, args.seconds, tally, info), True
    info.update(attempted=tally.attempted, failed=tally.failed, fail_ratio=tally.failed / tally.attempted)
    print(json.dumps(info))
    result = {
        "correct": tally.failed == 0 and tracer_ok and all(self_tests.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
