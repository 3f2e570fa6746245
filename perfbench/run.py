#!/usr/bin/env python3
"""Run one spektoy benchmark workload and print its metrics.

    python3 perfbench/run.py --workload equivalence --seed 7 --seconds 10 --trace 0

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics of a traced replay of one pass, made after
the untraced measurement.  Metric names and units are the ones listed in
BENCHMARK.json.  Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
A full record of the run is written under perfbench/out/.

The program is imported from src/ of the checkout this file sits in; the
run fails without printing a result when that source is missing.
"""

import os

# one BLAS/OpenMP thread, set before numpy is imported here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("equivalence", "toy-scale", "cli-reports")
#: set-ups per run (this process plus fresh interpreters); the median is reported
SETUP_SAMPLES = 3
#: fresh-interpreter imports of spektoy.cli per traced run
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150
#: nominal time of one speed-gauge sample; reported times are scaled to it
GAUGE_REFERENCE_S = 0.0085
#: a gauge sample is taken after every this much operation time
GAUGE_INTERVAL_S = 0.25
#: an operation's time is scaled by the median of the gauge samples taken
#: within this much operation time before its start or after its end
GAUGE_WINDOW_S = 1.0


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure whole passes until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for set-up samples)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine speed

_GAUGE_MATRIX = None


def gauge_kernel() -> float:
    """Fixed work independent of spektoy, in the proportions of its hot
    paths: interpreter loops plus many numpy calls on tiny arrays.
    Returns seconds."""
    import numpy as np

    global _GAUGE_MATRIX
    if _GAUGE_MATRIX is None:
        _GAUGE_MATRIX = np.arange(36, dtype=np.int64).reshape(6, 6)
    start = time.perf_counter()
    total = 0
    for i in range(45_000):
        total += i * i
    counts: dict[int, int] = {}
    for i in range(6_000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    m = _GAUGE_MATRIX
    v = np.ones(16, dtype=complex)
    for _ in range(450):
        m = (m @ _GAUGE_MATRIX) % 3
        abs(np.vdot(v, v))
    return time.perf_counter() - start


class SpeedGauge:
    """Samples of `gauge_kernel` interleaved with the operations.

    The host's speed drifts by tens of percent between runs and within
    one, and the drift slows the kernel and the operations alike.  `scaled`
    turns raw times into times at the reference speed (kernel =
    GAUGE_REFERENCE_S), using the gauge samples taken within
    GAUGE_WINDOW_S of operation time of each operation."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (operation time so far, seconds)
        self._elapsed = 0.0
        self._since = 0.0

    def sample(self) -> None:
        self.samples.append((self._elapsed, gauge_kernel()))

    def tick(self, op_seconds: float) -> None:
        """Called after each operation."""
        self._elapsed += op_seconds
        self._since += op_seconds
        if self._since >= GAUGE_INTERVAL_S:
            self.sample()
            self._since = 0.0

    def scaled(self, seconds: list[float]) -> list[float]:
        out = []
        start = 0.0
        for s in seconds:
            lo, hi = start - GAUGE_WINDOW_S, start + s + GAUGE_WINDOW_S
            near = [k for t, k in self.samples if lo <= t <= hi]
            if len(near) < 3:  # a long operation: the samples on either side of it
                by_distance = sorted(
                    self.samples, key=lambda tk: max(start - tk[0], tk[0] - start - s, 0.0)
                )
                near = [k for _, k in by_distance[:3]]
            out.append(s * GAUGE_REFERENCE_S / statistics.median(near))
            start += s
        return out


# ---------------------------------------------------------------------------
# set-up

def timed_setup(name: str, seed: int):
    """Import spektoy, generate the workload's inputs and warm it up."""
    start = time.perf_counter()
    import workloads  # imports numpy and spektoy

    import spektoy

    expected = (ROOT / "src" / "spektoy").resolve()
    if pathlib.Path(spektoy.__file__).resolve().parent != expected:
        raise BenchError(f"spektoy imported from {spektoy.__file__}, not {expected}")
    workload = workloads.build(name, seed, ROOT)
    workload.warm_up()
    return workload, time.perf_counter() - start


def _child(args: list[str]) -> str:
    """Run a fresh interpreter in the checkout; return its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"child {args[:2]} timed out") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[:2]} failed: {proc.stderr.strip()[-400:]}")
    return lines[-1]


def child_setup_seconds(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    line = _child([str(pathlib.Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--setup-only"])
    return float(json.loads(line)["setup_s"])


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import spektoy.cli; print(time.perf_counter() - t)"
)


def cli_import_seconds() -> float:
    return statistics.median(float(_child(["-c", _IMPORT_PROBE])) for _ in range(IMPORT_SAMPLES))


# ---------------------------------------------------------------------------
# measurement

def run_pass(ops, tracer=None, gauge=None) -> list[tuple[str, float, str | None]]:
    """Run one pass; returns (label, seconds, failure reason or None) per op.

    Only the call into spektoy is timed; its output is checked afterwards.
    An operation that raises or fails its check is recorded as failed."""
    records = []
    for i, op in enumerate(ops):
        reason = None
        out = None
        start = time.perf_counter()
        try:
            out = tracer.op(i, op.call) if tracer is not None else op.call()
        except Exception as e:  # a failed operation is counted, not fatal
            reason = f"raised {type(e).__name__}: {e}"
        seconds = time.perf_counter() - start
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as e:
                reason = f"check raised {type(e).__name__}: {e}"
        records.append((op.label, seconds, reason))
        if gauge is not None:
            gauge.tick(seconds)
    return records


def measure(workload, seconds: float, gauge: SpeedGauge) -> list[list]:
    """Whole passes, until at least `seconds` have passed."""
    passes = []
    gauge.sample()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload.ops(), gauge=gauge))
    gauge.sample()
    return passes


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile (a value that was measured)."""
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def pass_seconds(p) -> float:
    return sum(r[1] for r in p)


def end_to_end_metrics(pass_times: list[list[float]], setup_samples) -> dict[str, float]:
    """From per-pass operation times and set-up times, in seconds."""
    times = sorted(t for p in pass_times for t in p)
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": statistics.median(len(p) / sum(p) for p in pass_times),
        "op_p50_ms": 1e3 * percentile(times, 50),
        "op_p90_ms": 1e3 * percentile(times, 90),
        "op_p99_ms": 1e3 * percentile(times, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(workload, passes, name: str, seed: int) -> tuple[dict, list, dict]:
    """Replay one pass with the layer tracer installed."""
    import counters
    import tracer as tr

    tracer = tr.Tracer()
    layer_counters = counters.LayerCounters()
    layer_counters.attach(tracer)
    ops = workload.ops()
    tracer.install()
    try:
        records = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    metrics = counters.per_layer_metrics(tracer, layer_counters)
    metrics["trace.overhead"] = tracer.traced_wall_s / statistics.median(
        pass_seconds(p) for p in passes
    )
    metrics["cli.import_s"] = cli_import_seconds()
    trace_dir = OUT_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(trace_dir / f"{name}-seed{seed}.jsonl")
    note = {"spans_kept": len(tracer.spans), "spans_dropped": tracer.spans_dropped}
    return metrics, records, note


# ---------------------------------------------------------------------------
# reporting

def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads_pinned": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                      "MKL_NUM_THREADS")},
    }


def contract_metrics(trace: int) -> list[dict]:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return contract["per_layer" if trace else "end_to_end"]


def split_like(flat: list[float], passes) -> list[list[float]]:
    out, k = [], 0
    for p in passes:
        out.append(flat[k : k + len(p)])
        k += len(p)
    return out


def run(args) -> int:
    declared = contract_metrics(args.trace)
    workload, first_setup = timed_setup(args.workload, args.seed)
    setups = [first_setup] + [
        child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    workload.load_references()
    gauge = SpeedGauge()
    passes = measure(workload, args.seconds, gauge)
    records = [r for p in passes for r in p]
    raw_times = [[r[1] for r in p] for p in passes]
    scaled_times = split_like(gauge.scaled([r[1] for r in records]), passes)
    raw = end_to_end_metrics(raw_times, setups)
    note = {}
    if args.trace:
        metrics, traced, note = traced_metrics(workload, passes, args.workload, args.seed)
        records += traced
    else:
        metrics = end_to_end_metrics(scaled_times, setups)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    failures = [(label, reason) for label, _, reason in records if reason is not None]
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    machine = machine_info()
    by_label: dict[str, list[float]] = {}
    for label, seconds, _ in records:
        by_label.setdefault(label, []).append(seconds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "passes": len(passes),
        "ops_per_pass": len(passes[0]),
        "setup_samples_s": setups,
        "gauge_samples_s": [k for _, k in gauge.samples],
        "raw_end_to_end": raw,
        "op_ms_per_pass": [[1e3 * t for t in p] for p in raw_times],
        "failures": failures[:50],
        "per_label": {
            k: {"count": len(v), "median_ms": 1e3 * statistics.median(v)}
            for k, v in sorted(by_label.items())
        },
        **note,
        **result,
    }
    result_dir = OUT_DIR / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    (result_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu_model']!r} "
          f"python={machine['python']} numpy={machine['numpy']} blas/openmp threads=1")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es) of "
          f"{len(passes[0])} ops, set-up samples "
          + " ".join(f"{s:.3f}" for s in setups) + " s, machine speed "
          f"{GAUGE_REFERENCE_S / statistics.median(k for _, k in gauge.samples):.3f} of reference")
    for m in declared:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    for label, reason in failures[:5]:
        print(f"  FAILED {label}: {reason}")
    verdict = "PASS" if not failures else "FAIL"
    print(f"checks: {verdict} ({len(failures)} of {len(records)} operations failed, "
          f"op_fail_ratio {len(failures) / len(records):.6g})")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spektoy" / "__init__.py").is_file():
        print(f"error: no spektoy source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.setup_only:
            _, seconds = timed_setup(args.workload, args.seed)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return run(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
