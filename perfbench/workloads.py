"""The four benchmark workloads.

Each workload generates all of its inputs from the seed, in one process,
and is driven as a closed loop with one client: the next operation starts
when the previous one has returned.  `ops()` returns one pass, a fixed
list of operations; every call of `ops()` replays the same pass from the
same starting state, so a traced replay sees exactly the operations of an
untraced pass.

Importing this module imports numpy and spektoy, so the import belongs to
the timed set-up.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import pathlib
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from spektoy import cli
from spektoy import equivalence as eqv
from spektoy import phase_algebra as pa
from spektoy import toy_model as toy

import checks


class Op(NamedTuple):
    label: str
    call: Callable[[], object]  # the timed call into spektoy
    check: Callable[[object], str | None]  # untimed; None means correct


class Workload:
    name: str

    def warm_up(self) -> None:
        """Fill the caches a pass uses (part of the timed set-up)."""

    def load_references(self) -> None:
        """Read what the checks compare against (not timed)."""

    def ops(self) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# equivalence: paired random circuits, toy statistics against dense ones

#: (host, d, n, circuits per pass): the operational-equivalence acceptance mix
EQUIVALENCE_MIX = (
    ("minimal-rebit", 2, 1, 170),
    ("minimal-rebit", 2, 2, 170),
    ("minimal-rebit", 2, 3, 160),
    ("qudit-stabilizer", 3, 1, 250),
    ("qudit-stabilizer", 3, 2, 250),
)
EQUIVALENCE_DEPTH = 5
#: random_paired_circuit measures at each step with this probability until
#: it has measured EQUIVALENCE_MAX_MEAS times
EQUIVALENCE_MEAS_P = 0.45
EQUIVALENCE_MAX_MEAS = 3


def measurement_quota(count: int) -> list[int]:
    """Circuits per number of measurements (0..3) in a slice of `count`.

    The number of measurements is min(B, 3) with B ~ Binomial(depth, 0.45).
    A pass holds exactly its expected share of each, so the mix of cheap
    and branching circuits does not change from seed to seed."""
    p, depth, cap = EQUIVALENCE_MEAS_P, EQUIVALENCE_DEPTH, EQUIVALENCE_MAX_MEAS
    pmf = [math.comb(depth, k) * p**k * (1 - p) ** (depth - k) for k in range(depth + 1)]
    shares = pmf[:cap] + [sum(pmf[cap:])]
    quota = [int(count * s) for s in shares]
    by_remainder = sorted(range(len(shares)), key=lambda k: quota[k] - count * shares[k])
    for k in by_remainder[: count - sum(quota)]:
        quota[k] += 1
    return quota


def stratified_circuits(host, rng, count: int) -> list:
    """Draw random paired circuits, keeping each only while its number of
    measurements is below quota."""
    quota = measurement_quota(count)
    kept = []
    for _ in range(50 * count):
        pc = eqv.random_paired_circuit(host, rng, EQUIVALENCE_DEPTH)
        k = sum(1 for kind, _ in pc.toy_steps if kind == "measure")
        if k < len(quota) and quota[k] > 0:
            quota[k] -= 1
            kept.append(pc)
            if len(kept) == count:
                return kept
    raise RuntimeError(f"circuit quotas not filled, still missing {quota}")


def verify_paired_circuit(pc) -> float:
    toy_dist = toy.statistics(pc.epistemic, pc.toy_steps)
    dense_dist = eqv.dense_statistics(pc.dense_state, pc.dense_steps)
    return eqv.compare_statistics(toy_dist, dense_dist)


class Equivalence(Workload):
    name = "equivalence"

    def __init__(self, seed: int, root: pathlib.Path):
        rng = np.random.default_rng([seed, 1])
        circuits = []
        self._warm = []
        for host_name, d, n, count in EQUIVALENCE_MIX:
            host = eqv.host_model(host_name, n, d)
            label = f"{host_name}-d{d}-n{n}"
            circuits += [(label, pc) for pc in stratified_circuits(host, rng, count)]
            self._warm.append(eqv.random_paired_circuit(host, rng, EQUIVALENCE_DEPTH))
        # shuffled so that any prefix of a pass carries the whole mix
        self.circuits = [circuits[i] for i in rng.permutation(len(circuits))]

    def warm_up(self) -> None:
        # one circuit per host that the timed passes never see
        for pc in self._warm:
            verify_paired_circuit(pc)

    def ops(self) -> list[Op]:
        return [
            Op(label, partial(verify_paired_circuit, pc), checks.check_deviation)
            for label, pc in self.circuits
        ]


# ---------------------------------------------------------------------------
# toy-scale: long trajectories of the toy model on large registers

#: (d, n) of the pure-state trajectories; supports hold d^n points
TOY_SLICES = ((2, 8), (2, 10), (2, 12), (3, 5), (3, 6))
#: operations per trajectory per pass: a gate, then two measurements, and
#: again.  With equal shares of ten operation kinds the 50th and 90th
#: percentiles would sit exactly between two kinds; this mix puts them
#: inside one.
TOY_STEPS = 48

_FOURIER = np.array([[0, -1], [1, 0]], dtype=np.int64)
_SHEAR = np.array([[1, 0], [1, 1]], dtype=np.int64)


def random_affine(rng, d: int, n: int) -> pa.AffineSymplectic:
    """A random affine symplectic map: a product of 3n random site
    Fourier/shear blocks and two-site SUM blocks, plus a random shift."""
    S = np.eye(2 * n, dtype=np.int64)
    for _ in range(3 * n):
        block = np.eye(2 * n, dtype=np.int64)
        kind = int(rng.integers(0, 3))
        if kind < 2:
            k = int(rng.integers(0, n))
            block[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = _FOURIER if kind == 0 else _SHEAR
        else:
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            block[2 * j, 2 * i] = 1  # x_j += x_i
            block[2 * i + 1, 2 * j + 1] = d - 1  # p_i -= p_j
        S = (block @ S) % d
    return pa.AffineSymplectic(S, rng.integers(0, d, size=2 * n), d)


def random_functional(rng, d: int, n: int) -> tuple[int, ...]:
    while True:
        sigma = tuple(int(x) for x in rng.integers(0, d, size=2 * n))
        if any(sigma):
            return sigma


class _Trajectory:
    def __init__(self, rng, d: int, n: int):
        self.label = f"d{d}-n{n}"
        # known functionals: every site's momentum, with random values
        V = pa.Subspace.from_generators(np.eye(2 * n, dtype=np.int64)[1::2], d, n)
        self.start = toy.make_epistemic(V, tuple(int(x) for x in rng.integers(0, d, size=2 * n)))
        self.steps = []
        for k in range(TOY_STEPS):
            if k % 3 == 0:
                self.steps.append(("gate", random_affine(rng, d, n), None))
            else:
                meas = toy.SharpMeasurement((random_functional(rng, d, n),), d, n)
                self.steps.append(("measure", meas, int(rng.integers(0, 2**31))))
        self.state = self.start

    def gate(self, g):
        self.state = toy.apply_affine(self.state, g)
        return self.state

    def measure(self, meas, sample_seed):
        _, self.state, table = toy.measure_sharp(self.state, meas, sample_seed)
        return table, self.state


def _check_gate(state) -> str | None:
    return checks.check_support(state)


def _check_measure(out) -> str | None:
    table, state = out
    return checks.check_exact_distribution(table) or checks.check_support(state)


class ToyScale(Workload):
    name = "toy-scale"

    def __init__(self, seed: int, root: pathlib.Path):
        rng = np.random.default_rng([seed, 3])
        self.trajectories = [_Trajectory(rng, d, n) for d, n in TOY_SLICES]

    def warm_up(self) -> None:
        for t in self.trajectories:
            for kind, arg, sample_seed in t.steps[:2]:
                t.gate(arg) if kind == "gate" else t.measure(arg, sample_seed)

    def ops(self) -> list[Op]:
        for t in self.trajectories:
            t.state = t.start
        out = []
        for k in range(TOY_STEPS):  # round-robin over the trajectories
            for t in self.trajectories:
                kind, arg, sample_seed = t.steps[k]
                if kind == "gate":
                    out.append(Op(f"{t.label}-gate", partial(t.gate, arg), _check_gate))
                else:
                    out.append(Op(f"{t.label}-measure",
                                  partial(t.measure, arg, sample_seed), _check_measure))
        return out


# ---------------------------------------------------------------------------
# cli-reports: in-process CLI invocations

#: (host, d, n) of the seeded circuit files run through `spektoy equivalence`
CLI_CIRCUIT_HOSTS = (
    ("minimal-rebit", 2, 2),
    ("minimal-rebit", 2, 3),
    ("qudit-stabilizer", 3, 1),
    ("qudit-stabilizer", 3, 2),
)
CLI_CIRCUIT_DEPTH = 6
CLI_CIRCUIT_MEAS = 2
CIRCUIT_DIR = pathlib.Path(__file__).resolve().parent / "out" / "circuits"
REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"

#: subtheory certificates pinned byte for byte under reference/, beside the
#: goldens: two that must pass and the canonical one that must fail
REFERENCE_INVOCATIONS = {
    "subtheory_qudit_d3_n1.json": ["subtheory", "verify", "qudit-stabilizer", "--n", "1", "--d", "3"],
    "subtheory_css_n2.json": ["subtheory", "verify", "css-rebit", "--n", "2"],
    "subtheory_full_qubit_n1.json": ["subtheory", "verify", "full-qubit-stabilizer", "--n", "1"],
}


def golden_invocations(root: pathlib.Path) -> dict[str, list[str]]:
    """The pinned invocations, read from the script that regenerates them."""
    path = root / "scripts" / "regen_goldens.py"
    spec = importlib.util.spec_from_file_location("_perfbench_regen_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.INVOCATIONS)


def random_circuit_text(rng, host: str, d: int, n: int) -> str:
    """A host-legal circuit of host gates and allowed measurement bases,
    with a fixed number of measurements at random steps."""
    if host == "minimal-rebit":
        one, two = ["X", "Z"], ["CNOT"]
    else:
        one, two = ["X", "Z", "F", "P"], ["SUM"]
    lines = [f"# seeded {host} circuit, d={d} n={n}"]
    measure_at = set(rng.choice(CLI_CIRCUIT_DEPTH, size=CLI_CIRCUIT_MEAS, replace=False).tolist())
    n_meas = 0
    for step in range(CLI_CIRCUIT_DEPTH):
        if step not in measure_at:
            if n >= 2 and rng.random() < 0.4:
                i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
                lines.append(f"GATE {two[int(rng.integers(0, len(two)))]} {i} {j}")
            else:
                lines.append(f"GATE {one[int(rng.integers(0, len(one)))]} {int(rng.integers(0, n))}")
        else:
            k = int(rng.integers(1, n + 1))
            wires = sorted(int(x) for x in rng.choice(n, size=k, replace=False))
            if host == "minimal-rebit":
                basis = "XZ"[int(rng.integers(0, 2))] * k  # X-type or Z-type only
            else:
                basis = "".join("XZ"[int(rng.integers(0, 2))] for _ in wires)
            lines.append(f"MEAS {basis} {' '.join(map(str, wires))} -> m{n_meas}")
            n_meas += 1
    return "\n".join(lines) + "\n"


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class CliReports(Workload):
    name = "cli-reports"

    def __init__(self, seed: int, root: pathlib.Path):
        rng = np.random.default_rng([seed, 4])
        self.root = root
        # (label, argv, pinned stdout file or None, expect the report's verdict true)
        self.invocations = [
            (fname, argv, root / "tests" / "golden" / fname, None)
            for fname, argv in golden_invocations(root).items()
        ]
        self.invocations += [
            (fname, argv, REFERENCE_DIR / fname, None)
            for fname, argv in REFERENCE_INVOCATIONS.items()
        ]
        self.invocations.append(
            ("witness-peres-mermin-input", ["witness", "peres-mermin", "--input", "++"], None, True)
        )
        CIRCUIT_DIR.mkdir(parents=True, exist_ok=True)
        for k, (host, d, n) in enumerate(CLI_CIRCUIT_HOSTS):
            path = CIRCUIT_DIR / f"circuit{k}-{host}-d{d}-n{n}.circ"
            path.write_text(random_circuit_text(rng, host, d, n))
            argv = ["equivalence", "--circuit", str(path.relative_to(root)),
                    "--host", host, "--d", str(d), "--n", str(n)]
            self.invocations.append((path.name, argv, None, True))
        self._expect: dict[str, tuple] | None = None

    def warm_up(self) -> None:
        # a cold CLI user pays this pass on every run
        for _, argv, _, _ in self.invocations:
            run_cli(argv)

    def load_references(self) -> None:
        self.schemas = checks.SchemaBook(self.root / "docs" / "schemas")
        self._expect = {}
        for label, _, pinned_path, verdict in self.invocations:
            pinned = pinned_path.read_text() if pinned_path else None
            code = checks.expected_exit(json.loads(pinned)) if pinned else 0
            self._expect[label] = (code, pinned, verdict)

    def _check(self, label: str, out) -> str | None:
        code, text = out
        expected_code, pinned, verdict = self._expect[label]
        reason = checks.check_cli_report(code, text, expected_code, self.schemas, pinned, verdict)
        if reason is None and label.endswith(".circ"):
            reason = checks.check_deviation(json.loads(text)["max_deviation"])
        return reason

    def ops(self) -> list[Op]:
        if self._expect is None:
            raise RuntimeError("load_references() before running cli-reports")
        return [
            Op(label, partial(run_cli, argv), partial(self._check, label))
            for label, argv, _, _ in self.invocations
        ]


WORKLOADS = {w.name: w for w in (Equivalence, ToyScale, CliReports)}


def build(name: str, seed: int, root: pathlib.Path):
    return WORKLOADS[name](seed, root)
