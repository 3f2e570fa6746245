"""Operational equivalence between the dense oracle and the toy model.

The dictionary between the two sides is fixed by the Wigner construction:

* a label mu measured on the quantum side (outcome k of
  do.label_projectors) corresponds to the functional J^T mu on the toy
  side, whose value k is outcome k - c(mu) (`outcome_offset`);
* a state of maximal knowledge (V, w) corresponds to the joint eigenstate
  of the labels J sigma_j at the outcomes sigma_j . w - c(J sigma_j);
* an allowed gate corresponds to the inverse of the affine map by which
  it transports the phase-point operators (wigner.phase_space_action).

Given those three maps, circuit statistics on the two sides must agree
exactly; this module generates random host circuits and checks that they
do, and audits text-format circuits against a host before comparing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np

from . import _modmath as mm
from . import dense_oracle as do
from . import phase_algebra as pa
from . import subtheory as stt
from . import toy_model as toy
from . import wigner as wg
from .circuits import Circuit, Correct, Gate, Measure, branch_tree
from .errors import AuditError, CircuitParseError, DimensionMismatch, InvalidGenerators


def functional_for_label(mu, d: int) -> tuple[int, ...]:
    """Toy functional measured by the Weyl observable at label mu: J^T mu = -J mu."""
    return tuple(-int(x) % d for x in pa.symplectic_row(mu))


def label_for_functional(sigma, d: int) -> tuple[int, ...]:
    """Weyl label whose measurement learns the given functional: J sigma."""
    return tuple(int(x) % d for x in pa.symplectic_row(sigma))


def outcome_offset(mu, d: int) -> int:
    """The offset c(mu), half of q.p: the toy value k of J^T mu is outcome
    k - c of do.label_projectors(mu).

    The value k is the exponent of the construction's Weyl operator
    T(mu) = chi(gamma(mu)) Z(p)X(q), whose eigenvalue it labels as chi(k).
    At odd d, gamma = 2^{-1} q.p and label_projectors reads Z(p)X(q), whose
    eigenvalue there is chi(k - gamma): c = 2^{-1} q.p mod d.  At d=2,
    gamma = 0 and the site operator ZX is iY, so Z(p)X(q) = i^{q.p} H on
    the Hermitian word H that label_projectors reads.  For even q.p that is
    (-1)^{q.p/2} H: c = q.p/2 mod 2.  For odd q.p, Z(p)X(q) squares to -I,
    has no outcome k, and InvalidGenerators is raised."""
    mu = pa.point(mu, d)
    qp = sum(map(mul, mu[0::2], mu[1::2]))
    if d != 2:
        return pow(2, -1, d) * qp % d
    if qp % 2:
        raise InvalidGenerators(f"label {mu} has odd q.p: Z(p)X(q) is not of order 2")
    return qp // 2 % 2


def quantum_state_for(epistemic: toy.EpistemicState) -> np.ndarray:
    """Dense state matching a maximal-knowledge epistemic state: the joint
    eigenstate of the labels mu = J sigma of V's rows sigma at the outcomes
    sigma . w - c(mu).  V is isotropic and in rref, so its labels commute
    and are independent, and do.stabilizer_states builds the state
    unchecked."""
    V = epistemic.V
    if V.dim != V.n:
        raise DimensionMismatch("only maximal-knowledge states map to pure states")
    d, gens, w = V.d, V.gens, epistemic.w
    labels = [label_for_functional(sigma, d) for sigma in gens]
    ks = [(sum(map(mul, sigma, w)) - outcome_offset(mu, d)) % d for sigma, mu in zip(gens, labels)]
    return do.stabilizer_states(labels, [ks], d, V.n)[0]


def epistemic_state_for(psi: np.ndarray, spec: wg.WignerSpec) -> toy.EpistemicState:
    """Epistemic state read off a non-negative coset-indicator table."""
    coset = wg._indicator_coset(wg.wigner_of_state(psi, spec).values, spec.d, spec.n)
    if coset is None:
        raise DimensionMismatch("state table is not a coset indicator")
    U, base = coset
    return toy.make_epistemic(pa.perp(U), base)


@dataclass
class HostModel:
    """A subtheory together with the cached toy steps of its gates and
    measurements, handed out as the same objects to every circuit so the
    toy plans they keep (`toy_model._plans`) are shared; its state census
    is read only to audit a circuit's INIT state."""

    sub: stt.Subtheory

    def __post_init__(self):
        self._gate_cache: dict[tuple[str, tuple[int, ...]], pa.AffineSymplectic] = {}
        self._measure_cache: dict[tuple[int, ...], toy.SharpMeasurement] = {}
        self._generators = {(g.name, g.wires): g.matrix for g in self.sub.gate_generators}
        # the labels random_paired_circuit draws a measurement from
        self._nontrivial = [lam for lam in self.sub.observables if any(lam)]
        self._draws: dict[tuple[str, int], tuple] = {}

    def gate_matrix(self, name: str, wires: tuple[int, ...]) -> np.ndarray:
        """The dense matrix of a named gate: the host generator's when
        (name, wires) names one (as for css-rebit's compound H*), else
        do.gate's.  AuditError for a host generator name on other wires
        that do.gate does not know."""
        key = (name.upper(), tuple(wires))
        if key in self._generators:
            return self._generators[key]
        try:
            return do.gate(name, wires, self.sub.n, self.sub.d)
        except CircuitParseError:
            if any(gen_name == key[0] for gen_name, _ in self._generators):
                raise AuditError(f"gate {key[0]!r} of host {self.sub.name!r} "
                                 f"does not act on wires {key[1]}") from None
            raise

    def gate_action(self, name: str, wires: tuple[int, ...]) -> pa.AffineSymplectic:
        """Forward ontic transport of a named gate (support push-forward),
        built once per (name, wires) from `gate_matrix`.  Its phase-point
        transport g gives table_after(lam) = table_before(g(lam)) for every
        state, i.e. it pulls supports back; the toy model pushes supports
        forward, so the gate acts as g^{-1}."""
        key = (name.upper(), tuple(wires))
        if key not in self._gate_cache:
            witness = wg.phase_space_action(self.gate_matrix(name, wires), self.sub.spec)
            if witness is None:
                raise AuditError(f"gate {key} has no covariant action")
            self._gate_cache[key] = witness.inverse()
        return self._gate_cache[key]

    def measurement_step(self, mu: tuple[int, ...]) -> toy.SharpMeasurement:
        """The toy measurement of label mu: its functional J^T mu, offset by
        c(mu) so that it reads mu's outcome; built once per label."""
        if mu not in self._measure_cache:
            sigma, c = functional_for_label(mu, self.sub.d), outcome_offset(mu, self.sub.d)
            self._measure_cache[mu] = toy.SharpMeasurement((sigma,), self.sub.d, self.sub.n, (c,))
        return self._measure_cache[mu]

    def _drawn(self, kind: str, i: int) -> tuple:
        """(toy step, dense step, description) of the i-th gate generator or
        nontrivial observable, built on its first draw and shared by every
        circuit that draws it."""
        key = (kind, i)
        if key not in self._draws:
            if kind == "gate":
                g = self.sub.gate_generators[i]
                toy_step, dense_step = self.gate_action(g.name, g.wires), g.matrix
                label = g.label()
            else:
                lam, d = self._nontrivial[i], self.sub.d
                toy_step, dense_step = self.measurement_step(lam), do.label_projectors(lam, d)
                label = f"M[{do.label_name(lam, d)}]"
            self._draws[key] = ((kind, toy_step), (kind, dense_step), label)
        return self._draws[key]

    def audit_circuit(self, circuit: Circuit) -> np.ndarray:
        """Raise AuditError naming the first element outside the host;
        return the input state, the all-zero basis state without INIT."""
        allowed = self.sub.allowed_gate_names
        observables = set(self.sub.observables)
        for ins in circuit.instructions:
            if isinstance(ins, (Gate, Correct)):
                if ins.name.upper() not in allowed:
                    raise AuditError(
                        f"gate {ins.name!r} is not available in host "
                        f"{self.sub.name!r} (allowed: {sorted(allowed)})"
                    )
            elif isinstance(ins, Measure):
                try:
                    lam = do.basis_label(ins.basis, ins.wires, self.sub.n, self.sub.d)
                except CircuitParseError as e:
                    raise AuditError(str(e)) from None
                if lam not in observables:
                    raise AuditError(
                        f"measurement basis {ins.basis!r} on wires {ins.wires} "
                        f"is not an allowed observable of host {self.sub.name!r}"
                    )
        if circuit.init_spec is None:
            return do.basis_state([0] * self.sub.n, self.sub.d)
        psi = do.parse_state_spec(circuit.init_spec, d=self.sub.d, n=self.sub.n)
        if stt.state_index(self.sub.states, psi) is None:
            raise AuditError(f"initial state {circuit.init_spec!r} is not an allowed state")
        return psi


@lru_cache(maxsize=16)
def host_model(name: str, n: int, d: int = 2) -> HostModel:
    return HostModel(stt.subtheory_by_name(name, n, d))


# ---------------------------------------------------------------------------
# paired random circuits

@dataclass
class PairedCircuit:
    """One random host circuit in both representations."""

    epistemic: toy.EpistemicState
    dense_state: np.ndarray
    toy_steps: list
    dense_steps: list  # ("gate", U) | ("measure", [projectors])
    description: list[str]


def _random_css_knowledge(n: int, rng) -> pa.Subspace:
    """Random maximal isotropic V from position/momentum functionals."""
    raw = rng.integers(0, 2, size=(rng.integers(0, n + 1), n))
    Q = mm.rref_bits(map(mm.pack, raw.tolist()), n, 2)
    gens = []
    for q in Q:
        v = np.zeros(2 * n, dtype=np.int64)
        v[0::2] = mm.unpack(q, n)
        gens.append(v)
    for p in mm.complement_bits(Q, n, 2):
        v = np.zeros(2 * n, dtype=np.int64)
        v[1::2] = mm.unpack(p, n)
        gens.append(v)
    return pa.Subspace.from_generators(gens, 2, n)


def random_paired_circuit(host: HostModel, rng, depth: int = 5) -> PairedCircuit:
    d, n = host.sub.d, host.sub.n
    if d == 2:
        # rebit hosts: knowledge built from position/momentum functionals
        # (whose duals are the X/Z-split stabilizer groups)
        V = _random_css_knowledge(n, rng)
    else:
        isos = pa.maximal_isotropic_subspaces(d, n)
        V = isos[int(rng.integers(0, len(isos)))]
    w = tuple(int(x) for x in rng.integers(0, d, size=2 * n))
    epistemic = toy.make_epistemic(V, w)
    dense_state = quantum_state_for(epistemic)

    toy_steps, dense_steps, description = [], [], []
    n_gens, n_labels, n_meas = len(host.sub.gate_generators), len(host._nontrivial), 0
    for _ in range(depth):
        if rng.random() < 0.55 or n_meas >= 3:
            drawn = host._drawn("gate", int(rng.integers(0, n_gens)))
        else:
            drawn = host._drawn("measure", int(rng.integers(0, n_labels)))
            n_meas += 1
        for out, x in zip((toy_steps, dense_steps, description), drawn):
            out.append(x)
    return PairedCircuit(epistemic, dense_state, toy_steps, dense_steps, description)


def dense_statistics(state: np.ndarray, steps) -> dict[tuple, float]:
    """Exhaustive branch-tree distribution over outcome tuples; each
    outcome is a 1-tuple (k,) to match the toy side's residue tuples.
    Every step's kind and operator shape is checked (DimensionMismatch), but
    the walk stops at the last measurement: a leaf's probability is a
    product of Born factors alone, so no later step changes it."""
    if bad := [kind for kind, _ in steps if kind not in ("gate", "measure")]:
        raise DimensionMismatch(f"unknown step kind {bad[0]!r}")
    dim = len(state)
    for kind, op in steps:
        if np.shape(op) != ((dim, dim) if kind == "gate" else (len(op), dim, dim)):
            raise DimensionMismatch(f"{kind} operator of shape {np.shape(op)} on a {dim}-dim state")
    cut = max((j + 1 for j, (kind, _) in enumerate(steps) if kind != "gate"), default=0)
    walker_steps = [
        do.gate_step(op) if kind == "gate" else do.measure_step(op)
        for kind, op in steps[:cut]
    ]
    return {
        tuple(zip(outcomes)): float(prob)
        for outcomes, prob, _ in branch_tree(state[None], walker_steps)
    }


def compare_statistics(
    toy_dist: dict[tuple, Fraction], dense_dist: dict[tuple, float]
) -> float:
    """Largest absolute probability deviation over the union of outcomes.
    Each toy probability is converted to a float where it differs from the
    one before: `toy_model.statistics` gives every outcome the same one."""
    dev, last, p = 0.0, None, 0.0
    for k, q in toy_dist.items():
        if q is not last:
            last, p = q, float(q)
        x = abs(p - dense_dist.get(k, 0.0))
        if x > dev:
            dev = x
    for k, x in dense_dist.items():
        if k not in toy_dist:
            dev = max(dev, abs(x))
    return dev


def check_random_equivalence(
    host: HostModel, n_circuits: int, seed: int = 0, depth: int = 5
) -> dict:
    """Run paired random circuits; report the worst deviation seen."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_desc: list[str] = []
    for _ in range(n_circuits):
        pc = random_paired_circuit(host, rng, depth)
        toy_dist = toy.statistics(pc.epistemic, pc.toy_steps)
        dense_dist = dense_statistics(pc.dense_state, pc.dense_steps)
        dev = compare_statistics(toy_dist, dense_dist)
        if dev > worst:
            worst = dev
            worst_desc = pc.description
    return {
        "host": host.sub.name,
        "d": host.sub.d,
        "n": host.sub.n,
        "circuits": n_circuits,
        "max_deviation": worst,
        "worst_circuit": worst_desc,
    }


# ---------------------------------------------------------------------------
# text-circuit comparison (CLI entry)

def circuit_statistics_both_ways(circuit: Circuit, host: HostModel):
    """Audit a text circuit against the host, then run it on both sides.

    Returns (toy distribution, dense distribution, max deviation); outcome
    keys are tuples of per-measurement residue tuples in program order,
    labelled as run_circuit labels them.
    """
    d, n = host.sub.d, host.sub.n
    if circuit.n_wires > n:
        raise DimensionMismatch(f"circuit needs {circuit.n_wires} wires, host has {n}")
    psi = host.audit_circuit(circuit)
    for ins in circuit.instructions:
        if isinstance(ins, Correct):
            raise AuditError("classically controlled corrections are not part of "
                             "the equivalence pipeline")
    epistemic = epistemic_state_for(psi, host.sub.spec)

    toy_steps, dense_steps = [], []
    for ins in circuit.instructions:
        if isinstance(ins, Gate):
            toy_steps.append(("gate", host.gate_action(ins.name, ins.wires)))
            dense_steps.append(("gate", host.gate_matrix(ins.name, ins.wires)))
        elif isinstance(ins, Measure):
            lam = do.basis_label(ins.basis, ins.wires, n, d)
            toy_steps.append(("measure", host.measurement_step(lam)))
            dense_steps.append(("measure", do.label_projectors(lam, d)))

    toy_dist = toy.statistics(epistemic, toy_steps)
    dense_dist = dense_statistics(psi, dense_steps)
    return toy_dist, dense_dist, compare_statistics(toy_dist, dense_dist)
