"""The epistemically restricted phase-space model: states of partial
knowledge, affine evolution, sharp measurement with update, and exact
statistics.

An epistemic state is the uniform distribution over a coset V-perp + w,
where V is the isotropic subspace of known functionals and w encodes their
values.  All distributions are exact rationals; sampling is a thin seeded
layer on top.

Measurement update: the posterior known subspace is the measured subspace
plus the part of the prior that symplectically commutes with every measured
functional; the posterior shift is any ontic point consistent with the
observed outcome and the retained values.  This is the unique choice that
is repeatable, restriction-preserving, and reproduces dense-oracle
statistics across the bridged subtheories.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _modmath as mm
from . import phase_algebra as pa
from .circuits import Step, branch_tree
from .errors import DimensionMismatch, RestrictionViolation


@dataclass(frozen=True)
class EpistemicState:
    V: pa.Subspace
    w: tuple[int, ...]
    support: tuple[tuple[int, ...], ...]

    @property
    def d(self) -> int:
        return self.V.d

    @property
    def n(self) -> int:
        return self.V.n

    @property
    def weight(self) -> Fraction:
        return Fraction(1, len(self.support))

    def probability(self, lam) -> Fraction:
        return self.weight if pa.point(lam, self.d) in set(self.support) else Fraction(0)

    def known_value(self, sigma) -> int:
        """Value of a functional in V (raises if it is not known)."""
        if not self.V.contains(sigma):
            raise RestrictionViolation("functional is not in the known subspace")
        return pa.evaluate(sigma, self.w, self.d)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "V_generators": [list(g) for g in self.V.gens],
            "w": list(self.w),
            "support": [list(p) for p in self.support],
        }


def make_epistemic(V: pa.Subspace, w) -> EpistemicState:
    """Uniform distribution over V-perp + w; rejects non-isotropic V."""
    if not pa.is_isotropic(V):
        raise RestrictionViolation("known-variable subspace is not isotropic")
    U = pa.perp(V)
    wv = pa.as_vector(w, V.d, V.n)
    w_canon = tuple(int(x) for x in mm.reduce_mod_rowspace(wv, U.matrix, V.d))
    support = pa.coset_members(U, w_canon)
    return EpistemicState(V, w_canon, support)


def maximally_mixed(d: int, n: int) -> EpistemicState:
    return make_epistemic(pa.Subspace.zero(d, n), (0,) * (2 * n))


def apply_affine(state: EpistemicState, g: pa.AffineSymplectic) -> EpistemicState:
    """Push the distribution through lam -> S lam + a.

    The image of V-perp + w is (S V-perp) + (S w + a); the new known
    subspace is recovered as the Euclidean perp of the image directions.
    """
    if (g.d, g.n) != (state.d, state.n):
        raise DimensionMismatch("map and state live on different spaces")
    d = state.d
    U = pa.perp(state.V)
    image_dirs = mm.modp(U.matrix @ g.S.T, d)
    new_w = mm.modp(g.S @ np.array(state.w, dtype=np.int64) + g.a, d)
    U_new = pa.Subspace.from_generators(image_dirs, d, state.n)
    V_new = pa.perp(U_new)
    out = make_epistemic(V_new, tuple(int(x) for x in new_w))
    assert len(out.support) == len(state.support)
    return out


@dataclass(frozen=True)
class SharpMeasurement:
    """Joint measurement of an ordered tuple of commuting functionals.

    The outcome is the tuple of their values mod d, ordered by generator
    index.  The generators must span an isotropic subspace.
    """

    generators: tuple[tuple[int, ...], ...]
    d: int
    n: int

    def __post_init__(self):
        gens = tuple(pa.point(g, self.d) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise DimensionMismatch("measurement needs at least one functional")
        V = self.subspace
        if not pa.is_isotropic(V):
            raise RestrictionViolation("measured functionals are not jointly knowable")

    @property
    def subspace(self) -> pa.Subspace:
        return pa.Subspace.from_generators(self.generators, self.d, self.n)

    def outcome_of(self, lam) -> tuple[int, ...]:
        return tuple(pa.evaluate(g, lam, self.d) for g in self.generators)

    def outcome_shift(self, outcome) -> tuple[int, ...]:
        """Any point r with generator values equal to the outcome."""
        A = np.array(self.generators, dtype=np.int64)
        r = mm.solve(A, np.array(outcome, dtype=np.int64), self.d)
        if r is None:
            raise DimensionMismatch(f"outcome {outcome} is not realizable")
        return tuple(int(x) for x in r)


def outcome_distribution(
    state: EpistemicState, meas: SharpMeasurement
) -> dict[tuple[int, ...], Fraction]:
    """P(outcome) = |support ∩ outcome coset| / |support|, exact."""
    if (meas.d, meas.n) != (state.d, state.n):
        raise DimensionMismatch("measurement and state live on different spaces")
    counts: dict[tuple[int, ...], int] = {}
    for lam in state.support:
        k = meas.outcome_of(lam)
        counts[k] = counts.get(k, 0) + 1
    total = len(state.support)
    return {k: Fraction(c, total) for k, c in sorted(counts.items())}


def posterior(
    state: EpistemicState, meas: SharpMeasurement, outcome: tuple[int, ...]
) -> EpistemicState:
    """State after observing the given outcome.

    Retained knowledge = prior V intersected with the symplectic commutant
    of the measured subspace; the shift is any prior-support point showing
    the outcome (such a point satisfies both the outcome and the retained
    values).
    """
    V_pi = meas.subspace
    retained = state.V.intersect(pa.symplectic_commutant(V_pi))
    V_new = V_pi + retained
    witness = next(
        (lam for lam in state.support if meas.outcome_of(lam) == tuple(outcome)), None
    )
    if witness is None:
        raise DimensionMismatch(f"outcome {outcome} has probability zero")
    return make_epistemic(V_new, witness)


def measure_sharp(
    state: EpistemicState, meas: SharpMeasurement, rng_seed: int = 0
):
    """Seeded sample: (outcome, posterior state, exact probability table)."""
    table = outcome_distribution(state, meas)
    rng = random.Random(rng_seed)
    r = rng.random()
    acc = 0.0
    outcome = None
    for k, p in table.items():
        acc += float(p)
        if r < acc:
            outcome = k
            break
    if outcome is None:
        outcome = list(table)[-1]
    return outcome, posterior(state, meas, outcome), table


ToyStep = tuple[str, object]  # ("gate", AffineSymplectic) | ("measure", SharpMeasurement)


def gate_step(g: pa.AffineSymplectic) -> Step:
    """Walker step pushing every branch through an affine map."""
    return lambda outcomes, state: [(None, 1, apply_affine(state, g))]


def measure_step(meas: SharpMeasurement) -> Step:
    """Walker step measuring every branch: one child per outcome, carrying
    its exact probability and the posterior state."""
    return lambda outcomes, state: [
        (k, pk, posterior(state, meas, k))
        for k, pk in outcome_distribution(state, meas).items()
    ]


def statistics(
    state: EpistemicState, steps: list[ToyStep]
) -> dict[tuple[tuple[int, ...], ...], Fraction]:
    """Exact distribution over outcome-tuple sequences for a circuit of
    affine maps and sharp measurements.  No sampling: cosets are propagated
    and every branch with nonzero probability is expanded.
    """
    builders = {"gate": gate_step, "measure": measure_step}
    for kind, _ in steps:
        if kind not in builders:
            raise DimensionMismatch(f"unknown step kind {kind!r}")
    branches = branch_tree(state, [builders[kind](op) for kind, op in steps])
    return dict(sorted((outcomes, Fraction(prob)) for outcomes, prob, _ in branches))
