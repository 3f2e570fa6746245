"""The epistemically restricted phase-space model: states of partial
knowledge, affine evolution, sharp measurement with update, and exact
statistics.

An epistemic state is the pair (V, w): V is the isotropic subspace of known
functionals and w a shift carrying their values.  It stands for the uniform
distribution over the coset V-perp + w, which has d^(2n - dim V) points, but
nothing here lists that coset: weights, point probabilities, outcome tables,
measurement updates and affine evolution are closed forms in (V, w), computed
by linear algebra over Z_d in time polynomial in n (the toy analogue of
stabilizer tableau simulation).  A step runs on the canonical int rows that
`Subspace.gens` holds (isotropy, dot products, elimination and solving on
Python ints); numpy is used only for the two dense products, the gate's
V S^-1 and S w + a, and the retained generators c G of an update.  The
support is listed only when something
reads `EpistemicState.support`, and that listing is capped by
`phase_algebra.COSET_GUARD`.  All distributions are exact rationals; sampling
is a thin seeded layer on top.

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
from functools import cached_property
from operator import mul

import numpy as np

from . import _modmath as mm
from . import phase_algebra as pa
from .circuits import Step, branch_tree
from .errors import DimensionMismatch, GuardExceeded, RestrictionViolation


@dataclass(frozen=True)
class EpistemicState:
    """Uniform distribution over V-perp + w.  make_epistemic builds it: it
    checks that V is isotropic and reduces w to the canonical representative
    of its coset, so equal distributions compare equal."""

    V: pa.Subspace
    w: tuple[int, ...]

    @property
    def d(self) -> int:
        return self.V.d

    @property
    def n(self) -> int:
        return self.V.n

    @cached_property
    def U(self) -> pa.Subspace:
        """The support directions V-perp (Euclidean perp)."""
        return pa.perp(self.V)

    @cached_property
    def support(self) -> tuple[tuple[int, ...], ...]:
        """Every point of V-perp + w in lexicographic order, listed on first
        read; GuardExceeded past COSET_GUARD points."""
        return pa.coset_members(self.U, self.w)

    @property
    def weight(self) -> Fraction:
        return Fraction(1, self.d ** (2 * self.n - self.V.dim))

    def probability(self, lam) -> Fraction:
        """The weight on the support, else 0: lam lies in V-perp + w exactly
        when every known functional takes the same value on lam as on w."""
        diff = pa.as_vector(lam, self.d, self.n) - np.array(self.w, dtype=np.int64)
        on_support = not np.any(mm.modp(self.V.matrix @ diff, self.d))
        return self.weight if on_support else Fraction(0)

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


def make_epistemic(V: pa.Subspace, w, U: pa.Subspace | None = None) -> EpistemicState:
    """Uniform distribution over V-perp + w; rejects non-isotropic V.

    A caller that already holds perp(V) passes it as U.
    """
    if not pa.is_isotropic(V):
        raise RestrictionViolation("known-variable subspace is not isotropic")
    d, n = V.d, V.n
    wv = [int(x) % d for x in w]
    if len(wv) != 2 * n:
        raise DimensionMismatch(f"expected length {2 * n}, got {len(wv)}")
    if U is None:
        U = pa.perp(V)
    state = EpistemicState(V, tuple(mm.reduce_row(wv, U.gens, d)))
    state.__dict__["U"] = U  # fills the cached property; perp(V) is at hand
    return state


def maximally_mixed(d: int, n: int) -> EpistemicState:
    return make_epistemic(pa.Subspace.zero(d, n), (0,) * (2 * n))


def apply_affine(state: EpistemicState, g: pa.AffineSymplectic) -> EpistemicState:
    """Push the distribution through lam -> S lam + a.

    The image of V-perp + w is (S V-perp) + (S w + a).  A functional sigma
    is known afterwards exactly when sigma S is known before, so the new
    known subspace is V S^-1.  Both products are numpy matmuls with the
    dense 2n x 2n map; they are reduced mod d where they become int rows.
    """
    if (g.d, g.n) != (state.d, state.n):
        raise DimensionMismatch("map and state live on different spaces")
    V_new = pa.Subspace.from_generators(state.V.matrix @ g.Sinv, state.d, state.n)
    new_w = (g.S @ np.array(state.w, dtype=np.int64) + g.a).tolist()
    out = make_epistemic(V_new, new_w)
    assert out.V.dim == state.V.dim
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

    @cached_property
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
    """Exact outcome table, in sorted outcome order.

    With A the measured generators, the outcome A lam of a support point runs
    uniformly over the coset A w + A V-perp, so each of its d^r points has
    probability 1/d^r, r = dim(A V-perp) = rank(U A^T) for U spanning V-perp.
    Runs on int rows: the spread is the rref of the rows (u . a for a in A),
    one per generator u of U.
    """
    if (meas.d, meas.n) != (state.d, state.n):
        raise DimensionMismatch("measurement and state live on different spaces")
    d = state.d
    A = meas.generators
    rows = [[sum(map(mul, u, a)) % d for a in A] for u in state.U.gens]
    spread, _ = mm.rref_rows(rows, len(A), d)
    size = d ** len(spread)
    if size > pa.COSET_GUARD:
        raise GuardExceeded(f"outcome table has {size} > {pa.COSET_GUARD} entries")
    outcomes = [[sum(map(mul, a, state.w)) % d for a in A]]
    for row in reversed(spread):  # centre + c . spread in lexicographic order of c
        outcomes = [
            [(x + m * y) % d for x, y in zip(k, row)] for m in range(d) for k in outcomes
        ]
    p = Fraction(1, size)
    return {k: p for k in sorted(map(tuple, outcomes))}


def _update(state: EpistemicState, meas: SharpMeasurement):
    """The measurement update, as a map outcome -> posterior state.

    Everything that does not depend on the outcome is computed once, here.
    Retained knowledge R = prior V intersected with the symplectic commutant
    of the measured subspace: the combinations c G of the prior generators G
    with [c G, a] = 0 for every measured generator a, that is c in the
    nullspace of M[i][j] = [a_i, g_j].  The posterior knows V_new =
    measured + R.  The shift is one solution x of [A; R] x = [outcome; R w]:
    the points showing the outcome on A and the prior values on R, among
    them every prior-support point showing the outcome, form exactly one
    coset of the new support.  The system is unsolvable exactly when the
    outcome has probability zero.

    Runs on int rows, except the product c G, which stays one numpy matmul.
    """
    d, n = state.d, state.n
    A = meas.generators
    G = state.V.gens
    k = len(G)
    JG = [pa.symplectic_row(g) for g in G]
    M, pivots = mm.rref_rows([[sum(map(mul, a, Jg)) % d for Jg in JG] for a in A], k, d)
    coeffs = mm.complement_rows(M, pivots, k, d)
    C = np.array(coeffs, dtype=np.int64).reshape(len(coeffs), k)
    retained = pa.Subspace.from_generators(C @ state.V.matrix, d, n)
    V_new = meas.subspace + retained
    U_new = pa.perp(V_new)
    R = retained.gens
    system = A + R
    prior_values = [sum(map(mul, r, state.w)) % d for r in R]

    def update(outcome: tuple[int, ...]) -> EpistemicState:
        values = [int(x) % d for x in outcome] + prior_values
        shift = mm.solve_rows(system, values, 2 * n, d)
        if shift is None:
            raise DimensionMismatch(f"outcome {outcome} has probability zero")
        return make_epistemic(V_new, shift, U_new)

    return update


def posterior(
    state: EpistemicState, meas: SharpMeasurement, outcome: tuple[int, ...]
) -> EpistemicState:
    """State after observing the given outcome (the update of `_update`)."""
    if (meas.d, meas.n) != (state.d, state.n):
        raise DimensionMismatch("measurement and state live on different spaces")
    if len(outcome) != len(meas.generators):
        raise DimensionMismatch(
            f"outcome {outcome} does not match {len(meas.generators)} functionals"
        )
    return _update(state, meas)(outcome)


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
    its exact probability and the posterior state.  The outcome-independent
    part of the update is computed once per branch."""

    def step(outcomes, state):
        table = outcome_distribution(state, meas)
        update = _update(state, meas)
        return [(k, pk, update(k)) for k, pk in table.items()]

    return step


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
