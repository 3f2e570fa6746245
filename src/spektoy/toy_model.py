"""The epistemically restricted phase-space model: states of partial
knowledge, affine evolution, sharp measurement with update, and exact
statistics.

An epistemic state (V, w) is the uniform distribution over the coset
V-perp + w: V is the isotropic subspace of known functionals and w a shift
carrying their values.  Nothing here lists that coset of d^(2n - dim V)
points: weights, point probabilities, outcome tables, updates and affine
evolution are closed forms, linear algebra over Z_d polynomial in n.  As in
a stabilizer tableau, the state is V's rref rows and their values: the
canonical w is zero off V's pivot columns and holds each row's value on its
pivot.  Each step is a plan on V alone (a gate's `_transport`, a
`_MeasurementPlan`) and a cheap finish mapping old values to new ones; no
step needs V-perp.  V after a step depends on V before it and the step
alone, never on the values or an outcome, so `statistics` builds one chain
of plans per call and its branches carry only values; every leaf has the
same probability 1/m, a product of measurement factors alone: the walk
stops at the last measurement, which lists its outcomes without posterior
values.  `statistics` keeps each finished plan on its step object, by V
(`_plans`): the hosts of `equivalence` hand the same step objects to every
circuit and meet few V's at small n, so a plan is built once per (V, step).
The single-state steps build fresh plans and keep none, because a trajectory
seldom meets a V twice and there the kept plans would only grow.  Steps
run on V's packed rows (`Subspace.bits`, its one stored form) at every d,
as in Aaronson-Gottesman's tableau: a row operation or a product is one
`_modmath` kernel over the whole row (`_Rows`), and a gate's V S^-1 sums
S^-1's packed rows.  A measurement of k functionals is k tableau row
updates, O(k dim V 2n); one walk of them on the values lists every
outcome with its posterior values, and a shorter one the outcomes alone.
`EpistemicState.support` lists the coset on each read, under
`phase_algebra.COSET_GUARD`, and the state never keeps it.  Only
`make_epistemic` and `SharpMeasurement` check isotropy: a symplectic map
and a row update keep V isotropic by construction (`_transport`,
`_MeasurementPlan`).
Distributions are exact rationals; sampling is a thin seeded layer on top.

Measurement update: the posterior known subspace is the measured subspace
plus the part of the prior that symplectically commutes with every measured
functional, and its rows take the values of the observed outcome and of the
retained functionals.  This is the unique choice that is repeatable,
restriction-preserving, and reproduces dense-oracle statistics across the
bridged subtheories.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain, product
from operator import mul

from . import _modmath as mm
from . import phase_algebra as pa
from .circuits import Step, branch_tree
from .errors import DimensionMismatch, GuardExceeded, RestrictionViolation


@dataclass(frozen=True)
class EpistemicState:
    """Uniform distribution over V-perp + w.  make_epistemic builds it: it
    checks that V is isotropic and puts w in canonical form, zero off V's
    pivot columns and equal to g . w at the pivot of V's rref row g, so
    equal distributions compare equal."""

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
        """The support directions V-perp, computed when `support` is read."""
        return pa.perp(self.V)

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        """Every point of V-perp + w in lexicographic order, listed on each
        read, never kept on the state; GuardExceeded past COSET_GUARD points."""
        return pa.coset_members(self.U, self.w)

    @property
    def values(self) -> list[int]:
        """The value of each rref row of V, in order: w on V's pivots."""
        return [self.w[p] for p in self.V.pivots]

    @property
    def weight(self) -> Fraction:
        return Fraction(1, self.d ** (2 * self.n - self.V.dim))

    def probability(self, lam) -> Fraction:
        """The weight on the support, else 0: lam lies in V-perp + w exactly
        when every known functional takes the same value on lam as on w."""
        d, lam = self.d, pa.point(lam, self.d)
        if len(lam) != 2 * self.n:
            raise DimensionMismatch(f"expected length {2 * self.n}, got {len(lam)}")
        diff = mm.pack([(x - y) % d for x, y in zip(lam, self.w)])
        return Fraction(0) if any(mm.dot_bits(self.V.bits, diff, 2 * self.n, d)) else self.weight

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
    d, wv = V.d, [int(x) % V.d for x in w]
    if len(wv) != 2 * V.n:
        raise DimensionMismatch(f"expected length {2 * V.n}, got {len(wv)}")
    return _coset_state(V, mm.dot_bits(V.bits, mm.pack(wv), 2 * V.n, d))


def _coset_state(V: pa.Subspace, values) -> EpistemicState:
    """(V, the shift holding values, ints in [0, d), on V's pivots), unchecked.
    Row g_j is 1 at its own pivot and 0 at the others: it takes values[j]."""
    w = [0] * (2 * V.n)
    for p, x in zip(V.pivots, values):
        w[p] = x
    return EpistemicState(V, tuple(w))


def maximally_mixed(d: int, n: int) -> EpistemicState:
    return make_epistemic(pa.Subspace.zero(d, n), (0,) * (2 * n))


class _Rows:
    """The row primitives of a step on Z_d^{2n}: rows are packed (`mm.pack`,
    `Subspace.bits`) and every row operation is a `_modmath` kernel."""

    def __init__(self, d: int, n: int):
        self.d, self.n, self.w = d, n, 2 * n

    def of(self, V: pa.Subspace) -> list[int]:
        return list(V.bits)

    def subspace(self, rows) -> pa.Subspace:
        return pa.Subspace(tuple(rows), self.d, self.n)

    def products(self, rows, a) -> list[int]:  # [g, a] for each row g
        return mm.dot_bits(rows, mm.swap_pairs(mm.pack(a), self.n, self.d), self.w, self.d)

    def reduce(self, a, rows):  # a modulo rref rows
        return mm.reduce_bits(mm.pack(a), rows, self.w, self.d)

    def led_by_one(self, v):  # (pivot q, 1 / v[q], v scaled by it), None at zero
        if not v:
            return None
        q, d = mm.lead_bit(v, self.w), self.d
        inv = pow(v >> 8 * (self.w - 1 - q), -1, d)
        return q, inv, mm.scale_bits(v, inv, self.w, d)

    def column(self, rows, q) -> list[int]:
        shift = 8 * (self.w - 1 - q)
        return [g >> shift & 255 for g in rows]

    def subtract(self, rows, factors, top):  # rows[j] - factors[j] top; factor 0 keeps rows[j]
        return mm.subtract_bits(rows, factors, top, self.w, self.d)

    def moved(self, V: pa.Subspace, g: pa.AffineSymplectic) -> tuple:
        """(V_new = V S^-1, H, c) of `_transport`, H = V_new S on V's
        pivot columns and c = V_new a.  Each row v S^-1 is a sum of S^-1's
        packed rows.  They are eliminated with their coefficients on V's
        rows in k extra low bytes: a row h of V_new is sum_j T_j (v_j S^-1),
        so h S = sum_j T_j v_j, and the row of H for h is T."""
        d, w, k = self.d, self.w, V.dim
        rows = [mm.combine_bits(mm.unpack(v, w), g.Sinv_bits, w, d) << 8 * k
                | 1 << 8 * (k - 1 - j) for j, v in enumerate(V.bits)]
        R, a = mm.rref_bits(rows, w + k, d), mm.pack(g.a.tolist())
        new, H = [r >> 8 * k for r in R], [list(mm.unpack(r, w + k)[w:]) for r in R]
        return pa.Subspace(tuple(new), d, self.n), H, mm.dot_bits(new, a, w, d)


@cache
def _row_form(d: int, n: int) -> _Rows:
    """The row primitives of Z_d^{2n}: one shared instance per (d, n), so
    the plans kept on a step (`_plans`) do not each hold their own."""
    return _Rows(d, n)


def _transport(V: pa.Subspace, g: pa.AffineSymplectic) -> tuple:
    """The plan of a gate lam -> S lam + a, whatever the shift: (V_new =
    V S^-1, H, c).  sigma is known afterwards exactly when sigma S is known
    before.  Row h of V_new takes the value (h S) . w + h . a, and h S lies
    in V: its coefficients on V's rows are its entries on V's pivots.  So
    new values = H values + c, H = V_new S on V's pivot columns, c = V_new a.
    V_new needs no isotropy check: S^T J S = J, checked when the map was
    built and S read-only since, so [u S^-1, v S^-1] = [u, v] = 0 on V."""
    if (g.d, g.n) != (V.d, V.n):
        raise DimensionMismatch("map and state live on different spaces")
    V_new, H, c = _row_form(V.d, V.n).moved(V, g)
    assert V_new.dim == V.dim
    return V_new, H, c


def _shifted(plan: tuple, values) -> list[int]:
    """The finish of a gate on V's values: V_new's values H values + c."""
    d, (_, H, c) = plan[0].d, plan
    return [(sum(map(mul, h, values)) + x) % d for h, x in zip(H, c)]


def apply_affine(state: EpistemicState, g: pa.AffineSymplectic) -> EpistemicState:
    """Push the distribution through lam -> S lam + a: the image of V-perp + w
    is (S V-perp) + (S w + a)."""
    plan = _transport(state.V, g)
    return _coset_state(plan[0], _shifted(plan, state.values))


@dataclass(frozen=True)
class SharpMeasurement:
    """Joint measurement of an ordered tuple of commuting functionals: the
    outcome is their values less their offsets (zero by default) mod d, in
    generator order.  The generators must span an isotropic subspace."""

    generators: tuple[tuple[int, ...], ...]
    d: int
    n: int
    offsets: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(pa.point(g, self.d) for g in self.generators))
        if not self.generators:
            raise DimensionMismatch("measurement needs at least one functional")
        offsets = pa.point(self.offsets, self.d) or (0,) * len(self.generators)
        if len(offsets) != len(self.generators):
            raise DimensionMismatch(f"{len(offsets)} offsets for {len(self.generators)} functionals")
        object.__setattr__(self, "offsets", offsets)
        if not pa.is_isotropic(self.subspace):
            raise RestrictionViolation("measured functionals are not jointly knowable")

    @cached_property
    def subspace(self) -> pa.Subspace:
        return pa.Subspace.from_generators(self.generators, self.d, self.n)

    def outcome_of(self, lam) -> tuple[int, ...]:
        return tuple((pa.evaluate(g, lam, self.d) - c) % self.d
                     for g, c in zip(self.generators, self.offsets))


Table = dict[tuple[int, ...], Fraction]  # outcome -> probability, in sorted outcome order


class _MeasurementPlan:
    """What measuring A = meas.generators needs of the prior's known
    subspace V alone, shared by every state on V: `updates`, built here,
    and `size`, on first read; `children` and `after` finish it on V's values.

    updates = (V_new, ops): per functional a of A, one tableau row update of
    the rref rows g_j the update before left.  With s_j = [g_j, a] and p the
    last j with s_j != 0, g_j becomes g_j - (s_j/s_p) g_p and g_p goes; the
    rows left span V within a's commutant, still in rref.  a's residue
    modulo them is zero (its value is determined) or, led by 1, clears its
    pivot column from the rows and joins them (a is free).  ops holds the
    factors and a's offset that `children` and `after` replay.  V_new needs
    no isotropy check: the kept rows commute with each other and with a,
    so a's residue, a less a combination of them, commutes with each."""

    def __init__(self, V: pa.Subspace, meas: SharpMeasurement):
        if (meas.d, meas.n) != (V.d, V.n):
            raise DimensionMismatch("measurement and state live on different spaces")
        self.V, self.A = V, meas.generators
        d, F, pivots, ops = V.d, _row_form(V.d, V.n), list(V.pivots), []
        rows = F.of(V)
        for a, off in zip(self.A, meas.offsets):
            p, moves, inv, clears, at = (None,) * 5
            s = F.products(rows, a)
            if any(s):
                p = max(j for j, x in enumerate(s) if x)
                moves = [x * pow(s[p], -1, d) % d for x in s[:p] + s[p + 1 :]]
                del pivots[p]
                rows = F.subtract(rows, moves, rows.pop(p))
            residue, coeffs = F.reduce(a, rows), [a[c] for c in pivots]
            lead = F.led_by_one(residue)
            if lead is not None:
                q, inv, top = lead
                at, clears = sum(c < q for c in pivots), F.column(rows, q)
                rows = F.subtract(rows, clears, top)
                rows[at:at], pivots[at:at] = [top], [q]
            ops.append((p, moves, coeffs, off, inv, clears, at))
        self.updates = F.subspace(rows), ops

    @cached_property
    def size(self) -> int:
        """The number of outcomes, d^(free functionals), all equally likely;
        GuardExceeded past COSET_GUARD, before any is listed.  It is
        d^(dim (V + span A) - dim V): a's residue modulo the rows left is
        zero exactly when a lies in V + span(earlier functionals), for if
        a = v + e so, v = a - e lies in V, commutes with every measured
        functional and so survives each row drop."""
        size = self.V.d ** sum(op[4] is not None for op in self.updates[1])
        if size > pa.COSET_GUARD:
            raise GuardExceeded(f"outcome table has {size} > {pa.COSET_GUARD} entries")
        return size

    def _drop(self, op, vals) -> tuple[list[int], int]:
        """op's row drop on the values, and the outcome the kept rows predict
        for a: the value they give it less its offset."""
        p, moves, coeffs, c = op[:4]
        if moves is not None:
            d, x = self.V.d, vals[p]
            vals = [(v - f * x) % d for v, f in zip(vals[:p] + vals[p + 1 :], moves)]
        return vals, sum(map(mul, coeffs, vals)) - c

    def _show(self, op, vals, x: int) -> list[int]:
        """The values after a shows x more than its kept rows give it: a
        free a joins the rows, a determined one (x = 0) leaves them."""
        inv, clears, at = op[4:]
        if inv is None:
            return vals
        d = self.V.d
        x = x * inv % d
        vals = [(v - f * x) % d for v, f in zip(vals, clears)]
        vals.insert(at, x)
        return vals

    def children(self, values, upto=None) -> list[tuple[tuple[int, ...], list[int]]]:
        """(outcome, V_new's values) for each outcome that can occur at V's
        values, in lexicographic order: one breadth-first walk over ops (the
        first `upto` of them), a determined functional showing its outcome,
        a free one each of 0..d-1."""
        d, level = self.V.d, [((), values)]
        for op in self.updates[1][:upto]:
            nxt = []
            for k, vals in level:
                vals, known = self._drop(op, vals)
                xs = range(d) if op[4] is not None else (known % d,)
                nxt += [(k + (x,), self._show(op, vals, (x - known) % d)) for x in xs]
            level = nxt
        return level

    def outcomes(self, values) -> list[tuple[int, ...]]:
        """The outcomes of `children`, in its order, without its values.
        Being free depends on V alone, and a free functional shows each of
        0..d-1 on every branch: those after the last determined one need no
        walk, and the walk stops at that one's outcome, with no row update."""
        d, ops = self.V.d, self.updates[1]
        cut = len(ops)  # ops[cut:] are free, ops[cut - 1] determined
        while cut and ops[cut - 1][4] is not None:
            cut -= 1
        tails = list(product(range(d), repeat=len(ops) - cut))
        return [k + (self._drop(ops[cut - 1], vals)[1] % d,) + t
                for k, vals in self.children(values, cut - 1) for t in tails] if cut else tails

    def after(self, values, outcome: tuple) -> list[int]:
        """V_new's values after outcome at V's values, listing nothing else;
        DimensionMismatch when a determined functional would show another
        outcome than its own, so the outcome has probability zero."""
        vals, d = values, self.V.d
        for op, x in zip(self.updates[1], outcome):
            vals, known = self._drop(op, vals)
            x = (int(x) - known) % d
            if op[4] is None and x:
                raise DimensionMismatch(f"outcome {outcome} has probability zero")
            vals = self._show(op, vals, x)
        return vals


def outcome_distribution(state: EpistemicState, meas: SharpMeasurement) -> Table:
    """Exact outcome table, in sorted outcome order."""
    plan = _MeasurementPlan(state.V, meas)
    return dict.fromkeys(plan.outcomes(state.values), Fraction(1, plan.size))


def posterior(state: EpistemicState, meas: SharpMeasurement, outcome: tuple) -> EpistemicState:
    """State after observing the given outcome."""
    plan, k = _MeasurementPlan(state.V, meas), len(meas.generators)
    if len(outcome) != k:
        raise DimensionMismatch(f"outcome {outcome} does not match {k} functionals")
    return _coset_state(plan.updates[0], plan.after(state.values, outcome))


def measure_sharp(state: EpistemicState, meas: SharpMeasurement, rng_seed: int = 0):
    """Seeded sample: (outcome, posterior state, exact probability table);
    only the drawn outcome's posterior is built."""
    plan, values = _MeasurementPlan(state.V, meas), state.values
    p = Fraction(1, plan.size)
    outcomes, r, acc = plan.outcomes(values), random.Random(rng_seed).random(), 0.0
    for outcome in outcomes:  # the last outcome if rounding leaves r >= acc
        acc += float(p)
        if r < acc:
            break
    after = _coset_state(plan.updates[0], plan.after(values, outcome))
    return outcome, after, dict.fromkeys(outcomes, p)


ToyStep = tuple[str, object]  # ("gate", AffineSymplectic) | ("measure", SharpMeasurement)


def _measured(plan: _MeasurementPlan, outcomes, level, last=False) -> tuple:
    """Walker finish of a measurement on a level of V's values: one child
    per outcome that can occur, with V_new's values, every one of
    probability 1/m, given as the int m; each child records its outcome
    tuple as one entry, (outcome,).  The last measurement of a circuit
    lists its outcomes alone: no leaf reads the values after it; when every
    measured functional is free, that list is the same on every branch."""
    if last:
        if plan.size == plan.V.d ** len(plan.A):
            ks = [(k,) for k in plan.outcomes(level[0])] * len(level)
        else:
            ks = [(k,) for k in chain.from_iterable(map(plan.outcomes, level))]
        return ks, plan.size, [()] * len(ks)
    ks, values = zip(*chain.from_iterable(map(plan.children, level)))
    return [(k,) for k in ks], plan.size, list(values)


def _plans(op) -> dict:
    """The plans of a step that `_chain` keeps, by known subspace V: a gate's
    `_transport`, a `_MeasurementPlan` with `size` read.
    They live in the step's own __dict__, so they go when the step goes."""
    return op.__dict__.setdefault("_plans", {})


def _chain(V: pa.Subspace, steps: list[ToyStep]) -> tuple[list[Step], pa.Subspace]:
    """The walker steps of a circuit on levels (one list of values of V's
    rows per depth), and the known subspace after the last one.  It
    depends on the one before and the step alone, so every branch at one
    depth shares it: one plan per step, built
    in step order on the last V_new, or read from the step's `_plans` when
    the step has met this V before.  Only a finished plan is kept, so a
    step that raises keeps nothing and raises again on the next call."""
    if bad := [kind for kind, _ in steps if kind not in ("gate", "measure")]:
        raise DimensionMismatch(f"unknown step kind {bad[0]!r}")
    walker = []
    for kind, op in steps:
        plans = _plans(op)
        plan = plans.get(V)
        if kind == "gate":
            if plan is None:
                plan = plans[V] = _transport(V, op)
            walker.append(lambda outcomes, level, plan=plan: (
                None, None, [_shifted(plan, values) for values in level]))
            V = plan[0]
        else:
            if plan is None:
                plan = _MeasurementPlan(V, op)
                plan.size  # the outcome guard fires before any outcome is listed
                plans[V] = plan
            walker.append(partial(_measured, plan))
            V = plan.updates[0]
    return walker, V


def statistics(
    state: EpistemicState, steps: list[ToyStep]
) -> dict[tuple[tuple[int, ...], ...], Fraction]:
    """Exact distribution over outcome-tuple sequences for a circuit of
    affine maps and sharp measurements, with no sampling: every branch with
    nonzero probability is expanded, carrying only its values.  A step's
    outcome count does not depend on them, so each leaf has probability 1/m.
    Every step's plan is read from, or kept in, its `_plans`, so every step
    is checked, but the walk stops at the last measurement: a leaf's
    probability is a product of measurement factors alone."""
    walker, _ = _chain(state.V, steps)
    cut = max((j + 1 for j, (kind, _) in enumerate(steps) if kind == "measure"), default=0)
    if cut:
        walker[cut - 1] = partial(walker[cut - 1], last=True)
    leaves = branch_tree([state.values], walker[:cut])
    return dict.fromkeys(sorted(o for o, _, _ in leaves), Fraction(1, leaves[0][1]))
