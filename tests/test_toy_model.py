import itertools
import json
import random
import time
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spektoy import _modmath as mm
from spektoy import phase_algebra as pa
from spektoy import toy_model as tm
from spektoy.circuits import branch_tree
from spektoy.errors import DimensionMismatch, GuardExceeded, RestrictionViolation
from int_rows import ref_int_rows, ref_reduce_row, ref_rref_rows
from test_modmath import ref_nullspace, ref_rref, ref_solve
from sp_enumeration import symplectic_matrices
from test_phase_algebra import affine_symplectics, recombined


def x_known_state(value=0):
    V = pa.Subspace.from_generators([(1, 0)], 2, 1)
    return tm.make_epistemic(V, (value, 0))


class TestMakeEpistemic:
    def test_x_known_zero(self):
        s = x_known_state(0)
        assert s.support == ((0, 0), (0, 1))
        assert s.weight == Fraction(1, 2)

    def test_maximally_mixed(self):
        s = tm.maximally_mixed(2, 1)
        assert len(s.support) == 4
        assert s.weight == Fraction(1, 4)

    def test_bell_analogue(self):
        V = pa.Subspace.from_generators([(1, 0, 1, 0), (0, 1, 0, 1)], 2, 2)
        s = tm.make_epistemic(V, (0,) * 4)
        assert s.weight == Fraction(1, 4)
        assert s.support == ((0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1))

    def test_support_is_listed_on_each_read_and_never_kept(self):
        V = pa.Subspace.from_generators([(1, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1)], 3, 3)
        s = tm.make_epistemic(V, (1, 2, 0, 0, 2, 1))
        first = s.support
        assert "support" not in vars(s)
        assert s.support == first and len(first) == 3**4
        assert s.to_json()["support"] == [list(p) for p in first]
        assert "support" not in vars(s)

    def test_non_isotropic_rejected(self):
        V = pa.Subspace.from_generators([(1, 0), (0, 1)], 2, 1)
        with pytest.raises(RestrictionViolation):
            tm.make_epistemic(V, (0, 0))

    def test_shift_canonical_modulo_support_directions(self):
        V = pa.Subspace.from_generators([(1, 0)], 2, 1)
        a = tm.make_epistemic(V, (0, 0))
        b = tm.make_epistemic(V, (0, 1))  # differs by a support direction
        assert a == b

    def test_wrong_length_shift_rejected(self):
        V = pa.Subspace.from_generators([(1, 0, 0, 0)], 3, 2)
        for w in [(0, 0, 0), (0,) * 5, ()]:
            with pytest.raises(DimensionMismatch, match="expected length 4"):
                tm.make_epistemic(V, w)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_shift_types_and_residues_agree(self, d):
        V = pa.Subspace.from_generators([(1, 0, 1, 0), (0, 1, 0, d - 1)], d, 2)
        w = (1, 2 % d, 0, d - 1)
        s = tm.make_epistemic(V, w)
        assert tm.make_epistemic(V, np.array(w)) == s
        assert tm.make_epistemic(V, list(w)) == s
        assert tm.make_epistemic(V, tuple(x + 3 * d for x in w)) == s
        assert tm.make_epistemic(V, tuple(x - 2 * d for x in w)) == s
        assert tm.make_epistemic(V, np.array(w) - d) == s
        # the canonical shift is zero off V's pivot columns and holds each
        # rref row's value on its pivot, reduced mod d
        pivots = [next(c for c, x in enumerate(g) if x) for g in V.gens]
        assert all(x == 0 for c, x in enumerate(s.w) if c not in pivots)
        assert [s.w[c] for c in pivots] == [pa.evaluate(g, w, d) for g in V.gens]
        assert tm.make_epistemic(V, [x if c in pivots else x + d for c, x in enumerate(s.w)]) == s
        assert all(type(x) is int and 0 <= x < d for x in s.w)

    @pytest.mark.parametrize("d", [2, 3])
    def test_support_size_formula(self, d):
        # |support| = d^{2n - dim V} over all isotropic subspaces at n=1
        for V in _isotropic_subspaces(d, 1):
            s = tm.make_epistemic(V, (0, 0))
            assert len(s.support) == d ** (2 - V.dim)


def _isotropic_subspaces(d, n):
    out = [pa.Subspace.zero(d, n)]
    seen = set(out)
    frontier = list(out)
    while frontier:
        nxt = []
        for V in frontier:
            comm = pa.symplectic_commutant(V)
            for vec in comm.vectors():
                if not any(vec) or V.contains(vec):
                    continue
                W = pa.Subspace.from_generators(list(V.gens) + [vec], d, n)
                if W not in seen:
                    seen.add(W)
                    out.append(W)
                    nxt.append(W)
        frontier = nxt
    return out


class TestAffine:
    def test_identity(self):
        s = x_known_state()
        assert tm.apply_affine(s, pa.AffineSymplectic.identity(1, 2)) == s

    def test_swap_x_p(self):
        g = pa.AffineSymplectic(np.array([[0, 1], [1, 0]]), np.zeros(2, dtype=int), 2)
        s = tm.apply_affine(x_known_state(), g)
        assert s.support == ((0, 0), (1, 0))  # p now known instead of x

    def test_translation_is_bit_flip(self):
        g = pa.AffineSymplectic(np.eye(2, dtype=int), np.array([1, 0]), 2)
        s = tm.apply_affine(x_known_state(0), g)
        assert s == x_known_state(1)

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
    def test_support_cardinality_preserved(self, d, n):
        rng = np.random.default_rng(3)
        isos = _isotropic_subspaces(d, n)
        maps = list(itertools.islice(affine_symplectics(n, d), 60))
        for _ in range(40):
            V = isos[rng.integers(0, len(isos))]
            w = tuple(rng.integers(0, d, 2 * n))
            s = tm.make_epistemic(V, w)
            g = maps[rng.integers(0, len(maps))]
            assert len(tm.apply_affine(s, g).support) == len(s.support)

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 1)])
    def test_subspace_transport_matches_pointwise_image(self, d, n):
        # independent oracle: push every support point through the map
        rng = np.random.default_rng(4)
        isos = _isotropic_subspaces(d, n)
        maps = list(itertools.islice(affine_symplectics(n, d), 80))
        for _ in range(60):
            V = isos[rng.integers(0, len(isos))]
            w = tuple(rng.integers(0, d, 2 * n))
            s = tm.make_epistemic(V, w)
            g = maps[rng.integers(0, len(maps))]
            moved = tm.apply_affine(s, g)
            pointwise = sorted(g.apply(lam) for lam in s.support)
            assert list(moved.support) == pointwise


class TestMeasurement:
    def test_known_variable_is_deterministic_and_nondisturbing(self):
        s = x_known_state(1)
        meas = tm.SharpMeasurement(((1, 0),), 2, 1)
        dist = tm.outcome_distribution(s, meas)
        assert dist == {(1,): Fraction(1)}
        assert tm.posterior(s, meas, (1,)) == s

    def test_momentum_on_x_known(self):
        s = x_known_state()
        meas = tm.SharpMeasurement(((0, 1),), 2, 1)
        dist = tm.outcome_distribution(s, meas)
        assert dist == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
        post = tm.posterior(s, meas, (1,))
        assert post.support == ((0, 1), (1, 1))

    def test_joint_parity_on_bell_analogue(self):
        V = pa.Subspace.from_generators([(1, 0, 1, 0), (0, 1, 0, 1)], 2, 2)
        bell = tm.make_epistemic(V, (0,) * 4)
        meas = tm.SharpMeasurement(((1, 0, 1, 0),), 2, 2)
        assert tm.outcome_distribution(bell, meas) == {(0,): Fraction(1)}

    def test_non_commuting_functionals_rejected(self):
        with pytest.raises(RestrictionViolation):
            tm.SharpMeasurement(((1, 0), (0, 1)), 2, 1)

    def test_one_offset_per_functional(self):
        assert tm.SharpMeasurement(((1, 0, 0, 0), (0, 0, 1, 0)), 3, 2).offsets == (0, 0)
        assert tm.SharpMeasurement(((1, 0),), 3, 1, (-1,)).offsets == (2,)
        with pytest.raises(DimensionMismatch, match="2 offsets for 1 functionals"):
            tm.SharpMeasurement(((1, 0),), 2, 1, (0, 1))

    def test_measure_sharp_sampling_is_seeded(self):
        s = x_known_state()
        meas = tm.SharpMeasurement(((0, 1),), 2, 1)
        o1 = tm.measure_sharp(s, meas, rng_seed=5)
        o2 = tm.measure_sharp(s, meas, rng_seed=5)
        assert o1[0] == o2[0]

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_repeatability_random(self, d, n):
        rng = np.random.default_rng(11)
        isos = [V for V in _isotropic_subspaces(d, n) if V.dim > 0]
        count = 0
        while count < 250:
            V = isos[rng.integers(0, len(isos))]
            w = tuple(rng.integers(0, d, 2 * n))
            s = tm.make_epistemic(V, w)
            sigma = tuple(rng.integers(0, d, 2 * n))
            if not any(sigma):
                continue
            try:
                meas = tm.SharpMeasurement((sigma,), d, n)
            except RestrictionViolation:
                continue
            count += 1
            outcome, post, _ = tm.measure_sharp(s, meas, rng_seed=count)
            again = tm.outcome_distribution(post, meas)
            assert again == {tuple(outcome): Fraction(1)}

    def test_posterior_rejects_a_wrong_length_outcome(self):
        meas = tm.SharpMeasurement(((1, 0, 1, 0),), 2, 2)
        state = tm.maximally_mixed(2, 2)
        for outcome in [(0, 1), ()]:
            with pytest.raises(DimensionMismatch, match="does not match 1 functionals"):
                tm.posterior(state, meas, outcome)

    def test_joint_two_functional_measurement(self):
        # measure both position functionals on the maximally mixed pair
        mixed = tm.maximally_mixed(2, 2)
        meas = tm.SharpMeasurement(((1, 0, 0, 0), (0, 0, 1, 0)), 2, 2)
        dist = tm.outcome_distribution(mixed, meas)
        assert len(dist) == 4
        assert all(p == Fraction(1, 4) for p in dist.values())
        post = tm.posterior(mixed, meas, (1, 0))
        assert len(post.support) == 4  # both momenta still free
        assert post.known_value((1, 0, 0, 0)) == 1
        assert post.known_value((0, 0, 1, 0)) == 0

    def test_partial_commuting_knowledge_is_retained(self):
        # knowing x1+x2 and p1+p2, then measuring x1: the pair-sum of
        # positions commutes with x1 and survives; the momentum sum does not
        V = pa.Subspace.from_generators([(1, 0, 1, 0), (0, 1, 0, 1)], 2, 2)
        bell = tm.make_epistemic(V, (0,) * 4)
        meas = tm.SharpMeasurement(((1, 0, 0, 0),), 2, 2)
        post = tm.posterior(bell, meas, (0,))
        assert post.V.contains((1, 0, 1, 0))
        assert post.V.contains((1, 0, 0, 0))
        assert not post.V.contains((0, 1, 0, 1))
        assert len(post.support) == 4


class TestStatistics:
    def test_empty_circuit(self):
        s = x_known_state()
        assert tm.statistics(s, []) == {(): Fraction(1)}

    def test_values_are_fractions_without_measurements(self):
        s = x_known_state()
        g = pa.AffineSymplectic(np.eye(2, dtype=int), np.array([1, 0]), 2)
        for steps in ([], [("gate", g)]):
            stats = tm.statistics(s, steps)
            assert list(stats) == [()]
            assert type(stats[()]) is Fraction

    def test_measurement_pipeline_matches_single_steps(self):
        s = x_known_state()
        meas = tm.SharpMeasurement(((0, 1),), 2, 1)
        stats = tm.statistics(s, [("measure", meas), ("measure", meas)])
        assert stats == {
            ((0,), (0,)): Fraction(1, 2),
            ((1,), (1,)): Fraction(1, 2),
        }

    def test_gate_then_measure(self):
        s = x_known_state()
        g = pa.AffineSymplectic(np.eye(2, dtype=int), np.array([1, 0]), 2)
        meas = tm.SharpMeasurement(((1, 0),), 2, 1)
        stats = tm.statistics(s, [("gate", g), ("measure", meas)])
        assert stats == {((1,),): Fraction(1)}

    def test_distribution_sums_to_one(self):
        V = pa.Subspace.from_generators([(1, 0, 1, 0), (0, 1, 0, 1)], 2, 2)
        bell = tm.make_epistemic(V, (0,) * 4)
        m1 = tm.SharpMeasurement(((1, 0, 0, 0),), 2, 2)
        m2 = tm.SharpMeasurement(((0, 1, 0, 1),), 2, 2)
        stats = tm.statistics(bell, [("measure", m1), ("measure", m2)])
        assert sum(stats.values()) == 1


class TestSerialization:
    def test_json_shape(self):
        s = x_known_state()
        doc = s.to_json()
        assert doc["d"] == 2 and doc["n"] == 1
        assert doc["V_generators"] == [[1, 0]]
        assert doc["support"] == [[0, 0], [0, 1]]


def ref_to_json(rows, w, d, n):
    """The report of the state (span of rows, w) from int rows alone: the
    rref rows by the int-row reference, w canonical (each row's value on
    its pivot, zero elsewhere) and the support listed by a scan of every
    point."""
    gens, pivots = ref_rref_rows([list(g) for g in rows], 2 * n, d)
    values = [sum(map(mul, g, w)) % d for g in gens]
    canon = [0] * (2 * n)
    for p, x in zip(pivots, values):
        canon[p] = x
    support = [list(lam) for lam in itertools.product(range(d), repeat=2 * n)
               if [sum(map(mul, g, lam)) % d for g in gens] == values]
    return {"d": d, "n": n, "V_generators": gens, "w": canon, "support": support}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_to_json_bytes_match_the_tuple_reference(data):
    # at d in {2, 3, 5}, every n with d^(2n) <= 6561 points to scan
    d, n = data.draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                                      (3, 4), (5, 1), (5, 2)]))
    coeffs = st.lists(st.integers(-d, 2 * d), min_size=2 * n, max_size=2 * n)
    V = _isotropic_of(d, n, data.draw, coeffs, data.draw(st.integers(0, n)))
    rows = recombined(data.draw, list(V.gens) + [[0] * (2 * n)], d)
    w = data.draw(coeffs)
    got = json.dumps(tm.make_epistemic(pa.Subspace.from_generators(rows, d, n), w).to_json())
    assert got == json.dumps(ref_to_json(rows, [x % d for x in w], d, n))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)
)
def test_known_value_agrees_with_support(a, b, wx, wp):
    if (a, b) == (0, 0):
        return
    V = pa.Subspace.from_generators([(a, b)], 2, 1)
    s = tm.make_epistemic(V, (wx, wp))
    val = s.known_value((a, b))
    assert all(pa.evaluate((a, b), lam, 2) == val for lam in s.support)


# ---------------------------------------------------------------------------
# Reference: outcome tables and updates by scanning the listed support


def scan_outcome_distribution(state, meas):
    """P(outcome) = |support ∩ outcome coset| / |support|."""
    counts = {}
    for lam in state.support:
        k = meas.outcome_of(lam)
        counts[k] = counts.get(k, 0) + 1
    total = len(state.support)
    return {k: Fraction(c, total) for k, c in sorted(counts.items())}


def scan_posterior(state, meas, outcome):
    """Measured subspace plus the commuting part of the prior, shifted to
    the first support point that shows the outcome."""
    V_pi = meas.subspace
    retained = state.V.intersect(pa.symplectic_commutant(V_pi))
    witness = next(lam for lam in state.support if meas.outcome_of(lam) == outcome)
    return tm.make_epistemic(V_pi + retained, witness)


def _functional_in(W, coeffs, avoid):
    """A member of W outside the subspace avoid: the drawn combination of
    W's generators, or else the first generator outside avoid."""
    vec = tuple(int(x) for x in mm.modp(np.array(coeffs) @ W.matrix, W.d))
    if avoid.contains(vec):
        vec = next(g for g in W.gens if not avoid.contains(g))
    return vec


def _isotropic_of(d, n, draw, coeffs, dim):
    """An isotropic subspace of the given dimension, grown one drawn
    functional of its symplectic commutant at a time."""
    V = pa.Subspace.zero(d, n)
    for _ in range(dim):
        comm = pa.symplectic_commutant(V)
        vec = _functional_in(comm, draw(coeffs)[: comm.dim], V)
        V = V + pa.Subspace.from_generators([vec], d, n)
    return V


@st.composite
def states_and_measurements(draw):
    d, n = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]))
    coeffs = st.lists(st.integers(0, d - 1), min_size=2 * n, max_size=2 * n)
    # partial up to maximal knowledge
    V = _isotropic_of(d, n, draw, coeffs, draw(st.integers(0, n)))
    w = tuple(draw(coeffs))
    full = pa.Subspace.full(d, n)
    gens = [_functional_in(full, draw(coeffs), pa.Subspace.zero(d, n))]
    if n > 1 and draw(st.booleans()):  # at n = 1 no second functional commutes
        first = pa.Subspace.from_generators(gens, d, n)
        comm = pa.symplectic_commutant(first)
        gens.append(_functional_in(comm, draw(coeffs)[: comm.dim], first))
    offsets = tuple(draw(coeffs)[: len(gens)])
    return tm.make_epistemic(V, w), tm.SharpMeasurement(tuple(gens), d, n, offsets)


@settings(max_examples=150, deadline=None)
@given(states_and_measurements())
def test_closed_forms_match_support_scan(case):
    state, meas = case
    d, n = state.d, state.n
    support = set(state.support)
    assert state.weight == Fraction(1, len(support))
    for lam in pa.all_points(d, n):
        assert state.probability(lam) == (state.weight if lam in support else 0)
    dist = tm.outcome_distribution(state, meas)
    assert list(dist.items()) == list(scan_outcome_distribution(state, meas).items())
    for outcome in itertools.product(range(d), repeat=len(meas.generators)):
        if outcome in dist:
            assert tm.posterior(state, meas, outcome) == scan_posterior(state, meas, outcome)
        else:
            with pytest.raises(DimensionMismatch):
                tm.posterior(state, meas, outcome)


@settings(max_examples=100, deadline=None)
@given(states_and_measurements())
def test_measure_step_children_are_posteriors(case):
    # the walker's measure step on the prior's values: each child carries an
    # outcome of the table, its probability and the posterior's values
    state, meas = case
    table = tm.outcome_distribution(state, meas)
    [step], V_new = tm._chain(state.V, [("measure", meas)])
    ks, m, level = step([()], [state.values])
    children = [(k, Fraction(1, m), tm._coset_state(V_new, vals)) for (k,), vals in zip(ks, level)]
    assert children == [(k, p, ref_posterior(state, meas, k)) for k, p in table.items()]
    assert [s for _, _, s in children] == [tm.posterior(state, meas, k) for k in table]
    d, r = state.d, len(meas.generators)
    impossible = [k for k in itertools.product(range(d), repeat=r) if k not in table]
    if impossible:
        with pytest.raises(DimensionMismatch, match="probability zero"):
            tm.posterior(state, meas, impossible[0])
    with pytest.raises(DimensionMismatch, match="does not match"):
        tm.posterior(state, meas, next(iter(table)) + (0,))


# ---------------------------------------------------------------------------
# Scale: nothing but the support itself lists the coset


def _random_affine(rng, d, n):
    """Product of 3n random site Fourier/shear and two-site SUM blocks,
    plus a random shift."""
    blocks = {0: np.array([[0, d - 1], [1, 0]]), 1: np.array([[1, 0], [1, 1]])}
    S = np.eye(2 * n, dtype=np.int64)
    for _ in range(3 * n):  # S = (B @ S) % d, as row operations on S
        kind = int(rng.integers(0, 3))
        if kind < 2:
            k = int(rng.integers(0, n))
            S[2 * k : 2 * k + 2] = blocks[kind] @ S[2 * k : 2 * k + 2] % d
        else:
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            S[2 * j] = (S[2 * j] + S[2 * i]) % d
            S[2 * i + 1] = (S[2 * i + 1] + (d - 1) * S[2 * j + 1]) % d
    return pa.AffineSymplectic(S, rng.integers(0, d, size=2 * n), d)


def _random_measurement(rng, d, n):
    while True:
        sigma = tuple(int(x) for x in rng.integers(0, d, size=2 * n))
        if any(sigma):
            return tm.SharpMeasurement((sigma,), d, n)


def _pure_state(rng, d, n):
    V = pa.Subspace.from_generators(np.eye(2 * n, dtype=np.int64)[1::2], d, n)
    return tm.make_epistemic(V, tuple(int(x) for x in rng.integers(0, d, size=2 * n)))


@pytest.fixture
def no_coset_listing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("coset listed")

    monkeypatch.setattr(pa, "coset_members", refuse)


@pytest.mark.parametrize("d,n", [(2, 40), (3, 20)])
def test_statistics_at_scale(no_coset_listing, d, n):
    rng = np.random.default_rng([d, n])
    state = _pure_state(rng, d, n)
    steps = []
    for k in range(6):
        if k % 2 == 0:
            steps.append(("gate", _random_affine(rng, d, n)))
        else:
            steps.append(("measure", _random_measurement(rng, d, n)))
    stats = tm.statistics(state, steps)
    assert len(stats) > 1
    assert all(type(p) is Fraction and p > 0 for p in stats.values())
    assert sum(stats.values()) == 1


def test_steps_never_list_the_coset(no_coset_listing):
    rng = np.random.default_rng(7)
    d, n = 2, 3
    state = tm.make_epistemic(
        pa.Subspace.from_generators([(1, 0, 1, 0, 0, 0)], d, n), (1, 0, 0, 1, 1, 0)
    )
    for _ in range(10):
        state = tm.apply_affine(state, _random_affine(rng, d, n))
        meas = _random_measurement(rng, d, n)
        for outcome in tm.outcome_distribution(state, meas):
            post = tm.posterior(state, meas, outcome)
        state = post


def test_support_past_guard_raises():
    state = _pure_state(np.random.default_rng(0), 2, 40)
    assert state.weight == Fraction(1, 2**40)
    with pytest.raises(GuardExceeded):
        state.support


def test_outcome_table_guard(monkeypatch):
    monkeypatch.setattr(pa, "COSET_GUARD", 8)
    state = tm.maximally_mixed(2, 4)
    axes = np.eye(8, dtype=np.int64)[0::2]
    assert len(tm.outcome_distribution(state, tm.SharpMeasurement(axes[:3], 2, 4))) == 8
    with pytest.raises(GuardExceeded):
        tm.outcome_distribution(state, tm.SharpMeasurement(axes, 2, 4))
    # one outcome's update lists nothing, so it runs past the guard
    meas = tm.SharpMeasurement(axes, 2, 4)
    assert tm.posterior(state, meas, (1, 0, 1, 1)) == ref_posterior(state, meas, (1, 0, 1, 1))


# ---------------------------------------------------------------------------
# Reference: the toy step on numpy arrays
#
# The functions below are the array implementations the package used before
# the toy step moved to Python int rows: every product is a numpy matmul and
# every elimination goes through the array reference routines of
# `test_modmath`.


def ref_is_isotropic(V):
    g = V.matrix
    J = pa.symplectic_form(V.n, V.d)
    return not np.any(mm.modp(g @ J @ g.T, V.d))


def ref_make_epistemic(V, w):
    """The canonical shift: zero off V's pivot columns, and the value of
    V's i-th rref row at its pivot."""
    if not ref_is_isotropic(V):
        raise RestrictionViolation("known-variable subspace is not isotropic")
    wv = pa.as_vector(w, V.d, V.n)
    G = V.matrix
    shift = np.zeros(2 * V.n, dtype=np.int64)
    shift[np.argmax(G != 0, axis=1)] = mm.modp(G @ wv, V.d)
    return tm.EpistemicState(V, tuple(shift.tolist()))


def ref_apply_affine(state, g):
    if (g.d, g.n) != (state.d, state.n):
        raise DimensionMismatch("map and state live on different spaces")
    d = state.d
    V_new = pa.Subspace.from_generators(state.V.matrix @ pa.symplectic_inverse(g.S, d), d, state.n)
    new_w = mm.modp(g.S @ np.array(state.w, dtype=np.int64) + g.a, d)
    out = ref_make_epistemic(V_new, tuple(int(x) for x in new_w))
    assert out.V.dim == state.V.dim
    return out


def ref_outcome_distribution(state, meas):
    if (meas.d, meas.n) != (state.d, state.n):
        raise DimensionMismatch("measurement and state live on different spaces")
    d = state.d
    A = np.array(meas.generators, dtype=np.int64)
    spread, _ = ref_rref(state.U.matrix @ A.T, d)
    size = d ** spread.shape[0]
    if size > pa.COSET_GUARD:
        raise GuardExceeded(f"outcome table has {size} > {pa.COSET_GUARD} entries")
    centre = A @ np.array(state.w, dtype=np.int64)
    outcomes = mm.modp(mm.coset_vectors(spread, centre, d) - np.array(meas.offsets), d)
    p = Fraction(1, size)
    return {k: p for k in sorted(map(tuple, outcomes.tolist()))}


def ref_update(state, meas):
    d, n = state.d, state.n
    A = np.array(meas.generators, dtype=np.int64)
    G = state.V.matrix
    coeffs = ref_nullspace(A @ pa.symplectic_form(n, d).T @ G.T, d)
    retained = pa.Subspace.from_generators(coeffs @ G, d, n)
    V_new = meas.subspace + retained
    R = retained.matrix
    system = np.concatenate([A, R])
    prior_values = (R @ np.array(state.w, dtype=np.int64)).tolist()

    def update(outcome):  # the functionals' values are outcome + offsets
        values = [int(k) + c for k, c in zip(outcome, meas.offsets)]
        shift = ref_solve(system, values + prior_values, d)
        if shift is None:
            raise DimensionMismatch(f"outcome {outcome} has probability zero")
        return ref_make_epistemic(V_new, shift)

    return update


def ref_posterior(state, meas, outcome):
    if (meas.d, meas.n) != (state.d, state.n):
        raise DimensionMismatch("measurement and state live on different spaces")
    if len(outcome) != len(meas.generators):
        raise DimensionMismatch(
            f"outcome {outcome} does not match {len(meas.generators)} functionals"
        )
    return ref_update(state, meas)(outcome)


def same_result(f, ref, *args):
    """f(*args) and ref(*args) return equal values, or raise the same
    exception type with the same message."""
    try:
        want = ("value", ref(*args))
    except Exception as e:  # any exception must be matched
        want = ("raise", type(e), str(e))
    try:
        got = ("value", f(*args))
    except Exception as e:
        got = ("raise", type(e), str(e))
    assert got == want
    return got


def plan_update(state, meas):
    """The measurement plan's finish at the state's values, as a map
    outcome -> posterior state."""
    plan = tm._MeasurementPlan(state.V, meas)
    return lambda outcome: tm._coset_state(plan.updates[0], plan.after(state.values, outcome))


def assert_same_table(state, meas):
    """Equal outcome tables (keys in the same order); returns the table."""
    table = tm.outcome_distribution(state, meas)
    want = ref_outcome_distribution(state, meas)
    assert list(table.items()) == list(want.items())
    return table


def assert_same_step(state, meas, g):
    """The int-row step equals the array step on this state: the gate
    image, the outcome table, and the update at every outcome (including
    the impossible ones and a wrong-length one)."""
    moved, want = tm.apply_affine(state, g), ref_apply_affine(state, g)
    assert (moved.V, moved.w) == (want.V, want.w)
    table = assert_same_table(state, meas)
    update, ref = plan_update(state, meas), ref_update(state, meas)
    for outcome in itertools.product(range(state.d), repeat=len(meas.generators)):
        result = same_result(update, ref, outcome)
        assert (result[0] == "value") == (outcome in table)
    same_result(tm.posterior, ref_posterior, state, meas, next(iter(table)) + (0,))
    return table


def _dependent(gens, d, pick):
    """A multiple of one generator, or the sum of two; pick(k) draws an
    int in [0, k)."""
    if len(gens) > 1 and pick(2):
        a, b = gens[pick(len(gens))], gens[pick(len(gens))]
        return tuple((x + y) % d for x, y in zip(a, b))
    c = 1 + pick(d - 1)
    return tuple(c * x % d for x in gens[pick(len(gens))])


@st.composite
def steps_on_states(draw):
    """(state, measurement, affine map) at d in {2, 3, 5}, n <= 4; the
    measurement has one to three commuting functionals, and sometimes one
    more that depends on them (a multiple of one, or the sum of two)."""
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4 if d < 5 else 3))
    coeffs = st.lists(st.integers(-2 * d, 2 * d), min_size=2 * n, max_size=2 * n)
    V = _isotropic_of(d, n, draw, coeffs, draw(st.integers(0, n)))
    w = tuple(draw(coeffs))
    M = _isotropic_of(d, n, draw, coeffs, draw(st.integers(1, min(n, 3))))
    gens = list(M.gens)
    if draw(st.booleans()):
        extra = _dependent(gens, d, lambda k: draw(st.integers(0, k - 1)))
        gens.insert(draw(st.integers(0, len(gens))), extra)
    if n == 1:  # no two-site blocks: any element of Sp(2, Z_d)
        S = draw(st.sampled_from(symplectic_matrices(1, d)))
        g = pa.AffineSymplectic(S, draw(coeffs), d)
    else:
        g = _random_affine(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d, n)
    return ref_make_epistemic(V, w), tm.SharpMeasurement(tuple(gens), d, n), g


def test_dependent_functionals_in_one_measurement():
    # the second functional is twice the first: its outcome is fixed by the
    # first one's, and every other pair has probability zero
    d, n = 3, 1
    state, meas = tm.maximally_mixed(d, n), tm.SharpMeasurement(((1, 0), (2, 0)), d, n)
    assert list(tm.outcome_distribution(state, meas)) == [(0, 0), (1, 2), (2, 1)]
    x_known = pa.Subspace.from_generators([(1, 0)], d, n)
    assert tm.posterior(state, meas, (1, 2)) == tm.make_epistemic(x_known, (1, 0))
    with pytest.raises(DimensionMismatch, match=r"outcome \(1, 1\) has probability zero"):
        tm.posterior(state, meas, (1, 1))
    for outcome in itertools.product(range(d), repeat=2):
        same_result(tm.posterior, ref_posterior, state, meas, outcome)


@settings(max_examples=150, deadline=None)
@given(steps_on_states())
def test_int_row_step_matches_array_reference(case):
    state, meas, g = case
    assert tm.make_epistemic(state.V, state.w) == state
    assert_same_step(state, meas, g)


@settings(max_examples=150, deadline=None)
@given(steps_on_states())
def test_plan_pivots_are_the_rows_pivots(case):
    # every plan's V_new holds the pivots of its rows, set when it is built
    state, meas, g = case
    for V_new in (tm._MeasurementPlan(state.V, meas).updates[0], tm._transport(state.V, g)[0]):
        assert V_new.pivots == tuple(r.index(1) for r in V_new.gens)
        assert V_new == pa.Subspace.from_generators(V_new.gens, state.d, state.n)


@settings(max_examples=150, deadline=None)
@given(steps_on_states())
def test_packed_plans_match_int_row_plans(case):
    # the gate plan and the measurement plan's updates on packed rows equal
    # those on int rows, with the int-row form's numpy gate plan
    state, meas, g = case
    d, n = state.d, state.n
    assert tm._row_form(d, n).moved(state.V, g) == ref_int_rows(d, n).moved(state.V, g)
    got = tm._MeasurementPlan(state.V, meas).updates
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tm, "_row_form", ref_int_rows)
        want = tm._MeasurementPlan(state.V, meas).updates
    assert got == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.data())
def test_is_isotropic_matches_reference(d, n, data):
    # arbitrary generator lists: isotropic and not
    row = st.lists(st.integers(0, d - 1), min_size=2 * n, max_size=2 * n)
    gens = data.draw(st.lists(row, max_size=2 * n))
    V = pa.Subspace.from_generators(gens, d, n)
    assert pa.is_isotropic(V) == ref_is_isotropic(V)
    w = data.draw(row)
    same_result(tm.make_epistemic, ref_make_epistemic, V, w)


def test_non_isotropic_and_wrong_length_match_reference():
    V = pa.Subspace.from_generators([(1, 0, 0, 0), (0, 1, 0, 0)], 3, 2)
    assert same_result(tm.make_epistemic, ref_make_epistemic, V, (0,) * 4)[1] is RestrictionViolation
    W = pa.Subspace.from_generators([(1, 0, 0, 0)], 3, 2)
    for w in [(0,) * 3, (0,) * 5]:
        assert same_result(tm.make_epistemic, ref_make_epistemic, W, w)[1] is DimensionMismatch


def test_outcome_guard_matches_reference(monkeypatch):
    monkeypatch.setattr(pa, "COSET_GUARD", 8)
    state = tm.maximally_mixed(3, 3)
    meas = tm.SharpMeasurement(np.eye(6, dtype=np.int64)[0::2], 3, 3)
    assert same_result(tm.outcome_distribution, ref_outcome_distribution, state, meas)[1] is GuardExceeded
    small = tm.SharpMeasurement(np.eye(6, dtype=np.int64)[0:1], 3, 3)
    assert same_result(tm.outcome_distribution, ref_outcome_distribution, state, small)[0] == "value"


#: how a measured functional relates to the rref rows of the known subspace
KINDS = ("commutes", "one row", "several rows", "known")


def _anticommuting_rows(V, sigma):
    return sum(1 for g in V.gens if pa.symplectic_product(g, sigma, V.d))


def _functional_of_kind(V, kind, rng):
    """A functional that commutes with every rref row of V but lies outside
    V, has a nonzero symplectic product with exactly one row or with
    several, or lies in V; None if V has no such functional.  The products
    are drawn and solved for, then a random member of V is added."""
    d, n, r = V.d, V.n, V.dim
    if kind == "commutes":
        if r == n:
            return None
        comm = pa.symplectic_commutant(V)
        return _functional_in(comm, rng.integers(0, d, size=comm.dim), V)
    if kind == "known":
        return _functional_in(V, rng.integers(0, d, size=r), pa.Subspace.zero(d, n)) if r else None
    if r < (1 if kind == "one row" else 2):
        return None
    products = np.zeros(r, dtype=np.int64)
    rows = rng.choice(r, size=1 if kind == "one row" else int(rng.integers(2, r + 1)), replace=False)
    products[rows] = rng.integers(1, d, size=len(rows))
    G = V.matrix
    sigma = ref_solve(G @ pa.symplectic_form(n, d), products, d) + rng.integers(0, d, size=r) @ G
    return tuple(int(x) for x in sigma % d)


@pytest.mark.parametrize("d,n", [(2, 12), (2, 16), (3, 6), (3, 8), (5, 4)])
def test_int_row_trajectory_matches_array_reference(d, n):
    # seeded gate/measure trajectory from a mixed state, checked step by
    # step at every outcome, the impossible ones included.  The first
    # measured functional cycles through KINDS; now and then a commuting
    # functional or a dependent one (a multiple, a sum) joins it
    rng = np.random.default_rng([7, d, n])

    def pick(k):
        return int(rng.integers(0, k))

    V = pa.Subspace.from_generators(np.eye(2 * n, dtype=np.int64)[0 : n : 2], d, n)
    state = tm.make_epistemic(V, rng.integers(0, d, size=2 * n))
    seen = []
    for step in range(12):
        g = _random_affine(rng, d, n)
        known = tm.apply_affine(state, g).V
        for kind in KINDS[step % 4 :] + KINDS[: step % 4]:
            sigma = _functional_of_kind(known, kind, rng)
            if sigma is not None:
                break
        expected = {"commutes": [0], "one row": [1], "several rows": range(2, n + 1), "known": [0]}
        assert _anticommuting_rows(known, sigma) in expected[kind]
        assert known.contains(sigma) == (kind == "known")
        gens = [sigma]
        for _ in range(pick(3)):
            if pick(2):
                gens.append(_dependent(gens, d, pick))
            else:
                M = pa.Subspace.from_generators(gens, d, n)
                comm = pa.symplectic_commutant(M)
                gens.append(_functional_in(comm, rng.integers(0, d, size=comm.dim), M))
        seen.append(kind)
        meas = tm.SharpMeasurement(tuple(gens), d, n)
        assert_same_step(state, meas, g)
        state = tm.apply_affine(state, g)
        table = assert_same_table(state, meas)
        update, ref = plan_update(state, meas), ref_update(state, meas)
        for outcome in itertools.product(range(d), repeat=len(gens)):
            result = same_result(update, ref, outcome)
            assert same_result(tm.posterior, ref_posterior, state, meas, outcome) == result
            assert (result[0] == "value") == (outcome in table)
        outcome = list(table)[pick(len(table))]
        state = tm.posterior(state, meas, outcome)
    assert set(seen) == set(KINDS)


# ---------------------------------------------------------------------------
# Reference: the walk one branch at a time
#
# The walker builds one plan per step and finishes it on each branch's
# values; the reference runs the array steps above on every branch's state
# on its own.


def ref_walk(state, steps):
    """[(outcomes, probability, state)] in the walker's expansion order."""
    branches = [((), 1, state)]
    for kind, op in steps:
        if kind == "gate":
            branches = [(o, p, ref_apply_affine(s, op)) for o, p, s in branches]
        else:
            branches = [
                (o + (k,), p * pk, ref_posterior(s, op, k))
                for o, p, s in branches
                for k, pk in ref_outcome_distribution(s, op).items()
            ]
    return branches


def ref_statistics(state, steps):
    return dict(sorted((o, Fraction(p)) for o, p, _ in ref_walk(state, steps)))


def _draw_affine(draw, d, n, coeffs):
    if n == 1:  # no two-site blocks: any element of Sp(2, Z_d)
        S = draw(st.sampled_from(symplectic_matrices(1, d)))
        return pa.AffineSymplectic(S, draw(coeffs), d)
    return _random_affine(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d, n)


#: cap on the branches of a drawn circuit, so the reference walk stays quick
MAX_BRANCHES = 64


@st.composite
def circuits_on_states(draw):
    """(prior, steps) at d in {2, 3, 5}, n <= 4: a mixed or pure prior, then
    gates interleaved with measurements of one to three functionals, with
    drawn outcome offsets.  Some
    measurements start from a functional the branches already know (a
    deterministic outcome), some repeat the previous one, and now and then
    a step on the wrong space is slipped in."""
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4 if d < 5 else 3))
    coeffs = st.lists(st.integers(-2 * d, 2 * d), min_size=2 * n, max_size=2 * n)
    V = _isotropic_of(d, n, draw, coeffs, draw(st.integers(0, n)))
    prior = ref_make_epistemic(V, draw(coeffs))
    # follow one branch: every branch at a depth shares its known subspace,
    # so this one gives the table size of the whole layer
    path, branches, steps, meas = prior, 1, [], None
    kinds = st.sampled_from(["gate", "measure", "known", "repeat"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind == "gate":
            g = _draw_affine(draw, d, n, coeffs)
            steps.append(("gate", g))
            path = ref_apply_affine(path, g)
            continue
        if kind != "repeat" or meas is None:
            M, gens = pa.Subspace.zero(d, n), []
            if kind == "known" and path.V.dim:
                gens.append(_functional_in(path.V, draw(coeffs)[: path.V.dim], M))
                M = pa.Subspace.from_generators(gens, d, n)
            while len(gens) < draw(st.integers(1, min(n, 3))):
                comm = pa.symplectic_commutant(M)
                gens.append(_functional_in(comm, draw(coeffs)[: comm.dim], M))
                M = M + pa.Subspace.from_generators(gens[-1:], d, n)
            offsets = tuple(draw(coeffs)[: len(gens)])
            meas = tm.SharpMeasurement(tuple(gens), d, n, offsets)
        table = ref_outcome_distribution(path, meas)
        if branches * len(table) > MAX_BRANCHES:
            continue
        branches *= len(table)
        steps.append(("measure", meas))
        path = ref_posterior(path, meas, next(iter(table)))
    if draw(st.integers(0, 9)) == 5:
        wrong = draw(st.sampled_from([
            ("gate", pa.AffineSymplectic.identity(n + 1, d)),
            ("measure", tm.SharpMeasurement(((1,) + (0,) * (2 * n + 1),), d, n + 1)),
        ]))
        steps.insert(draw(st.integers(0, len(steps))), wrong)
    return prior, steps


@settings(max_examples=80, deadline=None)
@given(circuits_on_states())
def test_walker_matches_per_branch_reference(case):
    prior, steps = case
    for _ in range(2):  # plans built, then read from the steps; a raising step raises again
        result = same_result(lambda *a: list(tm.statistics(*a).items()),
                             lambda *a: list(ref_statistics(*a).items()), prior, steps)
    if result[0] == "value":  # and every leaf state, in expansion order
        walker, V = tm._chain(prior.V, steps)
        leaves = branch_tree([prior.values], walker)
        got = [(o, Fraction(1, m), V, tm._coset_state(V, vals).w) for o, m, vals in leaves]
        assert got == [(o, p, s.V, s.w) for o, p, s in ref_walk(prior, steps)]


@settings(max_examples=80, deadline=None)
@given(circuits_on_states())
def test_offset_steps_match_reference(case):
    # along one branch: each measurement's table, posteriors and seeded
    # sample against the reference, and its table the zero-offset table
    # with every outcome less the offsets
    prior, steps = case
    state = prior
    for seed, (kind, op) in enumerate(steps):
        if (op.d, op.n) != (state.d, state.n):  # the step slipped in on the wrong space
            break
        if kind == "gate":
            state = tm.apply_affine(state, op)
            continue
        table = assert_same_table(state, op)
        posts = [tm.posterior(state, op, k) for k in table]
        assert posts == [ref_posterior(state, op, k) for k in table]
        outcome, sampled, sampled_table = tm.measure_sharp(state, op, seed)
        assert outcome == ref_sample(table, seed) and sampled == posts[list(table).index(outcome)]
        assert list(sampled_table.items()) == list(table.items())
        plain = tm.outcome_distribution(state, tm.SharpMeasurement(op.generators, op.d, op.n))
        shifted = sorted(tuple((x - c) % op.d for x, c in zip(k, op.offsets)) for k in plain)
        assert list(table) == shifted
        state = sampled


@settings(max_examples=80, deadline=None)
@given(circuits_on_states())
def test_branches_at_one_depth_share_their_known_subspace(case):
    # what the walker's one plan per step rests on: at every depth of the
    # reference walk all branches know the same subspace, whatever their
    # shift and outcomes, and so have the same probability
    prior, steps = case
    for depth in range(len(steps) + 1):
        try:
            branches = ref_walk(prior, steps[:depth])
        except DimensionMismatch:  # the step slipped in on the wrong space
            break
        assert len({s.V for _, _, s in branches}) == 1
        assert {p for _, p, _ in branches} == {Fraction(1, len(branches))}


def test_walker_builds_each_plan_once_per_step(monkeypatch):
    built = {"transport": 0, "measure": 0, "gate finish": 0}
    transport, shifted = tm._transport, tm._shifted

    def counting_transport(V, g):
        built["transport"] += 1
        return transport(V, g)

    def counting_shifted(plan, values):
        built["gate finish"] += 1
        return shifted(plan, values)

    class CountingPlan(tm._MeasurementPlan):
        def __init__(self, *args):
            built["measure"] += 1
            super().__init__(*args)

    monkeypatch.setattr(tm, "_transport", counting_transport)
    monkeypatch.setattr(tm, "_shifted", counting_shifted)
    monkeypatch.setattr(tm, "_MeasurementPlan", CountingPlan)
    d, n = 3, 2
    rng = np.random.default_rng(5)
    # the first measurement splits the root in three; no later layer has fewer
    steps = [("measure", tm.SharpMeasurement(((1, 0, 0, 0),), d, n))]
    for _ in range(3):
        steps += [("gate", _random_affine(rng, d, n)), ("measure", _random_measurement(rng, d, n))]
    state = tm.maximally_mixed(d, n)
    stats = tm.statistics(state, steps)
    assert len(stats) >= 3 and sum(stats.values()) == 1
    assert (built["transport"], built["measure"]) == (3, 4)
    assert built["gate finish"] >= 3 * 3  # three gate layers of at least three branches
    # a second call reads every plan from its step and builds none
    assert tm.statistics(state, steps) == stats
    assert (built["transport"], built["measure"]) == (3, 4)


def test_outcome_guard_through_the_walker(monkeypatch):
    monkeypatch.setattr(pa, "COSET_GUARD", 8)
    state = tm.maximally_mixed(3, 2)
    g = _random_affine(np.random.default_rng(9), 3, 2)
    meas = tm.SharpMeasurement(((1, 0, 0, 0), (0, 0, 1, 0)), 3, 2)  # both free: 9 outcomes
    first = tm.SharpMeasurement(((0, 1, 0, 0),), 3, 2)  # 3 outcomes, under the guard
    steps = [("measure", first), ("gate", g), ("measure", meas)]
    result = same_result(tm.statistics, ref_statistics, state, steps)
    assert result == ("raise", GuardExceeded, "outcome table has 9 > 8 entries")
    listed, children, outcomes = [], tm._MeasurementPlan.children, tm._MeasurementPlan.outcomes
    monkeypatch.setattr(tm._MeasurementPlan, "children",
                        lambda plan, values, *upto: listed.append(values) or children(plan, values, *upto))
    monkeypatch.setattr(tm._MeasurementPlan, "outcomes",
                        lambda plan, values: listed.append(values) or outcomes(plan, values))
    for _ in range(2):
        with pytest.raises(GuardExceeded) as excinfo:
            tm.statistics(state, steps)
        # raised by the plan's size while the chain is built, before any
        # outcome of any step is listed; the step kept no plan, so the
        # next call builds it and raises again
        names = [entry.name for entry in excinfo.traceback]
        assert names[-1] == "size" and "_chain" in names and listed == []
    assert tm._plans(meas) == {} and len(tm._plans(first)) == len(tm._plans(g)) == 1


def test_single_state_steps_keep_no_plan():
    # only the walker keeps plans on its steps: a trajectory's gates and
    # measurements build fresh ones
    d, n = 3, 2
    rng = np.random.default_rng(31)
    g, meas = _random_affine(rng, d, n), tm.SharpMeasurement(((0, 1, 0, 0),), d, n)
    state = tm.maximally_mixed(d, n)
    for seed in range(3):
        state = tm.apply_affine(state, g)
        table = tm.outcome_distribution(state, meas)
        outcome, posterior, _ = tm.measure_sharp(state, meas, seed)
        state = tm.posterior(state, meas, outcome)
        assert state == posterior and outcome in table
    assert "_plans" not in vars(g) and "_plans" not in vars(meas)
    tm.statistics(state, [("gate", g), ("measure", meas)])
    assert len(tm._plans(g)) == len(tm._plans(meas)) == 1


def test_step_plans_are_kept_per_known_subspace():
    # a step's plan is built on a known subspace alone and finished on the
    # values of any state on it: one plan per V, finished at several shifts
    d, n = 3, 2
    rng = np.random.default_rng(13)
    g, meas = _random_affine(rng, d, n), tm.SharpMeasurement(((0, 1, 0, 0),), d, n)
    on_x = pa.Subspace.from_generators([(1, 0, 0, 0)], d, n)
    on_p = pa.Subspace.from_generators([(0, 1, 0, 0), (0, 0, 1, 2)], d, n)
    for V, shifts in [(on_x, [(1, 0, 0, 0), (2, 0, 0, 0)]), (on_p, [(0, 2, 1, 0), (0, 1, 0, 0)])]:
        transport, plan = tm._transport(V, g), tm._MeasurementPlan(V, meas)
        for w in shifts:
            state = ref_make_epistemic(V, w)
            moved = tm._coset_state(transport[0], tm._shifted(transport, state.values))
            want = ref_apply_affine(state, g)
            assert (moved.V, moved.w) == (want.V, want.w)
            children = [(k, Fraction(1, plan.size), tm._coset_state(plan.updates[0], vals))
                        for k, vals in plan.children(state.values)]
            table = ref_outcome_distribution(state, meas)
            assert children == [(k, p, ref_posterior(state, meas, k)) for k, p in table.items()]


# ---------------------------------------------------------------------------
# The walk stops at the last measurement
#
# A leaf's probability is a product of measurement factors alone, so the
# walker finishes no step after a circuit's last measurement, and that one
# lists its outcomes without posterior values.  Every step's plan is still
# built, so a step that raises raises wherever it stands.


@settings(max_examples=80, deadline=None)
@given(circuits_on_states(), st.data())
def test_trailing_gates_leave_statistics_unchanged(case, data):
    prior, steps = case
    d, n = prior.d, prior.n
    coeffs = st.lists(st.integers(-2 * d, 2 * d), min_size=2 * n, max_size=2 * n)
    trailing = [("gate", _draw_affine(data.draw, d, n, coeffs))
                for _ in range(data.draw(st.integers(1, 3)))]
    result = same_result(tm.statistics, ref_statistics, prior, steps + trailing)
    if result[0] == "value":
        assert list(result[1].items()) == list(tm.statistics(prior, steps).items())
    gates = [step for step in steps + trailing if step[0] == "gate"]
    if all((op.d, op.n) == (d, n) for _, op in gates):  # no measurement: one empty outcome
        assert tm.statistics(prior, gates) == ref_statistics(prior, gates) == {(): Fraction(1)}


def test_trailing_steps_still_raise():
    d, n = 3, 2
    rng = np.random.default_rng(41)
    state, meas = tm.maximally_mixed(d, n), tm.SharpMeasurement(((1, 0, 0, 0),), d, n)
    head = [("gate", _random_affine(rng, d, n)), ("measure", meas)]
    wrong_gate = ("gate", pa.AffineSymplectic.identity(n + 1, d))
    wrong_meas = ("measure", tm.SharpMeasurement(((1, 0), (2, 0)), d, 1))
    for tail in ([wrong_gate], [("gate", _random_affine(rng, d, n)), wrong_meas]):
        for _ in range(2):  # the raising step keeps no plan and raises again
            with pytest.raises(DimensionMismatch, match="live on different spaces"):
                tm.statistics(state, head + tail)
    with pytest.raises(DimensionMismatch, match="unknown step kind 'reset'"):
        tm.statistics(state, head + [("reset", _random_affine(rng, d, n))])


def test_walker_finishes_nothing_after_the_last_measurement(monkeypatch):
    # a counting walk: no gate finish after the last measurement, whose
    # outcomes (a determined functional, then a free one) need no value
    # update, while every step, the trailing ones too, keeps its plan
    d, n = 3, 2
    rng = np.random.default_rng(43)
    state = tm.maximally_mixed(d, n)
    steps = [("measure", tm.SharpMeasurement(((1, 0, 0, 0),), d, n)),
             ("gate", _random_affine(rng, d, n)),
             ("measure", tm.SharpMeasurement(((0, 0, 1, 1),), d, n))]
    sigma = steps[-1][1].generators[0]
    _, V = tm._chain(state.V, steps)
    comm = pa.symplectic_commutant(pa.Subspace.from_generators([sigma], d, n))
    tau = _functional_in(comm, rng.integers(0, d, size=comm.dim), V)
    last = tm.SharpMeasurement((sigma, tau), d, n)
    trailing = [_random_affine(rng, d, n) for _ in range(3)]
    steps += [("measure", last)] + [("gate", g) for g in trailing]
    want = ref_statistics(state, steps)
    finished, shown = [], []
    shifted, show = tm._shifted, tm._MeasurementPlan._show
    monkeypatch.setattr(tm, "_shifted", lambda plan, values: finished.append(plan) or shifted(plan, values))
    monkeypatch.setattr(tm._MeasurementPlan, "_show",
                        lambda plan, *args: shown.append(plan) or show(plan, *args))
    for _ in range(2):  # plans built, then read from the steps
        assert list(tm.statistics(state, steps).items()) == list(want.items())
        [last_plan] = tm._plans(last).values()
        assert [len(tm._plans(op)) for _, op in steps] == [1] * len(steps)
        assert finished and {id(plan) for plan in finished} == {id(*tm._plans(steps[1][1]).values())}
        assert shown and last_plan not in shown
        assert len(want) == 3 * 3 * 3  # both earlier measurements free, and tau free
        finished.clear(), shown.clear()


@pytest.mark.parametrize("last,calls", [
    (((0, 1, 0, 0), (0, 0, 1, 0)), [1]),  # both free: one list for the three branches
    (((1, 0, 0, 0), (0, 0, 1, 0)), [3]),  # q0 determined: one list per branch
])
def test_an_all_free_last_measurement_lists_its_outcomes_once(monkeypatch, last, calls):
    d, n = 3, 2
    state = tm.maximally_mixed(d, n)
    steps = [("measure", tm.SharpMeasurement(((1, 0, 0, 0),), d, n)),
             ("measure", tm.SharpMeasurement(last, d, n))]
    want = ref_statistics(state, steps)
    counted, outcomes = [], tm._MeasurementPlan.outcomes
    monkeypatch.setattr(tm._MeasurementPlan, "outcomes",
                        lambda plan, values: counted.append(values) or outcomes(plan, values))
    for _ in range(2):  # plans built, then read from the steps
        assert list(tm.statistics(state, steps).items()) == list(want.items())
        assert [len(counted)] == calls
        counted.clear()


# ---------------------------------------------------------------------------
# The toy step needs V alone
#
# A state's shift is zero off V's pivot columns and holds the value of each
# rref row of V on its pivot: no step computes the support directions
# V-perp, and no outcome is solved for.


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_canonical_shift_is_the_same_coset(d, data):
    # the shift reduced modulo perp(V), the representative of earlier
    # versions, lies in the same coset: every row of V takes the same value
    n = data.draw(st.integers(1, 4 if d < 5 else 3))
    coeffs = st.lists(st.integers(-2 * d, 2 * d), min_size=2 * n, max_size=2 * n)
    V = _isotropic_of(d, n, data.draw, coeffs, data.draw(st.integers(0, n)))
    w = [x % d for x in data.draw(coeffs)]
    state = tm.make_epistemic(V, w)
    old_w = ref_reduce_row(w, pa.perp(V).gens, d)
    G = V.matrix
    assert mm.modp(G @ np.array(old_w), d).tolist() == mm.modp(G @ np.array(state.w), d).tolist()
    assert state.probability(old_w) == state.weight
    assert tm.make_epistemic(V, old_w) == state


def test_steps_need_no_perp_listing_or_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a toy step complemented, listed or solved")

    d, n = 3, 2
    rng = np.random.default_rng(17)
    V = pa.Subspace.from_generators([(1, 0, 0, 0)], d, n)
    g, h = _random_affine(rng, d, n), _random_affine(rng, d, n)
    meas = tm.SharpMeasurement(((0, 1, 0, 0),), d, n)
    steps = [("gate", g), ("measure", meas), ("gate", h)]
    steps.append(("measure", _random_measurement(rng, d, n)))
    with monkeypatch.context() as m:
        for module, name in [(pa, "perp"), (pa, "coset_members")]:
            m.setattr(module, name, refuse)
        prior = tm.make_epistemic(V, (2, 1, 0, 1))
        stats = tm.statistics(prior, steps)
        moved = tm.apply_affine(prior, g)
        table = tm.outcome_distribution(moved, meas)
        outcome, sampled, sampled_table = tm.measure_sharp(moved, meas, 5)
        posts = [tm.posterior(moved, meas, k) for k in table]
        # measuring a known functional: the other outcomes are impossible
        known = tm.SharpMeasurement((moved.V.gens[0],), d, n)
        [k] = tm.outcome_distribution(moved, known)
        with pytest.raises(DimensionMismatch, match="probability zero"):
            tm.posterior(moved, known, ((k[0] + 1) % d,))
    assert list(stats.items()) == list(ref_statistics(prior, steps).items())
    want = ref_apply_affine(prior, g)
    assert (moved.V, moved.w) == (want.V, want.w)
    assert list(table.items()) == list(sampled_table.items())
    assert posts == [ref_posterior(moved, meas, k) for k in table]
    assert sampled == ref_posterior(moved, meas, outcome)
    # the support, read afterwards, still lists the whole coset
    for s in [prior, moved, *posts]:
        assert len(s.support) == d ** (2 * n - s.V.dim)
        assert len(set(s.support)) == len(s.support)
        assert all(s.probability(lam) == s.weight for lam in s.support)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_steps_run_on_packed_rows(monkeypatch, d):
    # gates, outcome tables and updates eliminate and reduce on packed
    # rows at every d: no step builds a subspace from int rows or forms
    # the int row J a
    def refuse(*args, **kwargs):
        raise AssertionError("a step ran on int rows")

    n = 4
    rng = np.random.default_rng([19, d])
    V = pa.Subspace.from_generators([(1, 0, 1, 0, 0, 0, 0, 0), (0, 1, 0, d - 1, 0, 0, 0, 0)], d, n)
    steps = []
    for _ in range(3):
        steps += [("gate", _random_affine(rng, d, n)), ("measure", _random_measurement(rng, d, n))]
    # two functionals, the second a dependent one: (1, 0) and (0, 1) are impossible
    pair = tm.SharpMeasurement(((1, 0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0, 1)), d, n)
    steps.append(("measure", pair))
    prior = tm.make_epistemic(V, (1, 1, 0, 1, 0, 0, 1, 1))
    with monkeypatch.context() as m:
        m.setattr(pa.Subspace, "from_generators", refuse)
        m.setattr(pa, "symplectic_row", refuse)
        stats = tm.statistics(prior, steps)
        moved = tm.apply_affine(prior, steps[0][1])
        table = tm.outcome_distribution(moved, pair)
        posts = [tm.posterior(moved, pair, k) for k in table]
        with pytest.raises(DimensionMismatch, match="probability zero"):
            tm.posterior(moved, pair, (1, 0))
    assert list(stats.items()) == list(ref_statistics(prior, steps).items())
    want = ref_apply_affine(prior, steps[0][1])
    assert (moved.V, moved.w) == (want.V, want.w)
    assert list(table.items()) == list(ref_outcome_distribution(moved, pair).items())
    assert posts == [ref_posterior(moved, pair, k) for k in table]


def ref_sample(table, seed):
    """The outcome a seeded draw picks from the table: the first whose
    cumulative float probability passes the draw, else the last."""
    r, acc = random.Random(seed).random(), 0.0
    for outcome, p in table.items():
        acc += float(p)
        if r < acc:
            break
    return outcome


def ref_measure_sharp(state, meas, rng_seed=0):
    """measure_sharp as it was before outcomes were listed alone: the draw
    walks every outcome's posterior values (`_MeasurementPlan.children`)."""
    plan = tm._MeasurementPlan(state.V, meas)
    p = Fraction(1, plan.size)
    children, r, acc = plan.children(state.values), random.Random(rng_seed).random(), 0.0
    for outcome, values in children:  # the last outcome if rounding leaves r >= acc
        acc += float(p)
        if r < acc:
            break
    table = dict.fromkeys((k for k, _ in children), p)
    return outcome, tm._coset_state(plan.updates[0], values), table


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (5, 2)])
def test_sampling_matches_the_children_walk(d, n):
    # seeds 0-199: the drawn outcome, its posterior and the table are the
    # children walk's, for measurements mixing determined functionals (known
    # ones, and multiples or sums of earlier ones) with free ones
    for seed in range(200):
        rng = np.random.default_rng([47, d, seed])

        def pick(k):
            return int(rng.integers(0, k))

        V = _isotropic_of(d, n, lambda s: [pick(d) for _ in range(2 * n)], None, pick(n + 1))
        state = tm.make_epistemic(V, rng.integers(0, d, size=2 * n))
        gens = [g for g in (_functional_of_kind(V, "known", rng),) if g and pick(2)]
        while len(gens) < 1 + pick(min(n, 3)):
            M = pa.Subspace.from_generators(gens, d, n) if gens else pa.Subspace.zero(d, n)
            comm = pa.symplectic_commutant(M)
            gens.append(_functional_in(comm, rng.integers(0, d, size=comm.dim), M))
        if pick(2):
            gens.insert(pick(len(gens) + 1), _dependent(gens, d, pick))
        meas = tm.SharpMeasurement(tuple(gens), d, n, tuple(rng.integers(0, d, size=len(gens))))
        outcome, post, table = tm.measure_sharp(state, meas, seed)
        want_outcome, want_post, want_table = ref_measure_sharp(state, meas, seed)
        assert (outcome, post.V, post.w) == (want_outcome, want_post.V, want_post.w)
        assert list(table.items()) == list(want_table.items())
        assert list(tm.outcome_distribution(state, meas).items()) == list(want_table.items())


@settings(max_examples=150, deadline=None)
@given(steps_on_states())
def test_outcomes_list_the_children_outcomes(case):
    state, meas, _ = case
    plan = tm._MeasurementPlan(state.V, meas)
    assert plan.outcomes(state.values) == [k for k, _ in plan.children(state.values)]


@pytest.mark.parametrize("d", [2, 3])
def test_measurements_run_no_elimination(monkeypatch, d):
    # a plan's row updates decide which functionals are free, so once the
    # states and measurements are built no measurement step eliminates.
    # The first functional is of each of KINDS, measured alone, with a
    # dependent functional or with a commuting one
    n, rng = 3, np.random.default_rng([23, d])

    def pick(k):
        return int(rng.integers(0, k))

    V = pa.Subspace.from_generators([(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0)], d, n)
    state = tm.make_epistemic(V, tuple(int(x) for x in rng.integers(0, d, size=2 * n)))
    measurements = []
    for kind in KINDS:
        sigma = _functional_of_kind(V, kind, rng)
        M = pa.Subspace.from_generators([sigma], d, n)
        comm = pa.symplectic_commutant(M)
        other = _functional_in(comm, rng.integers(0, d, size=comm.dim), M)
        for gens in [(sigma,), (sigma, _dependent([sigma], d, pick)), (sigma, other)]:
            measurements.append(tm.SharpMeasurement(gens, d, n))
    steps = [("measure", meas) for meas in measurements[::3]]
    tables = [ref_outcome_distribution(state, meas) for meas in measurements]
    posts = [[ref_posterior(state, meas, k) for k in t] for meas, t in zip(measurements, tables)]
    stats = ref_statistics(state, steps)

    def refuse(*args, **kwargs):
        raise AssertionError("a measurement step eliminated")

    monkeypatch.setattr(mm, "rref_bits", refuse)
    for seed, (meas, table, post) in enumerate(zip(measurements, tables, posts)):
        assert list(tm.outcome_distribution(state, meas).items()) == list(table.items())
        assert [tm.posterior(state, meas, k) for k in table] == post
        outcome, sampled, sampled_table = tm.measure_sharp(state, meas, seed)
        assert outcome == ref_sample(table, seed) and sampled == post[list(table).index(outcome)]
        assert list(sampled_table.items()) == list(table.items())
    assert list(tm.statistics(state, steps).items()) == list(stats.items())


def _local_affine(rng, d, n):
    """A random two-site block of `_random_affine` on two random sites,
    the identity elsewhere, plus a random shift."""
    cols = [c for k in rng.choice(n, size=2, replace=False) for c in (2 * k, 2 * k + 1)]
    S = np.eye(2 * n, dtype=np.int64)
    S[np.ix_(cols, cols)] = _random_affine(rng, d, 2).S
    return pa.AffineSymplectic(S, rng.integers(0, d, size=2 * n), d)


def _local_measurement(rng, d, n):
    """One to three jointly knowable functionals, each on one to three
    random sites, redrawn until they commute."""
    k = int(rng.integers(1, 4))
    while True:
        gens = []
        for _ in range(k):
            sigma = np.zeros(2 * n, dtype=np.int64)
            for site in rng.choice(n, size=int(rng.integers(1, 4)), replace=False):
                sigma[2 * site : 2 * site + 2] = rng.integers(0, d, size=2)
            gens.append(tuple(int(x) for x in sigma))
        if all(any(g) for g in gens):
            try:
                return tm.SharpMeasurement(tuple(gens), d, n)
            except RestrictionViolation:
                continue


@pytest.mark.parametrize("d,n", [(2, 64), (3, 16), (5, 16)])
def test_steps_keep_the_known_subspace_isotropic(no_coset_listing, d, n):
    # no step re-checks isotropy, so check it here in full after each step
    # of a seeded trajectory of local gates and measurements, from a mixed
    # state, with every posterior repeatable
    rng = np.random.default_rng([13, d, n])
    V = pa.Subspace.from_generators(np.eye(2 * n, dtype=np.int64)[1 : n : 2], d, n)
    state = tm.make_epistemic(V, rng.integers(0, d, size=2 * n))
    dims = set()
    for _ in range(40):
        state = tm.apply_affine(state, _local_affine(rng, d, n))
        assert pa.is_isotropic(state.V)
        meas = _local_measurement(rng, d, n)
        outcome, state, _ = tm.measure_sharp(state, meas, int(rng.integers(0, 2**31)))
        assert pa.is_isotropic(state.V)
        assert tm.outcome_distribution(state, meas) == {outcome: Fraction(1)}
        dims.add(state.V.dim)
    # at d = 5 a random local functional commutes with fewer of V's rows,
    # so in 40 steps the dimension wanders over fewer values (8 to 11)
    assert len(dims) > (5 if d < 5 else 3)


@pytest.mark.parametrize("d,n", [(2, 64), (2, 128), (3, 32)])
def test_large_n_trajectory(no_coset_listing, d, n):
    # a seeded pure-state trajectory well past any listing: exact tables,
    # repeatable measurements, and the first steps equal to the reference
    rng = np.random.default_rng([11, d, n])
    state = _pure_state(rng, d, n)
    elapsed = 0.0
    for step in range(8):
        g, meas = _random_affine(rng, d, n), _random_measurement(rng, d, n)
        seed = int(rng.integers(0, 2**31))
        start = time.perf_counter()
        moved = tm.apply_affine(state, g)
        outcome, post, table = tm.measure_sharp(moved, meas, seed)
        again = tm.outcome_distribution(post, meas)
        _, twice, _ = tm.measure_sharp(post, meas, seed + 1)
        elapsed += time.perf_counter() - start
        assert all(type(p) is Fraction for p in table.values()) and sum(table.values()) == 1
        assert list(again.items()) == [(outcome, Fraction(1))]
        assert twice == post and post.V.dim == n
        if step < 2:
            want = ref_apply_affine(state, g)
            assert (moved.V, moved.w) == (want.V, want.w)
            assert list(table.items()) == list(ref_outcome_distribution(moved, meas).items())
            assert post == ref_posterior(moved, meas, outcome)
        state = post
    assert elapsed < 2.0


@pytest.mark.parametrize("d,n", [(2, 16), (3, 3), (3, 16), (5, 5), (5, 16)])
def test_packed_trajectory_matches_int_rows(monkeypatch, d, n):
    # a seeded trajectory of local gates and sampled measurements from a
    # mixed state, run on packed rows and again on int rows: the same
    # canonical states, outcomes and tables at every step
    rng = np.random.default_rng([29, d, n])
    V = pa.Subspace.from_generators(np.eye(2 * n, dtype=np.int64)[1 : n : 2], d, n)
    start = tm.make_epistemic(V, rng.integers(0, d, size=2 * n))
    steps = []
    for _ in range(16):
        steps.append((_local_affine(rng, d, n), _local_measurement(rng, d, n),
                      int(rng.integers(0, 2**31))))

    def run():
        state, seen = start, []
        for g, meas, seed in steps:
            state = tm.apply_affine(state, g)
            seen.append((state.V, state.w))
            outcome, state, table = tm.measure_sharp(state, meas, seed)
            seen.append((outcome, list(table.items()), state.V, state.w))
        return seen

    got = run()
    monkeypatch.setattr(tm, "_row_form", ref_int_rows)
    assert run() == got
    assert len({V for V, _ in got[::2]}) > 5


def test_dense_gate_plan_past_a_byte_at_p5():
    # at d = 5, n = 64 the unreduced sums of V's rows scaled onto S^-1's
    # rows pass 255 in some coordinate: the plan folds its lane sums in
    # chunks, and equals the int-row plan
    d, n = 5, 64
    rng = np.random.default_rng(31)
    g, h = _random_affine(rng, d, n), _random_affine(rng, d, n)
    for _ in range(3):
        g, h = g.compose(_random_affine(rng, d, n)), h.compose(_random_affine(rng, d, n))
    V = tm.apply_affine(_pure_state(rng, d, n), g).V
    sums = V.matrix @ h.Sinv
    assert sums.max() > 255
    rows = [mm.combine_bits(v, h.Sinv_bits, 2 * n, d) for v in V.gens]
    assert [mm.unpack(r, 2 * n) for r in rows] == list(map(tuple, (sums % d).tolist()))
    assert tm._row_form(d, n).moved(V, h) == ref_int_rows(d, n).moved(V, h)
