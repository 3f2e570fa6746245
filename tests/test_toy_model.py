import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spektoy import _modmath as mm
from spektoy import phase_algebra as pa
from spektoy import toy_model as tm
from spektoy.errors import DimensionMismatch, GuardExceeded, RestrictionViolation


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

    def test_non_isotropic_rejected(self):
        V = pa.Subspace.from_generators([(1, 0), (0, 1)], 2, 1)
        with pytest.raises(RestrictionViolation):
            tm.make_epistemic(V, (0, 0))

    def test_shift_canonical_modulo_support_directions(self):
        V = pa.Subspace.from_generators([(1, 0)], 2, 1)
        a = tm.make_epistemic(V, (0, 0))
        b = tm.make_epistemic(V, (0, 1))  # differs by a support direction
        assert a == b

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
        maps = list(itertools.islice(pa.enumerate_affine_symplectics(n, d), 60))
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
        maps = list(itertools.islice(pa.enumerate_affine_symplectics(n, d), 80))
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

    def test_outcome_shift_consistent(self):
        meas = tm.SharpMeasurement(((1, 0, 1, 0),), 2, 2)
        r = meas.outcome_shift((1,))
        assert meas.outcome_of(r) == (1,)

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


@st.composite
def states_and_measurements(draw):
    d, n = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]))
    coeffs = st.lists(st.integers(0, d - 1), min_size=2 * n, max_size=2 * n)
    V = pa.Subspace.zero(d, n)
    for _ in range(draw(st.integers(0, n))):  # partial up to maximal knowledge
        comm = pa.symplectic_commutant(V)
        vec = _functional_in(comm, draw(coeffs)[: comm.dim], V)
        V = V + pa.Subspace.from_generators([vec], d, n)
    w = tuple(draw(coeffs))
    full = pa.Subspace.full(d, n)
    gens = [_functional_in(full, draw(coeffs), pa.Subspace.zero(d, n))]
    if n > 1 and draw(st.booleans()):  # at n = 1 no second functional commutes
        first = pa.Subspace.from_generators(gens, d, n)
        comm = pa.symplectic_commutant(first)
        gens.append(_functional_in(comm, draw(coeffs)[: comm.dim], first))
    return tm.make_epistemic(V, w), tm.SharpMeasurement(tuple(gens), d, n)


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
    state, meas = case
    table = tm.outcome_distribution(state, meas)
    children = tm.measure_step(meas)((), state)
    assert children == [(k, p, tm.posterior(state, meas, k)) for k, p in table.items()]
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
    blocks = {0: [[0, d - 1], [1, 0]], 1: [[1, 0], [1, 1]]}
    S = np.eye(2 * n, dtype=np.int64)
    for _ in range(3 * n):
        B = np.eye(2 * n, dtype=np.int64)
        kind = int(rng.integers(0, 3))
        if kind < 2:
            k = int(rng.integers(0, n))
            B[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = blocks[kind]
        else:
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            B[2 * j, 2 * i] = 1
            B[2 * i + 1, 2 * j + 1] = d - 1
        S = (B @ S) % d
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
