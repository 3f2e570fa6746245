import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spektoy import _modmath as mm
from spektoy import phase_algebra as pa
from spektoy.errors import DimensionMismatch, GuardExceeded
from sp_enumeration import symplectic_matrices
from test_modmath import ref_nullspace


def vectors(d, n):
    return st.tuples(*[st.integers(0, d - 1)] * (2 * n))


class TestEvaluate:
    def test_x_functional_on_x0_points(self):
        for p in range(2):
            assert pa.evaluate((1, 0), (0, p), 2) == 0

    def test_mod2(self):
        assert pa.evaluate((1, 1), (1, 1), 2) == 0

    def test_mod3_hand_arithmetic(self):
        # (2*1 + 1*2) mod 3
        assert pa.evaluate((2, 1), (1, 2), 3) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pa.evaluate((1, 0, 0, 0), (1, 0), 2)

    @settings(max_examples=1000, deadline=None)
    @given(vectors(3, 2), vectors(3, 2), vectors(3, 2))
    def test_linear_in_first_argument(self, s1, s2, lam):
        lhs = pa.evaluate([(a + b) % 3 for a, b in zip(s1, s2)], lam, 3)
        rhs = (pa.evaluate(s1, lam, 3) + pa.evaluate(s2, lam, 3)) % 3
        assert lhs == rhs


class TestSymplecticProduct:
    def test_self_product_vanishes(self):
        assert pa.symplectic_product((1, 1), (1, 1), 2) == 0

    def test_x_z_do_not_commute(self):
        assert pa.symplectic_product((1, 0), (0, 1), 2) == 1

    def test_parallel_mod3(self):
        assert pa.symplectic_product((1, 1), (2, 2), 3) == 0

    @pytest.mark.parametrize("d", [2, 3])
    def test_antisymmetric_exhaustive_n1(self, d):
        for s1 in itertools.product(range(d), repeat=2):
            for s2 in itertools.product(range(d), repeat=2):
                a = pa.symplectic_product(s1, s2, d)
                b = pa.symplectic_product(s2, s1, d)
                assert (a + b) % d == 0

    @settings(max_examples=300, deadline=None)
    @given(vectors(2, 2), vectors(2, 2))
    def test_antisymmetric_n2(self, s1, s2):
        a = pa.symplectic_product(s1, s2, 2)
        b = pa.symplectic_product(s2, s1, 2)
        assert (a + b) % 2 == 0


def all_subspaces(d, n):
    """Every subspace of Z_d^{2n}, via closure under one-vector extensions."""
    seen = {pa.Subspace.zero(d, n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for V in frontier:
            for vec in itertools.product(range(d), repeat=2 * n):
                if not any(vec) or V.contains(vec):
                    continue
                W = pa.Subspace.from_generators(list(V.gens) + [vec], d, n)
                if W not in seen:
                    seen.add(W)
                    nxt.append(W)
        frontier = nxt
    return seen


class TestPerp:
    def test_full_space(self):
        V = pa.Subspace.full(2, 1)
        assert pa.perp(V).dim == 0

    def test_coordinate_axes(self):
        V = pa.Subspace.from_generators([(1, 0)], 2, 1)
        assert pa.perp(V).gens == ((0, 1),)

    def test_xx_functional_complement(self):
        V = pa.Subspace.from_generators([(1, 0, 1, 0)], 2, 2)
        W = pa.perp(V)
        assert W.dim == 3
        for v in [(0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 1, 0)]:
            assert W.contains(v)

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 1)])
    def test_double_perp_is_identity_exhaustive(self, d, n):
        for V in all_subspaces(d, n):
            assert pa.perp(pa.perp(V)) == V

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 1)])
    def test_dimension_formula(self, d, n):
        for V in all_subspaces(d, n):
            assert V.dim + pa.perp(V).dim == 2 * n


def random_subspaces():
    """A random subspace at d=2, n<=4 or d=3, n<=3, full ones included."""
    return st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]).flatmap(
        lambda dn: st.lists(vectors(*dn), max_size=2 * dn[1] + 1).map(
            lambda gens: pa.Subspace.from_generators(gens, *dn)
        )
    )


def check_perp(V):
    """perp(V) runs one elimination and agrees with the reference nullspace."""
    calls = []
    rref_bits = mm.rref_bits

    def counted(*args):
        calls.append(args)
        return rref_bits(*args)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mm, "rref_bits", counted)
        U = pa.perp(V)
    assert len(calls) == 1
    assert U == pa.Subspace.from_generators(ref_nullspace(V.matrix, V.d), V.d, V.n)
    assert not np.any(mm.modp(U.matrix @ V.matrix.T, V.d))
    assert U.dim + V.dim == 2 * V.n


class TestPerpKernel:
    @settings(max_examples=100, deadline=None)
    @given(random_subspaces())
    def test_matches_reference_nullspace(self, V):
        check_perp(V)

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 1), (3, 3)])
    def test_zero_and_full(self, d, n):
        check_perp(pa.Subspace.zero(d, n))
        check_perp(pa.Subspace.full(d, n))


def check_commutant(V):
    """The symplectic commutant is the nullspace of the rows J tau."""
    J = pa.symplectic_form(V.n, V.d)
    want = ref_nullspace(mm.modp(V.matrix @ J.T, V.d).reshape(-1, 2 * V.n), V.d)
    C = pa.symplectic_commutant(V)
    assert C == pa.Subspace.from_generators(want, V.d, V.n)
    assert all(pa.symplectic_product(s, t, V.d) == 0 for s in C.gens for t in V.gens)


class TestSymplecticCommutant:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]).flatmap(
        lambda dn: st.lists(vectors(*dn), max_size=2 * dn[1] + 1).map(
            lambda gens: pa.Subspace.from_generators(gens, *dn)
        )
    ))
    def test_matches_reference_nullspace(self, V):
        check_commutant(V)

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 2), (5, 1)])
    def test_zero_and_full(self, d, n):
        zero, full = pa.Subspace.zero(d, n), pa.Subspace.full(d, n)
        check_commutant(zero)
        check_commutant(full)
        assert pa.symplectic_commutant(zero) == full
        assert pa.symplectic_commutant(full) == zero


class TestCosets:
    def test_zero_subspace(self):
        U = pa.Subspace.zero(2, 1)
        assert pa.coset_members(U, (1, 0)) == ((1, 0),)

    def test_two_point_coset(self):
        U = pa.Subspace.from_generators([(0, 1)], 2, 1)
        assert pa.coset_members(U, (0, 0)) == ((0, 0), (0, 1))

    def test_mod3_enumeration(self):
        U = pa.Subspace.from_generators([(0, 1)], 3, 1)
        assert pa.coset_members(U, (1, 0)) == ((1, 0), (1, 1), (1, 2))

    @settings(max_examples=100, deadline=None)
    @given(random_subspaces(), st.data())
    def test_matches_sorted_reference(self, U, data):
        # every point of U + w exactly once, lexicographically ordered,
        # for shifts w that are not reduced modulo U
        d = U.d
        w = data.draw(vectors(d, U.n))
        members = {
            tuple(((np.array(c, dtype=np.int64) @ U.matrix + w) % d).tolist())
            for c in itertools.product(range(d), repeat=U.dim)
        }
        assert pa.coset_members(U, w) == tuple(sorted(members))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_canonical_representative(self, data):
        # one representative per coset of U, zero on U's pivot columns
        d, n = data.draw(st.sampled_from([(2, 2), (3, 2)]))
        U = pa.Subspace.from_generators(data.draw(st.lists(vectors(d, n), max_size=4)), d, n)
        coeffs = data.draw(st.lists(st.integers(0, d - 1), min_size=U.dim, max_size=U.dim))
        v = np.array(data.draw(vectors(d, n)), dtype=np.int64)
        member = np.array(coeffs, dtype=np.int64) @ U.matrix
        def reduced(x):
            return mm.unpack(mm.reduce_bits(mm.pack(x.tolist()), U.bits, 2 * n, d), 2 * n)

        r = reduced(v)
        assert U.contains(np.array(r) - v)
        assert reduced((v + member) % d) == r
        assert not any(r[next(i for i, x in enumerate(g) if x)] for g in U.gens)


class TestIsotropy:
    def test_single_generator_always_isotropic(self):
        assert pa.is_isotropic(pa.Subspace.from_generators([(1, 0)], 2, 1))

    def test_full_space_not_isotropic(self):
        assert not pa.is_isotropic(pa.Subspace.from_generators([(1, 0), (0, 1)], 2, 1))

    def test_xx_zz_functionals_isotropic(self):
        V = pa.Subspace.from_generators([(1, 0, 1, 0), (0, 1, 0, 1)], 2, 2)
        assert pa.is_isotropic(V)


def affine_symplectics(n, d):
    """Every affine symplectic map: matrices in the BFS order of
    symplectic_matrices, translations in lex order."""
    for S in symplectic_matrices(n, d):
        for a in itertools.product(range(d), repeat=2 * n):
            yield pa.AffineSymplectic(S, np.array(a, dtype=np.int64), d)


class TestSymplecticEnumeration:
    @pytest.mark.parametrize(
        "n,d,count", [(1, 2, 24), (1, 3, 216), (2, 2, 11520)]
    )
    def test_counts(self, n, d, count):
        assert len(symplectic_matrices(n, d)) * d ** (2 * n) == count

    def test_brute_force_cross_check_n1(self):
        # independent oracle: filter all 2x2 matrices by S^T J S = J
        for d in (2, 3):
            J = pa.symplectic_form(1, d)
            brute = set()
            for entries in itertools.product(range(d), repeat=4):
                S = np.array(entries).reshape(2, 2)
                if not np.any((S.T @ J @ S - J) % d):
                    brute.add(S.tobytes())
            walked = {S.tobytes() for S in symplectic_matrices(1, d)}
            assert {np.frombuffer(b, dtype=np.int64).tobytes() for b in walked} == {
                np.frombuffer(b, dtype=np.int64).tobytes() for b in brute
            }
            assert len(walked) == len(brute)

    def test_every_emitted_map_preserves_form(self):
        J = pa.symplectic_form(1, 3)
        for g in itertools.islice(affine_symplectics(1, 3), 50):
            assert not np.any((g.S.T @ J @ g.S - J) % 3)

    def test_inverse_and_compose(self):
        for g in itertools.islice(affine_symplectics(1, 3), 40):
            gi = g.inverse()
            both = g.compose(gi)
            assert np.array_equal(both.S, np.eye(2, dtype=np.int64))
            assert not both.a.any()


def ref_maximal_isotropic_subspaces(d, n):
    """The level-set growth the unique-parent growth replaced: every
    commutant vector added to every subspace, deduplicated by a set."""
    level = {pa.Subspace.zero(d, n)}
    for _ in range(n):
        nxt = set()
        for V in level:
            comm = pa.symplectic_commutant(V)
            for vec in comm.vectors():
                if not any(vec) or V.contains(vec):
                    continue
                nxt.add(pa.Subspace.from_generators(list(V.gens) + [vec], d, n))
        level = nxt
    return tuple(sorted(level, key=lambda V: V.gens))


class TestMaximalIsotropics:
    @pytest.mark.parametrize(
        "d,n,count",
        [(2, 1, 3), (2, 2, 15), (3, 1, 4), (3, 2, 40), (2, 4, 2295), (3, 3, 1120)],
    )
    def test_counts(self, d, n, count):
        lagrangians = pa.maximal_isotropic_subspaces(d, n)
        assert len(lagrangians) == count == pa.lagrangian_count(d, n)
        assert len(set(lagrangians)) == count
        for V in lagrangians:
            assert V.dim == n
            assert pa.is_isotropic(V)

    def test_all_isotropic_max_dimension(self):
        for V in pa.maximal_isotropic_subspaces(2, 2):
            assert V.dim == 2
            assert pa.is_isotropic(V)

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
    def test_same_tuple_as_the_level_set_growth(self, d, n):
        got, want = pa.maximal_isotropic_subspaces(d, n), ref_maximal_isotropic_subspaces(d, n)
        assert got == want
        assert [V.gens for V in got] == [V.gens for V in want]

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
    def test_each_lagrangian_is_built_once(self, d, n):
        # no dedup: the growth itself emits every Lagrangian exactly once,
        # in rref, with its pivots filled as read off its rows
        grown = pa._grown(d, n)
        assert len(grown) == len(set(grown)) == pa.lagrangian_count(d, n)
        for V in grown:
            assert V == pa.Subspace.from_generators(V.gens, d, n)
            assert V.__dict__["pivots"] == tuple(g.index(1) for g in V.gens)

    @pytest.mark.parametrize("d,n", [(2, 6), (3, 5), (5, 4)])
    def test_guard_fires_before_growing(self, d, n, monkeypatch):
        def unreachable(*args):
            raise AssertionError("grown past the guard")

        monkeypatch.setattr(pa, "_grown", unreachable)
        with pytest.raises(GuardExceeded, match=f"Lagrangians at d={d}, n={n}"):
            pa.maximal_isotropic_subspaces(d, n)

    def test_guard_trips_first_at_two_six_and_three_five(self):
        # prod_{k=1..n} (d^k + 1), the count both guards share
        for d, n in ((2, 3), (3, 2), (5, 2)):
            assert pa.lagrangian_count(d, n) == len(ref_maximal_isotropic_subspaces(d, n))
        assert pa.lagrangian_count(2, 5) == 75_735 <= pa.COSET_GUARD < pa.lagrangian_count(2, 6)
        assert pa.lagrangian_count(3, 4) == 91_840 <= pa.COSET_GUARD < pa.lagrangian_count(3, 5)
