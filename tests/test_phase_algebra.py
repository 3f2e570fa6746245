import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spektoy import _modmath as mm
from spektoy import phase_algebra as pa
from spektoy.errors import DimensionMismatch, GuardExceeded
from int_rows import ref_rref_rows
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
        # the sort on packed rows orders as the reference's sort on tuples
        got, want = pa.maximal_isotropic_subspaces(d, n), ref_maximal_isotropic_subspaces(d, n)
        assert got == want
        assert [V.gens for V in got] == [V.gens for V in want]

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
    def test_each_lagrangian_is_built_once(self, d, n):
        # no dedup: the growth itself emits every Lagrangian exactly once,
        # in rref, with its pivots as read off its rows
        grown = pa._grown(d, n)
        assert len(grown) == len(set(grown)) == pa.lagrangian_count(d, n)
        for V in grown:
            assert V == pa.Subspace.from_generators(V.gens, d, n)
            assert V.pivots == tuple(g.index(1) for g in V.gens)

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


# -- the one row form: packed rref rows, everything else derived ------------


def ref_form(rows, d, n):
    """(rref rows as tuples, pivot columns) of int rows, by the int-row
    reference elimination."""
    R, pivots = ref_rref_rows([[int(x) % d for x in r] for r in rows], 2 * n, d)
    return tuple(map(tuple, R)), tuple(pivots)


def recombined(draw, rows, d):
    """rows shuffled, then rows scaled by units and added to each other: a
    drawn list spanning the same space."""
    rows = [list(r) for r in draw(st.permutations(rows))]
    if rows:
        index = st.integers(0, len(rows) - 1)
        for i, j, f in draw(st.lists(st.tuples(index, index, st.integers(1, d - 1)), max_size=6)):
            y = rows[j]
            if i == j:
                rows[i] = [x * f % d for x in y]
            else:
                rows[i] = [(x + f * z) % d for x, z in zip(rows[i], y)]
    return rows


@st.composite
def row_lists(draw):
    """(d, n, rows): up to 2n + 1 drawn rows of Z_d^{2n} at d in {2, 3, 5},
    n <= 4, zero and repeated rows among them."""
    d, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 4))
    row = st.lists(st.integers(0, d - 1), min_size=2 * n, max_size=2 * n)
    rows = draw(st.lists(row, max_size=2 * n + 1))
    if rows and draw(st.booleans()):
        rows += recombined(draw, rows, d)[: draw(st.integers(1, len(rows)))]
    return d, n, rows


def assert_row_form(V, rows):
    gens, pivots = ref_form(rows, V.d, V.n)
    assert V.bits == tuple(map(mm.pack, gens))
    assert V.gens == gens and V.pivots == pivots and V.dim == len(gens)
    M = V.matrix
    assert M.dtype == np.int64 and M.shape == (len(gens), 2 * V.n)
    assert M.tolist() == [list(g) for g in gens]


@settings(max_examples=300, deadline=None)
@given(row_lists())
def test_derived_reads_match_the_reference(case):
    d, n, rows = case
    assert_row_form(pa.Subspace.from_generators(rows, d, n), rows)


@settings(max_examples=300, deadline=None)
@given(row_lists(), st.data())
def test_equal_and_hash_equal_exactly_when_the_reference_is(case, data):
    d, n, rows = case
    other = data.draw(st.one_of(
        st.just(recombined(data.draw, rows, d)),
        st.lists(st.lists(st.integers(0, d - 1), min_size=2 * n, max_size=2 * n),
                 max_size=2 * n + 1),
    ))
    V, W = (pa.Subspace.from_generators(r, d, n) for r in (rows, other))
    same = ref_form(rows, d, n)[0] == ref_form(other, d, n)[0]
    assert (V == W) == same and len({V, W}) == 2 - same
    if same:
        assert hash(V) == hash(W)
    # the same rows on another space are another subspace
    wider = pa.Subspace.from_generators([list(r) + [0, 0] for r in rows], d, n + 1)
    assert V != wider and V != pa.Subspace(V.bits, {2: 3, 3: 5, 5: 2}[d], n)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_row_form_at_n64(d):
    rng, n = np.random.default_rng(d), 64
    rows = rng.integers(0, d, size=(90, 2 * n))
    rows[::3, : 2 * n - 20] = 0  # rows led far right, so pivots spread
    rows = rows.tolist() + [[(x + 2 * y) % d for x, y in zip(rows[0], rows[1])]]
    V = pa.Subspace.from_generators(rows, d, n)
    assert_row_form(V, rows)
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    W = pa.Subspace.from_generators(shuffled, d, n)
    assert V == W and hash(V) == hash(W)
    fewer = rows[:40]
    same = ref_form(fewer, d, n) == ref_form(rows, d, n)
    assert (V == pa.Subspace.from_generators(fewer, d, n)) == same


# -- J as a signed pair swap -------------------------------------------------


def ref_symplectic_inverse(S, d):
    """The product form the pair swap replaced: S^-1 = -J S^T J."""
    J = pa.symplectic_form(S.shape[0] // 2, d)
    return mm.modp(-(J @ S.T @ J), d)


def random_symplectic(rng, n, d, k=6):
    """A product of k random symplectic transvections x -> x + c [v, x] v."""
    S, J = np.eye(2 * n, dtype=np.int64), pa.symplectic_form(n, d)
    for _ in range(k):
        v, c = rng.integers(0, d, size=2 * n), int(rng.integers(1, d))
        S = (S + c * np.outer(v, v @ J @ S)) % d
    return S


@pytest.mark.parametrize("d", [2, 3, 5])
def test_pair_swap_inverse_matches_the_product_form(d):
    rng = np.random.default_rng(10 + d)
    for n in (1, 2, 3, 8, 64):
        for _ in range(4):
            S = random_symplectic(rng, n, d)
            inv = pa.symplectic_inverse(S, d)
            assert np.array_equal(inv, ref_symplectic_inverse(S, d))
            assert np.array_equal(inv @ S % d, np.eye(2 * n, dtype=np.int64))
            g = pa.AffineSymplectic(S, rng.integers(0, d, size=2 * n), d)
            assert np.array_equal(g.Sinv, inv) and g.compose(g.inverse()).key() == (
                pa.AffineSymplectic.identity(n, d).key())
        # -J M^T J is index work on any matrix, symplectic or not
        M = rng.integers(-d, 2 * d, size=(2 * n, 2 * n))
        assert np.array_equal(pa.symplectic_inverse(M, d), ref_symplectic_inverse(M, d))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_only_symplectic_matrices_make_a_map(d):
    # every 2x2 matrix over Z_d: a map exactly when S^T J S = J (det S = 1)
    J = pa.symplectic_form(1, d)
    for entries in itertools.product(range(d), repeat=4):
        S = np.array(entries, dtype=np.int64).reshape(2, 2)
        if np.any((S.T @ J @ S - J) % d):
            with pytest.raises(DimensionMismatch, match="does not preserve the symplectic form"):
                pa.AffineSymplectic(S, np.zeros(2, dtype=np.int64), d)
        else:
            pa.AffineSymplectic(S, np.zeros(2, dtype=np.int64), d)
    # at n = 3: one entry moved off a symplectic matrix, or x0 and x1 swapped alone
    rng = np.random.default_rng(d)
    S = random_symplectic(rng, 3, d)
    bent = S.copy()
    bent[2, 4] = (bent[2, 4] + 1) % d
    for bad in (bent, np.eye(6, dtype=np.int64)[[2, 1, 0, 3, 4, 5]]):
        with pytest.raises(DimensionMismatch, match="does not preserve the symplectic form"):
            pa.AffineSymplectic(bad, np.zeros(6, dtype=np.int64), d)


def test_map_size_is_read_off_s_alone():
    # n follows from S; passing it, by position or by name, is refused
    # rather than silently overwritten
    S, a = np.eye(4, dtype=np.int64), np.zeros(4, dtype=np.int64)
    assert pa.AffineSymplectic(S, a, 3).n == 2
    with pytest.raises(TypeError):
        pa.AffineSymplectic(S, a, 3, 5)
    with pytest.raises(TypeError):
        pa.AffineSymplectic(S, a, 3, n=2)
