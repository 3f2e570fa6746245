"""The packed-row kernels of `_modmath` against reference routines.

The reference functions below are the array implementations the package
used before elimination moved to Python int rows: `ref_rref` does its row
operations on int64 arrays, and the others are built on it.  The int-row
form that came between (`int_rows`) is the second reference, at every p.
"""

import ast
import inspect
import itertools
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from int_rows import ref_complement_rows, ref_reduce_row, ref_rref_rows
from spektoy import _modmath as mm
from spektoy import phase_algebra as pa


def ref_rref(mat, p):
    A = mm.modp(mat, p).copy()
    if A.ndim == 1:
        A = A.reshape(1, -1)
    m, n = A.shape
    r = 0
    pivots = []
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = mm.modp(A[r] * pow(int(A[r, c]), -1, p), p)
        for j in range(m):
            if j != r and A[j, c]:
                A[j] = mm.modp(A[j] - A[j, c] * A[r], p)
        pivots.append(c)
        r += 1
    return A[:r], pivots


def ref_nullspace(mat, p):
    A = mm.modp(mat, p)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    n = A.shape[1]
    R, pivots = ref_rref(A, p)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-R[i, c]) % p
    if basis.size == 0:
        return basis.reshape(0, n)
    return ref_rref(basis, p)[0]


def ref_solve(A, b, p):
    A = mm.modp(A, p)
    b = mm.modp(b, p).reshape(-1)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    n = A.shape[1]
    R, pivots = ref_rref(np.concatenate([A, b.reshape(-1, 1)], axis=1), p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = R[i, n]
    return x


def ref_intersect(A, B, p):
    A = mm.modp(A, p)
    B = mm.modp(B, p)
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=np.int64)
    combos = ref_nullspace(np.concatenate([A.T, mm.modp(-B.T, p)], axis=1), p)
    vecs = mm.modp(combos[:, : A.shape[0]] @ A, p)
    if vecs.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=np.int64)
    return ref_rref(vecs, p)[0]


def ref_reduce_mod_rowspace(v, basis_rref, p):
    v = mm.modp(v, p).copy()
    for row in basis_rref:
        c = int(np.flatnonzero(row)[0])
        if v[c]:
            v = mm.modp(v - v[c] * row, p)
    return v


def ref_coset_vectors(basis, shift, p):
    """shift + c @ basis for every c, in itertools.product order of c."""
    basis = mm.modp(basis, p).reshape(-1, np.shape(shift)[-1])
    k = basis.shape[0]
    coeffs = np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64).reshape(p**k, k)
    return mm.modp(coeffs @ basis + np.asarray(shift), p)


def assert_same_array(got, want):
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


primes = st.sampled_from([2, 3, 5])
#: negative and unreduced entries, so the mod-p reduction is exercised too
entries = st.integers(-12, 12)


def matrices(rows=st.integers(0, 8), cols=st.integers(1, 10)):
    return st.tuples(rows, cols).flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(lambda m: np.array(m, dtype=np.int64).reshape(shape))
    )


def rows_of(A, p):
    """The packed rows of an array, reduced mod p: the kernels' input."""
    return [mm.pack(r) for r in mm.modp(A, p).tolist()]


def assert_same_rows(got, want):
    assert [list(mm.unpack(r, want.shape[1])) for r in got] == want.tolist()


@settings(max_examples=200, deadline=None)
@given(matrices(), primes)
def test_rref_matches_reference(A, p):
    n = A.shape[1]
    R = mm.rref_bits(rows_of(A, p), n, p)
    R_ref, pivots_ref = ref_rref(A, p)
    assert_same_rows(R, R_ref)
    assert [mm.lead_bit(r, n) for r in R] == pivots_ref


@settings(max_examples=100, deadline=None)
@given(st.lists(entries, min_size=1, max_size=10), primes)
def test_rref_of_a_vector_matches_reference(v, p):
    R = mm.rref_bits(rows_of([v], p), len(v), p)
    R_ref, pivots_ref = ref_rref(np.array(v), p)
    assert_same_rows(R, R_ref)
    assert [mm.lead_bit(r, len(v)) for r in R] == pivots_ref


@settings(max_examples=100, deadline=None)
@given(matrices(), primes)
def test_nullspace_matches_reference(A, p):
    n = A.shape[1]
    R = mm.rref_bits(rows_of(A, p), n, p)
    assert_same_rows(mm.complement_bits(R, n, p), ref_nullspace(A, p))


def subspaces(d, n, max_size):
    rows = st.lists(st.integers(0, d - 1), min_size=2 * n, max_size=2 * n)
    return st.lists(rows, max_size=max_size).map(lambda g: pa.Subspace.from_generators(g, d, n))


@settings(max_examples=100, deadline=None)
@given(st.tuples(primes, st.integers(1, 3)).flatmap(
    lambda dn: st.tuples(subspaces(*dn, 2 * dn[1] + 1), subspaces(*dn, 2 * dn[1] + 1))
))
def test_intersect_matches_reference(AB):
    # Subspace.intersect is perp(perp(A) + perp(B)); zero and full spaces
    # are drawn too (no generators, or 2n + 1 of them)
    A, B = AB
    want = ref_intersect(A.matrix, B.matrix, A.d)
    assert A.intersect(B) == pa.Subspace.from_generators(want, A.d, A.n)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 2), (5, 1)])
def test_intersect_with_zero_and_full(d, n):
    zero, full = pa.Subspace.zero(d, n), pa.Subspace.full(d, n)
    V = pa.Subspace.from_generators([[1] + [0] * (2 * n - 1)], d, n)
    for A in (zero, V, full):
        assert A.intersect(zero) == zero.intersect(A) == zero
        assert A.intersect(full) == full.intersect(A) == A


@settings(max_examples=100, deadline=None)
@given(matrices(), primes, st.data())
def test_reduce_mod_rowspace_matches_reference(A, p, data):
    R, _ = ref_rref(A, p)
    n = A.shape[1]
    v = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
    got = mm.reduce_bits(mm.pack(mm.modp(v, p).tolist()), rows_of(R, p), n, p)
    assert mm.unpack(got, n) == tuple(ref_reduce_mod_rowspace(v, R, p).tolist())


@settings(max_examples=100, deadline=None)
@given(matrices(rows=st.integers(0, 4)), st.sampled_from([2, 3, 5, 13]), st.data())
def test_coset_vectors_match_reference(A, p, data):
    # p = 13 with two or more rows needs a wider dtype than uint8
    shift = np.array(data.draw(st.lists(entries, min_size=A.shape[1], max_size=A.shape[1])))
    assert_same_array(mm.coset_vectors(A, shift, p), ref_coset_vectors(A, shift, p))
    zero = np.zeros(A.shape[1], dtype=np.int64)
    assert_same_array(mm.coset_vectors(A, zero, p), ref_coset_vectors(A, zero, p))


@settings(max_examples=50, deadline=None)
@given(st.lists(entries, min_size=1, max_size=10), primes)
def test_span_of_a_vector_matches_reference(v, p):
    zero = np.zeros(len(v), dtype=np.int64)
    got = mm.coset_vectors(np.array(v), zero, p)
    assert_same_array(got, ref_coset_vectors(np.array(v), zero, p))


# ---------------------------------------------------------------------------
# Packed rows against the int-row form, at every p


def int_row_product(a, b, p):
    """[a, b] over Z_p on int rows."""
    return sum(map(mul, a, pa.symplectic_row(b))) % p


@st.composite
def packed_rows(draw, p=None, max_n=16):
    """(p, n, kind, rows, v), n <= max_n: rows with the zero row and the
    unit rows of coordinates 0 and 2n - 1 planted, a full-rank list (row
    operations on the identity, then a redundant row), or rows confined to
    one coordinate of each site's pair (an isotropic list)."""
    p = p or draw(primes)
    n = draw(st.integers(1, max_n))
    w = 2 * n
    row = st.lists(st.integers(0, p - 1), min_size=w, max_size=w).map(tuple)
    special = st.sampled_from([(0,) * w, (1,) + (0,) * (w - 1), (0,) * (w - 1) + (p - 1,)])
    kind = draw(st.sampled_from(["random", "full rank", "one of each pair"]))
    if kind == "full rank":
        rows = [list(r) for r in draw(st.permutations(np.eye(w, dtype=np.int64).tolist()))]
        moves = st.tuples(st.integers(0, w - 1), st.integers(0, w - 1), st.integers(1, p - 1))
        for i, j, f in draw(st.lists(moves, max_size=3 * w)):
            if i != j:
                rows[i] = [(x + f * y) % p for x, y in zip(rows[i], rows[j])]
        rows = [tuple(r) for r in rows] + [draw(row)]
    elif kind == "one of each pair":
        keep = [c for k in range(n) for c in draw(st.permutations([1, 0]))]
        rows = [tuple(x * m for x, m in zip(r, keep)) for r in draw(st.lists(row, max_size=n + 2))]
    else:
        rows = draw(st.lists(st.one_of(row, special), max_size=w + 2))
    return p, n, kind, rows, draw(st.one_of(row, special))


@settings(max_examples=300, deadline=None)
@given(packed_rows())
def test_packed_rows_match_int_rows(case):
    p, n, kind, rows, v = case
    w = 2 * n
    R, pivots = ref_rref_rows([list(r) for r in rows], w, p)
    bits = mm.rref_bits([mm.pack(r) for r in rows], w, p)
    # elimination and pivots
    assert [mm.unpack(b, w) for b in bits] == [tuple(r) for r in R]
    assert [mm.lead_bit(b, w) for b in bits] == pivots
    # packing the canonical generators gives the packed rref back
    V = pa.Subspace.from_generators(rows, p, n)
    int_V = pa.Subspace(tuple(map(mm.pack, R)), p, n)
    assert V == int_V and V.gens == int_V.gens
    assert tuple(map(mm.pack, V.gens)) == V.bits == int_V.bits == tuple(bits)
    # reduction and complement
    reduced = ref_reduce_row(list(v), R, p)
    assert mm.unpack(mm.reduce_bits(mm.pack(v), bits, w, p), w) == tuple(reduced)
    assert V.contains(v) == (not any(reduced))
    U = ref_complement_rows(R, pivots, w, p)
    assert [mm.unpack(b, w) for b in mm.complement_bits(bits, w, p)] == [tuple(r) for r in U]
    assert pa.perp(V).gens == tuple(map(tuple, U))
    # dot and symplectic products, isotropy
    for a in rows + [v]:
        assert mm.dot_bits([mm.pack(a)], mm.pack(v), w, p) == [sum(map(mul, a, v)) % p]
        Ja = mm.swap_pairs(mm.pack(a), n, p)
        assert mm.unpack(Ja, w) == tuple(x % p for x in pa.symplectic_row(a))
        want = [int_row_product(b, a, p) for b in rows]
        assert mm.dot_bits([mm.pack(b) for b in rows], Ja, w, p) == want
    isotropic = all(int_row_product(a, b, p) == 0 for a, b in itertools.combinations(R, 2))
    assert pa.is_isotropic(V) == pa.is_isotropic(int_V) == isotropic
    if kind == "one of each pair":
        assert isotropic
    if kind == "full rank":
        assert pivots == list(range(w))


@settings(max_examples=200, deadline=None)
@given(packed_rows(max_n=8), st.data())
def test_row_sums_match_int_rows(case, data):
    # scaled sums, scaled differences and scalings against int rows, with
    # every factor in [0, p), up to 2n + 2 terms
    p, n, _, rows, v = case
    w = 2 * n
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)))
    want = [sum(c * r[i] for c, r in zip(coeffs, rows)) % p for i in range(w)]
    assert mm.unpack(mm.combine_bits(coeffs, [mm.pack(r) for r in rows], w, p), w) == tuple(want)
    got = mm.subtract_bits([mm.pack(r) for r in rows], coeffs, mm.pack(v), w, p)
    assert [mm.unpack(g, w) for g in got] == [
        tuple((x - c * y) % p for x, y in zip(r, v)) for r, c in zip(rows, coeffs)]
    for f in range(1, p):
        assert mm.unpack(mm.scale_bits(mm.pack(v), f, w, p), w) == tuple(x * f % p for x in v)


@pytest.mark.parametrize("p", [3, 5])
def test_long_sums_fold_every_chunk(p):
    # 2n = 256 terms, every lane at p - 1 and every factor p - 1: an
    # unfolded sum would pass 255 in every lane
    w = 256
    rows = [mm.pack([p - 1] * w)] * w
    assert mm.combine_bits([p - 1] * w, rows, w, p) == mm.pack([w * (p - 1) ** 2 % p] * w)
    assert mm.combine_bits([1] * w, rows, w, p) == mm.pack([w * (p - 1) % p] * w)


def test_packed_rows_edge_cases():
    n, w = 3, 6
    e0, last, zero = (1,) + (0,) * 5, (0,) * 5 + (1,), (0,) * 6
    assert mm.pack(e0) == 1 << 40 and mm.pack(last) == 1 and mm.pack(zero) == 0
    assert mm.unpack(1 << 40, w) == e0 and mm.unpack(0, w) == zero
    assert mm.lead_bit(mm.pack(e0), w) == 0 and mm.lead_bit(mm.pack(last), w) == w - 1
    eye = np.eye(w, dtype=np.int64)
    for p in (2, 3, 5):
        assert mm.rref_bits([0, 0], w, p) == [] and mm.reduce_bits(0, [1 << 40], w, p) == 0
        # (x_0, p_0) and (x_2, p_2) anticommute: [e_x0, e_p0] = 1, [e_p2, e_x2] = -1
        p0, x2 = mm.pack((0, 1, 0, 0, 0, 0)), mm.pack((0, 0, 0, 0, 1, 0))
        assert mm.dot_bits([mm.pack(e0)], mm.swap_pairs(p0, n, p), w, p) == [1]
        assert mm.dot_bits([mm.pack(last)], mm.swap_pairs(x2, n, p), w, p) == [p - 1]
        # full rank is the identity
        full = mm.rref_bits([mm.pack(r) for r in ((p - 1) * eye[::-1]).tolist()], w, p)
        assert [mm.unpack(b, w) for b in full] == [tuple(r) for r in eye.tolist()]
        assert not pa.is_isotropic(pa.Subspace.full(p, n))


def test_every_public_function_has_a_package_caller():
    # one form per operation: a public function that no other module of the
    # package uses (tests do not count) is a second form to delete
    public = {
        name
        for name, f in vars(mm).items()
        if inspect.isfunction(f) and f.__module__ == mm.__name__ and not name.startswith("_")
    }
    used = set()
    for path in Path(mm.__file__).parent.glob("*.py"):
        if path.name != "_modmath.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
    assert sorted(public - used) == []
