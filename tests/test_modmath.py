"""The int-row forms of `_modmath` against numpy reference routines.

The reference functions below are the array implementations the package
used before elimination moved to Python int rows: `ref_rref` does its row
operations on int64 arrays, and the others are built on it.
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
    """The int rows of an array, reduced mod p: the row forms' input."""
    return mm.modp(A, p).tolist()


def assert_same_rows(got, want):
    assert got == want.tolist()


@settings(max_examples=200, deadline=None)
@given(matrices(), primes)
def test_rref_matches_reference(A, p):
    R, pivots = mm.rref_rows(rows_of(A, p), A.shape[1], p)
    R_ref, pivots_ref = ref_rref(A, p)
    assert_same_rows(R, R_ref)
    assert pivots == pivots_ref


@settings(max_examples=100, deadline=None)
@given(st.lists(entries, min_size=1, max_size=10), primes)
def test_rref_of_a_vector_matches_reference(v, p):
    R, pivots = mm.rref_rows([mm.modp(v, p).tolist()], len(v), p)
    R_ref, pivots_ref = ref_rref(np.array(v), p)
    assert_same_rows(R, R_ref)
    assert pivots == pivots_ref


@settings(max_examples=100, deadline=None)
@given(matrices(), primes)
def test_nullspace_matches_reference(A, p):
    n = A.shape[1]
    R, pivots = mm.rref_rows(rows_of(A, p), n, p)
    assert_same_rows(mm.complement_rows(R, pivots, n, p), ref_nullspace(A, p))


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
    v = np.array(data.draw(st.lists(entries, min_size=A.shape[1], max_size=A.shape[1])))
    got = mm.reduce_row(mm.modp(v, p).tolist(), R.tolist(), p)
    assert got == ref_reduce_mod_rowspace(v, R, p).tolist()


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
# Packed rows at p = 2 against the int-row forms


def int_row_product(a, b):
    """[a, b] over Z_2 on int rows."""
    return sum(map(mul, a, pa.symplectic_row(b))) % 2


@st.composite
def bit_rows(draw):
    """(n, kind, rows, v) at p = 2, n <= 16: rows with the zero row and the unit
    rows of coordinates 0 and 2n - 1 planted, a full-rank list (row
    operations on the identity, then a redundant row), or rows confined to
    one coordinate of each site's pair (an isotropic list)."""
    n = draw(st.integers(1, 16))
    w = 2 * n
    row = st.lists(st.integers(0, 1), min_size=w, max_size=w).map(tuple)
    special = st.sampled_from([(0,) * w, (1,) + (0,) * (w - 1), (0,) * (w - 1) + (1,)])
    kind = draw(st.sampled_from(["random", "full rank", "one of each pair"]))
    if kind == "full rank":
        rows = [list(r) for r in draw(st.permutations(np.eye(w, dtype=np.int64).tolist()))]
        for i, j in draw(st.lists(st.tuples(st.integers(0, w - 1), st.integers(0, w - 1)), max_size=3 * w)):
            if i != j:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[j])]
        rows = [tuple(r) for r in rows] + [draw(row)]
    elif kind == "one of each pair":
        keep = [c for k in range(n) for c in draw(st.permutations([1, 0]))]
        rows = [tuple(x & m for x, m in zip(r, keep)) for r in draw(st.lists(row, max_size=n + 2))]
    else:
        rows = draw(st.lists(st.one_of(row, special), max_size=w + 2))
    return n, kind, rows, draw(st.one_of(row, special))


@settings(max_examples=200, deadline=None)
@given(bit_rows())
def test_packed_rows_match_int_rows(case):
    n, kind, rows, v = case
    w = 2 * n
    R, pivots = mm.rref_rows([list(r) for r in rows], w, 2)
    bits = mm.rref_bits([mm.pack(r) for r in rows])
    # rref and pivots
    assert [mm.unpack(b, w) for b in bits] == [tuple(r) for r in R]
    assert [mm.lead_bit(b, w) for b in bits] == pivots
    # packing the canonical generators gives the packed rref back
    V = pa.Subspace.from_generators(rows, 2, n)
    int_V = pa.Subspace(tuple(map(tuple, R)), 2, n)
    assert V == int_V and V.gens == int_V.gens
    assert tuple(map(mm.pack, V.gens)) == V.bits == int_V.bits == tuple(bits)
    # reduction
    assert mm.unpack(mm.reduce_bits(mm.pack(v), bits), w) == tuple(mm.reduce_row(list(v), R, 2))
    assert V.contains(v) == (not any(mm.reduce_row(list(v), R, 2)))
    # dot and symplectic products, isotropy
    for a in rows + [v]:
        assert mm.dot_bits(mm.pack(a), mm.pack(v)) == sum(map(mul, a, v)) % 2
        Ja = mm.swap_pairs(mm.pack(a), n)
        assert mm.unpack(Ja, w) == tuple(x % 2 for x in pa.symplectic_row(a))
        for b in rows:
            assert mm.dot_bits(mm.pack(b), Ja) == int_row_product(b, a)
    isotropic = all(int_row_product(a, b) == 0 for a, b in itertools.combinations(R, 2))
    assert pa.is_isotropic(V) == pa.is_isotropic(int_V) == isotropic
    if kind == "one of each pair":
        assert isotropic
    if kind == "full rank":
        assert pivots == list(range(w))


def test_packed_rows_edge_cases():
    n, w = 3, 6
    e0, last, zero = (1,) + (0,) * 5, (0,) * 5 + (1,), (0,) * 6
    assert mm.pack(e0) == 1 << 40 and mm.pack(last) == 1 and mm.pack(zero) == 0
    assert mm.unpack(1 << 40, w) == e0 and mm.unpack(0, w) == zero
    assert mm.lead_bit(mm.pack(e0), w) == 0 and mm.lead_bit(mm.pack(last), w) == w - 1
    assert mm.rref_bits([0, 0]) == [] and mm.reduce_bits(0, [1 << 40]) == 0
    # (x_0, p_0) and (x_2, p_2) anticommute; full rank is the identity
    assert mm.dot_bits(mm.pack(e0), mm.swap_pairs(mm.pack((0, 1, 0, 0, 0, 0)), n)) == 1
    assert mm.dot_bits(mm.pack(last), mm.swap_pairs(mm.pack((0, 0, 0, 0, 1, 0)), n)) == 1
    full = mm.rref_bits([mm.pack(r) for r in np.eye(w, dtype=np.int64)[::-1].tolist()])
    assert [mm.unpack(b, w) for b in full] == [tuple(r) for r in np.eye(w, dtype=np.int64).tolist()]
    assert not pa.is_isotropic(pa.Subspace.full(2, n))


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
