"""Exact linear algebra over Z_p for small prime p.

Gaussian elimination and solving run on rows of Python ints (`rref_rows`,
`solve_rows`): the matrices are tiny (a handful of rows, at most 2n
columns), where int lists beat numpy row operations by a wide margin.  numpy
appears only at the boundary: the array-level routines take any integer
array-like, reduce it mod p in one call, and return int64 arrays with
entries in [0, p).  Matrices are row-stacked generator lists.  All routines
are deterministic.
"""

from __future__ import annotations

import numpy as np


def modp(a, p: int) -> np.ndarray:
    return np.asarray(np.asarray(a, dtype=np.int64) % p, dtype=np.int64)


def _rows(mat, p: int) -> tuple[list[list[int]], int]:
    """(rows reduced mod p, column count) of a 1-D or 2-D array-like."""
    A = modp(mat, p)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    return A.tolist(), A.shape[1]


def _array(rows: list, n: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def rref_rows(rows: list[list[int]], n: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over Z_p of int rows with entries in [0, p).

    rows (each of length n) is consumed.  Returns (nonzero rows, pivot
    columns).  The result is the canonical representative of the row space,
    so two generator lists span the same subspace iff their rrefs are equal.
    """
    m = len(rows)
    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r >= m:
            break
        i = next((i for i in range(r, m) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        if top[c] != 1:
            inv = pow(top[c], -1, p)
            top = rows[r] = [x * inv % p for x in top]
        for j in range(m):
            f = rows[j][c]
            if f and j != r:
                rows[j] = [(x - f * y) % p for x, y in zip(rows[j], top)]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """`rref_rows` of an array-like: (R with zero rows dropped, pivots)."""
    rows, n = _rows(mat, p)
    R, pivots = rref_rows(rows, n, p)
    return _array(R, n), pivots


def rank(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[0].shape[0]


def complement_rows(R, pivots: list[int], n: int, p: int) -> list[list[int]]:
    """Rref basis of {x : R x = 0 mod p} for R in rref with these pivots:
    one vector per free column, then one elimination."""
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        v = [0] * n
        v[c] = 1
        for row, pc in zip(R, pivots):
            v[pc] = -row[c] % p
        basis.append(v)
    return rref_rows(basis, n, p)[0]


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (rref rows) of {x : mat @ x = 0 mod p}."""
    rows, n = _rows(mat, p)
    R, pivots = rref_rows(rows, n, p)
    return _array(complement_rows(R, pivots, n, p), n)


def solve_rows(rows: list, b: list[int], n: int, p: int) -> list[int] | None:
    """One particular solution x of rows x = b mod p, or None if inconsistent.

    rows (each of length n) and b hold ints in [0, p); neither is consumed.
    The free coordinates of x are zero.
    """
    aug = [[*row, x] for row, x in zip(rows, b, strict=True)]
    R, pivots = rref_rows(aug, n + 1, p)
    if n in pivots:
        return None
    x = [0] * n
    for row, c in zip(R, pivots):
        x[c] = row[n]
    return x


def solve(A: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """`solve_rows` of an array-like system: x as an array, or None."""
    rows, n = _rows(A, p)
    x = solve_rows(rows, modp(b, p).reshape(-1).tolist(), n, p)
    return None if x is None else np.array(x, dtype=np.int64)


def coset_vectors(basis: np.ndarray, shift, p: int) -> np.ndarray:
    """All p^k vectors shift + c @ basis (c in Z_p^k), in lexicographic
    order of the coefficients c.

    Built one basis row at a time by broadcasting, last row first, in the
    smallest unsigned dtype that holds the unreduced sums, with a single
    mod p at the end.
    """
    basis = modp(basis, p)
    if basis.ndim == 1:
        basis = basis.reshape(1, -1)
    k, n = basis.shape
    dtype = np.min_scalar_type((p - 1) * (1 + k * (p - 1)))
    multiples = np.arange(p, dtype=dtype).reshape(p, 1, 1)
    S = modp(shift, p).astype(dtype).reshape(1, n)
    for row in basis[::-1].astype(dtype):
        S = (multiples * row + S).reshape(-1, n)
    return (S % p).astype(np.int64)


def span_vectors(basis: np.ndarray, p: int) -> np.ndarray:
    """All p^k vectors in the row span, in lexicographic coefficient order."""
    return coset_vectors(basis, np.zeros(np.shape(basis)[-1], dtype=np.int64), p)


def intersect(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Basis of rowspace(A) ∩ rowspace(B)."""
    A = modp(A, p)
    B = modp(B, p)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if B.ndim == 1:
        B = B.reshape(1, -1)
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=np.int64)
    # x = a A = b B  <=>  (a, b) in nullspace of [A^T | -B^T]
    stacked = np.concatenate([A.T, modp(-B.T, p)], axis=1)
    combos = nullspace(stacked, p)
    ka = A.shape[0]
    vecs = modp(combos[:, :ka] @ A, p)
    if vecs.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=np.int64)
    return rref(vecs, p)[0]


def in_rowspace(v: np.ndarray, mat: np.ndarray, p: int) -> bool:
    mat = modp(mat, p)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.shape[0] == 0:
        return not np.any(modp(v, p))
    return solve(mat.T, v, p) is not None


def reduce_row(v: list[int], R, p: int) -> list[int]:
    """Canonical coset representative of the int row v (entries in [0, p))
    modulo the row space of R.

    Requires R to be in rref (each row's first nonzero entry is its pivot,
    a 1); eliminates v's pivot coordinates.
    """
    for row in R:
        f = v[next(c for c, x in enumerate(row) if x)]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v


def reduce_mod_rowspace(v: np.ndarray, basis_rref: np.ndarray, p: int) -> np.ndarray:
    """`reduce_row` of a vector modulo the rows of an rref array."""
    v = reduce_row(modp(v, p).tolist(), modp(basis_rref, p).tolist(), p)
    return np.array(v, dtype=np.int64)
