"""Exact linear algebra over Z_p for small prime p.

One form per operation.  Elimination, complements and coset reduction run
on rows of Python ints with entries in [0, p) (`rref_rows`,
`complement_rows`, `reduce_row`): the matrices are tiny (a handful of
rows, at most 2n columns), where int lists beat numpy row operations by a
wide margin.  numpy appears only where arrays are the
natural output: `modp` reduces an integer array-like in one call, and
`coset_vectors` lists a coset as an int64 array.  Matrices are row-stacked
generator lists.  All routines are deterministic.
"""

from __future__ import annotations

import numpy as np


def modp(a, p: int) -> np.ndarray:
    return np.asarray(np.asarray(a, dtype=np.int64) % p, dtype=np.int64)


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
