"""Exact linear algebra over Z_p for small prime p.

Everything works on int64 numpy arrays with entries reduced mod p.  Matrices
are row-stacked generator lists.  All routines are deterministic.
"""

from __future__ import annotations

import itertools

import numpy as np


def modp(a, p: int) -> np.ndarray:
    return np.asarray(np.asarray(a, dtype=np.int64) % p, dtype=np.int64)


def inv_scalar(a: int, p: int) -> int:
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 mod %d" % p)
    return pow(a, -1, p)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Z_p.

    Returns (R, pivot_columns) where R has zero rows dropped.  The result is
    the canonical representative of the row space, so two generator lists
    span the same subspace iff their rrefs are equal.
    """
    A = modp(mat, p).copy()
    if A.ndim == 1:
        A = A.reshape(1, -1)
    m, n = A.shape
    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = modp(A[r] * inv_scalar(A[r, c], p), p)
        for j in range(m):
            if j != r and A[j, c]:
                A[j] = modp(A[j] - A[j, c] * A[r], p)
        pivots.append(c)
        r += 1
    return A[:r], pivots


def rank(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[0].shape[0]


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (rref rows) of {x : mat @ x = 0 mod p}."""
    A = modp(mat, p)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    n = A.shape[1]
    R, pivots = rref(A, p)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-R[i, c]) % p
    if basis.size == 0:
        return basis.reshape(0, n)
    return rref(basis, p)[0]


def solve(A: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One particular solution x of A x = b mod p, or None if inconsistent."""
    A = modp(A, p)
    b = modp(b, p).reshape(-1)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    m, n = A.shape
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    R, pivots = rref(aug, p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = R[i, n]
    return x


def span_vectors(basis: np.ndarray, p: int) -> np.ndarray:
    """All p^k vectors in the row span, in lexicographic coefficient order."""
    basis = modp(basis, p)
    if basis.ndim == 1:
        basis = basis.reshape(1, -1)
    k, n = basis.shape
    if k == 0:
        return np.zeros((1, n), dtype=np.int64)
    coeffs = np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64)
    return modp(coeffs @ basis, p)


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


def reduce_mod_rowspace(v: np.ndarray, basis_rref: np.ndarray, p: int) -> np.ndarray:
    """Canonical coset representative of v modulo the row space.

    Requires basis_rref to be in rref (each row's first nonzero entry is its
    pivot, a 1); eliminates v's pivot coordinates.
    """
    v = modp(v, p).copy()
    for row in basis_rref:
        c = int(np.flatnonzero(row)[0])
        if v[c]:
            v = modp(v - v[c] * row, p)
    return v
