"""Exact linear algebra over Z_p for small prime p.

One form per field.  At odd p, elimination, complements and coset
reduction run on rows of Python ints with entries in [0, p) (`rref_rows`,
`complement_rows`, `reduce_row`): the matrices are tiny (a handful of
rows, at most 2n columns), where int lists beat numpy row operations by a
wide margin.  At p = 2 a row is one Python int, coordinate c in byte c of
`int.from_bytes(bytes(row), "big")` (`pack`, `unpack`).  A row operation
is then one XOR and a dot product the parity of one popcount, single C
calls over the whole row, where an int row pays an interpreted step per
coordinate (`rref_bits`, `reduce_bits`, `lead_bit`, `dot_bits`,
`swap_pairs`).  The packing serves p = 2 alone: XOR adds mod 2 only, and
no one int operation adds coordinate-wise mod an odd p.  Integer order is
lexicographic order and a row's pivot is its top byte, so the packed rref
rows, sorted descending, are the int-row rref rows packed.  `Subspace`
construction, sums and membership, the isotropy check and the toy steps
take the packed form at p = 2; the int-row routines still serve p = 2
where a caller eliminates raw rows once, off those paths (the complement
behind perp, a coset's shift, the rank checks of random knowledge and of
stabilizer generators).  numpy appears only where arrays are the natural
output: `modp` reduces an integer array-like in one call, and
`coset_vectors` lists a coset as an int64 array.  Matrices are row-stacked
generator lists.  All routines are deterministic.
"""

from __future__ import annotations

from functools import lru_cache

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
        f = v[row.index(1)]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v


def pack(row) -> int:
    """A row of 0/1 entries as one int, coordinate c in byte c (big-endian)."""
    return int.from_bytes(bytes(row), "big")


def unpack(x: int, n: int) -> tuple[int, ...]:
    """The n coordinates of a packed row, as a tuple of ints."""
    return tuple(x.to_bytes(n, "big"))


def lead_bit(x: int, n: int) -> int:
    """The first nonzero coordinate of a nonzero packed row of length n."""
    return n - 1 - ((x.bit_length() - 1) >> 3)


def reduce_bits(v: int, R) -> int:
    """`reduce_row` over Z_2 on packed rows, R in rref: v ^ b drops v below
    v exactly when v has b's pivot (b's top bit), so min clears it."""
    for b in R:
        v = min(v, v ^ b)
    return v


def rref_bits(rows) -> list[int]:
    """`rref_rows` over Z_2 on packed rows: the nonzero rref rows, sorted
    descending (pivot columns ascending).  Echelon form first, keyed by top
    bit: a row sheds the kept row holding its top bit until it is zero or
    leads at a new one.  Then each row, last first, is reduced by the
    (already reduced) rows after it."""
    top: dict[int, int] = {}
    for r in rows:
        while r and (b := top.get(r.bit_length())):
            r ^= b
        if r:
            top[r.bit_length()] = r
    basis = sorted(top.values(), reverse=True)
    for i in range(len(basis) - 2, -1, -1):
        basis[i] = reduce_bits(basis[i], basis[i + 1 :])
    return basis


@lru_cache(maxsize=None)
def _even_bytes(n: int) -> int:
    return pack((0, 1) * n)


def swap_pairs(b: int, n: int) -> int:
    """J b for a packed row of length 2n over Z_2: each pair (x_k, p_k)
    swapped (-1 = 1), so the symplectic product [a, b] is dot_bits(a, Jb)."""
    m = _even_bytes(n)
    return ((b >> 8) & m) | ((b & m) << 8)


def dot_bits(a: int, b: int) -> int:
    """a . b mod 2 of packed rows: the parity of their common coordinates."""
    return (a & b).bit_count() & 1
