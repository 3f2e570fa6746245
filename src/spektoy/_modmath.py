"""Exact linear algebra over Z_p for small prime p, on packed rows.

One row form at every p: a row of entries in [0, p) is one Python int,
coordinate c in byte c of `int.from_bytes(bytes(row), "big")` (`pack`,
`unpack`).  Integer order is lexicographic order and a row's pivot is its
top nonzero byte (`lead_bit`), so rref rows sorted descending have their
pivot columns ascending.  Elimination, reduction, the complement, dot
products and sums of scaled rows (the `*_bits` kernels) are a few C calls
over the whole row each, where a list of ints pays an interpreted step per
coordinate.  The p-specific lane arithmetic lives here alone.  At p = 2 a
row sum is one XOR and a dot product the parity of one popcount.  At odd p
the bytes are SWAR lanes: reduced rows and their small multiples add
without a carry while no lane passes `_LANE_TOP`, `_fold` brings each lane
back to [0, p), and a dot product is the byte sum of the lane products.
numpy appears only where arrays are the natural output: `modp` reduces an
integer array-like in one call, and `coset_vectors` lists a coset as an
int64 array.  All routines are deterministic.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress
from operator import xor

import numpy as np


def modp(a, p: int) -> np.ndarray:
    return np.asarray(np.asarray(a, dtype=np.int64) % p, dtype=np.int64)


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


def pack(row) -> int:
    """A row of entries in [0, 256) as one int, coordinate c in byte c
    (big-endian)."""
    return int.from_bytes(bytes(row), "big")


def unpack(x: int, n: int) -> tuple[int, ...]:
    """The n coordinates of a packed row, as a tuple of ints."""
    return tuple(x.to_bytes(n, "big"))


def lead_bit(x: int, n: int) -> int:
    """The first nonzero coordinate of a nonzero packed row of length n."""
    return n - 1 - ((x.bit_length() - 1) >> 3)


@lru_cache(maxsize=None)
def _lanes(n: int) -> int:
    """The packed row of n ones: the low bit of every lane."""
    return pack((1,) * n)


#: the largest lane value `_fold` takes: a lane plus 128 - c then stays
#: below 256 for every subtraction c <= 127
_LANE_TOP = 127


@lru_cache(maxsize=None)
def _folds(n: int, p: int, top: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(the 0x80 bit of every lane, the stages (c, (128 - c) per lane)) that
    bring lanes in [0, top] to [0, p), top <= _LANE_TOP: c runs over
    p 2^k <= top, largest first, so a lane is below 2c when stage c meets
    it, and adding 128 - c sets its 0x80 bit exactly when it holds c."""
    L, stages, c = _lanes(n), [], p
    while c <= top:
        stages.append((c, (128 - c) * L))
        c *= 2
    return L << 7, tuple(stages[::-1])


def _fold(x: int, H: int, stages) -> int:
    for c, K in stages:
        x -= c * ((x + K & H) >> 7)
    return x


def scale_bits(v: int, f: int, n: int, p: int) -> int:
    """f v of a reduced row of length n, f in [1, p)."""
    if f == 1:
        return v
    return _fold(v * f, *_folds(n, p, (p - 1) ** 2))


def subtract_bits(rows, factors, top: int, n: int, p: int) -> list[int]:
    """rows[j] - factors[j] top for each reduced row; a factor 0 keeps the
    row itself."""
    if p == 2:
        return [g ^ top if f else g for g, f in zip(rows, factors)]
    H, stages = _folds(n, p, p * (p - 1))
    return [_fold(g + (p - f) * top, H, stages) if f else g for g, f in zip(rows, factors)]


def combine_bits(coeffs, rows, n: int, p: int) -> int:
    """sum_j coeffs[j] rows[j] of reduced rows of length n: the scaled rows
    (lanes up to (p - 1)^2) summed m at a time, one fold per chunk."""
    if p == 2:
        return reduce(xor, compress(rows, coeffs), 0)
    terms, acc = [f * r for f, r in zip(coeffs, rows) if f], 0
    m = (_LANE_TOP - (p - 1)) // (p - 1) ** 2
    for i in range(0, len(terms), m):
        part = terms[i : i + m]
        acc = _fold(acc + sum(part), *_folds(n, p, p - 1 + len(part) * (p - 1) ** 2))
    return acc


def reduce_bits(v: int, R, n: int, p: int) -> int:
    """The canonical representative of the packed row v modulo the row
    space of R, in rref (each row leads with a 1 at its pivot): v with its
    pivot coordinates cleared.  At p = 2 v ^ b drops v below v exactly
    when v has b's pivot (b's top bit), so min clears it."""
    if p == 2:
        for b in R:
            v = min(v, v ^ b)
        return v
    H, stages = _folds(n, p, p * (p - 1))
    for b in R:
        if f := v >> ((b.bit_length() - 1) & -8) & 255:
            v = _fold(v + (p - f) * b, H, stages)
    return v


def rref_bits(rows, n: int, p: int) -> list[int]:
    """The nonzero rref rows over Z_p of packed rows of length n, sorted
    descending (pivot columns ascending): the canonical representative of
    the row space.  Echelon form first, keyed by lead byte: a row sheds
    the kept row leading there until it is zero or leads at a new byte,
    where it is kept scaled to lead with a 1.  Then each row, last first,
    is reduced by the (already reduced) rows after it."""
    top: dict[int, int] = {}
    if p == 2:
        for r in rows:
            while r and (b := top.get(r.bit_length())):
                r ^= b
            if r:
                top[r.bit_length()] = r
    else:
        H, stages = _folds(n, p, p * (p - 1))
        for r in rows:
            while r and (b := top.get(s := (r.bit_length() - 1) & -8)):
                r = _fold(r + (p - (r >> s)) * b, H, stages)
            if r:
                top[s] = scale_bits(r, pow(r >> s, -1, p), n, p)
    basis = sorted(top.values(), reverse=True)
    for i in range(len(basis) - 2, -1, -1):
        basis[i] = reduce_bits(basis[i], basis[i + 1 :], n, p)
    return basis


def complement_bits(R, n: int, p: int) -> list[int]:
    """Rref rows of {x : R x = 0 mod p} for packed rref rows R of length n:
    one vector per free column c, 1 at c and -R[i][c] at row i's pivot,
    then one elimination."""
    pivots = [lead_bit(r, n) for r in R]
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        s, v = 8 * (n - 1 - c), 0
        for r, pc in zip(R, pivots):
            if f := r >> s & 255:
                v |= (p - f) << 8 * (n - 1 - pc)
        basis.append(v | 1 << s)
    return rref_bits(basis, n, p)


@lru_cache(maxsize=None)
def _even_bytes(n: int) -> int:
    return pack((0, 1) * n)


def swap_pairs(b: int, n: int, p: int) -> int:
    """J b for a reduced packed row of length 2n: each pair (x_k, p_k)
    becomes (p_k, -x_k), so the symplectic product [a, b] is a . Jb."""
    m = _even_bytes(n)
    if p == 2:
        return ((b >> 8) & m) | ((b & m) << 8)
    x = (b >> 8) & m * 255
    return (b & m * 255) << 8 | _fold(p * m - x, *_folds(2 * n, p, p))


def dot_bits(rows, b: int, n: int, p: int) -> list[int]:
    """a . b mod p for each reduced packed row a of rows, b of length n.
    At p = 2 the parity of their common coordinates.  At odd p the lanes of
    sum_j (a & B_j) << j, B_j the lanes of b with bit j set, are the
    products a_c b_c (at most 16: no carry), and an int's byte sum is the
    int mod 255 (256 = 1), which p divides at p = 3 and 5."""
    if p == 2:
        return [(a & b).bit_count() & 1 for a in rows]
    masks = [(j, (b >> j & _lanes(n)) * 255) for j in range((p - 1).bit_length())]
    out = []
    for a in rows:
        s = 0
        for j, B in masks:
            s += (a & B) << j
        out.append(s % 255 % p)
    return out
