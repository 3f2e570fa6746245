"""Exact linear algebra on the discrete phase space Z_d^{2n}.

Conventions used by the whole package:

* Phase-space points and observable functionals are length-2n integer
  vectors mod d in **interleaved** order (x0, p0, x1, p1, ...).  Every other
  module inherits this order; nothing is ever transposed silently.
* d is a small prime (2, 3 and 5 are supported; everything is exercised at
  2 and 3).  Subspace arithmetic relies on the field structure.
* The symplectic form is J = diag of 2x2 blocks [[0, 1], [-1, 0]], one per
  subsystem.  The *Euclidean* dot product and the symplectic product are
  both used, for different purposes, and never interchanged: cosets of
  epistemic states use the Euclidean perp, joint-knowability uses the
  symplectic product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import _modmath as mm
from .errors import DimensionMismatch, GuardExceeded

SUPPORTED_PRIMES = (2, 3, 5)

#: hard cap on coset/subspace enumerations (number of points)
COSET_GUARD = 1 << 20

#: hard cap on the candidates of the exhaustive covariance search: the
#: product of its basis-point candidate-list sizes (wigner._fit_guard)
AFFINE_ENUM_GUARD = 5_000_000


def _check_dn(d: int, n: int) -> None:
    if d not in SUPPORTED_PRIMES:
        raise DimensionMismatch(f"d={d} unsupported; primes {SUPPORTED_PRIMES} only")
    if n < 1:
        raise DimensionMismatch(f"n={n} must be >= 1")


def as_vector(coords, d: int, n: int) -> np.ndarray:
    v = mm.modp(np.asarray(coords, dtype=np.int64).reshape(-1), d)
    if v.shape[0] != 2 * n:
        raise DimensionMismatch(f"expected length {2 * n}, got {v.shape[0]}")
    return v


def point(coords, d: int) -> tuple[int, ...]:
    """Normalize a phase-space point / functional to a canonical tuple."""
    return tuple(int(c) % d for c in coords)


@lru_cache(maxsize=None)
def _pair_swap(n: int) -> tuple[np.ndarray, np.ndarray]:
    """J as index work, read-only: J M = s[:, None] * M[P], M J = (M * s)[:, P],
    with P the pair swap (0 1)(2 3)... and s = (1, -1, 1, -1, ...)."""
    P, s = np.arange(2 * n) ^ 1, 1 - 2 * (np.arange(2 * n) & 1)
    P.setflags(write=False)
    s.setflags(write=False)
    return P, s


@lru_cache(maxsize=None)
def symplectic_form(n: int, d: int) -> np.ndarray:
    """Block-diagonal J with per-site blocks [[0, 1], [-1, 0]] mod d."""
    P, s = _pair_swap(n)
    J = np.zeros((2 * n, 2 * n), dtype=np.int64)
    J[np.arange(2 * n), P] = s % d
    J.setflags(write=False)
    return J


def evaluate(sigma, lam, d: int) -> int:
    """Value of the functional on the point: sum_j (a_j x_j + b_j p_j) mod d."""
    s = mm.modp(np.asarray(sigma, dtype=np.int64), d)
    l = mm.modp(np.asarray(lam, dtype=np.int64), d)
    if s.shape != l.shape or s.ndim != 1 or s.shape[0] % 2:
        raise DimensionMismatch(f"shapes {s.shape} vs {l.shape}")
    return int((s @ l) % d)


def symplectic_row(b) -> list[int]:
    """J b = (b1, -b0, b3, -b2, ...) as an int list (not reduced), so that
    the symplectic product [a, b] is the dot product a . Jb."""
    Jb = list(b)
    Jb[0::2] = b[1::2]
    Jb[1::2] = [-x for x in b[0::2]]
    return Jb


def symplectic_product(s1, s2, d: int) -> int:
    """s1^T J s2 mod d; antisymmetric.  Zero iff jointly knowable."""
    a = mm.modp(np.asarray(s1, dtype=np.int64), d)
    b = mm.modp(np.asarray(s2, dtype=np.int64), d)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] % 2:
        raise DimensionMismatch(f"shapes {a.shape} vs {b.shape}")
    n = a.shape[0] // 2
    J = symplectic_form(n, d)
    return int((a @ J @ b) % d)


@dataclass(frozen=True)
class Subspace:
    """Row span of a generator list over Z_d, stored once: its canonical
    rref rows packed (`mm.pack`), sorted descending.  Equality, hashing and
    order read them (packed-int order is lexicographic order), so set-level
    assertions are exact.  `pivots` is set when the subspace is built;
    `gens` and `matrix` are unpacked on each read.
    """

    bits: tuple[int, ...]
    d: int
    n: int
    pivots: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pivots", tuple([mm.lead_bit(r, 2 * self.n) for r in self.bits]))

    @classmethod
    def from_generators(cls, gens, d: int, n: int) -> "Subspace":
        _check_dn(d, n)
        if isinstance(gens, np.ndarray):  # reduced in one call at the boundary
            rows = mm.modp(gens, d).reshape(len(gens), -1 if gens.size else 0).tolist()
        else:
            rows = [[int(x) % d for x in g] for g in gens]
        for r in rows:
            if len(r) != 2 * n:
                raise DimensionMismatch(f"expected length {2 * n}, got {len(r)}")
        return cls(tuple(mm.rref_bits(map(mm.pack, rows), 2 * n, d)), d, n)

    @property
    def gens(self) -> tuple[tuple[int, ...], ...]:
        """The rref rows as tuples of 2n ints, unpacked on each read."""
        return tuple(mm.unpack(r, 2 * self.n) for r in self.bits)

    @classmethod
    def zero(cls, d: int, n: int) -> "Subspace":
        return cls.from_generators([], d, n)

    @classmethod
    def full(cls, d: int, n: int) -> "Subspace":
        return cls.from_generators(np.eye(2 * n, dtype=np.int64), d, n)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.gens, dtype=np.int64).reshape(self.dim, 2 * self.n)

    @property
    def dim(self) -> int:
        return len(self.bits)

    def contains(self, vec) -> bool:
        v = mm.pack(as_vector(vec, self.d, self.n).tolist())
        return not mm.reduce_bits(v, self.bits, 2 * self.n, self.d)

    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """All member vectors, lexicographically sorted."""
        if self.d ** self.dim > COSET_GUARD:
            raise GuardExceeded(f"subspace has {self.d ** self.dim} > {COSET_GUARD} points")
        span = mm.coset_vectors(self.matrix, [0] * (2 * self.n), self.d)
        return tuple(sorted(map(tuple, span.tolist())))

    def __add__(self, other: "Subspace") -> "Subspace":
        if (self.d, self.n) != (other.d, other.n):
            raise DimensionMismatch("subspace sum across different (d, n)")
        # both generator lists are canonical rows already: one elimination
        rows = mm.rref_bits(self.bits + other.bits, 2 * self.n, self.d)
        return Subspace(tuple(rows), self.d, self.n)

    def intersect(self, other: "Subspace") -> "Subspace":
        if (self.d, self.n) != (other.d, other.n):
            raise DimensionMismatch("subspace intersection across different (d, n)")
        return perp(perp(self) + perp(other))


def perp(V: Subspace) -> Subspace:
    """Euclidean orthogonal complement {a : a . b = 0 for all b in V}.

    This is *not* the symplectic complement; it is the complement entering
    the coset supports of epistemic states.
    """
    return Subspace(tuple(mm.complement_bits(V.bits, 2 * V.n, V.d)), V.d, V.n)


def symplectic_commutant(V: Subspace) -> Subspace:
    """{sigma : [sigma, tau] = 0 for all tau in V}: the Euclidean perp of
    the rows J tau, since [sigma, tau] = sigma . (J tau)."""
    rows = [mm.swap_pairs(b, V.n, V.d) for b in V.bits]
    return perp(Subspace(tuple(mm.rref_bits(rows, 2 * V.n, V.d)), V.d, V.n))


def is_isotropic(V: Subspace) -> bool:
    """True iff the symplectic product vanishes on all generator pairs.

    Each generator b is tested against every earlier one (the form is
    antisymmetric, so [b, b] = 0 and [b, a] = -[a, b]), on V's packed rows:
    [a, b] = a . Jb.
    """
    rows, n, d = V.bits, V.n, V.d
    for j in range(1, len(rows)):
        if any(mm.dot_bits(rows[:j], mm.swap_pairs(rows[j], n, d), 2 * n, d)):
            return False
    return True


def coset_members(U: Subspace, w) -> tuple[tuple[int, ...], ...]:
    """The coset U + w as a lexicographically ordered tuple of points.

    Callers pass the support-direction subspace directly (typically V-perp).
    No sort is needed: with w reduced modulo U (zero on U's pivot columns), a
    point's coordinate on the k-th pivot column is its coefficient on U's
    k-th rref row, and its coordinates before that column depend only on the
    coefficients of the rows before it.  So the span's lexicographic
    coefficient order is the points' lexicographic order.
    """
    v = mm.pack(as_vector(w, U.d, U.n).tolist())
    wv = mm.unpack(mm.reduce_bits(v, U.bits, 2 * U.n, U.d), 2 * U.n)
    if U.d ** U.dim > COSET_GUARD:
        raise GuardExceeded(f"coset has {U.d ** U.dim} > {COSET_GUARD} points")
    return tuple(map(tuple, mm.coset_vectors(U.matrix, wv, U.d).tolist()))


@lru_cache(maxsize=None)
def _inverse_index(n: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """-J M^T J as index work, read-only: (np.ix_(P, P), s s^T) of _pair_swap."""
    P, s = _pair_swap(n)
    signs = np.outer(s, s)
    signs.setflags(write=False)
    return np.ix_(P, P), signs


def symplectic_inverse(S: np.ndarray, d: int) -> np.ndarray:
    """Inverse of a symplectic matrix: S^T J S = J and J^2 = -1 give
    S^-1 = -J S^T J, entry (i, j) of which is s_i s_j S[P j, P i]."""
    block, signs = _inverse_index(S.shape[0] // 2)
    return signs * S.T[block] % d


@dataclass(frozen=True, eq=False)
class AffineSymplectic:
    """A phase-space map lam -> S lam + a with S^T J S = J mod d.

    Compare via key(); ndarray fields make the generated __eq__ a trap.
    """

    S: np.ndarray
    a: np.ndarray
    d: int
    n: int = field(init=False)

    def __post_init__(self):
        S = mm.modp(self.S, self.d)
        n = S.shape[0] // 2
        a = as_vector(self.a, self.d, n)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", n)
        # S^T J S = J iff S J S^T = J; numpy's int64 product is several times
        # faster on a row-major left (take's output) and S^T on the right
        P, s = _pair_swap(n)
        if np.any(mm.modp((S * s).take(P, axis=1) @ S.T - symplectic_form(n, self.d), self.d)):
            raise DimensionMismatch("matrix does not preserve the symplectic form")
        self.S.setflags(write=False)
        self.a.setflags(write=False)

    @classmethod
    def identity(cls, n: int, d: int) -> "AffineSymplectic":
        return cls(np.eye(2 * n, dtype=np.int64), np.zeros(2 * n, dtype=np.int64), d)

    def apply(self, lam) -> tuple[int, ...]:
        v = as_vector(lam, self.d, self.n)
        return tuple(int(x) for x in mm.modp(self.S @ v + self.a, self.d))

    def compose(self, other: "AffineSymplectic") -> "AffineSymplectic":
        """self after other: lam -> S1 (S2 lam + a2) + a1."""
        if (self.d, self.n) != (other.d, other.n):
            raise DimensionMismatch("composition across different (d, n)")
        return AffineSymplectic(
            mm.modp(self.S @ other.S, self.d),
            mm.modp(self.S @ other.a + self.a, self.d),
            self.d,
        )

    @cached_property
    def Sinv(self) -> np.ndarray:
        """S^-1 (read-only), computed on first read; the map is immutable."""
        Sinv = symplectic_inverse(self.S, self.d)
        Sinv.setflags(write=False)
        return Sinv

    @cached_property
    def Sinv_bits(self) -> tuple[int, ...]:
        """S^-1's rows packed (`mm.pack`), computed on first read."""
        w, rows = 2 * self.n, self.Sinv.astype(np.uint8).tobytes()
        return tuple(mm.pack(rows[i : i + w]) for i in range(0, w * w, w))

    def inverse(self) -> "AffineSymplectic":
        return AffineSymplectic(self.Sinv, mm.modp(-(self.Sinv @ self.a), self.d), self.d)

    def key(self) -> tuple:
        return (self.S.tobytes(), self.a.tobytes())


def sp_order(n: int, d: int) -> int:
    """|Sp(2n, Z_d)| = d^{n^2} prod_{j=1..n} (d^{2j} - 1)."""
    total = d ** (n * n)
    for j in range(1, n + 1):
        total *= d ** (2 * j) - 1
    return total


def all_points(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All of Z_d^{2n} in lexicographic order (the canonical point order)."""
    return tuple(itertools.product(range(d), repeat=2 * n))


def point_code(lam, d: int) -> int:
    """Index of a point in the lexicographic order of all_points."""
    code = 0
    for x in lam:
        code = code * d + int(x) % d
    return code


def lagrangian_count(d: int, n: int) -> int:
    """The number of dimension-n isotropic subspaces of Z_d^{2n}."""
    return math.prod(d**k + 1 for k in range(1, n + 1))


@lru_cache(maxsize=16)
def maximal_isotropic_subspaces(d: int, n: int) -> tuple[Subspace, ...]:
    """All dimension-n isotropic subspaces of Z_d^{2n}, canonically ordered
    (GuardExceeded before any is built past COSET_GUARD).

    Each is grown once, from its unique parent: an isotropic subspace with
    rref rows r1..rk has parent span(r2..rk).  So a node P's children are
    P + v for the v of W (P's commutant cleared on P's pivot columns) that
    lead with a 1 at a column c before P's first pivot; (v, P's rows) is
    then the child's rref, and no dedup is needed.  With r rows still to
    add, the r - 1 rows after v need distinct pivot columns before c, so
    the bound c >= r - 1 drops only children that cannot reach dimension n.
    """
    _check_dn(d, n)
    if (count := lagrangian_count(d, n)) > COSET_GUARD:
        raise GuardExceeded(f"{count} > {COSET_GUARD} Lagrangians at d={d}, n={n}")
    return tuple(sorted(_grown(d, n), key=lambda V: V.bits))


def _grown(d: int, n: int) -> list[Subspace]:
    """The Lagrangians in growth order, each built once (see above)."""
    w, level = 2 * n, [Subspace.zero(d, n)]
    for rest in range(n - 1, -1, -1):
        nxt = []
        for P in level:
            rows = [mm.swap_pairs(b, n, d) for b in P.bits]
            rows += [1 << 8 * (w - 1 - p) for p in P.pivots]  # unit rows on P's pivots
            W = perp(Subspace(tuple(mm.rref_bits(rows, w, d)), d, n))
            for i, c in enumerate(W.pivots):
                if rest <= c < (*P.pivots, w)[0]:
                    for v in mm.coset_vectors(W.matrix[i + 1 :], W.gens[i], d).tolist():
                        nxt.append(Subspace((mm.pack(v),) + P.bits, d, n))
        level = nxt
    return level
