"""Discrete Wigner machinery: Weyl operators, phase-point operators, tables,
covariance fitting and transition matrices.

Three named constructions are provided:

* ``gross``: odd d, quadratic prefactor chi(2^{-1} q.p) on Z(p)X(q).  With
  the X(a)|k> = |k-a> shift convention this is the unique sign for which
  the Weyl operators form a projective representation whose phases vanish
  on symplectically commuting pairs (T(t mu) = T(mu)^t in particular).
* ``delfosse-rebit``: d=2, no prefactor, phase-point sum restricted to the
  labels with q.p = 0 mod 2 (exactly the Hermitian Weyl operators).
* ``factorisable-rebit``: d=2, no prefactor, full sum.  Phase points are
  non-Hermitian but factorize as tensor products across sites.

Phase-point operators are normalized to unit trace; table normalizations
are computed, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dense_oracle as do
from . import phase_algebra as pa
from .circuits import ATOL_CONSTRUCT, ATOL_END2END
from .errors import DimensionMismatch, GuardExceeded

SPEC_NAMES = ("gross", "delfosse-rebit", "factorisable-rebit")


@dataclass(frozen=True)
class WignerSpec:
    """A phase-function choice fixing Weyl and phase-point operators.

    gamma_exp(lam) is the chi-exponent of the Weyl prefactor; restricted
    (delfosse-rebit) marks the phase-point sum as over Hermitian labels.
    """

    name: str
    d: int
    n: int

    def __post_init__(self):
        if self.name not in SPEC_NAMES:
            msg = f"unknown construction {self.name!r}; choose from {SPEC_NAMES}"
            raise DimensionMismatch(msg)
        if self.name == "gross" and self.d % 2 == 0:
            raise DimensionMismatch("gross construction requires odd d")
        if self.name != "gross" and self.d != 2:
            raise DimensionMismatch(f"{self.name} requires d=2")

    @property
    def restricted(self) -> bool:
        return self.name == "delfosse-rebit"

    def gamma_exp(self, lam) -> int:
        if self.name != "gross":
            return 0
        q = lam[0::2]
        p = lam[1::2]
        return (pow(2, -1, self.d) * sum(int(a) * int(b) for a, b in zip(q, p))) % self.d

    def label_allowed(self, lam) -> bool:
        """Whether the label participates in the phase-point sum."""
        if not self.restricted:
            return True
        q = lam[0::2]
        p = lam[1::2]
        return sum(int(a) * int(b) for a, b in zip(q, p)) % 2 == 0

    def labels(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            lam for lam in pa.all_points(self.d, self.n) if self.label_allowed(lam)
        )


def gross_spec(d: int, n: int) -> WignerSpec:
    return WignerSpec("gross", d, n)


def delfosse_rebit_spec(n: int) -> WignerSpec:
    return WignerSpec("delfosse-rebit", 2, n)


def factorisable_rebit_spec(n: int) -> WignerSpec:
    return WignerSpec("factorisable-rebit", 2, n)


def spec_by_name(name: str, d: int, n: int) -> WignerSpec:
    return WignerSpec(name.lower(), d, n)


def weyl(lam, spec: WignerSpec) -> np.ndarray:
    """Weyl operator T(lam) = w^{gamma(lam)} Z(p) X(q)."""
    lam = pa.point(lam, spec.d)
    if len(lam) != 2 * spec.n:
        raise DimensionMismatch(f"point length {len(lam)} != {2 * spec.n}")
    q = lam[0::2]
    p = lam[1::2]
    return do.chi(spec.gamma_exp(lam), spec.d) * do.pauli(q, p, spec.d)


def _stack_guard(spec: WignerSpec) -> None:
    """Raise before allocating a d^{4n}-entry operator stack (or its
    d^{2n} x d^{2n} phase matrix) past COSET_GUARD entries."""
    size = spec.d ** (4 * spec.n)
    if size > pa.COSET_GUARD:
        raise GuardExceeded(f"phase-point stack has {size} > {pa.COSET_GUARD} entries")


@lru_cache(maxsize=32)
def _phase_point_stack(spec: WignerSpec) -> np.ndarray:
    """A(lam) for every lam (lex order), each of unit trace."""
    _stack_guard(spec)
    d, n = spec.d, spec.n
    pts, codes = pa.all_points(d, n), _lex(d, n)[0]
    J = pa.symplectic_form(n, d)
    # chi([lam, lam']) for all pairs
    sympl = (codes @ J @ codes.T) % d
    phases = np.exp(2j * np.pi * sympl / d)
    mask = np.array([spec.label_allowed(lam) for lam in pts], dtype=float)
    T = np.stack([weyl(lam, spec) for lam in pts])
    raw = np.tensordot(phases * mask[None, :], T, axes=(1, 0))
    # unit-trace normalisation, checked to be lam-independent
    traces = np.trace(raw, axis1=1, axis2=2)
    if abs(traces[0]) < ATOL_CONSTRUCT:
        raise DimensionMismatch("phase-point normalisation degenerate")
    norm = traces[0].real
    assert np.allclose(traces, norm, rtol=0, atol=ATOL_END2END)
    out = raw / norm
    out.setflags(write=False)
    return out


def phase_point(lam, spec: WignerSpec) -> np.ndarray:
    """Unit-trace phase-point operator at lam."""
    return _phase_point_stack(spec)[pa.point_code(lam, spec.d)]


def hermitian_part(A: np.ndarray) -> np.ndarray:
    return (A + A.conj().T) / 2


@dataclass(frozen=True)
class WignerTable:
    """Real table over phase space, indexed by the lex order of points.

    values holds the real parts; imag_residue records the largest imaginary
    part dropped.  Tables of states inside a matching subtheory are real to
    rounding; a non-Hermitian construction applied to an outside state can
    leave a genuine residue, which counts against non-negativity.
    """

    spec: WignerSpec
    values: np.ndarray
    imag_residue: float = 0.0

    def __post_init__(self):
        self.values.setflags(write=False)

    def value(self, lam) -> float:
        return float(self.values[pa.point_code(lam, self.spec.d)])

    def total(self) -> float:
        return float(self.values.sum())

    def support(self) -> tuple[tuple[int, ...], ...]:
        pts = pa.all_points(self.spec.d, self.spec.n)
        return tuple(p for p, v in zip(pts, self.values) if abs(v) > ATOL_END2END)

    def as_json(self) -> dict:
        pts = pa.all_points(self.spec.d, self.spec.n)
        return {
            "spec_name": self.spec.name,
            "d": self.spec.d,
            "n": self.spec.n,
            "entries": [
                [list(p), round(float(v), 12)] for p, v in zip(pts, self.values)
            ],
            "sum": round(self.total(), 12),
        }


#: rows per block of the table kernel are chosen so that each complex
#: transient holds at most this many entries (1 MiB)
_TABLE_BLOCK = 1 << 16


def _tables(states: np.ndarray, spec: WignerSpec) -> tuple[np.ndarray, np.ndarray]:
    """(values, residues) of a stack of state vectors (k, dim) or density
    matrices (k, dim, dim): each row of values holds one table's real parts
    normalised to sum to 1 (a zero-sum row raises DimensionMismatch), each
    residue its largest imaginary part under the same normalisation.

    Each block of rows is one product of flattened transposed density
    matrices with the flattened phase-point stack, so that no transient
    outgrows _TABLE_BLOCK entries: a block keeps its real parts and the
    largest imaginary part of each row."""
    A = _phase_point_stack(spec)
    size = A.shape[0]  # d^(2n): also the entries of one flattened density matrix
    flat = A.reshape(size, -1)
    vals, imag = np.empty((len(states), size)), np.empty(len(states))
    step = max(1, _TABLE_BLOCK // size)
    for lo in range(0, len(states), step):
        blk = states[lo : lo + step]
        # row r holds rho_ji at flat index ij (for a vector, conj(psi_i)
        # psi_j), so the product gives tr(A(lam) rho) = sum_ij A(lam)_ij rho_ji
        if blk.ndim == 2:
            rho_t = blk.conj()[:, :, None] * blk[:, None, :]
        else:
            rho_t = blk.transpose(0, 2, 1)
        prod = rho_t.reshape(len(blk), -1) @ flat.T
        vals[lo : lo + step], imag[lo : lo + step] = prod.real, np.abs(prod.imag).max(axis=1)
    total = vals.sum(axis=1)
    if np.any(np.abs(total) < ATOL_CONSTRUCT):
        raise DimensionMismatch("state table sums to zero")
    vals /= total[:, None]
    return vals, imag / np.abs(total)


def wigner_of_state(rho: np.ndarray, spec: WignerSpec) -> WignerTable:
    """Normalized table of a state vector or density matrix: values sum to 1."""
    vals, resid = _tables(rho[None], spec)
    return WignerTable(spec, vals[0], float(resid[0]))


@lru_cache(maxsize=32)
def _lex(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every point in lex order, and the weights giving a point its lex
    code (weights[j] is the code of the unit vector e_j)."""
    pts = np.array(pa.all_points(d, n), dtype=np.int64)
    weights = d ** np.arange(2 * n - 1, -1, -1)
    pts.setflags(write=False)
    weights.setflags(write=False)
    return pts, weights


def _offending(values: np.ndarray, residue: float, d: int, n: int, tol: float) -> list:
    """The points of one table row below -tol with their values, in lex
    order, then ("imag_residue",) with the residue when it exceeds tol."""
    pts, _ = _lex(d, n)
    offending = [(tuple(pts[c].tolist()), float(values[c])) for c in np.flatnonzero(values < -tol)]
    if residue > tol:
        offending.append((("imag_residue",), float(residue)))
    return offending


def is_nonnegative(table: WignerTable, tol: float = ATOL_END2END):
    """(verdict, offending points with their values).

    A table with a genuine imaginary residue is not a probability
    distribution, so it fails with every point of nonzero residue listed.
    """
    d, n = table.spec.d, table.spec.n
    offending = _offending(table.values, table.imag_residue, d, n, tol)
    return (len(offending) == 0, offending)


def _first_negative(values: np.ndarray, residues: np.ndarray, d: int, n: int):
    """(row index, offending points) of the first row of a table stack that
    is_nonnegative rejects, or None when every row passes."""
    bad = np.flatnonzero((values < -ATOL_END2END).any(axis=1) | (residues > ATOL_END2END))
    if bad.size == 0:
        return None
    i = int(bad[0])
    return i, _offending(values[i], residues[i], d, n, ATOL_END2END)


def _coset_rows(values: np.ndarray, d: int, n: int) -> np.ndarray:
    """Whether each row of a table stack is uniform on an affine subspace
    and 0 elsewhere, in one exact pass (`_indicator_coset` decides one row):
    its support values agree and sum to 1 within ATOL_END2END, and its
    support less its first point is closed under addition (at prime d, a
    subspace).  Rows go by size, in blocks of _TABLE_BLOCK pairwise sums."""
    pts, weights = _lex(d, n)
    mask = np.abs(values) > ATOL_END2END
    sizes = mask.sum(axis=1)
    spread = (values.max(axis=1, where=mask, initial=-np.inf)
              - values.min(axis=1, where=mask, initial=np.inf))
    ok = (spread <= ATOL_END2END) & (np.abs(values.sum(axis=1, where=mask) - 1) <= ATOL_END2END)
    for m in set(sizes[ok].tolist()):
        rows = np.flatnonzero(ok & (sizes == m))
        step = max(1, _TABLE_BLOCK // (m * m * 2 * n))
        for blk in (rows[lo : lo + step] for lo in range(0, len(rows), step)):
            member = mask[blk]
            supp = pts[np.nonzero(member)[1].reshape(len(blk), m)]
            # x + y - base stays in the support for all x, y iff it is a coset
            sums = ((supp[:, :, None] + supp[:, None] - supp[:, :1, None]) % d) @ weights
            ok[blk] = member[np.arange(len(blk))[:, None, None], sums].all(axis=(1, 2))
    return ok


def _indicator_coset(values: np.ndarray, d: int, n: int):
    """(U, base) with the table row values uniform on the coset U + base
    and 0 elsewhere, or None when it is not such an indicator: the
    _coset_rows rule read off one row.  U is spanned by the support less
    base, which is closed under addition exactly when it has d^dim(U)
    points; U is needed anyway, so its dimension decides."""
    codes = np.flatnonzero(np.abs(values) > ATOL_END2END)
    vals = values[codes].tolist()
    if not vals or max(vals) - min(vals) > ATOL_END2END or abs(sum(vals) - 1) > ATOL_END2END:
        return None
    supp = _lex(d, n)[0][codes]
    U = pa.Subspace.from_generators(supp - supp[0], d, n)
    return (U, tuple(supp[0].tolist())) if d**U.dim == len(vals) else None


def is_coset_indicator(table: WignerTable) -> bool:
    """True iff the table is uniform on an affine subspace and 0 elsewhere."""
    return _indicator_coset(table.values, table.spec.d, table.spec.n) is not None


# ---------------------------------------------------------------------------
# covariance

def _stacked_tables(state_set, spec: WignerSpec, U: np.ndarray | None = None) -> np.ndarray:
    """Table of every state in state_set (of its image under U when given),
    one row per state.  The set holds state vectors only or density
    matrices only, as a sequence or already stacked."""
    if len(state_set) == 0:
        return np.zeros((0, spec.d ** (2 * spec.n)))
    states = np.asarray(state_set)
    if U is not None:
        states = states @ U.T if states.ndim == 2 else U @ states @ U.conj().T
    return _tables(states, spec)[0]


def _image_codes(S: np.ndarray, a: np.ndarray, d: int) -> np.ndarray:
    """Lex code of S lam + a for every lam, in the lex order of lam."""
    pts, weights = _lex(d, S.shape[0] // 2)
    return ((pts @ S.T + a) % d) @ weights


def _covariant(before: np.ndarray, after: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Whether every after row equals its before row read at codes, the
    _image_codes of S lam + a: one verdict per map for a stack of maps
    (after (k, s, size), codes (k, size)), or one for a single map (after
    (s, size), codes (size,)).  Rows go in blocks of _TABLE_BLOCK entries
    over all the maps."""
    ok = np.ones(codes.shape[:-1], dtype=bool)
    step = max(1, _TABLE_BLOCK // codes.size)
    for lo in range(0, len(before), step):
        moved = np.moveaxis(before[lo : lo + step, codes], 0, -2)
        ok &= np.all(np.abs(after[..., lo : lo + step, :] - moved) <= ATOL_END2END, axis=(-2, -1))
    return ok


def _affine_map(codes, d: int, n: int) -> pa.AffineSymplectic | None:
    """The affine map sending 0 to the point of lex code codes[0] and each
    unit point e_j to that of codes[1 + j], or None when its linear part
    is not symplectic: an affine map is fixed by these 2n + 1 images."""
    P = _lex(d, n)[0][list(codes)]
    try:
        # column j of S is the image of e_j less a, the image of 0
        return pa.AffineSymplectic((P[1:] - P[0]).T, P[0], d)
    except DimensionMismatch:
        return None


def _fit_guard(before: np.ndarray, after: np.ndarray, spec: WignerSpec) -> list:
    """The candidate list of each basis point b = 0, e_1, ..., e_2n: the
    lex codes mu with before[:, mu] = after[:, b] within ATOL_END2END on every row.

    Raises DimensionMismatch for an empty state set, and GuardExceeded
    when the product of the list sizes exceeds pa.AFFINE_ENUM_GUARD."""
    if len(before) == 0:
        raise DimensionMismatch("state_set must be nonempty")
    _, weights = _lex(spec.d, spec.n)
    lists = [
        np.flatnonzero(np.abs(before - after[:, [b]]).max(axis=0) <= ATOL_END2END)
        for b in (0, *weights)
    ]
    total = math.prod(map(len, lists))
    if total > pa.AFFINE_ENUM_GUARD:
        raise GuardExceeded(
            f"covariance search needs {total} candidates; guard is "
            f"{pa.AFFINE_ENUM_GUARD}"
        )
    return lists


def _basis_point_search(
    before: np.ndarray, after: np.ndarray, spec: WignerSpec
) -> pa.AffineSymplectic | None:
    """The first affine symplectic g, in the product order of the candidate
    lists, with after[:, lam] = before[:, g(lam)] for every row, or None.

    Complete: a witness g sends each basis point b to a point whose column
    of before equals after's column at b, so g(b) lies in b's candidate
    list, and g is fixed by these images.  Every such choice is tried and
    checked at every point, so None certifies that no witness exists.  A
    list holds more than one code only where two phase points carry equal
    values in every table of the set, i.e. where the tables do not separate
    points (a set of a few states; the stabilizer censuses separate them).
    The lists are searched depth first in that order, and a code joins a
    choice only if its column of S has the symplectic products J_ij with
    the columns already chosen, so only complete choices build a map."""
    d, n, lists = spec.d, spec.n, _fit_guard(before, after, spec)
    pts, J = _lex(d, n)[0], pa.symplectic_form(n, d)

    def search(codes):
        k = len(codes)
        if k == len(lists):
            g = _affine_map(codes, d, n)
            ok = g is not None and _covariant(before, after, _image_codes(g.S, g.a, d))
            return g if ok else None
        keep, a = lists[k], pts[codes[0]] if codes else None
        if k > 1:  # column k - 1 of S against the columns before it
            cols, new = (pts[list(codes[1:])] - a) % d, (pts[keep] - a) % d
            keep = keep[np.all((cols @ J @ new.T - J[: k - 1, [k - 1]]) % d == 0, axis=0)]
        return next((g for mu in keep if (g := search((*codes, mu))) is not None), None)

    return search(())


def fit_covariance(
    U: np.ndarray, spec: WignerSpec, state_set
) -> pa.AffineSymplectic | None:
    """Exhaustive search for (S, a) with W_{U rho U*}(lam) = W_rho(S lam + a)
    for every state in state_set at every lam.

    Tries every affine symplectic map whose images of 0 and of the unit
    points are read off the tables (`_basis_point_search`), so a ``None``
    answer is an exhaustive no-witness certificate.  Raises GuardExceeded,
    before any candidate is tried, when the candidates exceed the guard.
    """
    before = _stacked_tables(state_set, spec)
    return _basis_point_search(before, _stacked_tables(state_set, spec, U), spec)


def _phase_space_actions(Us: np.ndarray, spec: WignerSpec):
    """phase_space_action of each unitary of a stack Us (k, D, D), and the
    _image_codes row of the map each U's partners give.

    The phase-point stack is transported once (U* A(lam) U, k d^{4n}
    entries).  An affine map is fixed by the images of 0 and the unit
    points e_j, so only theirs are matched: one product gives every
    squared distance to the stack rows, and the near rows (below
    ATOL_END2END, far above a partner's) are compared entry by entry.  A U
    with one partner per basis image gets its map when S is symplectic and
    U* A(lam) U = A(S lam + a) at every lam (one check for the stack)."""
    A, (pts, weights) = _phase_point_stack(spec), _lex(spec.d, spec.n)
    flat, basis = A.reshape(len(A), -1), [0, *weights]
    moved = Us.conj().transpose(0, 2, 1)[:, None] @ A @ Us[:, None]
    images = moved[:, basis].reshape(len(Us) * len(basis), -1)
    # conjugation by U keeps each operator's norm
    norms = np.vecdot(flat, flat).real
    dist = norms[basis * len(Us), None] + norms - 2 * (images.conj() @ flat.T).real
    rows, cols = np.nonzero(dist < ATOL_END2END)
    hit = np.abs(flat[cols] - images[rows]).max(axis=1) < ATOL_END2END
    rows, cols = rows[hit], cols[hit]
    unique = (np.bincount(rows, minlength=len(images)) == 1).reshape(len(Us), -1).all(axis=1)
    partners = np.zeros((len(Us), len(basis)), dtype=np.intp)
    partners.flat[rows] = cols
    # each map's _image_codes: row j of S^T is e_j's partner less 0's, a
    P = pts[partners]
    codes = ((pts @ (P[:, 1:] - P[:, :1]) + P[:, :1]) % spec.d) @ weights
    near = np.abs(moved - A[codes]).max(axis=(1, 2, 3)) < ATOL_END2END
    return [_affine_map(p, spec.d, spec.n) if ok else None
            for p, ok in zip(partners.tolist(), (unique & near).tolist())], codes


def phase_space_action(U: np.ndarray, spec: WignerSpec) -> pa.AffineSymplectic | None:
    """Covariance witness for *all* states read off by transporting
    phase-point operators (`_phase_space_actions` of the one-entry stack).
    None does not by itself rule out covariance on a state set's tables."""
    return _phase_space_actions(U[None], spec)[0][0]


def covariance_witness(
    U: np.ndarray, spec: WignerSpec, state_set
) -> tuple[pa.AffineSymplectic | None, str]:
    """Find (S, a) witnessing covariance on state_set, with the mode that
    decided (the one-entry `_covariance_witness`): the operator transport
    verified on the state tables ("transport"), else the exhaustive search,
    which can also certify non-existence (witness None, "exhaustive"), and
    past its guard (None, "guard-exceeded")."""
    before, after = _stacked_tables(state_set, spec), _stacked_tables(state_set, spec, U)
    return _covariance_witness(U[None], spec, before, after[None])[0]


def _covariance_witness(
    Us: np.ndarray, spec: WignerSpec, before: np.ndarray, after: np.ndarray
) -> list[tuple[pa.AffineSymplectic | None, str]]:
    """covariance_witness of each U of a stack Us (k, D, D) on a state set
    of tables before, with image tables after[i] under Us[i]: one transport
    and one table check for the stack, then the search for each U left."""
    found, codes = _phase_space_actions(Us, spec)
    out = []
    for g, ok, tables in zip(found, _covariant(before, after, codes), after):
        try:
            out.append((g, "transport") if g is not None and ok
                       else (_basis_point_search(before, tables, spec), "exhaustive"))
        except GuardExceeded:
            out.append((None, "guard-exceeded"))
    return out


def verify_covariance(U, spec: WignerSpec, state_set, g: pa.AffineSymplectic) -> bool:
    before, after = _stacked_tables(state_set, spec), _stacked_tables(state_set, spec, U)
    return bool(_covariant(before, after, _image_codes(g.S, g.a, g.d)))


@dataclass(frozen=True)
class TransitionMatrix:
    """Stochastic matrix P[lam, lam'] moving tables: after = P @ before."""

    spec: WignerSpec
    matrix: np.ndarray

    def is_permutation(self) -> bool:
        m = self.matrix
        return (
            np.all((np.abs(m) < ATOL_CONSTRUCT) | (np.abs(m - 1) < ATOL_CONSTRUCT))
            and np.all(np.abs(m.sum(axis=0) - 1) < ATOL_CONSTRUCT)
            and np.all(np.abs(m.sum(axis=1) - 1) < ATOL_CONSTRUCT)
        )


def transition_matrix(
    U: np.ndarray,
    spec: WignerSpec,
    state_set,
    witness: pa.AffineSymplectic | None = None,
) -> TransitionMatrix:
    """Point-mass-column transition matrix realizing a covariant gate.

    Built from a covariance witness, so that it reproduces every state's
    table: W_after(lam) = sum_{lam'} P[lam, lam'] W_before(lam').  A
    witness found here has been checked on every table by
    `covariance_witness`; a supplied one is checked here.  Raises if called
    for a gate with no witness.
    """
    if witness is None:
        witness, _ = covariance_witness(U, spec, state_set)
        if witness is None:
            raise DimensionMismatch("no covariance witness: transition matrix undefined")
    elif not verify_covariance(U, spec, state_set, witness):
        raise AssertionError("transition matrix fails to transport a table")
    size = spec.d ** (2 * spec.n)
    # 0/1 with one 1 per row: P @ before is exactly the before[codes] that
    # verify_covariance compares
    P = np.zeros((size, size))
    P[np.arange(size), _image_codes(witness.S, witness.a, spec.d)] = 1.0
    return TransitionMatrix(spec, P)


# ---------------------------------------------------------------------------
# the rebit equivalence of restricted and factorisable constructions

def verify_hermitian_criterion(n: int) -> bool:
    """T(lam) is Hermitian iff the restricted construction keeps lam
    (q.p = 0 mod 2), checked densely."""
    spec = factorisable_rebit_spec(n)
    restricted = delfosse_rebit_spec(n)
    for lam in pa.all_points(2, n):
        T = weyl(lam, spec)
        if np.allclose(T, T.conj().T, rtol=0, atol=ATOL_CONSTRUCT) != restricted.label_allowed(lam):
            return False
    return True


def verify_hermitian_equivalence(n: int) -> dict:
    """Check that the restricted (Hermitian) construction is the Hermitian
    part of the factorisable one, entrywise and on all CSS-state tables.

    Returns a report dict; any mismatch is recorded as a counterexample.
    """
    if n > 3:
        raise GuardExceeded("equivalence check capped at n<=3")
    spec_r = delfosse_rebit_spec(n)
    spec_f = factorisable_rebit_spec(n)
    Ar = _phase_point_stack(spec_r)
    Af = _phase_point_stack(spec_f)
    report = {
        "n": n,
        "operator_identity": True,
        "table_agreement": True,
        "hermitian_criterion": verify_hermitian_criterion(n),
        "counterexamples": [],
    }
    for i, lam in enumerate(pa.all_points(2, n)):
        if not np.allclose(Ar[i], hermitian_part(Af[i]), rtol=0, atol=ATOL_CONSTRUCT):
            report["operator_identity"] = False
            report["counterexamples"].append({"kind": "operator", "lam": list(lam)})
    from .subtheory import css_states

    states = css_states(n)
    for idx, psi in enumerate(states):
        tr = wigner_of_state(psi, spec_r).values
        tf = wigner_of_state(psi, spec_f).values
        if not np.allclose(tr, tf, rtol=0, atol=ATOL_END2END):
            report["table_agreement"] = False
            report["counterexamples"].append({"kind": "table", "state_index": idx})
    report["css_state_count"] = len(states)
    return report
