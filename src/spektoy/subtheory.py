"""Deriving closed, non-negatively represented gate/state/observable sets
from a Wigner construction, and the concrete subtheories used everywhere
else: the minimal CSS-without-Hadamard rebit family and full odd-d
stabilizer mechanics.

The derivation recipe:
  1. allowed observables: labels whose Weyl product phase vanishes against
     every symplectically commuting label,
  2. allowed states: joint eigenstates of maximal label subgroups generated
     inside the allowed set,
  3. allowed gates: candidates that permute the allowed states (up to
     phase) and act covariantly on their tables.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import dense_oracle as do
from . import phase_algebra as pa
from . import wigner as wg
from .circuits import ATOL_CONSTRUCT, ATOL_END2END
from .errors import DimensionMismatch, GuardExceeded


# ---------------------------------------------------------------------------
# Weyl product phases

def beta(lam, lam2, spec: wg.WignerSpec) -> int:
    """Exponent b with T(lam) T(lam2) = chi(b) T(lam + lam2).

    Computed from the phase bookkeeping and verified against dense Weyl
    multiplication; raises if the two disagree (which would mean a wrong
    bookkeeping formula, one that _beta_table shares).
    """
    d = spec.d
    lam = pa.point(lam, d)
    lam2 = pa.point(lam2, d)
    q, p2 = lam[0::2], lam2[1::2]
    s = sum(a * b for a, b in zip(q, p2))
    lam_sum = tuple((a + b) % d for a, b in zip(lam, lam2))
    b = (spec.gamma_exp(lam) + spec.gamma_exp(lam2) - spec.gamma_exp(lam_sum) + s) % d
    lhs = wg.weyl(lam, spec) @ wg.weyl(lam2, spec)
    rhs = do.chi(b, d) * wg.weyl(lam_sum, spec)
    if not np.allclose(lhs, rhs, rtol=0, atol=ATOL_CONSTRUCT):
        raise DimensionMismatch(f"product phase of {lam}, {lam2} disagrees with the bookkeeping")
    return b


def _beta_table(spec: wg.WignerSpec) -> np.ndarray:
    """beta over all label pairs, computed in bulk (no dense check)."""
    d, n = spec.d, spec.n
    pts, weights = wg._lex(d, n)
    gamma = np.array([spec.gamma_exp(tuple(l)) for l in pts], dtype=np.int64)
    qdotp = pts[:, 0::2] @ pts[:, 1::2].T
    sums = (pts[:, None, :] + pts[None, :, :]) % d
    sum_codes = sums @ weights
    gamma_sum = gamma[sum_codes]
    return (gamma[:, None] + gamma[None, :] - gamma_sum + qdotp) % d


def allowed_observables(spec: wg.WignerSpec) -> tuple[tuple[int, ...], ...]:
    """Labels lam with beta(lam, lam') = 0 for every commuting lam'."""
    d, n = spec.d, spec.n
    if d ** (4 * n) > 1 << 26:
        raise GuardExceeded("observable enumeration too large")
    pts = wg._lex(d, n)[0]
    J = pa.symplectic_form(n, d)
    commuting = (pts @ J @ pts.T) % d == 0
    bt = _beta_table(spec)
    keep = ~np.any(commuting & (bt != 0), axis=1)
    return tuple(tuple(int(x) for x in pts[i]) for i in np.nonzero(keep)[0])


def nonmixing_labels(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """{X(q)} ∪ {Z(p)} labels: no site mixing across the whole label."""
    out = set()
    for q in itertools.product(range(d), repeat=n):
        lam = [0] * (2 * n)
        lam[0::2] = q
        out.add(tuple(lam))
    for p in itertools.product(range(d), repeat=n):
        lam = [0] * (2 * n)
        lam[1::2] = p
        out.add(tuple(lam))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# states

def _census_guard(d: int, n: int) -> None:
    """Raise before enumerating when the census would exceed COSET_GUARD
    states: prod_{k=1..n} (d^k + 1) subspaces with d^n outcomes each."""
    size = d**n * pa.lagrangian_count(d, n)
    if size > pa.COSET_GUARD:
        raise GuardExceeded(
            f"stabilizer census has {size} > {pa.COSET_GUARD} states at d={d}, n={n}"
        )


def _census(d: int, n: int, keep=None) -> tuple[np.ndarray, ...]:
    """Joint eigenstates of every maximal isotropic label subspace M that
    keep(M) accepts (all of them without a filter), one per outcome tuple.

    Subspaces are distinct and each outcome tuple fixes a different state,
    so the census is free of duplicates by construction.
    """
    _census_guard(d, n)
    outcomes = list(itertools.product(range(d), repeat=n))
    return tuple(psi for M in pa.maximal_isotropic_subspaces(d, n) if keep is None or keep(M)
                 for psi in do.stabilizer_states(M.gens, outcomes, d, n))


@lru_cache(maxsize=16)
def all_stabilizer_states(d: int, n: int) -> tuple[np.ndarray, ...]:
    """Every joint eigenstate of a maximal commuting Weyl-label subgroup,
    i.e. the full stabilizer-state census (6, 60, 1080 / 12, 360 ...)."""
    out = _census(d, n)
    for s in out:
        s.setflags(write=False)
    return out


def allowed_states(spec: wg.WignerSpec) -> tuple[np.ndarray, ...]:
    """Joint eigenstates of the maximal label subgroups generated inside
    the allowed observable set: the census filtered by subspace."""
    d, n = spec.d, spec.n
    _census_guard(d, n)  # ahead of the d^{4n}-entry tables of allowed_observables
    allowed = set(allowed_observables(spec))

    def generated_inside(M: pa.Subspace) -> bool:
        inside = [v for v in M.vectors() if v in allowed]
        return bool(inside) and pa.Subspace.from_generators(inside, d, n).dim == n

    return _census(d, n, generated_inside)


def _splits_into_x_and_z(M: pa.Subspace) -> bool:
    """dim(M ∩ X-plane) + dim(M ∩ Z-plane) == n, exactly over Z_d."""
    eye = np.eye(2 * M.n, dtype=np.int64)
    x_plane = pa.Subspace.from_generators(eye[0::2], M.d, M.n)
    z_plane = pa.Subspace.from_generators(eye[1::2], M.d, M.n)
    return M.intersect(x_plane).dim + M.intersect(z_plane).dim == M.n


def css_states(n: int) -> tuple[np.ndarray, ...]:
    """All n-qubit stabilizer states whose stabilizer group splits into a
    pure-X part and a pure-Z part."""
    return _census(2, n, _splits_into_x_and_z)


def is_css(psi: np.ndarray, n: int) -> bool:
    """Stabilizer group splits into a pure-X and a pure-Z part."""
    cx = sum(
        1
        for q in itertools.product(range(2), repeat=n)
        if abs(abs(np.vdot(psi, do.pauli(q, (0,) * n, 2) @ psi)) - 1) < ATOL_END2END
    )
    cz = sum(
        1
        for p in itertools.product(range(2), repeat=n)
        if abs(abs(np.vdot(psi, do.pauli((0,) * n, p, 2) @ psi)) - 1) < ATOL_END2END
    )
    return cx * cz == 2**n


def is_real_state(psi: np.ndarray) -> bool:
    return bool(np.abs(do.canonical_phase(psi).imag).max() < ATOL_END2END)


# ---------------------------------------------------------------------------
# gate sets

@dataclass(frozen=True)
class GateGen:
    name: str
    wires: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    def label(self) -> str:
        return f"{self.name}({','.join(map(str, self.wires))})"


def _gate_gens(one, two, n: int, d: int) -> tuple[GateGen, ...]:
    """The one-site gates wire by wire, then each two-site gate on every
    ordered wire pair; the symmetric CZ and SWAP once per unordered pair."""
    placed = [(name, (w,)) for w in range(n) for name in one]
    placed += [
        (name, (i, j))
        for name in two
        for i in range(n)
        for j in range(n)
        if i != j and not (name in ("CZ", "SWAP") and i > j)
    ]
    return tuple(GateGen(name, wires, do.gate(name, wires, n, d)) for name, wires in placed)


def named_gate_pool(d: int, n: int) -> list[GateGen]:
    """The default candidate generators: named single- and two-site
    Clifford-type gates on every wire combination."""
    if d == 2:
        return list(_gate_gens(("X", "Y", "Z", "H", "S"), ("CNOT", "CZ", "SWAP"), n, d))
    return list(_gate_gens(("X", "Z", "F", "P"), ("SUM", "SWAP"), n, d))


def _conjugated(states) -> tuple[np.ndarray, np.ndarray]:
    """The conjugated state stack and its row norms: the states' side of
    every overlap block, the same for all images."""
    S = np.stack(states).conj()
    return S, np.linalg.norm(S, axis=1)


def _first_matches(states, images: np.ndarray, conjugated=None) -> np.ndarray:
    """Index of the first state equal to each image (a row of images) up
    to global phase, -1 where none is: the do.states_equal rule, with
    |<s|img>| > (1 - ATOL_END2END) |s| |img| and zero-norm vectors equal
    only to each other.  conjugated is _conjugated(states) when the
    caller has it.

    Images are compared in blocks of at most wg._TABLE_BLOCK overlaps (the
    whole Gram matrix of the full d=2, n=4 census would need 21 GB),
    and the scan stops after the first block holding a miss, so the result
    may be shorter than images; a shorter result always ends in a miss.
    """
    images = np.asarray(images)
    if len(states) == 0 or images.shape[1:] != states[0].shape:
        return np.full(len(images), -1)
    S, s_norm = _conjugated(states) if conjugated is None else conjugated
    s_zero = s_norm < ATOL_END2END
    block = max(1, wg._TABLE_BLOCK // len(S))
    out = [np.empty(0, dtype=np.intp)]
    for start in range(0, len(images), block):
        img = images[start:start + block]
        i_norm = np.linalg.norm(img, axis=1)
        i_zero = i_norm < ATOL_END2END
        match = np.abs(S @ img.T) > (1 - ATOL_END2END) * np.outer(s_norm, i_norm)
        if s_zero.any() or i_zero.any():
            either = s_zero[:, None] | i_zero[None, :]
            match = np.where(either, s_zero[:, None] & i_zero[None, :], match)
        first = np.where(match.any(axis=0), match.argmax(axis=0), -1)
        out.append(first)
        if (first < 0).any():
            break
    return np.concatenate(out)


def state_index(states, psi) -> int | None:
    """Index of the first state equal to psi up to global phase."""
    i = int(_first_matches(states, np.asarray(psi)[None])[0])
    return None if i < 0 else i


def permutes_states(U: np.ndarray, states) -> tuple[bool, int | None]:
    """Whether U maps the state set onto itself up to global phase.

    Returns (ok, index of first counterexample state)."""
    if len(states) == 0:
        return True, None
    stack = np.asarray(states)
    misses = np.flatnonzero(_first_matches(stack, stack @ U.T) < 0)
    return (True, None) if misses.size == 0 else (False, int(misses[0]))


def allowed_gates(
    spec: wg.WignerSpec, candidates: list[GateGen] | None = None
) -> list[tuple[GateGen, pa.AffineSymplectic]]:
    """Filter candidates by closure over the allowed states and table
    covariance, returning each survivor with its phase-space witness."""
    states = allowed_states(spec)
    if candidates is None:
        candidates = named_gate_pool(spec.d, spec.n)
    kept = []
    for cand in candidates:
        ok, _ = permutes_states(cand.matrix, states)
        if not ok:
            continue
        witness, _ = wg.covariance_witness(cand.matrix, spec, states)
        if witness is not None:
            kept.append((cand, witness))
    return kept


# ---------------------------------------------------------------------------
# concrete subtheories

@dataclass(frozen=True)
class Subtheory:
    """A named subtheory; states runs the census recipe on first read."""

    name: str
    spec: wg.WignerSpec
    census: Callable[[], tuple[np.ndarray, ...]] = field(repr=False)
    gate_generators: tuple[GateGen, ...]
    observables: tuple[tuple[int, ...], ...]

    @cached_property
    def states(self) -> tuple[np.ndarray, ...]:
        return self.census()

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def n(self) -> int:
        return self.spec.n

    @cached_property
    def allowed_gate_names(self) -> frozenset[str]:
        """Generator names plus SWAP, CNOT where SUM is one, and at d=2 Y
        (X.Z up to phase) where X and Z both are."""
        names = {g.name for g in self.gate_generators} | {"SWAP"}
        if "SUM" in names:
            names.add("CNOT")
        if self.d == 2 and {"X", "Z"} <= names:
            names.add("Y")
        return frozenset(names)

    def manifest(self, certificates: dict | None = None) -> dict:
        return {
            "spec": {"name": self.spec.name, "d": self.d, "n": self.n},
            "observables": [do.label_name(lam, self.d) for lam in self.observables],
            "gate_generators": [g.label() for g in self.gate_generators],
            "state_count": len(self.states),
            "certificates": certificates or {},
        }


@lru_cache(maxsize=8)
def minimal_rebit_subtheory(n: int) -> Subtheory:
    """CSS states and non-mixing X/Z observables with gates generated by
    CNOT and the Pauli rotations only (no global Hadamard)."""
    spec = wg.delfosse_rebit_spec(n)
    return Subtheory(
        name="minimal-rebit",
        spec=spec,
        census=lambda: allowed_states(spec),
        gate_generators=_gate_gens(("X", "Z"), ("CNOT",), n, 2),
        observables=nonmixing_labels(2, n),
    )


@lru_cache(maxsize=8)
def css_rebit_subtheory(n: int) -> Subtheory:
    """The maximal rebit reference: minimal set plus the global Hadamard."""
    base = minimal_rebit_subtheory(n)
    hh = do.gate("H", (0,), n, 2)
    for w in range(1, n):
        hh = hh @ do.gate("H", (w,), n, 2)
    return Subtheory(
        name="css-rebit",
        spec=base.spec,
        census=lambda: base.states,
        gate_generators=base.gate_generators
        + (GateGen("H*", tuple(range(n)), hh),),
        observables=base.observables,
    )


@lru_cache(maxsize=8)
def qudit_stabilizer_subtheory(d: int, n: int) -> Subtheory:
    """Full stabilizer mechanics at odd prime d (the maximal case)."""
    return Subtheory(
        name=f"qudit-stabilizer-d{d}",
        spec=wg.gross_spec(d, n),
        census=lambda: all_stabilizer_states(d, n),
        gate_generators=_gate_gens(("X", "Z", "F", "P"), ("SUM",), n, d),
        observables=tuple(pa.all_points(d, n)),
    )


@lru_cache(maxsize=8)
def full_qubit_stabilizer_subtheory(n: int) -> Subtheory:
    """All qubit stabilizer states and Clifford generators, paired with the
    Delfosse rebit construction: the canonical *failing* candidate."""
    spec = wg.delfosse_rebit_spec(n)
    return Subtheory(
        name="full-qubit-stabilizer",
        spec=spec,
        census=lambda: all_stabilizer_states(2, n),
        gate_generators=_gate_gens(("X", "Z", "H", "S"), ("CNOT",), n, 2),
        # the Hermitian labels, q.p = 0 mod 2
        observables=spec.labels(),
    )


def subtheory_by_name(name: str, n: int, d: int = 2) -> Subtheory:
    """The named subtheory at n sites; DimensionMismatch if n < 1 or d does
    not fit the name (the rebit and qubit subtheories live at d = 2, the
    qudit stabilizer subtheory at the odd primes of pa.SUPPORTED_PRIMES)."""
    if n < 1:
        raise DimensionMismatch(f"n={n} must be >= 1")
    name = name.lower()
    qubit = {
        "minimal-rebit": minimal_rebit_subtheory,
        "minimal": minimal_rebit_subtheory,
        "css-rebit": css_rebit_subtheory,
        "css": css_rebit_subtheory,
        "full-qubit-stabilizer": full_qubit_stabilizer_subtheory,
    }
    if name in qubit:
        if d != 2:
            raise DimensionMismatch(f"subtheory {name!r} needs d=2, got d={d}")
        return qubit[name](n)
    if name in ("qudit-stabilizer", "gross"):
        if d == 2 or d not in pa.SUPPORTED_PRIMES:
            raise DimensionMismatch(f"subtheory {name!r} needs an odd prime d, got d={d}")
        return qudit_stabilizer_subtheory(d, n)
    raise DimensionMismatch(f"unknown subtheory {name!r}")


# ---------------------------------------------------------------------------
# certificates

def is_closed(sub: Subtheory, visit: Callable | None = None):
    """Every generator maps every allowed state to an allowed state.

    Returns (verdict, counterexample): the first gate, in generator order,
    that maps a state outside, and that state's index.  The census is
    imaged under blocks of generators whose transports (d^{4n} entries
    each), image tables (d^{2n} per state) and overlaps with the census
    (one per state pair) fit wg._TABLE_BLOCK, one _first_matches call
    each; visit(generators, unitaries, images) sees every block."""
    states = np.stack(sub.states)
    conjugated, cex = _conjugated(states), None
    step = max(1, wg._TABLE_BLOCK // max(sub.d ** (2 * sub.n), len(states)) ** 2)
    for lo in range(0, len(sub.gate_generators), step):
        gens = sub.gate_generators[lo : lo + step]
        Us = np.stack([g.matrix for g in gens])
        images = states @ Us.transpose(0, 2, 1)
        if cex is None:
            first = _first_matches(states, images.reshape(-1, images.shape[-1]), conjugated)
            misses = np.flatnonzero(first < 0)
            if misses.size:
                k, idx = divmod(int(misses[0]), len(states))
                cex = {"gate": gens[k].label(), "state_index": idx}
        if visit is not None:
            visit(gens, Us, images)
        elif cex is not None:
            break
    return cex is None, cex


def _dual_tables(sub: Subtheory) -> tuple[list[tuple[str, int]], np.ndarray, np.ndarray]:
    """The measurement-side duals: (observable name, outcome) of every
    outcome projector of every nonzero allowed observable, and the
    projectors' tables as one stack (values, residues)."""
    keys, projectors = [], []
    for lam in sub.observables:
        if not any(lam):
            continue
        for k, P in enumerate(do.label_projectors(lam, sub.d)):
            keys.append((do.label_name(lam, sub.d), k))
            projectors.append(P)
    return keys, *wg._tables(np.stack(projectors), sub.spec)


def is_spekkens_subtheory(sub: Subtheory) -> dict:
    """Run the three certificates: closure, non-negativity (states and
    measurement duals), covariance of every generator.

    The census is tabulated once: non-negativity and the coset rule
    (`wg._coset_rows`) read its rows.  Each block of generators that
    `is_closed` images is tabulated in one call, and one
    `wg._covariance_witness` call (transport, then the exhaustive search
    within guards) gives each generator's witness and mode.
    """
    d, n, spec = sub.d, sub.n, sub.spec
    states = np.stack(sub.states)
    tables, residues = wg._tables(states, spec)
    neg = wg._first_negative(tables, residues, d, n)
    neg_witness = None if neg is None else {"state_index": neg[0], "offending": neg[1][:3]}
    coset = np.flatnonzero(~wg._coset_rows(tables, d, n))
    coset_fail = {"state_index": int(coset[0])} if coset.size else None
    keys, dual_values, dual_residues = _dual_tables(sub)
    neg = wg._first_negative(dual_values, dual_residues, d, n)
    dual_witness = None
    if neg is not None:
        (name, k), off = keys[neg[0]], neg[1]
        dual_witness = {"observable": name, "outcome": k, "offending": off[:3]}

    cov: dict = {"passed": True, "witnesses": {}, "failures": []}

    def covariance(gens, Us, images):
        after = wg._tables(images.reshape(-1, images.shape[-1]), spec)[0]
        found = wg._covariance_witness(Us, spec, tables, after.reshape(len(gens), len(states), -1))
        for gen, (witness, how) in zip(gens, found):
            if witness is None:
                cov["passed"] = False
                cov["failures"].append({"gate": gen.label(), "mode": how})
            else:
                cov["witnesses"][gen.label()] = {
                    "S": witness.S.tolist(), "a": witness.a.tolist(), "mode": how}

    closed, cex = is_closed(sub, covariance)
    nonneg = neg_witness is None and dual_witness is None
    return {
        "name": sub.name, "d": d, "n": n,
        "closure": {"passed": closed, "counterexample": cex},
        "nonnegativity": {"passed": nonneg, "state_witness": neg_witness,
                          "dual_witness": dual_witness, "coset_indicator_failure": coset_fail},
        "covariance": cov,
        "passed": bool(closed and nonneg and cov["passed"]),
    }


# ---------------------------------------------------------------------------
# generated gate groups (for membership assertions like SWAP-in / CZ-out)

def _signed_action(U: np.ndarray) -> np.ndarray:
    """do.pauli_action(U), a signed permutation, as one int vector: entry w
    is 2 v + [s = -1] when U P_w U* = s P_v."""
    K = do.pauli_action(U)
    v = np.abs(K).argmax(axis=0)
    return 2 * v + (K[v, np.arange(len(K))] < 0)


def _compose_actions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The signed action of U V, K_U K_V, from those of U and V by one
    gather: V sends P_w to s P_v and U sends P_v to a[v].  a may be a stack
    of actions, one per row."""
    return a[..., b >> 1] ^ (b & 1)


def generated_gate_group(
    generators: list[np.ndarray], max_size: int = 400_000
) -> set[bytes]:
    """BFS closure of the Clifford group the generators generate, up to
    global phase, keyed by the bytes of the exact signed Pauli action
    (`_signed_action`); each layer is composed with a generator as one
    stack.  InvalidGenerators for a non-Clifford generator."""
    gens = [_signed_action(g) for g in generators]
    eye = 2 * np.arange(len(gens[0]))
    seen = {eye.tobytes()}
    frontier = eye[None]
    while len(frontier):
        nxt = []
        for g in gens:
            for KV in _compose_actions(frontier, g):
                key = KV.tobytes()
                if key not in seen:
                    seen.add(key)
                    nxt.append(KV)
                    if len(seen) > max_size:
                        raise GuardExceeded(f"gate group exceeds {max_size} elements")
        frontier = np.array(nxt)
    return seen


def group_contains(group: set[bytes], U: np.ndarray) -> bool:
    """Whether the Clifford U is in the group, up to global phase: a lookup
    of its signed-action key.  InvalidGenerators for a non-Clifford U."""
    return _signed_action(U).tobytes() in group
