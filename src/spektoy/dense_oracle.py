"""Brute-force complex-matrix quantum mechanics at desk scale.

This is the ground truth every phase-space claim is checked against: exact
dense matrices, explicit eigenprojectors, exhaustive branch trees.  Hard
caps keep everything honest (6 qubits / 4 qutrits); there is no tableau
shortcut anywhere in this module on purpose.

Shift operators use the convention X(a)|k> = |k-a>.  For d=2 this agrees
with the usual Pauli X; for odd d it fixes the sign of every index identity
below and in the Wigner layer.
"""

from __future__ import annotations

import cmath
import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _modmath as mm
from .circuits import (
    ATOL_CONSTRUCT,
    ATOL_END2END,
    Circuit,
    Correct,
    Gate,
    Measure,
    Step,
    branch_tree,
    compile_expr,
    eval_tree,
)
from .errors import (
    CircuitParseError,
    DimensionMismatch,
    GuardExceeded,
    InvalidGenerators,
)
from .phase_algebra import COSET_GUARD, symplectic_product

MAX_QUDITS = {2: 6, 3: 4, 5: 3}


def chi(a: int, d: int) -> complex:
    """Primitive character exp(2 pi i a / d); exactly -1^a for d=2."""
    a = int(a) % d
    if d == 2:
        return -1.0 + 0j if a else 1.0 + 0j
    return cmath.exp(2j * cmath.pi * a / d)


def _check_scale(n: int, d: int) -> None:
    cap = MAX_QUDITS.get(d)
    if cap is None:
        raise DimensionMismatch(f"d={d} unsupported")
    if n > cap:
        raise GuardExceeded(f"dense oracle capped at n<={cap} for d={d}, got n={n}")


@lru_cache(maxsize=None)
def shift_x(a: int, d: int) -> np.ndarray:
    """Single-site X(a) = sum_k |k-a><k|."""
    m = np.zeros((d, d), dtype=complex)
    for k in range(d):
        m[(k - a) % d, k] = 1.0
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def phase_z(b: int, d: int) -> np.ndarray:
    """Single-site Z(b) = sum_k chi(k b) |k><k|."""
    m = np.diag([chi(k * b, d) for k in range(d)])
    m.setflags(write=False)
    return m


def pauli(q, p, d: int) -> np.ndarray:
    """Multi-site Z(p) X(q) with q the shift part and p the phase part.

    Column x has its one nonzero in row y = x - q (per site, mod d), and
    the value is the site phases chi(y_j p_j) multiplied left to right,
    the order a Kronecker chain of the site matrices would use.
    """
    q = tuple(int(x) % d for x in q)
    p = tuple(int(x) % d for x in p)
    if len(q) != len(p):
        raise DimensionMismatch("q and p length mismatch")
    n = len(q)
    _check_scale(n, d)
    cols = np.arange(d**n)
    rows = np.zeros_like(cols)
    vals = np.ones(d**n, dtype=complex)
    for j, (qj, pj) in enumerate(zip(q, p)):
        place = d ** (n - 1 - j)
        y = (cols // place - qj) % d
        rows += y * place
        vals *= np.diag(phase_z(pj, d))[y]
    out = np.zeros((d**n, d**n), dtype=complex)
    out[rows, cols] = vals
    return out


# ---------------------------------------------------------------------------
# named gates

_SQ2 = 1 / math.sqrt(2)

_QUBIT_GATES_1 = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, cmath.exp(1j * cmath.pi / 4)]], dtype=complex),
}
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_CCZ = np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)


@lru_cache(maxsize=None)
def _qudit_gate_matrix(name: str, d: int) -> np.ndarray:
    if d == 2:
        table = {
            **_QUBIT_GATES_1,
            "CNOT": _CNOT,
            "CX": _CNOT,
            "CZ": _CZ,
            "SWAP": _SWAP,
            "CCZ": _CCZ,
        }
    else:
        fourier = np.array(
            [[chi(j * k, d) for k in range(d)] for j in range(d)], dtype=complex
        ) / math.sqrt(d)
        shear = np.diag([chi(j * (j - 1) * pow(2, -1, d), d) for j in range(d)])
        summ = np.zeros((d * d, d * d), dtype=complex)
        for a in range(d):
            for b in range(d):
                summ[a * d + (a + b) % d, a * d + b] = 1.0
        swap = np.zeros((d * d, d * d), dtype=complex)
        for a in range(d):
            for b in range(d):
                swap[b * d + a, a * d + b] = 1.0
        table = {
            "X": shift_x(1, d),
            "Z": phase_z(1, d),
            "F": fourier,
            "P": shear,
            "SUM": summ,
            "CNOT": summ,
            "SWAP": swap,
        }
    if name not in table:
        raise CircuitParseError(f"unknown gate {name!r} for d={d}")
    out = np.array(table[name], dtype=complex)
    out.setflags(write=False)
    return out


_LETTER_QP = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


def _hermitian(lam) -> np.ndarray:
    """The Hermitian Pauli string (-i)^{q.p} Z(p)X(q) at a d=2 label."""
    q, p = lam[0::2], lam[1::2]
    w = sum(qj * pj for qj, pj in zip(q, p))
    return (-1j) ** (w % 4) * pauli(q, p, 2)


def pauli_op(word: str) -> np.ndarray:
    """Hermitian Pauli word on len(word) qubits, e.g. 'XZ': the Kronecker
    product of its letters I, X, Y, Z."""
    for c in word:
        if c not in _LETTER_QP:
            raise CircuitParseError(f"bad Pauli letter {c!r} in {word!r}")
    return _hermitian(basis_label(word, range(len(word)), len(word)))


def label_name(lam, d: int) -> str:
    """Printed name of an interleaved label, site letters following
    (q_j, p_j): I, X, Z, Y for (0,0), (1,0), (0,1), (1,1) at d=2, where Y
    names the Hermitian site operator; at odd d, sites such as 'X2Z' joined
    by '.'.  At d=2 this is the inverse of basis_label."""
    sites = [(int(qj) % d, int(pj) % d) for qj, pj in zip(lam[0::2], lam[1::2])]
    if d == 2:
        letters = {qp: c for c, qp in _LETTER_QP.items()}
        return "".join(letters[site] for site in sites)
    names = []
    for qj, pj in sites:
        if qj == 0 and pj == 0:
            names.append("I")
        else:
            part = ""
            if qj:
                part += "X" if qj == 1 else f"X{qj}"
            if pj:
                part += "Z" if pj == 1 else f"Z{pj}"
            names.append(part)
    return ".".join(names)


@lru_cache(maxsize=None)
def pauli_words(n: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The 4^n Hermitian Pauli words on n qubits in IXYZ lex order, and
    their operators as one read-only (4^n, 2^n, 2^n) stack.  GuardExceeded
    before allocating past COSET_GUARD entries."""
    if 16**n > COSET_GUARD:
        raise GuardExceeded(f"Pauli stack has {16**n} > {COSET_GUARD} entries")
    words = tuple(map("".join, itertools.product("IXYZ", repeat=n)))
    ops = np.stack([pauli_op(w) for w in words])
    ops.setflags(write=False)
    return words, ops


def pauli_action(U: np.ndarray) -> np.ndarray:
    """The signed action of a Clifford U on the Pauli words: the int matrix
    K with K[v, w] = s when U P_w U* = s P_v, words indexed as in
    pauli_words.  It fixes U up to global phase, and the action of U V is
    K_U K_V.  InvalidGenerators unless every overlap tr(P_v U P_w U*)/2^n
    is an integer (at ATOL_CONSTRUCT) with exactly one +-1 per column."""
    _, ops = pauli_words(num_sites(len(U), 2))
    m = len(ops)
    overlaps = ops.reshape(m, -1).conj() @ (U @ ops @ U.conj().T).reshape(m, -1).T / len(U)
    K = np.rint(overlaps.real).astype(np.int64)
    integral = np.allclose(overlaps, K, rtol=0, atol=ATOL_CONSTRUCT)
    if not (integral and (np.abs(K).sum(axis=0) == 1).all()):
        raise InvalidGenerators("operator does not map Pauli words to signed Pauli words")
    return K


def pauli_image(K: np.ndarray, word: str) -> tuple[int, str]:
    """(s, v) with U word U* = s v, read off K = pauli_action(U)."""
    words, _ = pauli_words(len(word))
    column = K[:, words.index(word)]
    v = int(np.flatnonzero(column)[0])
    return int(column[v]), words[v]


def basis_label(letters: str, wires, n: int, d: int = 2) -> tuple[int, ...]:
    """Interleaved (q, p) label of per-wire basis letters on an n-site
    register: I, X, Z, and for d=2 also Y (X and Z together)."""
    lam = [0] * (2 * n)
    for c, w in zip(letters.upper(), wires):
        if c not in _LETTER_QP or (c == "Y" and d != 2):
            raise CircuitParseError(f"basis letter {c!r} unsupported for d={d}")
        lam[2 * w], lam[2 * w + 1] = _LETTER_QP[c]
    return tuple(lam)


def gate_arity(name: str, d: int = 2) -> int:
    return int(round(math.log(len(_qudit_gate_matrix(name, d)), d)))


def embed(small: np.ndarray, wires: tuple[int, ...], n: int, d: int = 2) -> np.ndarray:
    """Embed a d^k x d^k operator acting on the given wires into n sites.

    Wire 0 is the most significant digit of the computational index.
    """
    _check_scale(n, d)
    k = len(wires)
    if len(set(wires)) != k:
        raise DimensionMismatch(f"wire collision in {wires}")
    if any(w < 0 or w >= n for w in wires):
        raise DimensionMismatch(f"wires {wires} outside 0..{n - 1}")
    if small.shape != (d**k, d**k):
        raise DimensionMismatch(f"operator shape {small.shape} != ({d**k}, {d**k})")
    dim = d**n
    op = small.reshape((d,) * (2 * k))
    cols = np.eye(dim, dtype=complex).reshape((d,) * n + (dim,))
    out = np.tensordot(op, cols, axes=(tuple(range(k, 2 * k)), wires))
    # out axes: k out-legs (in wire order), then untouched site axes, then batch
    rest = [ax for ax in range(n) if ax not in wires]
    perm = [0] * (n + 1)
    for i, w in enumerate(wires):
        perm[w] = i
    for i, ax in enumerate(rest):
        perm[ax] = k + i
    perm[n] = n
    return out.transpose(perm).reshape(dim, dim)


def gate(name: str, wires, n: int, d: int = 2) -> np.ndarray:
    """Named gate embedded on the given wires of an n-site register."""
    name = name.upper()
    wires = tuple(int(w) for w in wires)
    small = _qudit_gate_matrix(name, d)
    if len(wires) != gate_arity(name, d):
        raise DimensionMismatch(f"{name} takes {gate_arity(name, d)} wires, got {wires}")
    return embed(np.array(small), wires, n, d)


# ---------------------------------------------------------------------------
# states

def basis_state(digits, d: int = 2) -> np.ndarray:
    digits = tuple(int(x) for x in digits)
    _check_scale(len(digits), d)
    idx = 0
    for x in digits:
        idx = idx * d + (x % d)
    v = np.zeros(d ** len(digits), dtype=complex)
    v[idx] = 1.0
    return v


def plus_state(n: int, d: int = 2) -> np.ndarray:
    _check_scale(n, d)
    return np.full(d**n, 1 / math.sqrt(d**n), dtype=complex)


def states_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equality up to global phase: |<a|b>| > (1 - ATOL_END2END) |a| |b|."""
    if a.shape != b.shape:
        return False
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < ATOL_END2END or nb < ATOL_END2END:
        return na < ATOL_END2END and nb < ATOL_END2END
    return abs(np.vdot(a, b)) / (na * nb) > 1 - ATOL_END2END


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))


def canonical_phase(state: np.ndarray) -> np.ndarray:
    """Deterministic global-phase fix: largest-magnitude amplitude real > 0."""
    mags = np.abs(state)
    idx = int(np.argmax(mags - ATOL_CONSTRUCT * np.arange(len(state))))
    if mags[idx] < ATOL_CONSTRUCT:
        return state.copy()
    return state * (mags[idx] / state[idx])


def num_sites(dim: int, d: int) -> int:
    n = int(round(math.log(dim, d)))
    if d**n != dim:
        raise DimensionMismatch(f"dimension {dim} is not a power of {d}")
    return n


# ---------------------------------------------------------------------------
# stabilizer-style states

def weyl_char_projectors(op: np.ndarray, d: int) -> list[np.ndarray]:
    """Eigenprojectors of a unitary with op^d = I, indexed by the exponent k
    of the eigenvalue chi(k)."""
    dim = op.shape[0]
    powers = [np.eye(dim, dtype=complex)]
    for _ in range(d - 1):
        powers.append(powers[-1] @ op)
    if not np.allclose(powers[-1] @ op, np.eye(dim), rtol=0, atol=ATOL_CONSTRUCT * dim):
        raise InvalidGenerators("operator is not of order d")
    projs = []
    for k in range(d):
        P = sum(chi(-k * t, d) * powers[t] for t in range(d)) / d
        projs.append(P)
    return projs


def label_projectors(lam, d: int) -> np.ndarray:
    """Outcome projectors of the measurement of an interleaved label, as one
    read-only (d, d^n, d^n) array indexed by outcome k, built once per
    reduced label and d and shared.

    These are the weyl_char_projectors of the Hermitian label operator,
    outcome k having eigenvalue chi(k): at d=2, (I + H)/2 and (I - H)/2 on
    the Hermitian Pauli string H, so outcome k has eigenvalue (-1)^k.
    """
    return _label_projectors(tuple(int(x) % d for x in lam), d)


@lru_cache(maxsize=None)
def _label_projectors(lam: tuple[int, ...], d: int) -> np.ndarray:
    op = _hermitian(lam) if d == 2 else pauli(lam[0::2], lam[1::2], d)
    projs = np.array(weyl_char_projectors(op, d))
    projs.setflags(write=False)
    return projs


def stabilizer_state(generators, d: int = 2, n: int | None = None) -> np.ndarray:
    """Joint eigenstate of commuting generalized-Pauli generators.

    Each generator is a pair (label, k): an interleaved point and the
    outcome k of label_projectors (d=2: k = 1 for eigenvalue -1 of the
    Hermitian word).  Returns the unique joint eigenvector.  This is where
    labels enter from outside (the state-spec language), so it checks them
    exactly before stabilizer_states builds the state: InvalidGenerators
    for labels of another width, and for anticommuting ([lam_i, lam_j] != 0
    mod d), dependent or under-determining sets; an inconsistent set trips
    the builder's trace backstop.
    """
    gens = [(tuple(int(x) % d for x in lam), int(k) % d) for lam, k in generators]
    if n is None:
        if not gens:
            raise InvalidGenerators("empty generator set needs explicit n")
        n = len(gens[0][0]) // 2
    if widths := sorted({len(lam) // 2 for lam, _ in gens} - {n}):
        raise InvalidGenerators(f"generator labels span {widths} sites, not {n}")
    labels = [lam for lam, _ in gens]
    if any(symplectic_product(a, b, d) for a, b in itertools.combinations(labels, 2)):
        raise InvalidGenerators("generators do not commute")
    if len(mm.rref_bits([mm.pack(lam) for lam in labels], 2 * n, d)) != len(labels):
        raise InvalidGenerators("dependent generator set")
    if len(labels) < n:
        raise InvalidGenerators("generator string under-determines the state; add generators")
    return stabilizer_states(labels, [[k for _, k in gens]], d, n)[0]


def stabilizer_states(labels, outcomes, d: int, n: int) -> list[np.ndarray]:
    """The joint eigenstate of n commuting independent n-site labels with
    each tuple of outcomes, in order.  The labels are not checked: they are
    a census Lagrangian's, the J V rows of an isotropic V, or passed
    stabilizer_state's checks.  A float trace check and a rank-one check
    stay as backstops (InvalidGenerators)."""
    stacks = [label_projectors(lam, d) for lam in labels]
    dim = d**n
    states = []
    for ks in outcomes:
        rho = np.eye(dim, dtype=complex)
        for s, k in zip(stacks, ks):
            rho = rho @ s[k]
        tr = float(np.trace(rho).real)
        if abs(tr - dim / d ** len(stacks)) > ATOL_CONSTRUCT * dim:
            raise InvalidGenerators(f"inconsistent generator signs (trace {tr})")
        vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
        if abs(vals[-1] - 1.0) > ATOL_END2END:
            raise InvalidGenerators("projector is not rank one")
        states.append(canonical_phase(vecs[:, -1]))
    return states


# ---------------------------------------------------------------------------
# circuit execution

def gate_step(U: np.ndarray) -> Step:
    """Walker step applying the matrix U to every branch: one product."""
    return lambda outcomes, level: (None, None, level @ U.T)


def append_isometry(dim: int, state: np.ndarray) -> np.ndarray:
    """I_dim (x) |state>: state's wires appended at a register's tail."""
    return np.kron(np.eye(dim), state[:, None])


def measure_step(kraus) -> Step:
    """Walker step for a measurement whose outcome k maps the register by
    kraus[k], of an (m, d_out, d_in) stack: projectors, which keep the
    register, or a gadget's Kraus operators, which may change its width.
    The level times the operators' transposes side by side,
    [K_0.T | K_1.T | ...], lists every parent's children in outcome order:
    one product for the whole level.  That matrix is the transpose of the
    operators stacked as rows, a view when they come as one array.  Each
    child's probability is its squared norm; a child of probability <=
    ATOL_CONSTRUCT, which the walker drops, is only divided by
    sqrt(ATOL_CONSTRUCT)."""
    kraus = np.asarray(kraus)
    m, d_out, d_in = kraus.shape
    stacked = kraus.reshape(m * d_out, d_in).T
    ks = [(k,) for k in range(m)]

    def step(outcomes, level):
        children = (level @ stacked).reshape(len(level) * m, d_out)
        probs = np.vecdot(children, children).real
        renormed = children / np.sqrt(np.maximum(probs, ATOL_CONSTRUCT))[:, None]
        return ks * len(level), probs.tolist(), renormed

    return step


def rows_by_key(level: np.ndarray, keys, operator) -> np.ndarray:
    """The level with each row multiplied by operator(key) of its key, one
    product per distinct key; a key whose operator is None leaves its rows
    as they are, and the level itself comes back when every key does."""
    out = level
    for key in dict.fromkeys(keys):
        U = operator(key)
        if U is None:
            continue
        rows = [i for i, k in enumerate(keys) if k == key]
        if len(rows) == len(level):
            return level @ U.T
        out = level.copy() if out is level else out
        out[rows] = level[rows] @ U.T
    return out


def _correct_step(U: np.ndarray, expr: str, names: list[str], d: int) -> Step:
    """Apply U expr-many times, expr evaluated on each branch's outcomes:
    one product of U's power per distinct count.  The expression is
    compiled once, here."""
    tree = compile_expr(expr)

    def power(count):
        return np.linalg.matrix_power(U, count) if count else None

    def step(outcomes, level):
        counts = [eval_tree(tree, dict(zip(names, o)), d) for o in outcomes]
        return None, None, rows_by_key(level, counts, power)

    return step


@dataclass
class Branch:
    outcomes: dict[str, int]
    prob: float
    state: np.ndarray


def run_circuit(
    circuit: Circuit, input_state: np.ndarray | None = None, d: int = 2
) -> list[Branch]:
    """Exhaustive branch tree for a circuit: no sampling anywhere.

    Returns one Branch per surviving outcome assignment, ordered by the
    outcome string in measurement order.  Branch probabilities sum to 1.
    """
    n = circuit.n_wires
    if input_state is not None:
        n = max(n, num_sites(input_state.shape[0], d))
    if n == 0:
        raise DimensionMismatch("empty circuit with no input state")
    _check_scale(n, d)
    if input_state is None:
        if circuit.init_spec is None:
            input_state = basis_state([0] * n, d)
        else:
            input_state = parse_state_spec(circuit.init_spec, d=d, n=n)
    if input_state.shape[0] != d**n:
        raise DimensionMismatch(
            f"input dim {input_state.shape[0]} != {d**n} for {n} wires"
        )
    names = circuit.measured_vars()
    steps = []
    for ins in circuit.instructions:
        if isinstance(ins, Gate):
            steps.append(gate_step(gate(ins.name, ins.wires, n, d)))
        elif isinstance(ins, Measure):
            projs = label_projectors(basis_label(ins.basis, ins.wires, n, d), d)
            steps.append(measure_step(projs))
        elif isinstance(ins, Correct):
            U = gate(ins.name, ins.wires, n, d)
            steps.append(_correct_step(U, ins.expr, names, d))
    return [
        Branch(dict(zip(names, outcomes)), float(prob), state)
        for outcomes, prob, state in branch_tree(input_state.astype(complex)[None], steps)
    ]


# ---------------------------------------------------------------------------
# state-spec mini-language

_KET_RE = re.compile(r"^([A-Za-z]+)\|([0-9+\-]+)>$")
_SITE_RE = re.compile(r"([IXZY])([0-9]?)")


def _parse_generator_token(tok: str, d: int):
    """One token of a generator string as ((label, k), width in sites)."""
    tok = tok.strip()
    if tok[:1] == "-" and d != 2:
        raise CircuitParseError("negative generator signs are d=2 only here")
    word = tok[1:] if tok[:1] in ("+", "-") else tok
    if d == 2:
        if not word or any(c not in "IXYZ" for c in word):
            raise CircuitParseError(f"bad generator token {word!r}")
        lam = basis_label(word, range(len(word)), len(word))
        return (lam, int(tok[:1] == "-")), len(word)
    sites = _SITE_RE.findall(word)
    if "".join(a + b for a, b in sites) != word or not sites:
        raise CircuitParseError(f"bad generator token {word!r} for d={d}")
    lam: list[int] = []
    for letter, power in sites:
        if letter == "Y":
            raise CircuitParseError(f"letter Y unsupported for d={d}")
        e = int(power) if power else 1
        lam.extend(x * e % d for x in _LETTER_QP[letter])
    return (tuple(lam), 0), len(sites)


def parse_state_spec(spec: str, d: int = 2, n: int | None = None) -> np.ndarray:
    """Parse the state mini-language.

    Accepted forms:
      * ket literals: per-wire characters from 0..d-1 plus '+' (uniform
        superposition); for d=2 also '-'; e.g. "0", "+++", "01".
      * gate-applied kets: "T|+>", "CZ|++>", "CCZ|+++>".
      * signed generator strings: "+XX,+ZZ" (d=2: Hermitian Pauli strings),
        "X1X1,Z1Z2" (d>2: per-site X/Z powers; exponent-0 eigenstates).
    """
    if d not in MAX_QUDITS:
        raise DimensionMismatch(f"d={d} unsupported")
    spec = spec.strip()
    m = _KET_RE.match(spec)
    if m:
        name, ket = m.group(1).upper(), m.group(2)
        state = _ket_literal(ket, d)
        nk = num_sites(state.shape[0], d)
        state = gate(name, tuple(range(gate_arity(name, d))), nk, d) @ state
    elif any(c in spec for c in "IXYZ"):
        gens = []
        width = None
        for tok in spec.split(","):
            parsed, w = _parse_generator_token(tok, d)
            if width is None:
                width = w
            elif width != w:
                raise CircuitParseError("generator tokens of differing width")
            gens.append(parsed)
        state = stabilizer_state(gens, d=d, n=width)
    else:
        state = _ket_literal(spec, d)
    if n is not None and num_sites(state.shape[0], d) != n:
        raise CircuitParseError(f"state spec is not on {n} wires")
    return state


def _ket_literal(ket: str, d: int) -> np.ndarray:
    if not ket:
        raise CircuitParseError("empty ket literal")
    site_vecs = []
    for c in ket:
        if c.isdigit():
            if int(c) >= d:
                raise CircuitParseError(f"digit {c} out of range for d={d}")
            v = np.zeros(d, dtype=complex)
            v[int(c)] = 1.0
        elif c == "+":
            v = np.full(d, 1 / math.sqrt(d), dtype=complex)
        elif c == "-" and d == 2:
            v = np.array([1, -1], dtype=complex) / math.sqrt(2)
        else:
            raise CircuitParseError(f"bad ket character {c!r} for d={d}")
        site_vecs.append(v)
    _check_scale(len(site_vecs), d)
    out = np.array([1.0 + 0j])
    for v in site_vecs:
        out = np.kron(out, v)
    return out
