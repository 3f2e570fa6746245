"""Contextuality witnesses: the two-qubit observable square, its
S-conjugated variant, a circuit realization of all six contexts, the
three-qubit parity paradox, and the two-player XOR game at the quantum
optimum.

Each witness couples an exhaustive classical certificate (a sweep of all
2^k value assignments or strategies as integer arrays, a line's product
the parity of a popcount) to the quantum side, and records which injected
gate unlocks it.  A square's lines are checked densely once, on one
batched product of its words' operators; every later use reads the
checked signs.  Clifford conjugation facts (CZ turns row one into row
three, S turns X-words into Y-words) are lookups in do.pauli_action.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, reduce
from operator import xor

import numpy as np

from . import dense_oracle as do
from . import injection as inj
from . import subtheory as stt
from .circuits import ATOL_CONSTRUCT, ATOL_END2END, Step, branch_tree
from .dense_oracle import pauli_op
from .errors import DimensionMismatch


@dataclass(frozen=True)
class ContextTable:
    """A 3x3 grid of two-qubit Pauli words with per-line sign constraints.

    Lines are the three rows then the three columns.  When validate=True
    the dense oracle checks that each line commutes pairwise and multiplies
    to sign times identity.
    """

    grid: tuple[tuple[str, str, str], ...]
    row_signs: tuple[int, int, int]
    col_signs: tuple[int, int, int]

    @classmethod
    def build(cls, grid, row_signs, col_signs, validate: bool = True):
        table = cls(tuple(tuple(r) for r in grid), tuple(row_signs), tuple(col_signs))
        if validate:
            table.check_lines()
        return table

    def lines(self):
        for i, sign in enumerate(self.row_signs):
            yield [self.grid[i][j] for j in range(3)], sign
        for j, sign in enumerate(self.col_signs):
            yield [self.grid[i][j] for i in range(3)], sign

    def check_lines(self) -> None:
        words = sorted({w for row in self.grid for w in row})
        index = {w: i for i, w in enumerate(words)}
        comm, sign = _line_tables(np.stack([pauli_op(w) for w in words]))
        for ws, expected in self.lines():
            i, j, k = (index[w] for w in ws)
            if not (comm[i, j] and comm[i, k] and comm[j, k]):
                raise DimensionMismatch(f"line {ws} does not commute")
            got = int(sign[i, j, k])
            if got == 0:
                raise DimensionMismatch(f"line {ws} does not multiply to +1 or -1 identity")
            if got != expected:
                raise DimensionMismatch(
                    f"line {ws} multiplies to {got:+d} identity, expected {expected:+d} identity"
                )


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.allclose(a, b, rtol=0, atol=ATOL_CONSTRUCT) over the last two axes,
    elementwise over the leading ones."""
    return np.isclose(a, b, rtol=0, atol=ATOL_CONSTRUCT).all(axis=(-2, -1))


def _line_tables(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(comm, sign) of a stack of dense operators: comm[i, j] whether
    ops[i] ops[j] equals ops[j] ops[i], and for each pairwise commuting
    triple sign[i, j, k] the s in (+1, -1) with ops[i] ops[j] ops[k] =
    s identity (+1 checked first), 0 where it is neither and on every other
    triple.  All pairwise products come from one batched product, the
    commuting triples' products from one more."""
    pairs = ops[:, None] @ ops[None, :]
    comm = _close(pairs, pairs.swapaxes(0, 1))
    i, j, k = np.nonzero(comm[:, :, None] & comm[:, None, :] & comm[None, :, :])
    triples = pairs[i, j] @ ops[k]
    eye = np.eye(ops.shape[-1])
    sign = np.zeros(comm.shape + (len(ops),), dtype=np.int64)
    sign[i, j, k] = np.select([_close(triples, eye), _close(triples, -eye)], [1, -1], 0)
    return comm, sign


@cache
def standard_square() -> ContextTable:
    """Rows (XI IX XX / IZ ZI ZZ / XZ ZX YY); only the last column carries
    the minus sign.  Built, and its lines checked densely, once."""
    return ContextTable.build(
        [("XI", "IX", "XX"), ("IZ", "ZI", "ZZ"), ("XZ", "ZX", "YY")],
        row_signs=(1, 1, 1),
        col_signs=(1, 1, -1),
    )


def _sweep(k: int, lines) -> tuple[int, int, tuple[int, ...] | None]:
    """Check every noncontextual +-1 assignment of k values against lines
    [(value indices, sign)], a line holding when its values multiply to its
    sign.  Returns (assignments holding every line, most lines held at
    once, first assignment holding every line).

    The sweep is exhaustive over all 2^k assignments.  Assignment `bits`
    gives value i the sign (-1)^(bit i), so a line's product is the parity
    of bits & mask, where the line's mask XORs in 1 << i per index (a
    repeated index cancels): the line holds when that parity equals its
    minus-sign bit.  The assignments run as one array.
    """
    masks = np.array([reduce(xor, (1 << i for i in idxs), 0) for idxs, _ in lines], dtype=np.int64)
    minus = np.array([sign < 0 for _, sign in lines], dtype=np.uint8)
    bits = np.arange(2**k, dtype=np.int64)
    held = ((np.bitwise_count(bits[:, None] & masks) & 1) == minus).sum(axis=1)
    every = held == len(masks)
    first = int(every.argmax())
    example = tuple(1 - 2 * ((first >> i) & 1) for i in range(k)) if every[first] else None
    return int(every.sum()), int(held.max()), example


def assignment_search(table: ContextTable) -> dict:
    """Sweep all 2^9 noncontextual +-1 assignments against the six line
    constraints; report the satisfying count and the best line coverage."""
    words = sorted({w for row in table.grid for w in row})
    index = {w: i for i, w in enumerate(words)}
    lines = [(tuple(index[w] for w in ws), sign) for ws, sign in table.lines()]
    satisfying, best, example = _sweep(len(words), lines)
    return {
        "assignments_checked": 2 ** len(words),
        "satisfying": satisfying,
        "max_satisfiable_lines": best,
        "example": None if example is None else dict(zip(words, example)),
    }


def peres_mermin_report() -> dict:
    """Operator identities plus the exhaustive assignment sweep for the
    standard square, and the gate audit tying row three to the injected
    CZ."""
    table = standard_square()
    # the signs check_lines verified of row three and column three
    identities = {
        "(XZ)(ZX)=YY": table.row_signs[2] == 1,
        "(XX)(ZZ)=-YY": table.col_signs[2] == -1,
    }
    sweep = assignment_search(table)
    # CZ conjugates row one's host words into row three
    images = inj.cz_images()
    row3_native = {v: images[w] == (1, v) for w, v in zip(table.grid[0], table.grid[2])}
    return {
        "witness": "peres-mermin",
        "grid": [list(r) for r in table.grid],
        "row_signs": list(table.row_signs),
        "col_signs": list(table.col_signs),
        "operator_identities": identities,
        "sweep": sweep,
        "row3_via_CZ_conjugation": row3_native,
        "enabling_gate": "CZ",
        "contradiction": sweep["satisfying"] == 0 and sweep["max_satisfiable_lines"] == 5,
    }


# ---------------------------------------------------------------------------
# S-conjugated square

def s_reachable_words() -> dict[str, str]:
    """Two-qubit Pauli words reachable by conjugating X-type host words
    with single-site S gates; maps word -> origin ('host' or 'S'), each
    image read off the S gates' exact Pauli actions."""
    host = stt.minimal_rebit_subtheory(2).observables
    out = {do.label_name(lam, 2): "host" for lam in host if any(lam)}
    s0, s1 = do.gate("S", (0,), 2), do.gate("S", (1,), 2)
    actions = [do.pauli_action(conj) for conj in (s0, s1, s0 @ s1)]
    for w in [w for w in out if "Z" not in w]:
        for K in actions:
            out.setdefault(do.pauli_image(K, w)[1], "S")
    return out


def peres_mermin_s_variant() -> dict:
    """Reconstruct a valid square from host words plus S-conjugated ones.

    The published list of entries for this variant is garbled (duplicate
    and malformed words), so the square is found by search over the
    reachable pool and reported together with each entry's origin.
    """
    names, all_ops = do.pauli_words(2)
    pool = s_reachable_words()
    words = sorted(w for w in pool if w != "II")
    ops = all_ops[[names.index(w) for w in words]]
    best = next(_search_squares(words, *_line_tables(ops)), None)
    if best is None:
        return {"witness": "peres-mermin-s", "found": False}
    grid, row_signs, col_signs = best
    # the search accepted every line on the pool's own line tables
    table = ContextTable.build(grid, row_signs, col_signs, validate=False)
    sweep = assignment_search(table)
    origins = {w: pool[w] for row in grid for w in row}
    # every Y-containing entry is an S-conjugated X-form
    conj_ok = all(
        origins[w] == "S" for row in grid for w in row if "Y" in w
    )
    return {
        "witness": "peres-mermin-s",
        "found": True,
        "grid": [list(r) for r in grid],
        "row_signs": list(row_signs),
        "col_signs": list(col_signs),
        "entry_origin": origins,
        "y_entries_from_S": conj_ok,
        "sweep": sweep,
        "enabling_gate": "S",
        "contradiction": sweep["satisfying"] == 0,
    }


def _search_squares(words, comm, sign):
    """Yield (grid, row_signs, col_signs) for valid squares over the pool.

    comm and sign are the _line_tables of the words' operators.  Rows are
    built as sorted commuting triples whose product is +-identity; rows
    are then combined (in canonical order) so that all three columns
    commute and multiply to +-identity, with an odd number of minus lines
    overall (the contradiction condition).  Backtracking over a pool of
    about a dozen words, so exhaustive and quick.
    """
    def commuting(a, b, c):
        return comm[a, b] and comm[a, c] and comm[b, c]

    triples = [t for t in itertools.combinations(range(len(words)), 3) if commuting(*t) and sign[t]]
    for rows in itertools.combinations(triples, 3):
        if len({w for r in rows for w in r}) != 9:
            continue
        # try column arrangements: fix row0, permute rows 1 and 2
        for p1 in itertools.permutations(rows[1]):
            for p2 in itertools.permutations(rows[2]):
                grid = [rows[0], p1, p2]
                cols = list(zip(*grid))
                if not all(commuting(*c) for c in cols):
                    continue
                row_signs = [int(sign[r]) for r in grid]
                col_signs = [int(sign[c]) for c in cols]
                if 0 in row_signs or 0 in col_signs:
                    continue
                if (row_signs + col_signs).count(-1) % 2 == 1:
                    yield [[words[i] for i in r] for r in grid], tuple(row_signs), tuple(col_signs)


# ---------------------------------------------------------------------------
# circuit realization of the six contexts

CONTEXT_SELECTORS = {
    "row1": frozenset({"d", "e"}),
    "row2": frozenset({"a", "b", "c"}),
    "row3": frozenset({"alpha", "beta", "gamma", "d", "e"}),
    "col1": frozenset({"a", "d", "gamma"}),
    "col2": frozenset({"b", "e", "gamma"}),
    "col3": frozenset({"c", "d", "e", "gamma"}),
}


def _derivations(measured) -> list[tuple[str, str, str, int]]:
    """The square's entries that follow from the measured words, as
    (target, a, b, sign) in derivation order: a fixpoint over the lines of
    standard_square(), where a line with one unknown entry gives it as
    sign * a * b, the operator identity its checked sign states."""
    for ws, sign in standard_square().lines():
        unknown = [w for w in ws if w not in measured]
        if len(unknown) == 1:
            a, b = (w for w in ws if w in measured)
            return [(unknown[0], a, b, sign), *_derivations([*measured, unknown[0]])]
    return []


@cache
def _parity_kraus(kind: str, data_wires: tuple[int, ...], n0: int) -> np.ndarray:
    """The two Kraus operators of a parity readout via an ancilla at site
    n0, read-only: K_k = R_k CNOTs (I (x) |ancilla>).  Z-type couples the
    data wires into a |0> ancilla with CNOTs and reads Z; X-type couples a
    |+> ancilla onto the data wires and reads X.  R_k contracts the ancilla
    with the k-th ket of the readout basis, a row of I or of H."""
    anc = do.basis_state([0]) if kind == "Z" else do.plus_state(1)
    coupled = do.append_isometry(2**n0, anc)
    for w in data_wires:
        coupled = inj.cnot((w, n0) if kind == "Z" else (n0, w), n0 + 1) @ coupled
    bras = np.eye(2) if kind == "Z" else do.gate("H", (0,), 1)
    stack = np.einsum("ka,iaj->kij", bras, coupled.reshape(2**n0, 2, 2**n0))
    stack.setflags(write=False)
    return stack


def _parity_block(kind, data_wires, n0, audit) -> Step:
    """Nondestructive parity readout via an ancilla, as one walker step on
    its cached Kraus stack.  Purely host elements."""
    for _ in data_wires:
        audit.use_gate("CNOT")
    audit.use_measurement(kind)
    return do.measure_step(_parity_kraus(kind, data_wires, n0))


@cache
def _context_plan(context: str, table: ContextTable) -> tuple:
    """What a context's run reads that depends on its selector and the
    square alone, built once per context: its blocks in circuit order,
    (kind, data wires) per parity readout and None per CZ injection; the
    measured words in readout order and each one's position among a leaf's
    outcomes; the line, its sign, and the sign and mask that give the
    line's value on a leaf as sign * (-1) ** popcount(bits & mask)."""
    sel = CONTEXT_SELECTORS[context]
    blocks, measured = [], {}
    for bit, word, wires in (("a", "IZ", (1,)), ("b", "ZI", (0,)), ("c", "ZZ", (0, 1))):
        if bit in sel:
            blocks.append(("Z", wires))
            measured[word] = len(measured)
    cz_count = sum(1 for bit in ("alpha", "beta", "gamma") if bit in sel)
    blocks += [None] * cz_count
    skipped = cz_count * inj.scheme_for("CZ").n  # injection readouts
    conjugated = cz_count % 2 == 1
    for bit, word, wires in (("e", "ZX" if conjugated else "IX", (1,)),
                             ("d", "XZ" if conjugated else "XI", (0,))):
        if bit in sel:
            blocks.append(("X", wires))
            measured[word] = len(measured) + skipped
    # the selectors list the contexts in the order lines() yields them
    words, line_sign = dict(zip(CONTEXT_SELECTORS, table.lines()))[context]
    # bit i of a leaf's bits is the outcome read for the i-th measured word
    entries = {w: (1, 1 << i) for i, w in enumerate(measured)}
    for target, wa, wb, sgn in _derivations(list(measured)):
        (sa, ma), (sb, mb) = entries[wa], entries[wb]
        entries[target] = (sgn * sa * sb, ma ^ mb)
    sign = math.prod(entries[w][0] for w in words)
    mask = reduce(xor, (entries[w][1] for w in words))
    return tuple(blocks), tuple(measured), tuple(measured.values()), tuple(words), line_sign, sign, mask


def peres_mermin_circuit(input_state: np.ndarray, context: str) -> dict:
    """Run one context of the square on an arbitrary two-qubit input using
    only host elements plus CZ-injection blocks.

    Block layout (selector bits -> blocks, in circuit order):
      1 (a): IZ parity readout     2 (b): ZI parity readout
      3 (c): ZZ parity readout     4 (alpha, beta, gamma): CZ stage
      5 (e): IX parity readout     6 (d): XI parity readout
    An odd number of raised CZ bits conjugates the trailing X readouts, so
    with gamma on, block 5 reads ZX and block 6 reads XZ.  Recorded line
    values: measured readouts fill their grid entries directly; the other
    entries are the signed products _derivations reads off the square's
    lines (for col3 the outputs come from blocks 3, 5, 6).  Each measured
    word's bit is read at its position among a leaf's outcomes.  The line's
    mask over those bits is 0 in 5 of the 6 contexts (all but row2), so
    there product_matches_sign holds by construction.  Each parity readout
    and each CZ injection is one walker step.
    """
    if context not in CONTEXT_SELECTORS:
        raise DimensionMismatch(
            f"unknown context {context!r}; valid: {sorted(CONTEXT_SELECTORS)}"
        )
    blocks, measured_words, positions, words, line_sign, sign, mask = _context_plan(
        context, standard_square())
    audit = inj.AuditTrail()
    cz_scheme = inj.scheme_for("CZ")
    steps: list[Step] = []
    for block in blocks:
        if block is None:
            steps += inj.inject_on_wires(cz_scheme, audit)
        else:
            steps.append(_parity_block(*block, 2, audit))
    leaves = branch_tree(input_state.astype(complex)[None], steps)
    bits = [sum(out[p] << i for i, p in enumerate(positions)) for out, _, _ in leaves]
    ok = all(sign * (-1) ** (b & mask).bit_count() == line_sign for b in bits)
    total = sum(float(p) for _, p, _ in leaves)
    return {
        "context": context,
        "selectors": sorted(CONTEXT_SELECTORS[context]),
        "line": list(words),
        "line_sign": line_sign,
        "measured_words": list(measured_words),
        "branches": len(leaves),
        "total_probability": total,
        "product_matches_sign": bool(ok),
        "audit": audit.report(),
    }


# ---------------------------------------------------------------------------
# three-qubit parity paradox

def ghz_report() -> dict:
    """The joint eigenstate of XXX, XYY, YXY, YYX with eigenvalues
    (+1, -1, -1, -1): dense verification, a 64-assignment sweep showing no
    noncontextual value table exists, and the gate audit."""
    ghz = do.parse_state_spec("+XXX,+ZZI,+IZZ")
    observables = ["XXX", "XYY", "YXY", "YYX"]
    eigs = {}
    for w in observables:
        v = pauli_op(w) @ ghz
        val = complex(np.vdot(ghz, v))
        eigs[w] = round(val.real, 12)
    constraints = {"XXX": 1, "XYY": -1, "YXY": -1, "YYX": -1}
    # values x0 x1 x2 y0 y1 y2: each site's local X and Y outcome
    lines = [
        (idxs, constraints[w])
        for w, idxs in zip(observables, ((0, 1, 2), (0, 4, 5), (3, 1, 5), (3, 4, 2)))
    ]
    satisfying, _, _ = _sweep(6, lines)
    # every value sits in exactly two of the four words, so the words
    # multiply to +1 on every assignment while the constraints multiply to -1
    every_index = sum((idxs for idxs, _ in lines), ())
    forced = _sweep(6, [(every_index, 1)])[0] == 2**6
    host = stt.minimal_rebit_subtheory(3)
    host_words = {do.label_name(lam, 2) for lam in host.observables}
    gate_audit = {w: "host" if w in host_words else "needs S or CZ" for w in observables}
    ghz_in_host = stt.state_index(host.states, ghz) is not None
    return {
        "witness": "ghz",
        "eigenvalues": eigs,
        "expected": constraints,
        "eigenvalues_match": all(
            abs(eigs[w] - constraints[w]) < ATOL_END2END for w in observables
        ),
        "assignments_checked": 64,
        "satisfying": satisfying,
        "product_forces_contradiction": bool(forced),
        "state_in_host": bool(ghz_in_host),
        "gate_audit": gate_audit,
        "enabling_gate": "S or CZ",
        "contradiction": satisfying == 0,
    }


# ---------------------------------------------------------------------------
# the XOR game

def chsh_report() -> dict:
    """Correlators and win probability at the quantum optimum, against the
    exhaustive best over the 16 deterministic classical strategies.

    Alice measures Y or X; Bob measures the T-conjugated partners
    (Y-X)/sqrt2 and (X+Y)/sqrt2 on the shared -XX,+ZZ eigenstate.
    """
    psi = do.parse_state_spec("-XX,+ZZ")
    X, Y = pauli_op("X"), pauli_op("Y")
    T = do.gate("T", (0,), 1)
    b0 = T @ Y @ T.conj().T
    b1 = T @ X @ T.conj().T
    conj_checks = {
        "B0=TYT+=(Y-X)/sqrt2": bool(_close(b0, (Y - X) / math.sqrt(2))),
        "B1=TXT+=(X+Y)/sqrt2": bool(_close(b1, (X + Y) / math.sqrt(2))),
    }
    A = {0: Y, 1: X}
    B = {0: b0, 1: b1}
    correlators = {}
    for x in (0, 1):
        for y in (0, 1):
            op = np.kron(A[x], B[y])
            correlators[f"A{x}B{y}"] = float(np.vdot(psi, op @ psi).real)
    game_value = (
        correlators["A0B0"]
        + correlators["A0B1"]
        + correlators["A1B0"]
        - correlators["A1B1"]
    ) / 4
    win = (1 + game_value) / 2
    # values A0 A1 B0 B1: question pair (x, y) is won when A_x B_y = (-1)^{xy}
    questions = [((x, 2 + y), (-1) ** (x * y)) for x in (0, 1) for y in (0, 1)]
    _, classical_best, _ = _sweep(4, questions)
    return {
        "witness": "chsh",
        "correlators": {k: round(v, 12) for k, v in correlators.items()},
        "game_value": round(game_value, 12),
        "win_probability": round(win, 12),
        "expected_win_probability": round(0.5 + 0.5 / math.sqrt(2), 12),
        "classical_max": classical_best / 4,
        "conjugation_checks": conj_checks,
        "enabling_gate": "T",
        "quantum_advantage": bool(win > classical_best / 4 + 1e-3),
    }
