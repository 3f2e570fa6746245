"""Gate/measure/correct circuit representation and its text format.

One instruction per line:

    GATE <name> <wire> [<wire> ...]
    MEAS <basis> <wire> [<wire> ...] -> <var>
    CORR <name> <wire> [<wire> ...] IF <expr>

plus an optional leading ``INIT <state-spec>`` line naming the input state
(see dense_oracle.parse_state_spec for the state mini-language).  A MEAS
basis is a string of per-wire letters (Z, X, Y, I), one letter per listed
wire; the listed wires are measured jointly as that single observable, with
the outcome recorded as a residue mod d in <var>.  At d=2, outcome m is the
eigenvalue (-1)^m of the Hermitian Pauli word, Y the Hermitian letter (the
Bell state +XX,+ZZ gives YY outcome 1); at odd d, where the letters are X,
Z and I, outcome k is the eigenvalue chi(k) of the Weyl operator Z(p)X(q).
A CORR applies its gate expr-many times, where expr is integer arithmetic
(+, *, parentheses) over previously bound outcome variables, evaluated mod d.

Lines starting with '#' and blank lines are ignored.

The module also holds branch_tree, the one exhaustive walker every
expand-and-prune computation in the package runs through: dense circuit
execution, toy-model statistics, injection gadgets and witness circuits.
"""

from __future__ import annotations

import ast
import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import CircuitParseError

ATOL_CONSTRUCT = 1e-12   # construction-level identities
ATOL_END2END = 1e-9      # end-to-end / branch-level identities


@dataclass(frozen=True)
class Gate:
    name: str
    wires: tuple[int, ...]


@dataclass(frozen=True)
class Measure:
    basis: str
    wires: tuple[int, ...]
    var: str


@dataclass(frozen=True)
class Correct:
    name: str
    wires: tuple[int, ...]
    expr: str


Instruction = Gate | Measure | Correct


@dataclass(frozen=True)
class Circuit:
    n_wires: int
    instructions: tuple[Instruction, ...]
    init_spec: str | None = None

    def measured_vars(self) -> list[str]:
        return [ins.var for ins in self.instructions if isinstance(ins, Measure)]


_ALLOWED_EXPR_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.Add,
    ast.Mult,
    ast.Sub,
    ast.Name,
    ast.Load,
    ast.Constant,
    ast.UnaryOp,
    ast.USub,
)


def compile_expr(expr: str) -> ast.Expression:
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as e:
        raise CircuitParseError(f"bad correction expression {expr!r}: {e}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_EXPR_NODES):
            raise CircuitParseError(
                f"correction expression {expr!r} uses disallowed syntax "
                f"({type(node).__name__})"
            )
        if isinstance(node, ast.Constant) and not isinstance(node.value, int):
            raise CircuitParseError(f"non-integer constant in {expr!r}")
    return tree


def eval_tree(tree: ast.Expression, env: dict[str, int], d: int) -> int:
    """The value mod d of an expression compile_expr has checked."""

    def rec(node):
        if isinstance(node, ast.Expression):
            return rec(node.body)
        if isinstance(node, ast.Constant):
            return int(node.value)
        if isinstance(node, ast.Name):
            if node.id not in env:
                raise CircuitParseError(f"unbound outcome variable {node.id!r}")
            return env[node.id]
        if isinstance(node, ast.UnaryOp):
            return -rec(node.operand)
        if isinstance(node, ast.BinOp):
            a, b = rec(node.left), rec(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            return a * b
        raise CircuitParseError("unreachable expression node")

    return rec(tree) % d


def _parse_wires(tokens: list[str], lineno: int) -> tuple[int, ...]:
    try:
        wires = tuple(int(t) for t in tokens)
    except ValueError:
        raise CircuitParseError(f"line {lineno}: bad wire list {tokens}") from None
    if len(set(wires)) != len(wires):
        raise CircuitParseError(f"line {lineno}: repeated wire in {wires}")
    if any(w < 0 for w in wires):
        raise CircuitParseError(f"line {lineno}: negative wire index")
    return wires


def parse_circuit(text: str, n_wires: int | None = None) -> Circuit:
    """Parse circuit text.  n_wires defaults to 1 + the largest wire used."""
    instructions: list[Instruction] = []
    init_spec = None
    max_wire = -1
    bound_vars: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0].upper()
        if kind == "INIT":
            if instructions or init_spec is not None:
                raise CircuitParseError(f"line {lineno}: INIT must be first")
            init_spec = line[len(tokens[0]):].strip()
            if not init_spec:
                raise CircuitParseError(f"line {lineno}: empty INIT spec")
        elif kind == "GATE":
            if len(tokens) < 3:
                raise CircuitParseError(f"line {lineno}: GATE needs name and wires")
            wires = _parse_wires(tokens[2:], lineno)
            instructions.append(Gate(tokens[1].upper(), wires))
            max_wire = max(max_wire, *wires)
        elif kind == "MEAS":
            if "->" not in tokens:
                raise CircuitParseError(f"line {lineno}: MEAS needs '-> var'")
            arrow = tokens.index("->")
            if arrow < 3 or arrow != len(tokens) - 2:
                raise CircuitParseError(f"line {lineno}: malformed MEAS")
            basis = tokens[1].upper()
            wires = _parse_wires(tokens[2:arrow], lineno)
            if len(basis) != len(wires):
                raise CircuitParseError(
                    f"line {lineno}: basis {basis!r} does not match {len(wires)} wires"
                )
            var = tokens[-1]
            if var in bound_vars:
                raise CircuitParseError(f"line {lineno}: variable {var!r} rebound")
            bound_vars.add(var)
            instructions.append(Measure(basis, wires, var))
            max_wire = max(max_wire, *wires)
        elif kind == "CORR":
            if "IF" not in [t.upper() for t in tokens]:
                raise CircuitParseError(f"line {lineno}: CORR needs 'IF expr'")
            if_pos = [t.upper() for t in tokens].index("IF")
            if if_pos < 3 or if_pos == len(tokens) - 1:
                raise CircuitParseError(f"line {lineno}: malformed CORR")
            wires = _parse_wires(tokens[2:if_pos], lineno)
            expr = " ".join(tokens[if_pos + 1 :])
            tree_vars = {
                node.id
                for node in ast.walk(compile_expr(expr))
                if isinstance(node, ast.Name)
            }
            missing = tree_vars - bound_vars
            if missing:
                raise CircuitParseError(
                    f"line {lineno}: CORR references future/unknown vars {sorted(missing)}"
                )
            instructions.append(Correct(tokens[1].upper(), wires, expr))
            max_wire = max(max_wire, *wires)
        else:
            raise CircuitParseError(f"line {lineno}: unknown instruction {tokens[0]!r}")
    inferred = max_wire + 1
    if n_wires is None:
        n_wires = inferred
    elif inferred > n_wires:
        raise CircuitParseError(f"circuit uses wire {max_wire} but n_wires={n_wires}")
    return Circuit(n_wires, tuple(instructions), init_spec)


# ---------------------------------------------------------------------------
# the branch-tree walker

# A step maps a whole level, every branch at one depth, to the next one.
# It is called as step(outcomes, level) with the branches' outcome tuples
# and their states: a (branches, dim) complex array on the dense side, a
# list of values on the toy side.  It returns (ks, pks, children): the
# children form the next level, parent-major, every parent with the same
# number of them; ks is None for a step that records nothing (one child per
# branch, of probability 1), else one tuple per child of the outcomes it
# records, which the walker appends to its parent's: (k,) for one
# readout, n bits for an injection gadget's n readouts, and on the toy
# side a 1-tuple holding a measurement's outcome tuple; pks is one
# probability per child, or one int for all of them.  A float probability
# is approximate; an int m means exactly 1/m.
Step = Callable[[list[tuple], object], tuple]


def branch_tree(level, steps: list[Step]) -> list[tuple]:
    """Exhaustive branch tree: run every step on the level of every
    surviving branch, starting from the one-branch root level.

    Returns [(outcomes, probability, state)] in expansion order, a state
    being one row of the last level.  A branch's probability is the product
    of its children's, starting from the int 1.  An exact step reports
    probability 1/m as the int m, so a product of ints is the int
    denominator of the branch's probability; a deterministic child's 1
    reads the same either way, and a float makes the product a float.  Float
    children of probability <= ATOL_CONSTRUCT are dropped; int children
    never are, since exact steps list only outcomes that can occur.  The
    leaves must sum to 1: exactly for ints, within ATOL_END2END for floats.
    """
    # while every step has given equally likely exact children (one int
    # pks), every branch has the probability 1/common and probs is None
    outcomes, probs, common = [()], None, 1
    for step in steps:
        ks, pks, level = step(outcomes, level)
        if ks is None:
            continue
        fan = len(ks) // (len(outcomes) or 1)
        if isinstance(pks, int) and probs is None:
            common *= pks
            outcomes = [outcomes[i // fan] + k for i, k in enumerate(ks)]
            continue
        probs = [common] * len(outcomes) if probs is None else probs
        pks = [pks] * len(ks) if isinstance(pks, int) else pks
        keep = [i for i, pk in enumerate(pks) if isinstance(pk, int) or pk > ATOL_CONSTRUCT]
        if len(keep) < len(ks):
            level = [level[i] for i in keep] if isinstance(level, list) else level[keep]
        outcomes = [outcomes[i // fan] + ks[i] for i in keep]
        probs = [probs[i // fan] * pks[i] for i in keep]
    probs = [common] * len(outcomes) if probs is None else probs
    if all(isinstance(m, int) for m in probs):
        L = math.lcm(*probs)
        total = sum(L // m for m in probs)
        assert total == L, f"branch probabilities sum to {total}/{L}"
    else:
        total = sum(probs)
        assert abs(total - 1.0) < ATOL_END2END, f"branch probabilities sum to {total}"
    return list(zip(outcomes, probs, level))
