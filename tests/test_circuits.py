import math

import pytest

from spektoy.circuits import (
    ATOL_CONSTRUCT,
    Correct,
    Gate,
    Measure,
    branch_tree,
    compile_expr,
    eval_tree,
    parse_circuit,
)
from spektoy.errors import CircuitParseError


def test_parse_basic():
    c = parse_circuit(
        """
        # a comment
        INIT +XX,+ZZ
        GATE CNOT 0 1
        MEAS Z 0 -> m0
        CORR X 1 IF m0
        """
    )
    assert c.init_spec == "+XX,+ZZ"
    assert c.n_wires == 2
    assert c.instructions == (
        Gate("CNOT", (0, 1)),
        Measure("Z", (0,), "m0"),
        Correct("X", (1,), "m0"),
    )


def test_multiwire_basis_must_match_wires():
    with pytest.raises(CircuitParseError):
        parse_circuit("MEAS ZZ 0 -> v\n")


def test_unknown_instruction():
    with pytest.raises(CircuitParseError):
        parse_circuit("APPLY X 0\n")


def test_rebound_variable_rejected():
    with pytest.raises(CircuitParseError):
        parse_circuit("MEAS Z 0 -> m\nMEAS Z 1 -> m\n")


def test_future_variable_rejected():
    with pytest.raises(CircuitParseError):
        parse_circuit("CORR X 0 IF m\nMEAS Z 0 -> m\n")


def test_repeated_wire_rejected():
    with pytest.raises(CircuitParseError):
        parse_circuit("GATE CZ 0 0\n")


def test_init_must_be_first():
    with pytest.raises(CircuitParseError):
        parse_circuit("GATE X 0\nINIT +\n")


def test_expr_evaluation():
    assert eval_tree(compile_expr("a*b + 1"), {"a": 1, "b": 1}, 2) == 0
    assert eval_tree(compile_expr("2*m"), {"m": 2}, 3) == 1
    assert eval_tree(compile_expr("(a + b) * c"), {"a": 1, "b": 2, "c": 2}, 3) == 0


def test_expr_rejects_calls():
    with pytest.raises(CircuitParseError):
        eval_tree(compile_expr("__import__('os')"), {}, 2)
    with pytest.raises(CircuitParseError):
        eval_tree(compile_expr("a ** b"), {"a": 1, "b": 1}, 2)


def test_expr_unbound_variable():
    with pytest.raises(CircuitParseError):
        eval_tree(compile_expr("a + b"), {"a": 1}, 2)


def test_explicit_wire_count_guard():
    with pytest.raises(CircuitParseError):
        parse_circuit("GATE X 5\n", n_wires=2)


# ---------------------------------------------------------------------------
# branch_tree


def _split(probs):
    """Step giving every branch one child per probability, each recording
    its index; the state counts the steps."""
    return lambda outcomes, level: (
        [(k,) for k in range(len(probs))] * len(level),
        list(probs) * len(level),
        [state + 1 for state in level for _ in probs],
    )


def test_branch_tree_multiplies_and_records_in_order():
    # exact steps report probability 1/m as the int m: products of ints
    def relabel(outcomes, level):
        return None, None, [state * 10 for state in level]

    branches = branch_tree([0], [_split([2, 2]), relabel, _split([2, 4, 4])])
    assert branches == [
        ((0, 0), 4, 11),
        ((0, 1), 8, 11),
        ((0, 2), 8, 11),
        ((1, 0), 4, 11),
        ((1, 1), 8, 11),
        ((1, 2), 8, 11),
    ]
    assert all(type(m) is int for _, m, _ in branches)


def test_branch_tree_reads_one_int_for_equally_likely_children():
    def halves(outcomes, level):
        return [(0,), (1,)] * len(level), 2, [state + 1 for state in level for _ in range(2)]

    per_child = branch_tree([0], [_split([2, 2]), _split([2, 2])])
    for steps in ([halves, halves], [halves, _split([2, 2])], [_split([2, 2]), halves]):
        assert branch_tree([0], steps) == per_child
    assert [m for _, m, _ in per_child] == [4] * 4


def test_branch_tree_without_steps_is_the_root():
    assert branch_tree(["psi"], []) == [((), 1, "psi")]


def test_branch_tree_drops_negligible_children():
    branches = branch_tree([0], [_split([1.0 - 1e-13, 1e-13, 0.0])])
    assert [outcomes for outcomes, _, _ in branches] == [(0,)]


def test_branch_tree_keeps_tiny_exact_children():
    # 1/2 + 1/4 + ... + 1/2**50 + 1/2**50: the last two lie far below
    # ATOL_CONSTRUCT, and an int child is never pruned
    ms = [2**k for k in range(1, 51)] + [2**50]
    assert 1 / ms[-1] < ATOL_CONSTRUCT
    branches = branch_tree([0], [_split(ms)])
    assert [m for _, m, _ in branches] == ms


def test_branch_tree_float_pruning_unchanged():
    above = math.nextafter(ATOL_CONSTRUCT, 1.0)
    for pk, kept in [(ATOL_CONSTRUCT, [(0,)]), (above, [(0,), (1,)])]:
        branches = branch_tree([0], [_split([1.0 - pk, pk])])
        assert [outcomes for outcomes, _, _ in branches] == kept


@pytest.mark.parametrize(
    "probs",
    [
        [0.5, 0.4],  # float leak
        [2],  # a child went missing
        # exact sums are checked exactly, far below the float tolerance:
        # 1 - 1/2**50, then 1 + 1/2**50
        [2**k for k in range(1, 51)],
        [2**k for k in range(1, 51)] + [2**50, 2**50],
    ],
)
def test_branch_tree_leaking_step_trips_sum_check(probs):
    with pytest.raises(AssertionError, match="sum to"):
        branch_tree([0], [_split(probs)])


@pytest.mark.parametrize("count,m", [(1, 2), (3, 2), (2, 4)])
def test_equally_likely_children_are_counted_against_their_int(count, m):
    # a step of one int m and `count` children per branch: the leaves sum
    # to count/m, checked without a per-leaf sum
    def step(outcomes, level):
        return [(k,) for k in range(count)] * len(level), m, [s for s in level for _ in range(count)]

    with pytest.raises(AssertionError, match=f"sum to {count * count}/{m * m}"):
        branch_tree([0], [step, step])


def test_branch_tree_float_sum_check_uses_end_to_end_tolerance():
    # a float rounding error far below the tolerance is accepted
    branches = branch_tree([0], [_split([0.5, 0.5 - 1e-12])])
    assert len(branches) == 2
