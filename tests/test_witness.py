import contextlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spektoy import dense_oracle as do
from spektoy import injection as inj
from spektoy import witness as wit
from spektoy.errors import DimensionMismatch


def all_plus_control_square() -> dict:
    """The control case: the standard grid with every line sign +1."""
    grid = wit.standard_square().grid
    return wit.assignment_search(wit.ContextTable.build(grid, (1, 1, 1), (1, 1, 1), validate=False))


class TestStandardSquare:
    def test_line_structure_validates(self):
        table = wit.standard_square()
        assert table.row_signs == (1, 1, 1)
        assert table.col_signs == (1, 1, -1)

    def test_operator_identities(self):
        rep = wit.peres_mermin_report()
        assert rep["operator_identities"]["(XZ)(ZX)=YY"]
        assert rep["operator_identities"]["(XX)(ZZ)=-YY"]

    def test_sweep_finds_no_assignment(self):
        rep = wit.peres_mermin_report()
        assert rep["sweep"]["assignments_checked"] == 512
        assert rep["sweep"]["satisfying"] == 0
        assert rep["sweep"]["max_satisfiable_lines"] == 5
        assert rep["contradiction"]

    def test_row3_unlocked_by_cz(self):
        rep = wit.peres_mermin_report()
        assert all(rep["row3_via_CZ_conjugation"].values())
        assert rep["enabling_gate"] == "CZ"

    def test_control_square_is_satisfiable(self):
        ctrl = all_plus_control_square()
        assert ctrl["satisfying"] > 0
        assert ctrl["example"] is not None
        # the all-plus-one assignment works
        assert all(v == 1 for v in {w: 1 for w in ctrl["example"]}.values())

    def test_control_example_is_all_plus_one(self):
        ctrl = all_plus_control_square()
        assert set(ctrl["example"].values()) == {1}
        assert ctrl["max_satisfiable_lines"] == 6

    def test_sweep_counts_lines_and_first_assignment(self):
        # x0 x1 = -1 holds on two of four assignments; x0 = +1 and x0 = -1
        # never hold together
        assert wit._sweep(2, [((0, 1), -1)]) == (2, 1, (-1, 1))
        assert wit._sweep(2, [((0,), 1), ((0,), -1)]) == (0, 1, None)
        # a repeated index squares away
        assert wit._sweep(1, [((0, 0), 1)]) == (2, 1, (1,))

    def test_malformed_table_rejected(self):
        with pytest.raises(DimensionMismatch):
            wit.ContextTable.build(
                [("XI", "IX", "XX"), ("IZ", "ZI", "ZZ"), ("XZ", "ZX", "YY")],
                row_signs=(1, 1, -1),  # wrong sign for row 3
                col_signs=(1, 1, -1),
            )

    def test_wrong_sign_names_both_signs(self):
        with pytest.raises(DimensionMismatch) as err:
            wit.ContextTable.build(
                [("XI", "IX", "XX"), ("IZ", "ZI", "ZZ"), ("XZ", "ZX", "YY")],
                row_signs=(1, 1, -1),
                col_signs=(1, 1, -1),
            )
        assert str(err.value) == (
            "line ['XZ', 'ZX', 'YY'] multiplies to +1 identity, expected -1 identity"
        )
        with pytest.raises(DimensionMismatch) as err:
            wit.ContextTable.build(
                [("XI", "IX", "XX"), ("IZ", "ZI", "ZZ"), ("XZ", "ZX", "YY")],
                row_signs=(1, 1, 1),
                col_signs=(1, 1, 1),
            )
        assert str(err.value) == (
            "line ['XX', 'ZZ', 'YY'] multiplies to -1 identity, expected +1 identity"
        )

    def test_product_off_the_identity_is_named(self):
        # XI, IX and II commute, but multiply to XX
        with pytest.raises(DimensionMismatch) as err:
            wit.ContextTable.build(
                [("XI", "IX", "II"), ("IZ", "ZI", "ZZ"), ("XZ", "ZX", "YY")],
                row_signs=(1, 1, 1),
                col_signs=(1, 1, -1),
            )
        assert str(err.value) == "line ['XI', 'IX', 'II'] does not multiply to +1 or -1 identity"

    def test_noncommuting_line_is_named(self):
        with pytest.raises(DimensionMismatch, match=r"line \['XI', 'ZI', 'YI'\] does not commute"):
            wit.ContextTable.build(
                [("XI", "ZI", "YI"), ("IZ", "IX", "ZZ"), ("XZ", "ZX", "YY")],
                row_signs=(1, 1, 1),
                col_signs=(1, 1, -1),
            )


def ref_sweep(k, lines):
    """Every +-1 assignment as a value list, each line a product of its
    values compared with the line's sign."""
    satisfying = best = 0
    example = None
    for bits in range(2**k):
        vals = [1 - 2 * ((bits >> i) & 1) for i in range(k)]
        held = sum(1 for idxs, sign in lines if math.prod(vals[i] for i in idxs) == sign)
        if held == len(lines):
            satisfying += 1
            if example is None:
                example = tuple(vals)
        best = max(best, held)
    return satisfying, best, example


@st.composite
def sweep_cases(draw):
    k = draw(st.integers(1, 10))
    # indices may repeat within a line, and signs are mixed
    line = st.tuples(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=5).map(tuple),
        st.sampled_from([1, -1]),
    )
    return k, draw(st.lists(line, max_size=8))


@settings(max_examples=150, deadline=None)
@given(sweep_cases())
def test_sweep_matches_the_value_product_sweep(case):
    k, lines = case
    assert wit._sweep(k, lines) == ref_sweep(k, lines)


def planted_lines(rng, k, count):
    """count random lines over k values, each signed so that one random
    assignment holds all of them."""
    vals = rng.choice([1, -1], size=k)
    lines = []
    for _ in range(count):
        idxs = tuple(int(i) for i in rng.integers(0, k, size=int(rng.integers(1, 6))))
        lines.append((idxs, int(np.prod(vals[list(idxs)]))))
    return lines


def test_sweep_at_k15_with_a_planted_assignment():
    lines = planted_lines(np.random.default_rng(15), 15, 12)
    got = wit._sweep(15, lines)
    assert got == ref_sweep(15, lines)
    assert got[0] > 0 and got[1] == len(lines)


@pytest.mark.parametrize("k,lines", [
    (7, planted_lines(np.random.default_rng(5), 7, 5)),
    (7, planted_lines(np.random.default_rng(9), 7, 9)),
    # only the last assignment (every value -1) holds all lines
    (6, [((i,), -1) for i in range(6)]),
    # two lines contradict, so no assignment holds every line
    (5, [((0,), 1), ((0,), -1), ((1, 2), -1), ((3, 4), 1)]),
    (0, []),
], ids=["planted-5", "planted-9", "last-only", "none-hold", "no-values"])
def test_sweep_pinned_cases(k, lines):
    assert wit._sweep(k, lines) == ref_sweep(k, lines)


def ref_s_reachable_words():
    host = {"IX", "XI", "XX", "IZ", "ZI", "ZZ"}
    out = {w: "host" for w in host}
    s0 = do.gate("S", (0,), 2, 2)
    s1 = do.gate("S", (1,), 2, 2)
    ops = {w: do.pauli_op(w) for w in map("".join, itertools.product("IXYZ", repeat=2))}
    for w in ("IX", "XI", "XX"):
        for conj in (s0, s1, s0 @ s1):
            img = conj @ ops[w] @ conj.conj().T
            for cand, op in ops.items():
                if abs(np.vdot(op.reshape(-1), img.reshape(-1))) / 4 > 1 - 1e-9:
                    out.setdefault(cand, "S")
    return out


NON_IDENTITY_WORDS = [w for w in map("".join, itertools.product("IXYZ", repeat=2)) if w != "II"]


class TestBatchedDenseChecks:
    def test_tables_match_per_pair_allclose(self):
        ops = [do.pauli_op(w) for w in NON_IDENTITY_WORDS]
        comm, sign = wit._line_tables(np.stack(ops))
        k = len(ops)
        assert k == 15
        ref_comm = np.array([
            [np.allclose(a @ b, b @ a, atol=1e-12) for b in ops] for a in ops
        ])
        assert np.array_equal(comm, ref_comm)
        commuting = 0
        for i, j, l in itertools.product(range(k), repeat=3):
            if not (ref_comm[i, j] and ref_comm[i, l] and ref_comm[j, l]):
                assert sign[i, j, l] == 0
                continue
            commuting += 1
            prod = ops[i] @ ops[j] @ ops[l]
            ref = next((s for s in (1, -1) if np.allclose(prod, s * np.eye(4), atol=1e-12)), 0)
            assert sign[i, j, l] == ref, (NON_IDENTITY_WORDS[i], NON_IDENTITY_WORDS[j], NON_IDENTITY_WORDS[l])
        assert commuting > 0 and (sign != 0).any() and (sign == -1).any()

    def test_s_reachable_pool(self):
        assert wit.s_reachable_words() == ref_s_reachable_words()


class TestSVariantSquare:
    def test_reconstruction(self):
        rep = wit.peres_mermin_s_variant()
        assert rep["found"]
        words = {w for row in rep["grid"] for w in row}
        assert len(words) == 9
        assert (rep["row_signs"] + rep["col_signs"]).count(-1) % 2 == 1

    def test_found_square_passes_the_line_check(self):
        # the report builds its table unvalidated; the grid must still pass
        rep = wit.peres_mermin_s_variant()
        table = wit.ContextTable.build(rep["grid"], rep["row_signs"], rep["col_signs"], validate=False)
        table.check_lines()

    def test_y_entries_are_s_conjugated(self):
        rep = wit.peres_mermin_s_variant()
        assert rep["y_entries_from_S"]
        for row in rep["grid"]:
            for w in row:
                origin = rep["entry_origin"][w]
                assert origin == ("S" if "Y" in w else "host")

    def test_sweep_contradiction(self):
        rep = wit.peres_mermin_s_variant()
        assert rep["sweep"]["satisfying"] == 0
        assert rep["contradiction"]


def ref_line_product(outcomes, measured_words, words):
    """A context's line product on one leaf from a value per entry: the
    measured words' readouts, then each derived entry as its signed
    product."""
    outs = outcomes[-len(measured_words):]
    vals = {w: 1 - 2 * o for w, o in zip(measured_words, outs)}
    for target, wa, wb, sgn in wit._derivations(measured_words):
        vals[target] = sgn * vals[wa] * vals[wb]
    return vals[words[0]] * vals[words[1]] * vals[words[2]]


class TestContextCircuit:
    @pytest.mark.parametrize("context", sorted(wit.CONTEXT_SELECTORS))
    def test_products_on_random_inputs(self, context):
        rng = np.random.default_rng(hash(context) % 2**32)
        for _ in range(5):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            rep = wit.peres_mermin_circuit(psi, context)
            assert rep["product_matches_sign"], rep
            assert rep["audit"]["clean"]

    def test_row1_on_ground_state(self):
        rep = wit.peres_mermin_circuit(do.basis_state([0, 0]), "row1")
        assert rep["line"] == ["XI", "IX", "XX"]
        assert rep["line_sign"] == 1
        assert rep["product_matches_sign"]

    def test_col3_is_the_minus_line(self):
        rep = wit.peres_mermin_circuit(do.plus_state(2), "col3")
        assert rep["line_sign"] == -1
        assert rep["product_matches_sign"]
        # outputs come from the ZZ readout and the two conjugated X readouts
        assert rep["measured_words"] == ["ZZ", "ZX", "XZ"]

    @pytest.mark.parametrize("context", list(wit.CONTEXT_SELECTORS))
    def test_every_derivation_is_an_operator_identity(self, context):
        # the fixpoint over the square's lines fills the context's line, and
        # each entry it derives is target = sign * a * b as dense operators
        rep = wit.peres_mermin_circuit(do.plus_state(2), context)
        derivations = wit._derivations(rep["measured_words"])
        known = set(rep["measured_words"]) | {t for t, _, _, _ in derivations}
        assert set(rep["line"]) <= known
        for target, a, b, sign in derivations:
            assert np.allclose(
                do.pauli_op(a) @ do.pauli_op(b), sign * do.pauli_op(target), rtol=0, atol=1e-12
            ), (target, a, b, sign)
        assert derivations == {
            "row1": [("XX", "XI", "IX", 1)],
            "row2": [],
            "row3": [("YY", "XZ", "ZX", 1)],
            "col1": [("XI", "IZ", "XZ", 1)],
            "col2": [("IX", "ZI", "ZX", 1)],
            "col3": [("YY", "XZ", "ZX", 1), ("XX", "ZZ", "YY", -1)],
        }[context]

    def test_context_runs_build_no_pauli_operator(self, monkeypatch):
        wit.peres_mermin_circuit(do.plus_state(2), "col3")

        def unreachable(*args):
            raise AssertionError("Pauli operator built per context run")

        monkeypatch.setattr(do, "pauli_op", unreachable)
        monkeypatch.setattr(wit, "pauli_op", unreachable)
        monkeypatch.setattr(do, "pauli_action", unreachable)
        for context in wit.CONTEXT_SELECTORS:
            assert wit.peres_mermin_circuit(do.plus_state(2), context)["product_matches_sign"]

    # the ids keep their "True" (the injected-CZ mode, once one of two), so
    # the tests keep their names
    @pytest.mark.parametrize("context,positions,held", [
        ("col1", [0, 3], 4), ("col2", [0, 3], 4), ("col3", [0, 3, 4], 5),
        ("row3", [6, 7], 8), ("row2", [0, 1, 2], 3),
    ], ids=lambda v: f"{v}-True" if isinstance(v, str) else None)
    def test_readouts_are_read_at_their_positions(self, monkeypatch, context, positions, held):
        # the CZ stage's injections read their data wires out between the Z
        # and the X parity blocks: each measured word's bit is read at its
        # own position in a leaf's outcomes, none of the injection readouts
        reads, lengths = [], set()

        class Outcomes(tuple):
            def __getitem__(self, i):
                reads.append(i)
                return super().__getitem__(i)

        walk = wit.branch_tree

        def spied(level, steps):
            leaves = walk(level, steps)
            lengths.update(len(o) for o, _, _ in leaves)
            return [(Outcomes(o), p, s) for o, p, s in leaves]

        monkeypatch.setattr(wit, "branch_tree", spied)
        wit.peres_mermin_circuit(do.plus_state(2), context)
        assert lengths == {held} and sorted(set(reads)) == positions

    def test_selector_sets_match_documentation(self):
        assert wit.CONTEXT_SELECTORS["row1"] == {"d", "e"}
        assert wit.CONTEXT_SELECTORS["row2"] == {"a", "b", "c"}
        assert wit.CONTEXT_SELECTORS["row3"] == {"alpha", "beta", "gamma", "d", "e"}
        assert wit.CONTEXT_SELECTORS["col1"] == {"a", "d", "gamma"}
        assert wit.CONTEXT_SELECTORS["col2"] == {"b", "e", "gamma"}
        assert wit.CONTEXT_SELECTORS["col3"] == {"c", "d", "e", "gamma"}

    def test_invalid_selector_combination_rejected(self):
        with pytest.raises(DimensionMismatch):
            wit.peres_mermin_circuit(do.plus_state(2), "diag1")

    @pytest.mark.parametrize("kind", ["Z", "X"])
    @pytest.mark.parametrize("wires", [(0,), (1,), (0, 1)])
    def test_parity_stack_is_the_product_of_its_parts(self, kind, wires):
        # K_k = R_k CNOTs (I (x) |ancilla>): the ancilla appended at site 2
        # as a Kronecker product, the CNOTs embedded, and the readout the
        # ancilla's contraction with the k-th ket of the Z or X basis
        anc = do.basis_state([0]) if kind == "Z" else do.plus_state(1)
        K = np.kron(np.eye(4), anc[:, None])
        for w in wires:
            K = do.gate("CNOT", (w, 2) if kind == "Z" else (2, w), 3) @ K
        kets = [do.basis_state([0]), do.basis_state([1])] if kind == "Z" else [
            do.plus_state(1), do.gate("Z", (0,), 1) @ do.plus_state(1)]
        stack = wit._parity_kraus(kind, wires, 2)
        assert stack is wit._parity_kraus(kind, wires, 2) and not stack.flags.writeable
        assert stack.shape == (2, 4, 4)
        for k, ket in enumerate(kets):
            R = np.kron(np.eye(4), ket.conj()[None])
            assert np.allclose(stack[k], R @ K, rtol=0, atol=1e-12)

    def test_corrections_are_built_per_outcome_not_per_branch(self, monkeypatch):
        # row3 runs three CZ injections of four outcomes each: though 256
        # branches pass through, the walker builds no gate and no
        # embedding, since each correction is in the scheme's own stack
        calls, walking = [], [False]

        def counted(f):
            def wrapper(*args, **kwargs):
                if walking[0]:
                    calls.append(f.__name__)
                return f(*args, **kwargs)
            return wrapper

        def walk(*args):
            walking[0] = True
            try:
                return branch_tree(*args)
            finally:
                walking[0] = False

        branch_tree = wit.branch_tree
        monkeypatch.setattr(do, "gate", counted(do.gate))
        monkeypatch.setattr(do, "embed", counted(do.embed))
        monkeypatch.setattr(wit, "branch_tree", walk)
        rep = wit.peres_mermin_circuit(do.plus_state(2), "row3")
        assert rep["product_matches_sign"] and rep["branches"] == 256
        assert calls == []

    def test_stacks_are_built_once_and_never_in_a_walk(self, monkeypatch):
        # every context, every inject report, the Hadamard from CZ, the
        # completion chain and the minimality probe, twice: the second
        # round runs every step on the very stacks of the first and builds
        # none, the Hadamard's X readout stack is built once per process,
        # and no walk builds a gate, a Pauli operator, a stack or a step
        from spektoy import cli

        inject = [["inject", "--gate", g, "--input", s]
                  for g, s in (("S", "+"), ("T", "+"), ("CZ", "++"), ("CCZ", "+++"))]
        calls, stacks, walking = [], [], [False]

        def counted(f, name):
            def wrapper(*args, **kwargs):
                calls.append((name, walking[0]))
                return f(*args, **kwargs)
            return wrapper

        def walked(walk):
            def wrapper(*args):
                walking[0] = True
                try:
                    return walk(*args)
                finally:
                    walking[0] = False
            return wrapper

        def measure_step(kraus, measure_step=do.measure_step):
            calls.append(("measure_step", walking[0]))
            stacks[-1].append(kraus)
            return measure_step(kraus)

        build = inj.InjectionScheme.kraus.func
        monkeypatch.setattr(inj.InjectionScheme.kraus, "func", counted(build, "kraus"))
        monkeypatch.setattr(do, "gate", counted(do.gate, "gate"))
        monkeypatch.setattr(do, "pauli", counted(do.pauli, "pauli"))
        monkeypatch.setattr(do, "measure_step", measure_step)
        monkeypatch.setattr(wit, "branch_tree", walked(wit.branch_tree))
        monkeypatch.setattr(inj, "branch_tree", walked(inj.branch_tree))
        misses = []
        for _ in range(2):
            stacks.append([])
            for context in sorted(wit.CONTEXT_SELECTORS):
                assert wit.peres_mermin_circuit(do.plus_state(2), context)["product_matches_sign"]
            for argv in inject:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(argv)
            assert inj.hadamard_via_cz(do.basis_state([0]))[1].report()["clean"]
            assert inj.clifford_completion_demo()["passed"]
            assert all(probe["breaks"] for probe in inj.minimality_probe().values())
            assert inj._x_readout_kraus.cache_info().misses == 1
            misses.append(wit._parity_kraus.cache_info().misses)
            builds = [name for name, _ in calls if name == "kraus"]
            assert len(builds) <= 4
            assert [c for c in calls if c[1]] == []
            calls.clear()
        assert builds == [] and misses[0] == misses[1]
        # 14 parity blocks, 6 gadgets in the contexts, 5 in the reports, and
        # 2 Hadamard, 4 completion-chain and 6 probe stacks (a gadget each,
        # and the X readout in the Hadamard and in the probe's X case)
        assert len(stacks[0]) == len(stacks[1]) == 37
        assert all(a is b for a, b in zip(*stacks))
        assert all(not K.flags.writeable for K in stacks[0])

    def test_second_run_embeds_no_cnot(self, monkeypatch):
        # every CNOT of the parity blocks and the injections is embedded once
        # per (wires, register size) and shared read-only afterwards; the
        # corrections are never embedded, so a second run embeds nothing
        psi = do.plus_state(2)
        first = wit.peres_mermin_circuit(psi, "col3")
        embedded = []
        embed = do.embed

        def recorded(small, *args, **kwargs):
            embedded.append(small)
            return embed(small, *args, **kwargs)

        monkeypatch.setattr(do, "embed", recorded)
        assert wit.peres_mermin_circuit(psi, "col3") == first
        assert embedded == []
        assert inj.cnot((0, 2), 3) is inj.cnot((0, 2), 3)
        assert not inj.cnot((0, 2), 3).flags.writeable

    def test_line_check_matches_per_leaf_values(self, monkeypatch):
        # one leaf at a time, over every outcome tuple of each context's
        # readouts, under the square's signs and under each line's sign
        # flipped: the report's check agrees with the per-entry values
        walk, leaves = wit.branch_tree, []
        monkeypatch.setattr(wit, "branch_tree", lambda *a: leaves.append(walk(*a)) or leaves[-1])
        lengths = {}
        for context in wit.CONTEXT_SELECTORS:
            wit.peres_mermin_circuit(do.plus_state(2), context)
            lengths[context] = len(leaves[-1][0][0])
        leaf = []
        monkeypatch.setattr(wit, "branch_tree", lambda *a: leaf)
        square = wit.standard_square()
        signs = square.row_signs + square.col_signs
        seen = set()
        for flip in range(7):  # flip 6 keeps every sign
            flipped = [-s if i == flip else s for i, s in enumerate(signs)]
            table = wit.ContextTable.build(square.grid, flipped[:3], flipped[3:], validate=False)
            monkeypatch.setattr(wit, "standard_square", lambda: table)
            for context, length in lengths.items():
                words, line_sign = dict(zip(wit.CONTEXT_SELECTORS, table.lines()))[context]
                for outcomes in itertools.product((0, 1), repeat=length):
                    leaf[:] = [(outcomes, 0.5, None)]
                    rep = wit.peres_mermin_circuit(do.plus_state(2), context)
                    want = ref_line_product(outcomes, rep["measured_words"], words)
                    assert rep["product_matches_sign"] == (want == line_sign)
                    assert rep["branches"] == 1 and rep["total_probability"] == 0.5
                    seen.add(rep["product_matches_sign"])
        assert seen == {True, False}


class TestGHZ:
    def test_eigenvalues(self):
        rep = wit.ghz_report()
        assert rep["eigenvalues"] == {"XXX": 1.0, "XYY": -1.0, "YXY": -1.0, "YYX": -1.0}
        assert rep["eigenvalues_match"]

    def test_sweep(self):
        rep = wit.ghz_report()
        assert rep["assignments_checked"] == 64
        assert rep["satisfying"] == 0
        assert rep["product_forces_contradiction"]
        assert rep["contradiction"]

    def test_state_is_host_native(self):
        rep = wit.ghz_report()
        assert rep["state_in_host"]
        assert rep["gate_audit"]["XXX"] == "host"
        assert "S or CZ" in rep["gate_audit"]["XYY"]


class TestCHSH:
    def test_correlators(self):
        rep = wit.chsh_report()
        sq = 1 / math.sqrt(2)
        assert abs(rep["correlators"]["A0B0"] - sq) < 1e-9
        assert abs(rep["correlators"]["A0B1"] - sq) < 1e-9
        assert abs(rep["correlators"]["A1B0"] - sq) < 1e-9
        assert abs(rep["correlators"]["A1B1"] + sq) < 1e-9

    def test_win_probability(self):
        rep = wit.chsh_report()
        assert abs(rep["win_probability"] - (0.5 + 0.5 / math.sqrt(2))) < 1e-9
        assert abs(rep["game_value"] - 1 / math.sqrt(2)) < 1e-9

    def test_classical_sweep_exact(self):
        rep = wit.chsh_report()
        assert rep["classical_max"] == 0.75

    def test_observables_are_t_conjugates(self):
        rep = wit.chsh_report()
        assert all(rep["conjugation_checks"].values())
        assert rep["enabling_gate"] == "T"
        assert rep["quantum_advantage"]
