import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spektoy import dense_oracle as do
from spektoy import injection as inj
from spektoy import subtheory as stt
from spektoy import witness as wit
from spektoy.circuits import branch_tree
from spektoy.errors import DimensionMismatch
from test_walker import assert_same_leaves, ref_level_step, ref_readout_step


class TestCorrectionClassification:
    def test_z_corrections_are_pauli(self):
        scheme = inj.scheme_for("Z")
        assert {c.kind for c in scheme.corrections.values()} == {"pauli"}
        assert scheme.corrections[(1,)].name == "X"  # ZXZ = -X up to phase

    def test_s_correction_is_pauli_y(self):
        scheme = inj.scheme_for("S")
        corr = scheme.corrections[(1,)]
        assert corr.kind == "pauli" and corr.name == "Y"
        # realized as X then Z on the same wire (the phase is global)
        assert set(corr.factors) == {("X", (0,)), ("Z", (0,))}

    def test_cz_correction_table(self):
        scheme = inj.scheme_for("CZ")
        names = {"".join(map(str, m)): c.name for m, c in scheme.corrections.items()}
        assert names == {"00": "II", "01": "ZX", "10": "XZ", "11": "YY"}
        assert all(c.kind == "pauli" for c in scheme.corrections.values())

    def test_ccz_single_bit_corrections_carry_cz(self):
        scheme = inj.scheme_for("CCZ")
        assert scheme.corrections[(1, 0, 0)].name == "XII*CZ(1,2)"
        assert scheme.corrections[(0, 1, 0)].name == "IXI*CZ(0,2)"
        assert scheme.corrections[(0, 0, 1)].name == "IIX*CZ(0,1)"
        assert scheme.corrections[(1, 0, 0)].kind == "pauli-cz"

    def test_t_correction_flagged_non_clifford(self):
        scheme = inj.scheme_for("T")
        assert scheme.corrections[(1,)].kind == "non-clifford"
        # the operator is (X + Y)/sqrt(2)
        X, Y = do.gate("X", (0,), 1), do.gate("Y", (0,), 1)
        assert np.allclose(
            scheme.corrections[(1,)].operator, (X + Y) / math.sqrt(2), atol=1e-12
        )

    def test_corrections_are_exact_conjugations(self):
        import itertools

        for name in ("Z", "S", "CZ", "CCZ", "T"):
            scheme = inj.scheme_for(name)
            n = scheme.n
            for m in itertools.product((0, 1), repeat=n):
                Xm = np.eye(2**n, dtype=complex)
                for j, mj in enumerate(m):
                    if mj:
                        Xm = Xm @ do.gate("X", (j,), n)
                expect = scheme.target @ Xm @ scheme.target.conj().T
                assert np.allclose(scheme.corrections[m].operator, expect, atol=1e-12)

    def test_non_diagonal_rejected(self):
        with pytest.raises(DimensionMismatch):
            inj.build_injection(do.gate("H", (0,), 1), 1)


def ref_classify_correction(C, n):
    """Exhaustive search: every CZ-edge subset times every Pauli, the first
    candidate with overlap 1 (up to phase) wins."""
    dim = 2**n
    pairs = list(itertools.combinations(range(n), 2))
    for edges in itertools.chain.from_iterable(
        itertools.combinations(pairs, r) for r in range(len(pairs) + 1)
    ):
        czprod = np.eye(dim, dtype=complex)
        for e in edges:
            czprod = czprod @ do.gate("CZ", e, n, 2)
        for q in itertools.product((0, 1), repeat=n):
            for p in itertools.product((0, 1), repeat=n):
                cand = do.pauli(q, p, 2) @ czprod
                if abs(np.vdot(cand.reshape(-1), C.reshape(-1))) / dim > 1 - 1e-9:
                    factors = []
                    for w in range(n):
                        if q[w]:
                            factors.append(("X", (w,)))
                        if p[w]:
                            factors.append(("Z", (w,)))
                    factors.extend(("CZ", e) for e in edges)
                    name = "".join("IXZY"[qj + 2 * pj] for qj, pj in zip(q, p))
                    name += "".join(f"*CZ({i},{j})" for i, j in edges)
                    return ("pauli-cz" if edges else "pauli"), name, tuple(factors)
    return "non-clifford", "non-clifford", ()


def _x_string(m):
    n = len(m)
    out = np.eye(2**n, dtype=complex)
    for j, mj in enumerate(m):
        if mj:
            out = out @ do.gate("X", (j,), n)
    return out


def _diagonal_corrections(ks):
    """Every correction U X^m U* of the diagonal U = diag(e^{i pi k / 4})."""
    n = int(math.log2(len(ks)))
    U = np.diag(np.exp(1j * np.pi * np.asarray(ks) / 4))
    for m in itertools.product((0, 1), repeat=n):
        yield U @ _x_string(m) @ U.conj().T, n


def _assert_same_class(C, n):
    got = inj.classify_correction(C, n)
    assert (got.kind, got.name, got.factors) == ref_classify_correction(C, n)
    return got.kind


class TestClosedFormClassifier:
    def test_every_n1_diagonal_eighth_root_gate(self):
        kinds = set()
        for ks in itertools.product(range(8), repeat=2):
            for C, n in _diagonal_corrections(ks):
                kinds.add(_assert_same_class(C, n))
        assert kinds == {"pauli", "non-clifford"}

    # a CZ factor needs a cubic +-1 phase, so only n=3 reaches pauli-cz
    @pytest.mark.parametrize(
        "n, draws, expect",
        [(2, 40, {"pauli", "non-clifford"}), (3, 10, {"pauli", "pauli-cz", "non-clifford"})],
    )
    def test_seeded_diagonal_eighth_root_gates(self, n, draws, expect):
        rng = np.random.default_rng(8 + n)
        kinds = set()
        for _ in range(draws):
            # powers of e^{i pi/4}, e^{i pi/2} or -1, so that Clifford
            # corrections come up as well as non-Clifford ones
            step = int(rng.choice([1, 2, 4]))
            for C, m in _diagonal_corrections(step * rng.integers(0, 8 // step, 2**n)):
                kinds.add(_assert_same_class(C, m))
        assert kinds == expect

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_times_cz_products_under_a_global_phase(self, n):
        rng = np.random.default_rng(20 + n)
        pairs = list(itertools.combinations(range(n), 2))
        for q in itertools.product((0, 1), repeat=n):
            for p in itertools.product((0, 1), repeat=n):
                mask = rng.integers(0, 2, len(pairs))
                C = do.pauli(q, p, 2)
                for e, on in zip(pairs, mask):
                    if on:
                        C = C @ do.gate("CZ", e, n, 2)
                C = np.exp(2j * np.pi * rng.random()) * C
                assert _assert_same_class(C, n) == ("pauli-cz" if mask.any() else "pauli")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_unitaries_are_non_clifford(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(5):
            z = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            Q, _ = np.linalg.qr(z)
            assert _assert_same_class(Q, n) == "non-clifford"


class TestRunInjection:
    def test_s_on_plus(self):
        recs = inj.run_injection(inj.scheme_for("S"), do.plus_state(1))
        assert len(recs) == 2
        assert all(r.fidelity >= 1 - 1e-9 for r in recs)
        assert abs(sum(r.probability for r in recs) - 1) < 1e-12

    def test_cz_branch_example(self):
        # outcomes x=1, y=-1 <-> bits (0, 1): the applied correction is the
        # conjugated IX flip, i.e. Z on wire 0 and X on wire 1
        recs = inj.run_injection(inj.scheme_for("CZ"), do.plus_state(2))
        by_m = {r.outcomes: r for r in recs}
        assert by_m[(0, 1)].correction == "ZX"
        target = do.gate("CZ", (0, 1), 2) @ do.plus_state(2)
        for r in recs:
            assert r.fidelity >= 1 - 1e-9
            assert do.states_equal(r.final_state, target)

    def test_ccz_diagonal_eigenstate(self):
        recs = inj.run_injection(
            inj.scheme_for("CCZ"), do.basis_state([1, 1, 0]),
            injected=frozenset({"CZ"}),
        )
        assert len(recs) == 8
        for r in recs:
            assert r.fidelity >= 1 - 1e-9
            assert do.states_equal(r.final_state, do.basis_state([1, 1, 0]))

    @pytest.mark.parametrize("name", ["Z", "S", "CZ", "CCZ"])
    def test_random_inputs_every_branch(self, name):
        scheme = inj.scheme_for(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        dim = 2**scheme.n
        for _ in range(10):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            recs = inj.run_injection(
                scheme, psi, injected=frozenset({"CZ"})
            )
            assert len(recs) == dim
            assert all(r.fidelity >= 1 - 1e-9 for r in recs)

    def test_t_gate_branches_verified_but_flagged(self):
        audit = inj.AuditTrail()
        recs = inj.run_injection(inj.scheme_for("T"), do.plus_state(1), audit=audit)
        assert all(r.fidelity >= 1 - 1e-9 for r in recs)
        assert not audit.report()["clean"]
        assert any("non-clifford" in v for v in audit.report()["violations"])

    def test_uniform_branch_probabilities(self):
        recs = inj.run_injection(inj.scheme_for("CZ"), do.plus_state(2))
        assert all(abs(r.probability - 0.25) < 1e-12 for r in recs)


def ref_correction_step(scheme, wire_map, n_total, audit, injected):
    """The correction built again on every branch: a fresh do.gate per host
    factor, or a fresh embedding of a non-Clifford operator."""

    def step(outcomes, state):
        corr = scheme.corrections[outcomes[-scheme.n:]]
        if corr.kind == "non-clifford":
            audit.violations.append(f"non-clifford correction ({corr.name})")
            return [(None, 1, do.embed(corr.operator, wire_map, n_total, 2) @ state)]
        for name, rel_wires in corr.factors:
            audit.use_gate(name, injected)
            state = do.gate(name, tuple(wire_map[w] for w in rel_wires), n_total, 2) @ state
        return [(None, 1, state)]

    return step


# ---------------------------------------------------------------------------
# the gadget as two builders did it before the one gadget: run_injection
# from kron(input, resource), inject_on_wires with any data-wire placement
# by an axis permutation, and each correction embedded on the register and
# audited once per branch


def ref_level_correction_step(scheme, wire_map, n_total, audit, injected):
    def operator(m):
        corr = scheme.corrections[m]
        if corr.kind == "pauli" and not corr.factors:
            return None
        return do.embed(corr.operator, wire_map, n_total, 2)

    def step(outcomes, level):
        keys = [o[-scheme.n:] for o in outcomes]
        for m in keys:
            corr = scheme.corrections[m]
            if corr.kind == "non-clifford":
                audit.violations.append(f"non-clifford correction ({corr.name})")
            for name, _ in corr.factors:
                audit.use_gate(name, injected)
        return None, None, do.rows_by_key(level, keys, operator)

    return step


def ref_run_injection(scheme, input_state, injected=frozenset(), audit=None):
    n = scheme.n
    audit = audit if audit is not None else inj.AuditTrail()
    audit.use_resource(f"{scheme.gate_name}|+>^{n}")
    steps = []
    for j in range(n):
        audit.use_gate("CNOT")
        audit.use_measurement("Z")
        steps.append(do.gate_step(do.gate("CNOT", (n + j, j), 2 * n, 2)))
    steps += [ref_level_step(ref_readout_step(0, "Z"))] * n
    steps.append(ref_level_correction_step(scheme, tuple(range(n)), n, audit, injected))
    target_out = scheme.target @ input_state
    branches = branch_tree(np.kron(input_state, scheme.resource_state)[None], steps)
    return [
        inj.InjectionRecord(
            m, float(prob), scheme.corrections[m].name, out, do.fidelity(out, target_out)
        )
        for m, prob, out in branches
    ]


def ref_inject_on_wires(scheme, data_wires, n_total, audit):
    k = scheme.n
    big_n = n_total + k
    audit.use_resource(f"{scheme.gate_name}|+>^{k}")
    for j in range(k):
        audit.use_gate("CNOT")
        audit.use_measurement("Z")
        audit.use_gate("SWAP")
    perm = list(range(big_n))
    for j, w in enumerate(data_wires):
        perm[w], perm[n_total + j] = perm[n_total + j], perm[w]
    axes = [0, *(w + 1 for w in perm)]

    def append_resource(outcomes, level):
        b = len(level)
        big = np.multiply.outer(level, scheme.resource_state).reshape((b,) + (2,) * big_n)
        return None, None, big.transpose(axes).reshape(b, 2**big_n)

    return [
        append_resource,
        *(do.gate_step(do.gate("CNOT", (w, n_total + j), big_n, 2))
          for j, w in enumerate(data_wires)),
        *[ref_level_step(ref_readout_step(n_total, "Z"))] * k,
        ref_level_correction_step(scheme, data_wires, n_total, audit, frozenset()),
    ]


def ref_hadamard_via_cz(input_state):
    audit = inj.AuditTrail()
    target = do.gate("H", (0,), 1) @ input_state
    steps = ref_inject_on_wires(inj.scheme_for("CZ"), (0, 1), 2, audit)
    audit.use_measurement("X")
    x_gate = do.gate("X", (0,), 1)

    def x_correction(outcomes, level):
        flips = [o[-1] for o in outcomes]
        for _ in range(sum(flips)):
            audit.use_gate("X")
        return None, None, do.rows_by_key(level, flips, lambda s: x_gate if s else None)

    steps += [ref_level_step(ref_readout_step(0, "X")), x_correction]
    branches = branch_tree(np.kron(input_state, do.plus_state(1))[None], steps)
    records = [
        inj.InjectionRecord(outcomes, float(prob), "X^s", out, do.fidelity(out, target))
        for outcomes, prob, out in branches
    ]
    return records, audit


def ref_builders(monkeypatch):
    """Route the package's gadgets through the reference builders, the
    in-place injection on wires (0, 1) of a 2-wire register as every
    caller places it."""
    monkeypatch.setattr(inj, "run_injection", ref_run_injection)
    monkeypatch.setattr(inj, "hadamard_via_cz", ref_hadamard_via_cz)
    monkeypatch.setattr(
        inj, "inject_on_wires",
        lambda scheme, audit: ref_inject_on_wires(scheme, (0, 1), 2, audit),
    )


def _random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def assert_same_records(got, want):
    # outcomes and corrections exactly; probability, fidelity and final
    # state within 1e-12, since a gadget's Kraus stack is a different float
    # product from the chain of steps
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.outcomes, g.correction) == (w.outcomes, w.correction)
        assert abs(g.probability - w.probability) <= 1e-12
        assert abs(g.fidelity - w.fidelity) <= 1e-12
        assert g.final_state.shape == w.final_state.shape
        assert np.allclose(g.final_state, w.final_state, rtol=0, atol=1e-12)


def assert_same_report(got, want):
    """Reports equal key for key and item for item, floats within 1e-12 and
    everything else exactly."""
    assert type(got) is type(want)
    if isinstance(got, dict):
        assert list(got) == list(want)
        for k in got:
            assert_same_report(got[k], want[k])
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_report(g, w)
    elif isinstance(got, float):
        assert abs(got - want) <= 1e-12
    else:
        assert got == want


def _full_report(audit):
    return audit.report(), dict(audit.elements), dict(audit.tier2), sorted(audit.violations)


class TestAgainstReferenceBuilders:
    @pytest.mark.parametrize("name", ["Z", "S", "T", "CZ", "CCZ"])
    @pytest.mark.parametrize("injected", [frozenset(), frozenset({"CZ"})])
    def test_run_injection_records(self, name, injected):
        scheme = inj.scheme_for(name)
        rng = np.random.default_rng(len(name) + 10 * len(injected))
        for _ in range(4):
            psi = _random_state(rng, 2**scheme.n)
            audit, ref_audit = inj.AuditTrail(), inj.AuditTrail()
            got = inj.run_injection(scheme, psi, injected=injected, audit=audit)
            assert_same_records(got, ref_run_injection(scheme, psi, injected, ref_audit))
            assert _full_report(audit) == _full_report(ref_audit)

    def test_hadamard_via_cz(self):
        rng = np.random.default_rng(7)
        for psi in (do.basis_state([0]), do.plus_state(1), _random_state(rng, 2)):
            got, audit = inj.hadamard_via_cz(psi)
            want, ref_audit = ref_hadamard_via_cz(psi)
            assert_same_records(got, want)
            assert _full_report(audit) == _full_report(ref_audit)

    def test_demos_and_probe(self, monkeypatch):
        rng = np.random.default_rng(8)
        inputs = [do.plus_state(3), do.basis_state([1, 1, 0]), _random_state(rng, 8)]
        got = [inj.ccz_scheme_demo(psi) for psi in inputs]
        got += [inj.clifford_completion_demo(), inj.minimality_probe()]
        ref_builders(monkeypatch)
        want = [inj.ccz_scheme_demo(psi) for psi in inputs]
        want += [inj.clifford_completion_demo(), inj.minimality_probe()]
        assert_same_report(got, want)

    def test_peres_mermin_contexts(self, monkeypatch):
        # the reports and every leaf of the walk: outcomes exactly,
        # probability and state within 1e-12
        walks = []

        def recorded(*args):
            walks.append(branch_tree(*args))
            return walks[-1]

        monkeypatch.setattr(wit, "branch_tree", recorded)
        rng = np.random.default_rng(9)
        inputs = [do.plus_state(2), *(_random_state(rng, 4) for _ in range(3))]

        def reports():
            return [wit.peres_mermin_circuit(psi, context)
                    for psi in inputs for context in sorted(wit.CONTEXT_SELECTORS)]

        got = reports()
        got_walks, walks[:] = walks[:], []
        ref_builders(monkeypatch)
        assert_same_report(got, reports())
        assert len(got_walks) == len(walks) == len(got)
        for g, w in zip(got_walks, walks):
            assert_same_leaves(g, w)

    def test_reference_placement_is_general(self):
        # the reference still places the gadget on any data wires; on
        # reversed wires with a spare one it applies the gate there
        scheme = inj.scheme_for("CZ")
        rng = np.random.default_rng(4)
        psi = _random_state(rng, 8)
        leaves = branch_tree(psi[None], ref_inject_on_wires(scheme, (2, 0), 3, inj.AuditTrail()))
        want = do.gate("CZ", (2, 0), 3) @ psi
        assert len(leaves) == 4
        assert all(do.states_equal(state, want) for _, _, state in leaves)


def _readout_z0(width):
    """R_k of a Z readout of wire 0 on a width-wire register: <k| (x) I."""
    return [np.kron(do.basis_state([k])[None], np.eye(2 ** (width - 1))) for k in (0, 1)]


def ref_gadget_kraus(scheme, m):
    """K_m from its parts: the correction (none for the trivial one), the Z
    readouts of data wires 0..n-1 one after the other, the CNOTs and the
    resource appended at the tail."""
    n = scheme.n
    K = np.kron(np.eye(2**n), scheme.resource_state[:, None])
    for j in range(n):
        K = do.gate("CNOT", (n + j, j), 2 * n) @ K
    for j, mj in enumerate(m):
        K = _readout_z0(2 * n - j)[mj] @ K
    corr = scheme.corrections[m]
    return K if corr.kind == "pauli" and not corr.factors else corr.operator @ K


def ref_append_step(state):
    """The step that appends state's wires at the tail of every branch, one
    Kronecker product per row."""
    return lambda outcomes, level: (None, None, np.stack([np.kron(row, state) for row in level]))


def ref_gadget_steps(scheme, audit, injected):
    """The gadget as the chain of steps it was before its one Kraus step:
    append, n CNOTs, n readouts and the correction built per branch."""
    n = scheme.n
    audit.use_resource(f"{scheme.gate_name}|+>^{n}")
    audit.use_gate("CNOT", count=n)
    for _ in range(n):
        audit.use_measurement("Z")
    correct = ref_correction_step(scheme, tuple(range(n)), n, audit, injected)

    def correction(outcomes, level):
        states = [correct(o, psi)[0][2] for o, psi in zip(outcomes, level)]
        return None, None, np.stack(states) if states else level

    return [
        ref_append_step(scheme.resource_state),
        *(do.gate_step(do.gate("CNOT", (n + j, j), 2 * n)) for j in range(n)),
        *[ref_level_step(ref_readout_step(0, "Z"))] * n,
        correction,
    ]


def assert_same_gadget_leaves(got, want, scheme, branches):
    # outcomes exactly; probabilities within 1e-12, every joint outcome
    # 2^-n likely; states equal the host factors' up to a global phase,
    # and exactly those of a trivial correction within 1e-12
    assert [o for o, _, _ in got] == [o for o, _, _ in want]
    assert len(got) == branches * 2**scheme.n
    for (o, p, state), (_, p_ref, state_ref) in zip(got, want):
        assert abs(p - p_ref) <= 1e-12 and abs(p * branches - 2.0**-scheme.n) <= 1e-12
        phase = np.vdot(state_ref, state)
        assert abs(abs(phase) - 1) <= 1e-12
        assert np.allclose(state, phase * state_ref, rtol=0, atol=1e-12)
        C = scheme.corrections[o[-scheme.n:]]
        if C.kind == "pauli" and not C.factors:
            assert np.allclose(state, state_ref, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["Z", "S", "T", "CZ", "CCZ"]),
    st.sampled_from([frozenset(), frozenset({"CZ"})]),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_fused_gadget_step_matches_the_chain_of_steps(name, injected, branches, seed):
    scheme = inj.scheme_for(name)
    n = scheme.n
    rng = np.random.default_rng(seed)
    level = np.stack([_random_state(rng, 2**n) for _ in range(branches)])
    [step] = inj.inject_on_wires(scheme, inj.AuditTrail())
    ks, pks, children = step([()] * branches, level)
    # one tuple of n readout bits per child, every joint outcome 2^-n likely
    assert list(ks) == list(itertools.product((0, 1), repeat=n)) * branches
    assert all(abs(p - 2.0**-n) <= 1e-12 for p in pks)
    assert children.shape == (branches * 2**n, 2**n)

    def root(outcomes, _):  # the level as equally likely branches
        return [(i,) for i in range(branches)], [1 / branches] * branches, level

    audit, ref_audit = inj.AuditTrail(), inj.AuditTrail()
    ref_audit.use_gate("SWAP", count=n)
    got = branch_tree(level[:1], [root, *inj.inject_on_wires(scheme, audit)])
    want = branch_tree(level[:1], [root, *ref_gadget_steps(scheme, ref_audit, frozenset())])
    assert_same_gadget_leaves(got, want, scheme, branches)
    assert _full_report(audit) == _full_report(ref_audit)
    # with the injected gates counted as tier 2: run_injection, one walk per row
    audit, ref_audit = inj.AuditTrail(), inj.AuditTrail()
    for psi in level:
        got = [(r.outcomes, r.probability, r.final_state)
               for r in inj.run_injection(scheme, psi, injected, audit)]
        want = branch_tree(psi[None], ref_gadget_steps(scheme, ref_audit, injected))
        assert_same_gadget_leaves(got, want, scheme, 1)
    assert _full_report(audit) == _full_report(ref_audit)


def test_x_readout_stack_is_the_product_of_its_parts():
    # K_s = X^s (<s|_X (x) I): wire 0 of two read in the X basis, then the
    # remaining wire flipped when s = 1; built once and read-only
    stack = inj._x_readout_kraus()
    assert stack is inj._x_readout_kraus() and not stack.flags.writeable
    assert stack.shape == (2, 2, 4)
    X = do.gate("X", (0,), 1)
    kets = (do.plus_state(1), do.gate("Z", (0,), 1) @ do.plus_state(1))
    for s, ket in enumerate(kets):
        R = np.kron(ket.conj()[None], np.eye(2))
        assert np.allclose(stack[s], np.linalg.matrix_power(X, s) @ R, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hadamard_step_matches_the_readout_and_keyed_correction(seed):
    # the Hadamard's one X step against the X readout and the X correction
    # keyed by its outcome (ref_hadamard_via_cz): leaves, counts and audits
    # exactly, probabilities and states within 1e-12, and each X outcome
    # exactly as likely as the other
    psi = _random_state(np.random.default_rng(seed), 2)
    x_probs, measure_step = [], do.measure_step

    def recorded(kraus):
        step = measure_step(kraus)
        if kraus is not inj._x_readout_kraus():
            return step

        def x_step(outcomes, level):
            ks, pks, children = step(outcomes, level)
            x_probs.extend(pks)
            return ks, pks, children

        return x_step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(do, "measure_step", recorded)
        got, audit = inj.hadamard_via_cz(psi)
    want, ref_audit = ref_hadamard_via_cz(psi)
    assert [r.outcomes for r in got] == [r.outcomes for r in want]
    assert len(got) == len(want) == 8
    assert_same_records(got, want)
    assert _full_report(audit) == _full_report(ref_audit)
    assert len(x_probs) == 8 and all(abs(p - 0.5) <= 1e-12 for p in x_probs)
    target = do.gate("H", (0,), 1) @ psi
    assert all(do.states_equal(r.final_state, target) for r in got)


class TestCorrectionStep:
    @pytest.mark.parametrize("name", ["Z", "S", "T", "CZ", "CCZ"])
    def test_stack_is_the_product_of_its_parts(self, name):
        scheme = inj.scheme_for(name)
        stack = scheme.kraus
        assert stack is scheme.kraus and not stack.flags.writeable
        rows = list(itertools.product((0, 1), repeat=scheme.n))
        assert stack.shape == (len(rows), 2**scheme.n, 2**scheme.n)
        for K, m in zip(stack, rows):
            assert np.allclose(K, ref_gadget_kraus(scheme, m), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["CZ", "CCZ", "S", "T"])
    def test_step_local_corrections_match_per_branch_gates(self, name):
        # each operator is the scheme's correction times the uncorrected
        # one; the host factors applied per branch agree up to a global
        # phase, and every outcome is met by two branches
        scheme = inj.scheme_for(name)
        n = scheme.n
        ref = ref_correction_step(scheme, tuple(range(n)), n, inj.AuditTrail(), frozenset({"CZ"}))
        rng = np.random.default_rng(len(name))
        for m, K in zip(itertools.product((0, 1), repeat=n), scheme.kraus):
            bare = ref_gadget_kraus(dataclasses.replace(scheme, corrections={
                m: inj.Correction(None, "pauli", "I" * n, ())}), m)
            for _ in range(2):
                psi = _random_state(rng, 2**n)
                got = K @ psi
                want = scheme.corrections[m].operator @ bare @ psi
                assert np.allclose(got, want, rtol=0, atol=1e-12)
                [(_, _, host)] = ref((1, *m), bare @ psi)
                assert abs(abs(np.vdot(host, got)) - np.vdot(got, got).real) <= 1e-12

    @pytest.mark.parametrize("name", ["Z", "S", "CZ", "CCZ"])
    def test_identity_correction_is_not_multiplied_in(self, name):
        # the trivial outcome's operator is the uncorrected coupling block,
        # the same float product as the other blocks before their correction
        scheme = inj.scheme_for(name)
        n, zeros = scheme.n, (0,) * scheme.n
        assert scheme.corrections[zeros].kind == "pauli"
        assert scheme.corrections[zeros].factors == ()
        coupled = np.kron(np.eye(2**n), scheme.resource_state[:, None])
        for j in range(n):
            coupled = inj.cnot((n + j, j), 2 * n) @ coupled
        assert np.array_equal(scheme.kraus[0], coupled[: 2**n])

    def test_identity_correction_is_not_embedded(self, monkeypatch):
        # row3 runs three CZ injections: each is one step on the CZ scheme's
        # own stack, and once inj.cnot holds the run's CNOTs, the run builds
        # no gate, no embedding and no stack
        scheme = inj.scheme_for("CZ")
        wit.peres_mermin_circuit(do.plus_state(2), "row3")
        stacks, built = [], []
        measure_step, embed, gate = do.measure_step, do.embed, do.gate

        def recorded(kraus):
            stacks.append(kraus)
            return measure_step(kraus)

        monkeypatch.setattr(do, "measure_step", recorded)
        monkeypatch.setattr(do, "embed", lambda *a: built.append(a) or embed(*a))
        monkeypatch.setattr(do, "gate", lambda *a: built.append(a) or gate(*a))
        assert wit.peres_mermin_circuit(do.plus_state(2), "row3")["product_matches_sign"]
        assert built == []
        gadgets = [K for K in stacks if K is scheme.kraus]
        assert len(gadgets) == 3 and len(stacks) == 5  # and the two X parity readouts

    def test_resource_append_is_the_kronecker_product(self):
        # do.append_isometry puts the state's wires at the tail of a
        # register of any width: column i is exactly |i> (x) |state>, and
        # a row's product is its Kronecker product with the state, an
        # isometry's, within 1e-12 (BLAS may fuse the complex products)
        rng = np.random.default_rng(3)
        for width in range(4):
            dim = 2**width
            for state in (inj.scheme_for("CZ").resource_state, _random_state(rng, 2)):
                V = do.append_isometry(dim, state)
                assert V.shape == (dim * len(state), dim)
                for i, ket in enumerate(np.eye(dim)):
                    assert np.array_equal(V[:, i], np.kron(ket, state))
                assert np.allclose(V.conj().T @ V, np.eye(dim), rtol=0, atol=1e-12)
                for row in (_random_state(rng, dim) for _ in range(3)):
                    assert np.allclose(V @ row, np.kron(row, state), rtol=0, atol=1e-12)

    def test_correction_audit_calls_once_per_outcome_met(self, monkeypatch):
        # in a row3 run the three correction steps meet 256 branches, but
        # call use_gate at most once per (step, outcome met, factor)
        calls, walking = [], [False]
        use_gate, walk = inj.AuditTrail.use_gate, wit.branch_tree

        def counted(self, *args, **kwargs):
            if walking[0]:
                calls.append(args)
            return use_gate(self, *args, **kwargs)

        def walked(*args):
            walking[0] = True
            try:
                return walk(*args)
            finally:
                walking[0] = False

        monkeypatch.setattr(inj.AuditTrail, "use_gate", counted)
        monkeypatch.setattr(wit, "branch_tree", walked)
        rep = wit.peres_mermin_circuit(do.plus_state(2), "row3")
        assert rep["branches"] == 256
        per_step = sum(len(c.factors) for c in inj.scheme_for("CZ").corrections.values())
        assert 0 < len(calls) <= 3 * per_step == 24


class TestSchemeCache:
    @pytest.mark.parametrize("name", ["Z", "S", "T", "CZ", "CCZ"])
    def test_one_read_only_scheme_per_name(self, name):
        scheme = inj.scheme_for(name)
        assert inj.scheme_for(name) is scheme
        arrays = [scheme.target, scheme.resource_state]
        arrays += [c.operator for c in scheme.corrections.values()]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        with pytest.raises(TypeError):
            scheme.corrections[(0,) * scheme.n] = None


class TestAudits:
    def test_cz_injection_is_host_clean(self):
        audit = inj.AuditTrail()
        inj.run_injection(inj.scheme_for("CZ"), do.plus_state(2), audit=audit)
        rep = audit.report()
        assert rep["clean"]
        assert set(rep["elements"]) <= {"CNOT", "X", "Z", "MEAS Z", "RESOURCE CZ|+>^2"}

    def test_ccz_without_cz_permission_is_flagged(self):
        audit = inj.AuditTrail()
        inj.run_injection(inj.scheme_for("CCZ"), do.plus_state(3), audit=audit)
        assert "CZ" in audit.report()["violations"]

    def test_ccz_with_cz_permission_is_tier2(self):
        audit = inj.AuditTrail()
        inj.run_injection(
            inj.scheme_for("CCZ"), do.plus_state(3),
            injected=frozenset({"CZ"}), audit=audit,
        )
        rep = audit.report()
        assert rep["clean"]
        assert rep["tier2_gates"]["CZ"] == 12

    def test_minimality_probe(self):
        probe = inj.minimality_probe()
        assert set(probe) == {"CNOT", "X", "Z", "Z-measurement", "X-observables"}
        for element, entry in probe.items():
            assert entry["breaks"], element
            assert entry["violations"], element

    def test_default_host_is_certified(self):
        host = inj.AuditTrail().host
        assert host is stt.minimal_rebit_subtheory(2)
        assert stt.is_spekkens_subtheory(host)["passed"]

    def test_probe_hosts_drop_exactly_the_probed_element(self, monkeypatch):
        hosts = []

        @dataclasses.dataclass
        class Recorded(inj.AuditTrail):
            def __post_init__(self):
                hosts.append(self.host)

        monkeypatch.setattr(inj, "AuditTrail", Recorded)
        inj.minimality_probe()
        base = stt.minimal_rebit_subtheory(2)
        reduced = [h for h in hosts if h is not base]
        assert len(reduced) == 5
        labels = [g.label() for g in base.gate_generators]
        for host, name in zip(reduced, ("CNOT", "X", "Z")):
            assert (host.name, host.spec) == (base.name, base.spec)
            assert host.observables is base.observables
            assert [g.label() for g in host.gate_generators] == [
                label for label in labels if not label.startswith(f"{name}(")]
        words = [do.label_name(lam, 2) for lam in base.observables]
        for host, letter in zip(reduced[3:], ("Z", "X")):
            assert (host.name, host.spec) == (base.name, base.spec)
            assert host.gate_generators is base.gate_generators
            kept = [do.label_name(lam, 2) for lam in host.observables]
            assert kept == [w for w in words if letter not in w] != words


class TestHadamardFromCZ:
    @pytest.mark.parametrize(
        "spec_str",
        ["0", "+", None],
    )
    def test_outputs_match_hadamard(self, spec_str):
        if spec_str is None:
            psi = np.array([1, 1j]) / math.sqrt(2)
        else:
            psi = do.parse_state_spec(spec_str)
        recs, audit = inj.hadamard_via_cz(psi)
        # the CZ injection's two readouts and the X readout
        assert len(recs) == 8
        assert all(r.fidelity >= 1 - 1e-9 for r in recs)
        assert audit.report()["clean"]
        assert "RESOURCE CZ|+>^2" in audit.report()["elements"]

    def test_ground_state_gives_plus(self):
        recs, _ = inj.hadamard_via_cz(do.basis_state([0]))
        for r in recs:
            assert do.states_equal(r.final_state, do.plus_state(1))

    def test_plus_gives_ground_state(self):
        recs, _ = inj.hadamard_via_cz(do.plus_state(1))
        for r in recs:
            assert do.states_equal(r.final_state, do.basis_state([0]))


class TestCCZPipeline:
    def test_plus_input_thirty_two_leaves(self):
        rep = inj.ccz_scheme_demo(do.plus_state(3))
        assert rep["leaf_count"] == 32
        assert rep["cz_branches"] == 4 and rep["ccz_branches"] == 8
        assert rep["all_leaves_match_target"]
        assert rep["min_fidelity"] >= 1 - 1e-9
        assert rep["audit"]["clean"]

    def test_all_ones_eigenstate(self):
        rep = inj.ccz_scheme_demo(do.basis_state([1, 1, 1]))
        assert rep["all_leaves_match_target"]

    def test_correction_table_names_the_caption_instance(self):
        # outcomes (-1, 1, 1) <-> bits (1, 0, 0): X on wire 0, CZ on (1, 2)
        rep = inj.ccz_scheme_demo(do.plus_state(3))
        assert rep["correction_table"]["100"] == "XII*CZ(1,2)"

    def test_resources_consumed(self):
        rep = inj.ccz_scheme_demo(do.plus_state(3))
        assert rep["resources"] == {"CZ|+>^2": 1, "CCZ|+>^3": 1}
        assert rep["cz_applications_in_corrections"] == 12


class TestCompletionChain:
    def test_full_chain(self):
        rep = inj.clifford_completion_demo()
        assert rep["passed"], rep
        assert rep["chain"] == ["CZ", "H", "S"]
        assert rep["single_qubit_clifford_order"] == 24
        steps = {s["step"]: s for s in rep["steps"]}
        assert steps["inject-CZ"]["corrections_host_native"]
        assert steps["inject-S"]["correction_name"] == "Y"
        assert all(v["verified"] for v in rep["unlocked_observables"].values())
        assert rep["unlocked_observables"]["CZ.XI.CZ"]["equals"] == "XZ"
        assert rep["unlocked_observables"]["CZ.IX.CZ"]["equals"] == "ZX"
        assert rep["unlocked_observables"]["CZ.XX.CZ"]["equals"] == "YY"


# ---------------------------------------------------------------------------
# the audit as it was before it read a host: two fixed whitelists


WHITELIST_GATES = frozenset({"CNOT", "X", "Z"})
WHITELIST_MEAS = frozenset({"Z", "X"})


@dataclasses.dataclass
class RefWhitelistAudit(inj.AuditTrail):
    gates: frozenset = WHITELIST_GATES
    meas: frozenset = WHITELIST_MEAS

    def use_gate(self, name, injected=frozenset(), count=1):
        name = name.upper()
        if name == "SWAP":
            self.use_gate("CNOT", injected, 3 * count)
            return
        self.elements[name] += count
        if name in self.gates:
            return
        if name in injected:
            self.tier2[name] += count
        else:
            self.violations += [name] * count

    def use_measurement(self, basis):
        key = f"MEAS {basis.upper()}"
        self.elements[key] += 1
        if basis.upper() not in self.meas:
            self.violations.append(key)


def ref_minimality_probe():
    """The probe's constructions audited against whitelists with one
    element removed: element -> (violations, breaks)."""
    probes = {
        "CNOT": dict(gates=WHITELIST_GATES - {"CNOT"}),
        "X": dict(gates=WHITELIST_GATES - {"X"}),
        "Z": dict(gates=WHITELIST_GATES - {"Z"}),
        "Z-measurement": dict(meas=WHITELIST_MEAS - {"Z"}),
        "X-observables": dict(meas=WHITELIST_MEAS - {"X"}),
    }
    out = {}
    for element, kwargs in probes.items():
        audit = RefWhitelistAudit(**kwargs)
        if element == "X-observables":
            inj.inject_on_wires(inj.scheme_for("CZ"), audit)
            audit.use_measurement("X")
        elif element == "Z":
            inj.run_injection(inj.scheme_for("CZ"), do.plus_state(2), audit=audit)
        else:
            inj.run_injection(inj.scheme_for("S"), do.plus_state(1), audit=audit)
        report = audit.report()
        out[element] = (report["violations"], not report["clean"])
    return out


class TestAgainstWhitelistAudit:
    """The host audit reports what the whitelist audit reported on every
    gadget.  The one deliberate difference is a gate named Y: the certified
    host allows it (X.Z up to phase) and the whitelist did not, but no
    gadget emits a Y; the S correction Y runs as its factors X and Z."""

    @pytest.mark.parametrize("name", ["Z", "S", "T", "CZ", "CCZ"])
    @pytest.mark.parametrize("injected", [frozenset(), frozenset({"CZ"})])
    def test_run_injection(self, name, injected):
        scheme = inj.scheme_for(name)
        rng = np.random.default_rng(len(name) + 10 * len(injected))
        for _ in range(4):
            psi = _random_state(rng, 2**scheme.n)
            audit, ref_audit = inj.AuditTrail(), RefWhitelistAudit()
            inj.run_injection(scheme, psi, injected=injected, audit=audit)
            inj.run_injection(scheme, psi, injected=injected, audit=ref_audit)
            assert audit.report() == ref_audit.report()

    def test_hadamard_via_cz(self, monkeypatch):
        _, audit = inj.hadamard_via_cz(do.plus_state(1))
        monkeypatch.setattr(inj, "AuditTrail", RefWhitelistAudit)
        _, ref_audit = inj.hadamard_via_cz(do.plus_state(1))
        assert type(ref_audit) is RefWhitelistAudit
        assert audit.report() == ref_audit.report()

    # the ids keep their "True" (the injected-CZ mode, once one of two), so
    # the tests keep their names
    @pytest.mark.parametrize("context", sorted(wit.CONTEXT_SELECTORS), ids="True-{}".format)
    def test_peres_mermin_contexts(self, monkeypatch, context):
        def audit():
            return wit.peres_mermin_circuit(do.plus_state(2), context)["audit"]

        got = audit()
        monkeypatch.setattr(inj, "AuditTrail", RefWhitelistAudit)
        assert got == audit()

    def test_minimality_probe(self):
        got = {k: (v["violations"], v["breaks"]) for k, v in inj.minimality_probe().items()}
        assert got == ref_minimality_probe()

    def test_y_is_the_one_difference(self):
        audit, ref_audit = inj.AuditTrail(), RefWhitelistAudit()
        for a in (audit, ref_audit):
            a.use_gate("Y")
        assert audit.report()["clean"] and ref_audit.report()["violations"] == ["Y"]
