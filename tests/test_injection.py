import itertools
import math

import numpy as np
import pytest

from spektoy import dense_oracle as do
from spektoy import injection as inj
from spektoy import witness as wit
from spektoy.errors import DimensionMismatch


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


#: the reference's embeddings, shared by its step instances as
#: inj.embedded_correction shares the step's
_ref_embedded = {}


def ref_embedding_correction_step(scheme, wire_map, n_total, audit, injected):
    """The level correction step embedding every outcome's correction, the
    identity of outcome 0...0 included."""

    def operator(m):
        key = (scheme.gate_name, m, wire_map, n_total)
        if key not in _ref_embedded:
            _ref_embedded[key] = do.embed(scheme.corrections[m].operator, wire_map, n_total, 2)
        return _ref_embedded[key]

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


class TestCorrectionStep:
    @pytest.mark.parametrize("name", ["CZ", "CCZ", "S", "T"])
    def test_step_local_corrections_match_per_branch_gates(self, name):
        # the data wires sit reversed on a register with one spare wire,
        # and every outcome is met by two branches, the second reusing the
        # operator the first built
        scheme = inj.scheme_for(name)
        n_total = scheme.n + 1
        wire_map = tuple(range(n_total - 1, 0, -1))
        injected = frozenset({"CZ"})
        audit, ref_audit = inj.AuditTrail(), inj.AuditTrail()
        step = inj._correction_step(scheme, wire_map, n_total, audit, injected)
        ref = ref_correction_step(scheme, wire_map, n_total, ref_audit, injected)
        rng = np.random.default_rng(len(name))
        outcomes = [(1, *m) for m in itertools.product((0, 1), repeat=scheme.n) for _ in range(2)]
        level = rng.normal(size=(len(outcomes), 2**n_total))
        level = level + 1j * rng.normal(size=level.shape)
        level /= np.linalg.norm(level, axis=1)[:, None]
        k, p, out = step(outcomes, level)
        assert k is None and p is None and out.shape == level.shape
        for o, psi, got in zip(outcomes, level, out):
            [(_, _, want)] = ref(o, psi)
            # equal up to a global phase: U X^m U* and its host factors
            assert abs(np.linalg.norm(got) - 1) < 1e-12
            assert abs(abs(np.vdot(want, got)) - 1) < 1e-12
        assert audit.report() == ref_audit.report()

    @pytest.mark.parametrize("name", ["Z", "S", "CZ", "CCZ"])
    def test_identity_correction_returns_the_input_state(self, name):
        scheme = inj.scheme_for(name)
        zeros = (0,) * scheme.n
        assert scheme.corrections[zeros].kind == "pauli"
        assert scheme.corrections[zeros].factors == ()
        audit = inj.AuditTrail()
        step = inj._correction_step(scheme, tuple(range(scheme.n)), scheme.n, audit, frozenset())
        level = do.plus_state(scheme.n)[None]
        k, p, out = step([zeros], level)
        assert (k, p) == (None, None) and out is level
        assert audit.report() == inj.AuditTrail().report()

    def test_identity_correction_is_not_embedded(self, monkeypatch):
        # row3 runs three CZ injections, each with one identity outcome
        # that the step used to embed
        def embeds(correction_step):
            monkeypatch.setattr(inj, "_correction_step", correction_step)
            calls = []
            embed = do.embed
            monkeypatch.setattr(do, "embed", lambda *a: calls.append(a) or embed(*a))
            rep = wit.peres_mermin_circuit(do.plus_state(2), "row3")
            monkeypatch.undo()
            return len(calls), rep

        # one uncounted run fills inj.cnot's embeddings; the corrections'
        # are cleared before each counted run, so both count what the three
        # injections' steps embed, which share one embedding per outcome
        wit.peres_mermin_circuit(do.plus_state(2), "row3")
        inj.embedded_correction.cache_clear()
        count, rep = embeds(inj._correction_step)
        _ref_embedded.clear()
        ref_count, ref_rep = embeds(ref_embedding_correction_step)
        assert count == ref_count - 1 == 3
        assert rep == ref_rep

    def test_resource_append_is_the_kronecker_product(self):
        scheme = inj.scheme_for("CZ")
        data_wires, n_total = (2, 0), 3
        append = inj.inject_on_wires(scheme, data_wires, n_total, inj.AuditTrail())[0]
        perm = list(range(n_total + 2))
        for j, w in enumerate(data_wires):
            perm[w], perm[n_total + j] = perm[n_total + j], perm[w]
        rng = np.random.default_rng(3)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        _, _, [got] = append([()], psi[None])
        want = np.kron(psi, scheme.resource_state).reshape((2,) * 5).transpose(perm).reshape(-1)
        assert np.array_equal(got, want)


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
        assert len(recs) == 2
        assert all(r.fidelity >= 1 - 1e-9 for r in recs)
        assert audit.report()["clean"]

    def test_ground_state_gives_plus(self):
        recs, _ = inj.hadamard_via_cz(do.basis_state([0]))
        for r in recs:
            assert do.states_equal(r.final_state, do.plus_state(1))

    def test_plus_gives_ground_state(self):
        recs, _ = inj.hadamard_via_cz(do.plus_state(1))
        for r in recs:
            assert do.states_equal(r.final_state, do.basis_state([0]))

    def test_fully_injected_variant(self):
        recs, audit = inj.hadamard_via_cz(do.basis_state([0]), use_injected_cz=True)
        assert len(recs) == 8
        assert all(r.fidelity >= 1 - 1e-9 for r in recs)
        assert audit.report()["clean"]
        assert "RESOURCE CZ|+>^2" in audit.report()["elements"]


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
