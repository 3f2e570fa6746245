import dataclasses

import numpy as np
import pytest

from spektoy import dense_oracle as do
from spektoy import phase_algebra as pa
from spektoy import subtheory as stt
from spektoy import wigner as wg
from spektoy.errors import DimensionMismatch, GuardExceeded, InvalidGenerators
from test_dense_oracle import random_clifford_word


class TestBeta:
    def test_zero_label_always_trivial(self):
        spec = wg.factorisable_rebit_spec(1)
        for lam in ((0, 0), (1, 0), (0, 1), (1, 1)):
            assert stt.beta((0, 0), lam, spec) == 0

    def test_rebit_ordering_asymmetry(self):
        spec = wg.factorisable_rebit_spec(1)
        assert stt.beta((1, 0), (0, 1), spec) == 1
        assert stt.beta((0, 1), (1, 0), spec) == 0

    def test_gross_random_pairs_against_dense(self):
        spec = wg.gross_spec(3, 1)
        rng = np.random.default_rng(1)
        for _ in range(20):
            l1 = tuple(rng.integers(0, 3, 2))
            l2 = tuple(rng.integers(0, 3, 2))
            b = stt.beta(l1, l2, spec)
            lhs = wg.weyl(l1, spec) @ wg.weyl(l2, spec)
            lsum = tuple((a + c) % 3 for a, c in zip(l1, l2))
            assert np.allclose(lhs, do.chi(b, 3) * wg.weyl(lsum, spec), atol=1e-12)

    def test_beta_vanishes_on_commuting_pairs_gross(self):
        spec = wg.gross_spec(3, 1)
        import itertools
        from spektoy import phase_algebra as pa

        for l1 in itertools.product(range(3), repeat=2):
            for l2 in itertools.product(range(3), repeat=2):
                if pa.symplectic_product(l1, l2, 3) == 0:
                    assert stt.beta(l1, l2, spec) == 0

    @pytest.mark.parametrize(
        "spec",
        [
            wg.factorisable_rebit_spec(1),
            wg.factorisable_rebit_spec(2),
            wg.delfosse_rebit_spec(2),
            wg.gross_spec(3, 1),
            wg.gross_spec(3, 2),
            wg.gross_spec(5, 1),
        ],
        ids=lambda spec: f"{spec.name}-d{spec.d}-n{spec.n}",
    )
    def test_bulk_table_matches_the_checked_beta(self, spec):
        # beta checks its bookkeeping against dense products, _beta_table
        # shares the bookkeeping without the check
        table = stt._beta_table(spec)
        pts = pa.all_points(spec.d, spec.n)
        for i, l1 in enumerate(pts):
            for j, l2 in enumerate(pts):
                assert table[i, j] == stt.beta(l1, l2, spec)

    def test_wrong_bookkeeping_raises(self, monkeypatch):
        # flipping the sign of T(X) flips the dense product T(X) T(Z) but
        # not the bookkeeping's exponent
        spec = wg.factorisable_rebit_spec(1)
        weyl = wg.weyl
        monkeypatch.setattr(
            wg, "weyl", lambda lam, sp: -weyl(lam, sp) if tuple(lam) == (1, 0) else weyl(lam, sp)
        )
        with pytest.raises(DimensionMismatch, match="disagrees with the bookkeeping"):
            stt.beta((1, 0), (0, 1), spec)


class TestAllowedObservables:
    def test_rebit_n1(self):
        got = set(stt.allowed_observables(wg.factorisable_rebit_spec(1)))
        assert got == {(0, 0), (1, 0), (0, 1)}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rebit_equals_nonmixing_exactly(self, n):
        got = set(stt.allowed_observables(wg.delfosse_rebit_spec(n)))
        assert got == set(stt.nonmixing_labels(2, n))

    def test_y_type_labels_excluded(self):
        got = set(stt.allowed_observables(wg.delfosse_rebit_spec(2)))
        for bad in ((1, 1, 0, 0), (1, 1, 1, 1), (1, 0, 0, 1)):
            assert bad not in got

    def test_gross_criterion_vacuous(self):
        assert len(stt.allowed_observables(wg.gross_spec(3, 1))) == 9


class TestAllowedStates:
    def test_rebit_n1(self):
        states = stt.allowed_states(wg.factorisable_rebit_spec(1))
        assert len(states) == 4
        expected = [do.parse_state_spec(s) for s in ("0", "1", "+", "-")]
        for e in expected:
            assert any(do.states_equal(e, s) for s in states)

    def test_rebit_n2_css(self):
        states = stt.allowed_states(wg.delfosse_rebit_spec(2))
        assert len(states) == 20
        bell = do.parse_state_spec("+XX,+ZZ")
        assert any(do.states_equal(bell, s) for s in states)
        iket = np.kron(do.parse_state_spec("S|+>"), do.basis_state([0]))
        assert not any(do.states_equal(iket, s) for s in states)
        for s in states:
            assert stt.is_css(s, 2)

    def test_gross_n1_all_twelve(self):
        assert len(stt.allowed_states(wg.gross_spec(3, 1))) == 12

    def test_census_guard_fires_before_enumerating(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("enumerated past the census guard")

        monkeypatch.setattr(pa, "maximal_isotropic_subspaces", unreachable)
        monkeypatch.setattr(stt, "allowed_observables", unreachable)
        with pytest.raises(GuardExceeded):
            stt.all_stabilizer_states(3, 4)
        with pytest.raises(GuardExceeded):
            stt.allowed_states(wg.delfosse_rebit_spec(5))
        with pytest.raises(GuardExceeded):
            stt.css_states(5)
        # prod (d^k + 1) * d^n: 36,720 at d=2 n=4 and 30,240 at d=3 n=3 pass
        stt._census_guard(2, 4)
        stt._census_guard(3, 3)


class TestAllowedGates:
    def test_paulis_always_retained(self):
        kept = {g.label() for g, _ in stt.allowed_gates(wg.factorisable_rebit_spec(1))}
        assert {"X(0)", "Z(0)"} <= kept

    def test_single_site_hadamard_is_the_global_one_at_n1(self):
        kept = {g.label() for g, _ in stt.allowed_gates(wg.factorisable_rebit_spec(1))}
        assert "H(0)" in kept

    def test_s_rejected_by_closure(self):
        spec = wg.factorisable_rebit_spec(1)
        states = stt.allowed_states(spec)
        ok, idx = stt.permutes_states(do.gate("S", (0,), 1), states)
        assert not ok
        kept = {g.label() for g, _ in stt.allowed_gates(spec)}
        assert "S(0)" not in kept

    def test_n2_retention_and_rejection(self):
        kept = {g.label() for g, _ in stt.allowed_gates(wg.delfosse_rebit_spec(2))}
        assert {"CNOT(0,1)", "CNOT(1,0)", "SWAP(0,1)"} <= kept
        for bad in ("H(0)", "H(1)", "S(0)", "S(1)", "CZ(0,1)"):
            assert bad not in kept


class TestMinimalSubtheory:
    def test_n1_contents(self):
        sub = stt.minimal_rebit_subtheory(1)
        assert len(sub.states) == 4
        assert {g.name for g in sub.gate_generators} == {"X", "Z"}

    def test_n2_swap_reachable_but_not_cz_hh_s(self):
        sub = stt.minimal_rebit_subtheory(2)
        group = stt.generated_gate_group([g.matrix for g in sub.gate_generators])
        assert stt.group_contains(group, do.gate("SWAP", (0, 1), 2))
        assert not stt.group_contains(group, do.gate("CZ", (0, 1), 2))
        hh = do.gate("H", (0,), 2) @ do.gate("H", (1,), 2)
        assert not stt.group_contains(group, hh)
        assert not stt.group_contains(group, do.gate("S", (0,), 2))

    def test_every_state_table_is_coset(self):
        for n in (1, 2):
            sub = stt.minimal_rebit_subtheory(n)
            for psi in sub.states:
                assert wg.is_coset_indicator(wg.wigner_of_state(psi, sub.spec))


class TestClosure:
    @pytest.mark.parametrize("n", [1, 2])
    def test_minimal_closed(self, n):
        ok, cex = stt.is_closed(stt.minimal_rebit_subtheory(n))
        assert ok and cex is None

    def test_adding_s_breaks_closure(self):
        base = stt.minimal_rebit_subtheory(1)
        sub = stt.Subtheory(
            "minimal+S",
            base.spec,
            lambda: base.states,
            base.gate_generators + (stt.GateGen("S", (0,), do.gate("S", (0,), 1)),),
            base.observables,
        )
        ok, cex = stt.is_closed(sub)
        assert not ok
        assert cex["gate"] == "S(0)"
        escaped = do.gate("S", (0,), 1) @ base.states[cex["state_index"]]
        assert not any(do.states_equal(escaped, s) for s in base.states)

    def test_gross_n1_closed(self):
        ok, _ = stt.is_closed(stt.qudit_stabilizer_subtheory(3, 1))
        assert ok


class TestCertificates:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_minimal_rebit_passes(self, n):
        rep = stt.is_spekkens_subtheory(stt.minimal_rebit_subtheory(n))
        assert rep["passed"], rep

    def test_css_with_global_hadamard_passes(self):
        rep = stt.is_spekkens_subtheory(stt.css_rebit_subtheory(2))
        assert rep["passed"], rep

    def test_full_qubit_stabilizer_fails(self):
        rep = stt.is_spekkens_subtheory(stt.full_qubit_stabilizer_subtheory(2))
        assert not rep["passed"]
        # the negativity witness is a real non-X/Z-split state
        assert rep["nonnegativity"]["state_witness"] is not None

    def test_full_qubit_n1_covariance_modes(self):
        cov = stt.is_spekkens_subtheory(stt.full_qubit_stabilizer_subtheory(1))["covariance"]
        modes = {gate: w["mode"] for gate, w in cov["witnesses"].items()}
        assert modes == {"X(0)": "transport", "Z(0)": "transport", "H(0)": "transport"}
        assert cov["failures"] == [{"gate": "S(0)", "mode": "exhaustive"}]

    def test_guard_exceeded_is_a_reported_failure(self, monkeypatch):
        # transport needs no search; only S(0) reaches the guarded one,
        # with 2 candidates for each basis point on the one-state census
        sub = _one_state_census()
        witnesses = stt.is_spekkens_subtheory(sub)["covariance"]["witnesses"]
        assert witnesses["S(0)"]["mode"] == "exhaustive"
        monkeypatch.setattr(pa, "AFFINE_ENUM_GUARD", 1)
        rep = stt.is_spekkens_subtheory(sub)
        assert rep["covariance"]["failures"] == [{"gate": "S(0)", "mode": "guard-exceeded"}]
        assert set(rep["covariance"]["witnesses"]) == {"X(0)", "Z(0)", "H(0)"}
        assert not rep["passed"]

    @pytest.mark.parametrize("n", [1, 2])
    def test_qudit_stabilizer_passes(self, n):
        rep = stt.is_spekkens_subtheory(stt.qudit_stabilizer_subtheory(3, n))
        assert rep["passed"], rep["covariance"]["failures"]

    def test_manifest_shape(self):
        sub = stt.minimal_rebit_subtheory(2)
        doc = sub.manifest(certificates={"closure": True})
        assert doc["spec"] == {"name": "delfosse-rebit", "d": 2, "n": 2}
        assert doc["state_count"] == 20
        assert "CNOT(0,1)" in doc["gate_generators"]
        assert doc["certificates"]["closure"] is True


class TestSubtheoryLookup:
    def test_names(self):
        assert stt.subtheory_by_name("minimal-rebit", 2).name == "minimal-rebit"
        assert stt.subtheory_by_name("css-rebit", 2).name == "css-rebit"
        assert stt.subtheory_by_name("gross", 1, 3).spec.name == "gross"
        with pytest.raises(DimensionMismatch):
            stt.subtheory_by_name("nonsense", 2)

    @pytest.mark.parametrize("name,d", [
        ("qudit-stabilizer", 2), ("qudit-stabilizer", 4), ("gross", 2),
        ("minimal-rebit", 3), ("minimal", 5), ("css-rebit", 5), ("css", 3),
        ("full-qubit-stabilizer", 3),
    ])
    def test_d_must_fit_the_name(self, name, d):
        with pytest.raises(DimensionMismatch, match=f"got d={d}"):
            stt.subtheory_by_name(name, 1, d)

    def test_d_is_kept(self):
        for name, d in [("qudit-stabilizer", 3), ("qudit-stabilizer", 5), ("minimal-rebit", 2),
                        ("css-rebit", 2), ("full-qubit-stabilizer", 2)]:
            assert stt.subtheory_by_name(name, 1, d).spec.d == d


def ref_allowed_gate_names(sub):
    """The host gate-name rule as the circuit audit kept it: generator
    names, SWAP, CNOT where SUM is one, and Y at every d=2 host."""
    names = {g.name for g in sub.gate_generators}
    names.add("SWAP")
    if "SUM" in names:
        names.add("CNOT")
    if sub.d == 2:
        names.add("Y")
    return names


class TestAllowedGateNames:
    @pytest.mark.parametrize("name,n,d", [
        *((name, n, 2) for name in ("minimal-rebit", "css-rebit", "full-qubit-stabilizer")
          for n in (1, 2, 3)),
        ("qudit-stabilizer", 1, 3), ("qudit-stabilizer", 2, 3), ("qudit-stabilizer", 1, 5),
    ])
    def test_named_hosts_keep_the_audit_rule(self, name, n, d):
        sub = stt.subtheory_by_name(name, n, d)
        assert sub.allowed_gate_names == ref_allowed_gate_names(sub)

    @pytest.mark.parametrize("dropped", ["X", "Z"])
    def test_no_y_without_x_and_z(self, dropped):
        base = stt.minimal_rebit_subtheory(2)
        gens = tuple(g for g in base.gate_generators if g.name != dropped)
        sub = dataclasses.replace(base, gate_generators=gens)
        assert sub.allowed_gate_names == {"CNOT", "SWAP", *{"X", "Z"} - {dropped}}
        assert "Y" in base.allowed_gate_names


def ref_state_index(states, psi):
    for i, s in enumerate(states):
        if do.states_equal(s, psi):
            return i
    return None


def ref_permutes_states(U, states):
    for i, s in enumerate(states):
        if ref_state_index(states, U @ s) is None:
            return False, i
    return True, None


MEMBERSHIP_CASES = {
    "minimal-rebit-2": lambda: stt.minimal_rebit_subtheory(2),
    "css-rebit-2": lambda: stt.css_rebit_subtheory(2),
    "qudit-d3-1": lambda: stt.qudit_stabilizer_subtheory(3, 1),
    "full-qubit-1": lambda: stt.full_qubit_stabilizer_subtheory(1),
}


class TestStateMembership:
    # 1 and 7 force one image per block; 50 gives blocks of 2 to 8 images
    # with a partial last block
    @pytest.mark.parametrize("bound", [1, 7, 50, wg._TABLE_BLOCK])
    @pytest.mark.parametrize("case", sorted(MEMBERSHIP_CASES))
    def test_matches_states_equal_scan(self, case, bound, monkeypatch):
        monkeypatch.setattr(wg, "_TABLE_BLOCK", bound)
        sub = MEMBERSHIP_CASES[case]()
        for gen in sub.gate_generators:
            U = gen.matrix
            assert stt.permutes_states(U, sub.states) == ref_permutes_states(U, sub.states)
            for s in sub.states:
                img = U @ s
                assert stt.state_index(sub.states, img) == ref_state_index(sub.states, img)

    @pytest.mark.parametrize("bound", [1, 7, 50, wg._TABLE_BLOCK])
    def test_first_matches_sees_every_image_up_to_a_last_miss(self, bound, monkeypatch):
        monkeypatch.setattr(wg, "_TABLE_BLOCK", bound)
        states = stt.all_stabilizer_states(2, 2)
        tplus = do.parse_state_spec("T|+>")
        foreign = np.kron(tplus, tplus)
        images = np.stack([-s for s in states[::-1]] + [foreign])
        ref = [ref_state_index(states, img) for img in images]
        got = stt._first_matches(states, images)
        assert got.tolist() == [-1 if i is None else i for i in ref]
        assert stt._first_matches(states, images[:-1]).tolist() == ref[:-1]

    @pytest.mark.parametrize("bound", [1, 7, wg._TABLE_BLOCK])
    @pytest.mark.parametrize("case", ["minimal-rebit-2", "css-rebit-2"])
    def test_s_escapes_at_the_same_first_index(self, case, bound, monkeypatch):
        monkeypatch.setattr(wg, "_TABLE_BLOCK", bound)
        states = MEMBERSHIP_CASES[case]().states
        S = do.gate("S", (0,), 2)
        ok, idx = stt.permutes_states(S, states)
        assert not ok
        assert (ok, idx) == ref_permutes_states(S, states)

    def test_zero_vector_and_shape_mismatch(self):
        states = stt.minimal_rebit_subtheory(2).states
        zero = np.zeros(4, dtype=complex)
        assert stt.state_index(states, zero) is None
        assert stt.state_index(states + states, -1j * states[3]) == 3
        assert stt.state_index(states + (zero,), zero) == len(states)
        assert stt.state_index(states + (zero,), 1e-12 * states[0]) == len(states)
        assert stt.state_index(states, np.ones(8) / np.sqrt(8)) is None
        assert stt.state_index(states, np.eye(4)) is None
        assert stt.state_index((), states[0]) is None
        assert stt.permutes_states(np.eye(4), ()) == (True, None)
        for psi in (zero, 1e-12 * states[0], states[3], 2.5j * states[5]):
            assert stt.state_index(states + (zero,), psi) == ref_state_index(
                states + (zero,), psi
            )


class TestGateGroupGuard:
    def test_guard_fires_one_element_short_of_the_clifford_group(self):
        H, S = do.gate("H", (0,), 1), do.gate("S", (0,), 1)
        with pytest.raises(GuardExceeded):
            stt.generated_gate_group([H, S], max_size=23)
        assert len(stt.generated_gate_group([H, S], max_size=24)) == 24


class TestGateGroupOrders:
    def test_clifford_groups_have_the_symplectic_order(self):
        # the Clifford group mod phase has |Sp(2n, Z_2)| 4^n elements
        H, S = do.gate("H", (0,), 1), do.gate("S", (0,), 1)
        assert len(stt.generated_gate_group([H, S])) == pa.sp_order(1, 2) * 4 == 24
        gens = [do.gate(name, (w,), 2) for w in (0, 1) for name in ("H", "S")]
        gens.append(do.gate("CNOT", (0, 1), 2))
        assert len(stt.generated_gate_group(gens)) == pa.sp_order(2, 2) * 16 == 11_520

    @pytest.mark.parametrize("name,order", [("minimal-rebit", 96), ("css-rebit", 192)])
    def test_host_groups_at_n2(self, name, order):
        sub = stt.subtheory_by_name(name, 2, 2)
        assert len(stt.generated_gate_group([g.matrix for g in sub.gate_generators])) == order

    def test_membership_up_to_phase_and_outside_the_cliffords(self):
        H, S = do.gate("H", (0,), 1), do.gate("S", (0,), 1)
        group = stt.generated_gate_group([S])
        assert len(group) == 4
        assert stt.group_contains(group, np.exp(0.3j) * do.gate("Z", (0,), 1))
        assert not stt.group_contains(group, H)
        # a non-Clifford has no Pauli-action key
        with pytest.raises(InvalidGenerators):
            stt.group_contains(group, do.gate("T", (0,), 1))
        with pytest.raises(InvalidGenerators):
            stt.generated_gate_group([H, do.gate("T", (0,), 1)])


class TestSignedActions:
    @pytest.mark.parametrize("n", [1, 2])
    def test_gather_is_the_product_of_actions(self, n):
        # the group's keys compose by one gather, not by a dense K_U K_V
        rng = np.random.default_rng([29, n])
        for _ in range(20):
            U, V = (random_clifford_word(rng, n, int(rng.integers(1, 8))) for _ in range(2))
            a, b = stt._signed_action(U), stt._signed_action(V)
            got = stt._compose_actions(a, b)
            K = np.zeros((4**n, 4**n), dtype=np.int64)
            K[got >> 1, np.arange(4**n)] = 1 - 2 * (got & 1)
            assert np.array_equal(K, do.pauli_action(U) @ do.pauli_action(V))
            assert np.array_equal(got, stt._signed_action(U @ V))
            # a stack of actions composes row by row
            assert np.array_equal(stt._compose_actions(np.stack([a, b]), b),
                                  [got, stt._compose_actions(b, b)])


# ---------------------------------------------------------------------------
# the stacked certificate against the per-state one it replaced

def ref_is_nonnegative(table, tol=1e-9):
    pts = pa.all_points(table.spec.d, table.spec.n)
    offending = [(p, float(v)) for p, v in zip(pts, table.values) if v < -tol]
    if table.imag_residue > tol:
        offending.append((("imag_residue",), table.imag_residue))
    return (len(offending) == 0, offending)


def ref_is_coset_indicator(table, tol=1e-9):
    supp = [p for p in pa.all_points(table.spec.d, table.spec.n) if abs(table.value(p)) > tol]
    vals = [table.value(p) for p in supp]
    if not vals or max(vals) - min(vals) > tol or abs(sum(vals) - 1) > tol:
        return False
    d, n = table.spec.d, table.spec.n
    diffs = np.array(supp, dtype=np.int64) - np.array(supp[0], dtype=np.int64)
    U = pa.Subspace.from_generators(diffs, d, n)
    return d**U.dim == len(supp) and set(pa.coset_members(U, supp[0])) == set(supp)


def ref_is_spekkens_subtheory(sub):
    """The certificate one state at a time: a table per state and per
    dual, closure and covariance per generator through the public calls."""
    report = {"name": sub.name, "d": sub.d, "n": sub.n}
    cex = None
    for gen in sub.gate_generators:
        ok, idx = stt.permutes_states(gen.matrix, sub.states)
        if not ok:
            cex = {"gate": gen.label(), "state_index": idx}
            break
    report["closure"] = {"passed": cex is None, "counterexample": cex}

    neg_witness = None
    coset_fail = None
    for i, psi in enumerate(sub.states):
        table = wg.wigner_of_state(psi, sub.spec)
        ok, off = ref_is_nonnegative(table)
        if not ok and neg_witness is None:
            neg_witness = {"state_index": i, "offending": off[:3]}
        if not ref_is_coset_indicator(table) and coset_fail is None:
            coset_fail = {"state_index": i}
    dual_witness = None
    for lam in sub.observables:
        if not any(lam) or dual_witness is not None:
            continue
        for k, P in enumerate(do.label_projectors(lam, sub.d)):
            ok, off = ref_is_nonnegative(wg.wigner_of_state(P, sub.spec))
            if not ok:
                name = do.label_name(lam, sub.d)
                dual_witness = {"observable": name, "outcome": k, "offending": off[:3]}
                break
    report["nonnegativity"] = {
        "passed": neg_witness is None and dual_witness is None,
        "state_witness": neg_witness,
        "dual_witness": dual_witness,
        "coset_indicator_failure": coset_fail,
    }

    cov = {"passed": True, "witnesses": {}, "failures": []}
    for gen in sub.gate_generators:
        try:
            witness, how = wg.covariance_witness(gen.matrix, sub.spec, sub.states)
        except GuardExceeded:
            witness, how = None, "guard-exceeded"
        if witness is None:
            cov["passed"] = False
            cov["failures"].append({"gate": gen.label(), "mode": how})
        else:
            cov["witnesses"][gen.label()] = {
                "S": witness.S.tolist(), "a": witness.a.tolist(), "mode": how,
            }
    report["covariance"] = cov
    report["passed"] = bool(
        report["closure"]["passed"] and report["nonnegativity"]["passed"] and cov["passed"]
    )
    return report


def _planted(base, name, states=None, spec=None, observables=None):
    return stt.Subtheory(
        name,
        spec or base.spec,
        (lambda: base.states) if states is None else (lambda: states),
        base.gate_generators,
        base.observables if observables is None else observables,
    )


def _with_spec(sub, construction):
    """The subtheory with its Wigner construction swapped for the named
    one, its observables kept."""
    return dataclasses.replace(sub, spec=wg.spec_by_name(construction, sub.d, sub.n))


def _one_state_census(construction="delfosse-rebit"):
    # {|0>} under full-qubit n=1: its one table does not separate points
    base = _with_spec(stt.full_qubit_stabilizer_subtheory(1), construction)
    return _planted(base, "one-state", states=(do.basis_state([0]),))


def _bloch_state(x, y, z):
    """The pure qubit state with Bloch vector (x, y, z)."""
    rho = (np.eye(2) + x * do.pauli_op("X") + y * do.pauli_op("Y") + z * do.pauli_op("Z")) / 2
    vals, vecs = np.linalg.eigh(rho)
    return vecs[:, -1]


def _negative_state_appended():
    # |x| + |z| > 1: the real magic state cos(pi/8)|0> + sin(pi/8)|1>
    base = stt.minimal_rebit_subtheory(1)
    return _planted(base, "negative-state", base.states + (_bloch_state(0.5**0.5, 0, 0.5**0.5),))


def _non_coset_state_appended():
    # a non-negative table (|x| + |z| <= 1) that is not uniform on its support
    base = stt.minimal_rebit_subtheory(1)
    psi = _bloch_state(0.3, np.sqrt(1 - 0.18), 0.3)
    return _planted(base, "non-coset-state", base.states + (psi,))


def _failing_dual(n):
    # the factorisable construction gives Y's projectors an imaginary residue
    base = stt.minimal_rebit_subtheory(n)
    return _planted(
        base, "y-duals", spec=wg.factorisable_rebit_spec(n),
        observables=tuple(pa.all_points(2, n)),
    )


CERTIFICATE_CASES = {
    **{f"minimal-rebit-{n}": (lambda n=n: stt.minimal_rebit_subtheory(n)) for n in (1, 2, 3)},
    **{f"css-rebit-{n}": (lambda n=n: stt.css_rebit_subtheory(n)) for n in (1, 2)},
    **{f"full-qubit-{n}": (lambda n=n: stt.full_qubit_stabilizer_subtheory(n)) for n in (1, 2)},
    "full-qubit-1-factorisable": lambda: _with_spec(
        stt.full_qubit_stabilizer_subtheory(1), "factorisable-rebit"),
    **{f"qudit-d3-{n}": (lambda n=n: stt.qudit_stabilizer_subtheory(3, n)) for n in (1, 2)},
    "negative-state": _negative_state_appended,
    "non-coset-state": _non_coset_state_appended,
    "failing-dual-1": lambda: _failing_dual(1),
    "failing-dual-2": lambda: _failing_dual(2),
}


def _emitted(report):
    """The report's text as the CLI writes it: floats rounded to 12 places.
    The stacked tables may differ from one-row tables in the last bit."""
    from spektoy.cli import _write_json

    return "".join(_write_json(report, []))


class TestStackedCertificate:
    @pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
    def test_matches_the_per_state_certificate(self, case):
        sub = CERTIFICATE_CASES[case]()
        got, ref = stt.is_spekkens_subtheory(sub), ref_is_spekkens_subtheory(sub)
        assert _emitted(got) == _emitted(ref)
        # everything but the offending values is equal as it stands
        for part in ("closure", "covariance", "passed"):
            assert got[part] == ref[part]
        for key in ("passed", "coset_indicator_failure"):
            assert got["nonnegativity"][key] == ref["nonnegativity"][key]

    def test_planted_failures_are_reported(self):
        neg = stt.is_spekkens_subtheory(_negative_state_appended())["nonnegativity"]
        assert neg["state_witness"]["state_index"] == 4
        assert neg["coset_indicator_failure"] == {"state_index": 4}
        non_coset = stt.is_spekkens_subtheory(_non_coset_state_appended())["nonnegativity"]
        assert non_coset["state_witness"] is None
        assert non_coset["coset_indicator_failure"] == {"state_index": 4}
        dual = stt.is_spekkens_subtheory(_failing_dual(1))["nonnegativity"]
        assert dual["dual_witness"]["observable"] == "Y"
        assert dual["dual_witness"]["offending"][0][0] == ("imag_residue",)
        assert not dual["passed"]

    def test_guard_exceeded_matches(self, monkeypatch):
        monkeypatch.setattr(pa, "AFFINE_ENUM_GUARD", 1)
        for sub in (_one_state_census(), _one_state_census("factorisable-rebit")):
            got, ref = stt.is_spekkens_subtheory(sub), ref_is_spekkens_subtheory(sub)
            assert _emitted(got) == _emitted(ref)
            assert {"gate": "S(0)", "mode": "guard-exceeded"} in got["covariance"]["failures"]

    @pytest.mark.parametrize("guard", [None, 1])
    def test_one_table_stack_per_state_set(self, guard, monkeypatch):
        # the census and the duals are tabulated once each; the generators'
        # images are tabulated once per block (here one block of four),
        # before the guard, and past the guard no candidate is compared
        if guard is not None:
            monkeypatch.setattr(pa, "AFFINE_ENUM_GUARD", guard)
        calls, compared = [], []
        tables, covariant = wg._tables, wg._covariant

        def counted(states, spec):
            calls.append(states.shape)
            return tables(states, spec)

        def counted_covariant(before, after, codes):
            compared.append(codes.shape)
            return covariant(before, after, codes)

        monkeypatch.setattr(wg, "_tables", counted)
        monkeypatch.setattr(wg, "_covariant", counted_covariant)
        sub = _one_state_census()
        rep = stt.is_spekkens_subtheory(sub)
        modes = {gate: w["mode"] for gate, w in rep["covariance"]["witnesses"].items()}
        assert modes == {"X(0)": "transport", "Z(0)": "transport", "H(0)": "transport"} | (
            {} if guard else {"S(0)": "exhaustive"}
        )
        assert calls == [(1, 2), (4, 2, 2), (4, 2)]
        # one comparison of the block's transport witnesses, then S(0)'s
        # candidates one by one only within the guard
        if guard:
            assert compared == [(4, 4)]
        else:
            assert compared[0] == (4, 4) and set(compared[1:]) == {(4,)}

    def test_one_image_stack_per_block(self, monkeypatch):
        calls = []
        tables = wg._tables

        def counted(states, spec):
            calls.append(states.shape)
            return tables(states, spec)

        monkeypatch.setattr(wg, "_tables", counted)
        sub = stt.css_rebit_subtheory(2)
        assert stt.is_spekkens_subtheory(sub)["passed"]
        # all seven generators fit one block: 7 x 20 images in one call
        assert calls == [(20, 4), (12, 4, 4), (20 * len(sub.gate_generators), 4)]


def _block_bound(sub, k):
    """The _TABLE_BLOCK at which is_closed takes k generators per block."""
    return k * max(sub.d ** (2 * sub.n), len(sub.states)) ** 2


class TestCertificateBlocks:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
    def test_reports_do_not_depend_on_the_block(self, case, k, monkeypatch):
        sub = CERTIFICATE_CASES[case]()
        want = _emitted(stt.is_spekkens_subtheory(sub))
        bound = _block_bound(sub, k)
        monkeypatch.setattr(wg, "_TABLE_BLOCK", bound)
        calls, stacks = [], []
        tables, actions = wg._tables, wg._phase_space_actions

        def counted_tables(states, spec):
            calls.append(states.shape)
            return tables(states, spec)

        def counted_actions(Us, spec):
            stacks.append(len(Us))
            return actions(Us, spec)

        monkeypatch.setattr(wg, "_tables", counted_tables)
        monkeypatch.setattr(wg, "_phase_space_actions", counted_actions)
        assert _emitted(stt.is_spekkens_subtheory(sub)) == want
        # blocks of k generators in order, the last one possibly shorter;
        # past the census and dual tables, one image table call per block
        gens = len(sub.gate_generators)
        assert stacks == [min(k, gens - lo) for lo in range(0, gens, k)]
        size = sub.d ** (2 * sub.n)
        assert calls[2:] == [(m * len(sub.states), sub.d**sub.n) for m in stacks]
        # per block: the transported stack, the image tables, the overlaps
        s = len(sub.states)
        assert all(max(m * size * size, m * s * size, m * s * s) <= bound for m in stacks)

    @pytest.mark.parametrize("k", [2, 3])
    def test_closure_breaker_second_in_its_block(self, k, monkeypatch):
        base = stt.minimal_rebit_subtheory(2)
        h = stt.GateGen("H", (0,), do.gate("H", (0,), 2))
        sub = dataclasses.replace(
            base, gate_generators=base.gate_generators[:1] + (h,) + base.gate_generators[1:])
        monkeypatch.setattr(wg, "_TABLE_BLOCK", _block_bound(sub, k))
        got, ref = stt.is_spekkens_subtheory(sub), ref_is_spekkens_subtheory(sub)
        assert got["closure"]["counterexample"]["gate"] == "H(0)"
        assert got["closure"] == ref["closure"]
        assert stt.is_closed(sub) == (False, ref["closure"]["counterexample"])
        assert _emitted(got) == _emitted(ref)
