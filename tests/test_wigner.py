import dataclasses
import itertools

import numpy as np
import pytest

from spektoy import dense_oracle as do
from spektoy import equivalence as eqv
from spektoy import phase_algebra as pa
from spektoy import subtheory as stt
from spektoy import wigner as wg
from spektoy.errors import AuditError, DimensionMismatch, GuardExceeded
from sp_enumeration import symplectic_matrices
from test_subtheory import CERTIFICATE_CASES


I2 = np.eye(2)
X = do.gate("X", (0,), 1)
Y = do.gate("Y", (0,), 1)
Z = do.gate("Z", (0,), 1)


class TestWeyl:
    def test_origin_is_identity(self):
        for spec in (wg.factorisable_rebit_spec(1), wg.gross_spec(3, 1)):
            assert np.allclose(wg.weyl((0,) * 2, spec), np.eye(spec.d))

    def test_rebit_no_prefactor(self):
        spec = wg.delfosse_rebit_spec(1)
        assert np.allclose(wg.weyl((1, 1), spec), Z @ X)

    def test_gross_prefactor_sign(self):
        # with the minus shift convention the group-consistent prefactor is
        # chi(+2^{-1} q.p); chi(-2^{-1} q.p) breaks T(t mu) = T(mu)^t
        spec = wg.gross_spec(3, 1)
        inv2 = pow(2, -1, 3)
        expected = do.chi(inv2, 3) * do.pauli([1], [1], 3)
        assert np.allclose(wg.weyl((1, 1), spec), expected)

    @pytest.mark.parametrize("lam", list(itertools.product(range(3), repeat=2)))
    def test_gross_group_structure(self, lam):
        spec = wg.gross_spec(3, 1)
        T = wg.weyl(lam, spec)
        for t in range(3):
            scaled = tuple((t * x) % 3 for x in lam)
            assert np.allclose(
                np.linalg.matrix_power(T, t), wg.weyl(scaled, spec), atol=1e-12
            )

    def test_gross_requires_odd_d(self):
        with pytest.raises(DimensionMismatch):
            wg.gross_spec(2, 1)


class TestSpecNames:
    def test_restricted_follows_the_name(self):
        for n in (1, 2):
            assert wg.WignerSpec("delfosse-rebit", 2, n) == wg.delfosse_rebit_spec(n)
            assert wg.delfosse_rebit_spec(n).restricted
            assert not wg.factorisable_rebit_spec(n).restricted
            assert not wg.gross_spec(3, n).restricted

    def test_restricted_is_not_settable(self):
        with pytest.raises(TypeError):
            wg.WignerSpec("factorisable-rebit", 2, 1, restricted=True)

    @pytest.mark.parametrize("make", [wg.WignerSpec, wg.spec_by_name])
    def test_unknown_name_rejected(self, make):
        with pytest.raises(DimensionMismatch, match="unknown construction 'nonsense'; choose"):
            make("nonsense", 2, 1)

    @pytest.mark.parametrize(
        "name,d,message",
        [
            ("delfosse-rebit", 3, "delfosse-rebit requires d=2"),
            ("factorisable-rebit", 5, "factorisable-rebit requires d=2"),
            ("gross", 2, "gross construction requires odd d"),
        ],
    )
    def test_d_must_fit_the_name(self, name, d, message):
        for make in (wg.WignerSpec, wg.spec_by_name):
            with pytest.raises(DimensionMismatch, match=message):
                make(name, d, 1)

    def test_spec_by_name_ignores_case(self):
        assert wg.spec_by_name("Delfosse-Rebit", 2, 2) == wg.delfosse_rebit_spec(2)


class TestStackGuard:
    @pytest.mark.parametrize("d,n", [(2, 5), (3, 3), (5, 2)])
    def test_largest_stacks_allowed(self, d, n):
        wg._stack_guard(wg.WignerSpec("gross" if d > 2 else "delfosse-rebit", d, n))

    @pytest.mark.parametrize("d,n", [(2, 6), (3, 4), (5, 3)])
    def test_raises_before_building(self, d, n, monkeypatch):
        def unreachable(*args):
            raise AssertionError("stack built past the guard")

        spec = wg.WignerSpec("gross" if d > 2 else "delfosse-rebit", d, n)
        for owner, attr in ((wg, "weyl"), (pa, "all_points")):
            monkeypatch.setattr(owner, attr, unreachable)
        with pytest.raises(GuardExceeded, match="phase-point stack has"):
            wg._phase_point_stack(spec)


class TestPhasePoint:
    def test_factorisable_origin(self):
        A = wg.phase_point((0, 0), wg.factorisable_rebit_spec(1))
        assert np.allclose(2 * A, I2 + X + Z + 1j * Y, atol=1e-12)

    def test_unit_trace_everywhere(self):
        for spec in (
            wg.factorisable_rebit_spec(2),
            wg.delfosse_rebit_spec(2),
            wg.gross_spec(3, 1),
        ):
            for lam in pa.all_points(spec.d, spec.n):
                assert abs(np.trace(wg.phase_point(lam, spec)) - 1) < 1e-12

    def test_factorisable_tensor_structure(self):
        one = wg.factorisable_rebit_spec(1)
        two = wg.factorisable_rebit_spec(2)
        for l1 in pa.all_points(2, 1):
            for l2 in pa.all_points(2, 1):
                assert np.allclose(
                    wg.phase_point(l1 + l2, two),
                    np.kron(wg.phase_point(l1, one), wg.phase_point(l2, one)),
                    atol=1e-12,
                )

    def test_restricted_label_set_n2(self):
        spec = wg.delfosse_rebit_spec(2)
        names = sorted(do.label_name(lam, 2) for lam in spec.labels())
        assert names == sorted(
            ["II", "IX", "IZ", "XI", "ZI", "XX", "ZZ", "XZ", "ZX", "YY"]
        )

    def test_hermiticity(self):
        for lam in pa.all_points(2, 2):
            Ar = wg.phase_point(lam, wg.delfosse_rebit_spec(2))
            assert np.allclose(Ar, Ar.conj().T, atol=1e-12)
        for lam in pa.all_points(3, 1):
            Ag = wg.phase_point(lam, wg.gross_spec(3, 1))
            assert np.allclose(Ag, Ag.conj().T, atol=1e-12)
        Af = wg.phase_point((0, 0), wg.factorisable_rebit_spec(1))
        assert not np.allclose(Af, Af.conj().T, atol=1e-6)


class TestTables:
    def test_ground_state_both_rebit_specs(self):
        for spec in (wg.factorisable_rebit_spec(1), wg.delfosse_rebit_spec(1)):
            t = wg.wigner_of_state(do.basis_state([0]), spec)
            assert t.support() == ((0, 0), (0, 1))
            assert abs(t.value((0, 0)) - 0.5) < 1e-12

    def test_gross_ground_state(self):
        t = wg.wigner_of_state(do.basis_state([0], 3), wg.gross_spec(3, 1))
        assert t.support() == ((0, 0), (0, 1), (0, 2))
        assert abs(t.value((0, 1)) - 1 / 3) < 1e-12

    def test_tables_sum_to_one(self):
        rng = np.random.default_rng(0)
        for spec in (wg.factorisable_rebit_spec(2), wg.gross_spec(3, 1)):
            psi = rng.normal(size=spec.d**spec.n) + 1j * rng.normal(size=spec.d**spec.n)
            psi /= np.linalg.norm(psi)
            assert abs(wg.wigner_of_state(psi, spec).total() - 1) < 1e-9

    def test_cz_resource_state_is_negative(self):
        spec = wg.delfosse_rebit_spec(2)
        t = wg.wigner_of_state(do.parse_state_spec("CZ|++>"), spec)
        ok, offending = wg.is_nonnegative(t)
        assert not ok and len(offending) == 4

    def test_double_t_magic_is_negative(self):
        spec = wg.delfosse_rebit_spec(2)
        tt = np.kron(do.parse_state_spec("T|+>"), do.parse_state_spec("T|+>"))
        assert not wg.is_nonnegative(wg.wigner_of_state(tt, spec))[0]

    def test_single_site_magic_is_invisible_at_n1(self):
        # the Y component of a single qubit does not couple to the n=1
        # Hermitian labels {I, X, Z}: these tables are non-negative
        spec = wg.delfosse_rebit_spec(1)
        for s in ("T|+>", "S|+>"):
            t = wg.wigner_of_state(do.parse_state_spec(s), spec)
            assert wg.is_nonnegative(t)[0]

    def test_y_eigenstate_under_factorisable_has_imag_residue(self):
        spec = wg.factorisable_rebit_spec(1)
        t = wg.wigner_of_state(do.parse_state_spec("S|+>"), spec)
        assert t.imag_residue > 0.2
        ok, offending = wg.is_nonnegative(t)
        assert not ok
        assert any(p == ("imag_residue",) for p, _ in offending)

    def test_epistemic_coset_tables_nonnegative(self):
        spec = wg.delfosse_rebit_spec(2)
        for psi in stt.minimal_rebit_subtheory(2).states:
            t = wg.wigner_of_state(psi, spec)
            assert wg.is_nonnegative(t)[0]
            assert wg.is_coset_indicator(t)


class TestMeasurementDuality:
    def test_identity_gives_uniform(self):
        spec = wg.factorisable_rebit_spec(1)
        t = wg.wigner_of_state(np.eye(2) / 2, spec)
        assert np.allclose(t.values, 0.25)

    def test_rank1_projector_matches_state_table(self):
        spec = wg.factorisable_rebit_spec(1)
        psi = do.basis_state([0])
        t_state = wg.wigner_of_state(psi, spec)
        t_meas = wg.wigner_of_state(np.outer(psi, psi.conj()), spec)
        assert np.allclose(t_state.values, t_meas.values, atol=1e-12)

    def test_bell_projector_table(self):
        spec = wg.delfosse_rebit_spec(2)
        bell = do.parse_state_spec("+XX,+ZZ")
        t = wg.wigner_of_state(np.outer(bell, bell.conj()), spec)
        assert wg.is_nonnegative(t)[0]
        assert len(t.support()) == 4


class TestHudsonDichotomy:
    """The real-amplitude census: non-negativity picks out exactly the
    X/Z-split states among real stabilizer states; complex stabilizer
    states have coarse-grained (mixture) tables that stay non-negative but
    are never sharp cosets."""

    def test_real_state_dichotomy_n2(self):
        spec = wg.delfosse_rebit_spec(2)
        reals = [s for s in stt.all_stabilizer_states(2, 2) if stt.is_real_state(s)]
        assert len(reals) == 24
        for psi in reals:
            nonneg = wg.is_nonnegative(wg.wigner_of_state(psi, spec))[0]
            assert nonneg == stt.is_css(psi, 2)

    def test_css_and_sharpness_over_all_sixty(self):
        spec = wg.delfosse_rebit_spec(2)
        states = stt.all_stabilizer_states(2, 2)
        assert len(states) == 60
        for psi in states:
            t = wg.wigner_of_state(psi, spec)
            sharp_and_nonneg = (
                wg.is_nonnegative(t)[0] and len(t.support()) == 4
            )
            assert sharp_and_nonneg == stt.is_css(psi, 2)

    def test_complex_states_have_mixture_tables(self):
        spec = wg.delfosse_rebit_spec(2)
        for psi in stt.all_stabilizer_states(2, 2):
            if stt.is_real_state(psi):
                continue
            t = wg.wigner_of_state(psi, spec)
            assert wg.is_nonnegative(t)[0]
            assert len(t.support()) == 8  # twice the sharp support


class TestCovariance:
    def test_identity_witness(self):
        spec = wg.factorisable_rebit_spec(1)
        states = [do.parse_state_spec(s) for s in ("0", "1", "+", "-")]
        g = wg.fit_covariance(np.eye(2, dtype=complex), spec, states)
        assert np.array_equal(g.S, np.eye(2, dtype=np.int64)) and not g.a.any()

    def test_cnot_witness_exists_delfosse(self):
        spec = wg.delfosse_rebit_spec(2)
        css = stt.minimal_rebit_subtheory(2).states
        g = wg.fit_covariance(do.gate("CNOT", (0, 1), 2), spec, css)
        assert g is not None
        assert wg.verify_covariance(do.gate("CNOT", (0, 1), 2), spec, css, g)

    def test_s_gate_has_no_witness_on_minimal_states(self):
        states = [do.parse_state_spec(s) for s in ("0", "1", "+", "-")]
        for spec in (wg.factorisable_rebit_spec(1), wg.delfosse_rebit_spec(1)):
            assert wg.fit_covariance(do.gate("S", (0,), 1), spec, states) is None

    def test_transport_agrees_with_exhaustive(self):
        spec = wg.delfosse_rebit_spec(2)
        css = stt.minimal_rebit_subtheory(2).states
        for name, wires in (("X", (0,)), ("Z", (1,)), ("CNOT", (0, 1))):
            U = do.gate(name, wires, 2)
            g1 = wg.phase_space_action(U, spec)
            assert g1 is not None
            assert wg.verify_covariance(U, spec, css, g1)
            g2 = wg.fit_covariance(U, spec, css)
            assert wg.verify_covariance(U, spec, css, g2)

    def test_covariance_witness_reports_its_mode(self):
        spec = wg.delfosse_rebit_spec(2)
        css = stt.minimal_rebit_subtheory(2).states
        U = do.gate("CNOT", (0, 1), 2)
        g, mode = wg.covariance_witness(U, spec, css)
        assert mode == "transport"
        assert g.key() == wg.phase_space_action(U, spec).key()
        assert wg.verify_covariance(U, spec, css, g)
        states = [do.parse_state_spec(s) for s in ("0", "1", "+", "-")]
        S = do.gate("S", (0,), 1)
        assert wg.covariance_witness(S, wg.delfosse_rebit_spec(1), states) == (None, "exhaustive")

    def test_gross_generators_pass_n1(self):
        spec = wg.gross_spec(3, 1)
        states = stt.all_stabilizer_states(3, 1)
        for name in ("F", "P", "X", "Z"):
            assert wg.fit_covariance(do.gate(name, (0,), 1, 3), spec, states) is not None


# ---------------------------------------------------------------------------
# the per-pair covariance path the stacked one replaced, kept as a reference


def ref_table_pairs(U, spec, state_set):
    Ud = U.conj().T
    for rho in state_set:
        dm = np.outer(rho, rho.conj()) if rho.ndim == 1 else rho
        yield (
            wg.wigner_of_state(rho, spec).values,
            wg.wigner_of_state(U @ dm @ Ud, spec).values,
        )


def ref_verify_covariance(U, spec, state_set, g):
    perm = wg._image_codes(g.S, g.a, spec.d)
    return all(
        np.allclose(after, before[perm], atol=1e-9)
        for before, after in ref_table_pairs(U, spec, state_set)
    )


def ref_fit_covariance(U, spec, state_set):
    d, n = spec.d, spec.n
    pairs = sorted(
        ref_table_pairs(U, spec, state_set),
        key=lambda pair: np.count_nonzero(np.abs(pair[1]) > 1e-9),
    )
    pts, _ = wg._lex(d, n)
    anchor_before, anchor_after = pairs[0]
    anchor_code = int(np.argmax(np.abs(anchor_after) > 1e-9))
    anchor_pt = pts[anchor_code]
    candidate_targets = pts[np.abs(anchor_before - anchor_after[anchor_code]) < 1e-9]
    for S in symplectic_matrices(n, d):
        base = (S @ anchor_pt) % d
        for target in candidate_targets:
            a = (target - base) % d
            perm = wg._image_codes(S, a, d)
            if all(np.allclose(after, before[perm], atol=1e-9) for before, after in pairs):
                return pa.AffineSymplectic(S.copy(), a, d)
    return None


def ref_phase_space_action(U, spec):
    """The all-pairs transport search that phase_space_action replaced:
    every transported phase-point operator against the whole stack."""
    d, n = spec.d, spec.n
    A = wg._phase_point_stack(spec)
    size = len(A)
    Ud = U.conj().T
    mapping = np.full(size, -1, dtype=np.int64)
    for i in range(size):
        img = Ud @ A[i] @ U
        hits = np.nonzero(np.abs(A - img).reshape(size, -1).max(axis=1) < 1e-9)[0]
        if hits.size != 1:
            return None
        mapping[i] = hits[0]
    if len(set(mapping.tolist())) != size:
        return None
    pts, weights = wg._lex(d, n)
    a = pts[mapping[0]]
    # column j of S is the image of e_j (lex code weights[j]) less a
    S = ((pts[mapping[weights]] - a) % d).T
    g = pa.AffineSymplectic(S, a, d)  # raises if not symplectic
    if not np.array_equal(wg._image_codes(g.S, g.a, d), mapping):
        return None
    return g


def ref_covariance_witness(U, spec, state_set):
    g = ref_phase_space_action(U, spec)
    if g is not None and ref_verify_covariance(U, spec, state_set, g):
        return g, "transport"
    return ref_fit_covariance(U, spec, state_set), "exhaustive"


def _key(witness):
    return None if witness is None else witness.key()


CENSUS_SPECS = [
    (wg.delfosse_rebit_spec(n), n) for n in (1, 2, 3)
] + [(wg.factorisable_rebit_spec(n), n) for n in (1, 2, 3)] + [
    (wg.gross_spec(3, n), n) for n in (1, 2)
]


def ref_wigner_of_state(rho, spec):
    """The per-state einsum formula the table kernel replaced: (normalised
    values, imaginary residue over the same normalisation)."""
    A = wg._phase_point_stack(spec)
    dm = np.outer(rho, rho.conj()) if rho.ndim == 1 else rho
    vals = np.einsum("kij,ji->k", A, dm)
    total = vals.real.sum()
    return vals.real / total, float(np.abs(vals.imag).max()) / abs(total)


def assert_rows_match_reference(states, spec):
    values, residues = wg._tables(np.stack(states), spec)
    assert values.shape == (len(states), spec.d ** (2 * spec.n))
    for rho, row, resid in zip(states, values, residues):
        ref_values, ref_resid = ref_wigner_of_state(rho, spec)
        assert np.abs(row - ref_values).max() <= 1e-12
        assert abs(resid - ref_resid) <= 1e-12
        table = wg.wigner_of_state(rho, spec)
        assert np.abs(table.values - ref_values).max() <= 1e-12
        assert abs(table.imag_residue - ref_resid) <= 1e-12


class TestStackedTables:
    @pytest.mark.parametrize(
        "spec,n", CENSUS_SPECS, ids=[f"{s.name}-n{n}" for s, n in CENSUS_SPECS]
    )
    def test_rows_equal_per_state_tables(self, spec, n):
        assert_rows_match_reference(stt.all_stabilizer_states(spec.d, n), spec)

    @pytest.mark.parametrize(
        "make", [stt.minimal_rebit_subtheory, stt.full_qubit_stabilizer_subtheory]
    )
    def test_density_matrix_rows(self, make):
        sub = make(2)
        keys, values, residues = stt._dual_tables(sub)
        labels = [lam for lam in sub.observables if any(lam)]
        projectors = [P for lam in labels for P in do.label_projectors(lam, sub.d)]
        assert keys == [(do.label_name(lam, sub.d), k) for lam in labels for k in range(sub.d)]
        assert len(projectors) == len(values) == len(residues)
        assert_rows_match_reference(projectors, sub.spec)
        for row, resid, P in zip(values, residues, projectors):
            ref_values, ref_resid = ref_wigner_of_state(P, sub.spec)
            assert np.abs(row - ref_values).max() <= 1e-12
            assert abs(resid - ref_resid) <= 1e-12

    def test_genuine_imaginary_residue(self):
        spec = wg.factorisable_rebit_spec(1)
        t_plus = do.parse_state_spec("T|+>")
        values, residues = wg._tables(t_plus[None], spec)
        assert residues[0] > 0.1
        assert_rows_match_reference([t_plus], spec)
        assert_rows_match_reference([np.outer(t_plus, t_plus.conj())], spec)

    def test_block_size_does_not_change_rows(self, monkeypatch):
        spec = wg.gross_spec(3, 2)
        psi = np.stack(stt.all_stabilizer_states(3, 2))
        whole, resid = wg._tables(psi, spec)
        monkeypatch.setattr(wg, "_TABLE_BLOCK", 1)
        blocked, blocked_resid = wg._tables(psi, spec)
        assert np.abs(blocked - whole).max() <= 1e-12
        assert np.abs(blocked_resid - resid).max() <= 1e-12

    def test_one_kernel_call_per_table_set(self, monkeypatch):
        calls = []
        tables = wg._tables

        def counted(states, spec):
            calls.append(states.shape)
            return tables(states, spec)

        monkeypatch.setattr(wg, "_tables", counted)
        spec = wg.delfosse_rebit_spec(2)
        css = stt.minimal_rebit_subtheory(2).states
        wg.wigner_of_state(css[0], spec)
        assert calls == [(1, 4)]
        mixed = [np.outer(psi, psi.conj()) for psi in css]
        wg._stacked_tables(mixed, spec, do.gate("CNOT", (0, 1), 2))
        assert calls[1:] == [(20, 4, 4)]

    def test_zero_sum_row_raises(self):
        spec = wg.delfosse_rebit_spec(1)
        psi = np.stack([do.basis_state([0]), np.zeros(2, dtype=complex)])
        with pytest.raises(DimensionMismatch, match="sums to zero"):
            wg._tables(psi, spec)
        with pytest.raises(DimensionMismatch, match="sums to zero"):
            wg.wigner_of_state(psi[1], spec)

    def test_density_matrix_sets_keep_the_per_state_rule(self):
        spec = wg.delfosse_rebit_spec(2)
        css = stt.minimal_rebit_subtheory(2).states
        mixed = [np.outer(psi, psi.conj()) for psi in css] + [np.eye(4) / 4]
        U = do.gate("CNOT", (0, 1), 2)
        g, _ = wg.covariance_witness(U, spec, css)
        assert wg.verify_covariance(U, spec, mixed, g)
        assert ref_verify_covariance(U, spec, mixed, g)
        assert _key(wg.fit_covariance(U, spec, mixed)) == _key(ref_fit_covariance(U, spec, mixed))


class TestStackedCovariance:
    def test_wrong_witness_fails(self):
        spec = wg.delfosse_rebit_spec(2)
        css = stt.minimal_rebit_subtheory(2).states
        U = do.gate("CNOT", (0, 1), 2)
        g, _ = wg.covariance_witness(U, spec, css)
        shifted = pa.AffineSymplectic(g.S, (g.a + np.eye(4, dtype=np.int64)[0]) % 2, 2)
        for wrong in (pa.AffineSymplectic.identity(2, 2), shifted):
            assert not wg.verify_covariance(U, spec, css, wrong)
            assert not ref_verify_covariance(U, spec, css, wrong)

    def test_covariance_tolerance_is_absolute(self):
        # the largest entry of these tables is 0.25, where numpy's default
        # rtol=1e-5 would forgive an error of 2.5e-6; 1e-7 is past atol=1e-9
        spec = wg.delfosse_rebit_spec(2)
        css = stt.minimal_rebit_subtheory(2).states
        U = do.gate("CNOT", (0, 1), 2)
        g, _ = wg.covariance_witness(U, spec, css)
        codes = wg._image_codes(g.S, g.a, g.d)
        before, after = wg._stacked_tables(css, spec), wg._stacked_tables(css, spec, U)
        assert np.abs(after).max() == pytest.approx(0.25)
        assert wg._covariant(before, after, codes)
        row, col = np.unravel_index(np.argmax(np.abs(after)), after.shape)
        off = after.copy()
        off[row, col] += 1e-7
        assert not wg._covariant(before, off, codes)

    def test_full_qubit_n1_search_finds_no_witness(self):
        sub = stt.full_qubit_stabilizer_subtheory(1)
        found = {}
        for gen in sub.gate_generators:
            g = wg.fit_covariance(gen.matrix, sub.spec, sub.states)
            assert _key(g) == _key(ref_fit_covariance(gen.matrix, sub.spec, sub.states))
            found[gen.name] = g
        assert found["S"] is None

    @pytest.mark.parametrize(
        "name,n,d",
        [
            ("minimal-rebit", 1, 2),
            ("minimal-rebit", 2, 2),
            ("minimal-rebit", 3, 2),
            ("qudit-stabilizer", 1, 3),
            ("qudit-stabilizer", 2, 3),
            ("css-rebit", 1, 2),
            ("css-rebit", 2, 2),
            ("css-rebit", 3, 2),
            ("full-qubit-stabilizer", 1, 2),
            ("full-qubit-stabilizer", 2, 2),
        ],
    )
    def test_host_gates_match_the_per_pair_path(self, name, n, d):
        # every generator (css-rebit's H* included) and every allowed gate
        # on every wire tuple: the transported action is the inverted
        # census witness, and an AuditError exactly where there is none
        host = eqv.host_model(name, n, d)
        spec, states = host.sub.spec, host.sub.states
        cases = [(g.name, g.wires, g.matrix) for g in host.sub.gate_generators]
        for gate in sorted(host.sub.allowed_gate_names - {"H*"}):
            for wires in itertools.permutations(range(n), do.gate_arity(gate, d)):
                cases.append((gate, wires, do.gate(gate, wires, n, d)))
        missing = set()
        for gate, wires, U in cases:
            g, mode = wg.covariance_witness(U, spec, states)
            ref_g, ref_mode = ref_covariance_witness(U, spec, states)
            assert (_key(g), mode) == (_key(ref_g), ref_mode), (gate, wires)
            if ref_g is None:
                missing.add(gate)
                with pytest.raises(AuditError, match="no covariant action"):
                    host.gate_action(gate, wires)
            else:
                assert host.gate_action(gate, wires).key() == ref_g.inverse().key()
        if name == "full-qubit-stabilizer":
            assert missing == ({"S"} if n == 1 else {"H", "S"})
        else:
            assert not missing


def census_search_cases():
    """(label, spec, states, U): every generator and every named-pool gate
    of the census hosts, and the pool on the four-state rebit sets and the
    mixed CSS set."""
    hosts = [
        make(n) for make in (stt.minimal_rebit_subtheory, stt.css_rebit_subtheory) for n in (1, 2)
    ]
    hosts += [
        dataclasses.replace(
            stt.full_qubit_stabilizer_subtheory(n), spec=wg.spec_by_name(name, 2, n))
        for n in (1, 2) for name in ("delfosse-rebit", "factorisable-rebit")
    ]
    hosts += [stt.qudit_stabilizer_subtheory(3, n) for n in (1, 2)]
    hosts.append(stt.qudit_stabilizer_subtheory(5, 1))
    sets = [(sub.name, sub.spec, sub.states, sub.gate_generators) for sub in hosts]
    sets += [(sub.name, sub.spec, sub.states, stt.named_gate_pool(sub.d, sub.n)) for sub in hosts]
    four = [do.parse_state_spec(s) for s in ("0", "1", "+", "-")]
    sets += [
        ("four-state", make(1), four, stt.named_gate_pool(2, 1))
        for make in (wg.delfosse_rebit_spec, wg.factorisable_rebit_spec)
    ]
    mixed = [np.outer(psi, psi.conj()) for psi in stt.minimal_rebit_subtheory(2).states]
    mixed.append(np.eye(4) / 4)
    sets.append(("mixed-css", wg.delfosse_rebit_spec(2), mixed, stt.named_gate_pool(2, 2)))
    return [
        (f"{name}/{spec.name}/n{spec.n}/{gen.label()}", spec, states, gen.matrix)
        for name, spec, states, gens in sets for gen in gens
    ]


def separates_points(before):
    """Whether no two phase points carry equal values in every table."""
    columns = np.round(before, 9).T
    return len(np.unique(columns, axis=0)) == len(columns)


def candidate_product(U, spec, states):
    before, after = wg._stacked_tables(states, spec), wg._stacked_tables(states, spec, U)
    return int(np.prod([len(c) for c in wg._fit_guard(before, after, spec)]))


def product_order_search(U, spec, states):
    """The first witness in the product order of the candidate lists, with
    one map built and checked per choice."""
    before, after = wg._stacked_tables(states, spec), wg._stacked_tables(states, spec, U)
    for codes in itertools.product(*wg._fit_guard(before, after, spec)):
        g = wg._affine_map(codes, spec.d, spec.n)
        if g is not None and wg._covariant(before, after, wg._image_codes(g.S, g.a, g.d)):
            return g
    return None


def random_subsets(d, n, count, seed):
    census = stt.all_stabilizer_states(d, n)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        idx = rng.choice(len(census), int(rng.integers(1, 4)), replace=False)
        yield [census[i] for i in idx]


def affine_symplectic_maps_n1(d):
    """Every affine symplectic map at n = 1, by brute force: 2x2 matrices
    filtered by S^T J S = J, with every translation."""
    J = pa.symplectic_form(1, d)
    maps = []
    for entries in itertools.product(range(d), repeat=4):
        S = np.array(entries, dtype=np.int64).reshape(2, 2)
        if not np.any((S.T @ J @ S - J) % d):
            translations = itertools.product(range(d), repeat=2)
            maps += [pa.AffineSymplectic(S, np.array(a), d) for a in translations]
    return maps


def brute_force_witnesses(U, spec, states, maps):
    """The maps that transport every table of states under U."""
    before, after = wg._stacked_tables(states, spec), wg._stacked_tables(states, spec, U)
    perms = np.array([wg._image_codes(g.S, g.a, spec.d) for g in maps])
    ok = (np.abs(before[:, perms] - after[:, None, :]) <= 1e-9).all(axis=(0, 2))
    return [g for g, hit in zip(maps, ok) if hit]


class TestBasisPointSearch:
    def test_census_sets_give_the_exhaustive_answers(self):
        cases = census_search_cases()
        assert len(cases) == 183
        for label, spec, states, U in cases:
            g, mode = wg.covariance_witness(U, spec, states)
            ref_g, ref_mode = ref_covariance_witness(U, spec, states)
            assert (_key(g), mode) == (_key(ref_g), ref_mode), label
            assert candidate_product(U, spec, states) <= 1, label

    @pytest.mark.parametrize(
        "spec,n", CENSUS_SPECS, ids=[f"{s.name}-n{n}" for s, n in CENSUS_SPECS]
    )
    def test_census_tables_separate_points(self, spec, n):
        assert separates_points(wg._stacked_tables(stt.all_stabilizer_states(spec.d, n), spec))

    @pytest.mark.parametrize(
        "spec,seed",
        [
            (wg.delfosse_rebit_spec(1), 1),
            (wg.factorisable_rebit_spec(1), 2),
            (wg.delfosse_rebit_spec(2), 3),
            (wg.factorisable_rebit_spec(2), 4),
            (wg.gross_spec(3, 1), 5),
        ],
        ids=lambda x: getattr(x, "name", x),
    )
    def test_non_separating_sets_give_the_reference_verdicts(self, spec, seed):
        # keys may differ where several witnesses exist; each must be valid
        pool = stt.named_gate_pool(spec.d, spec.n)
        verdicts = set()
        for states in random_subsets(spec.d, spec.n, 4, seed):
            for gen in pool:
                g, mode = wg.covariance_witness(gen.matrix, spec, states)
                ref_g, ref_mode = ref_covariance_witness(gen.matrix, spec, states)
                assert (g is None, mode) == (ref_g is None, ref_mode), gen.label()
                assert g is None or ref_verify_covariance(gen.matrix, spec, states, g)
                assert mode == "transport" or _key(g) == _key(
                    product_order_search(gen.matrix, spec, states))
                verdicts.add(g is None)
        assert False in verdicts

    @pytest.mark.parametrize("d", [2, 3])
    def test_complete_against_brute_force_at_n1(self, d):
        spec = wg.delfosse_rebit_spec(1) if d == 2 else wg.gross_spec(3, 1)
        census = stt.all_stabilizer_states(d, 1)
        maps = affine_symplectic_maps_n1(d)
        assert len(maps) == pa.sp_order(1, d) * d**2
        # the named pool and one non-Clifford phase gate, which has no witness
        gates = [gen.matrix for gen in stt.named_gate_pool(d, 1)]
        gates.append(np.diag([1, 1, np.exp(2j * np.pi / 9)][-d:]).astype(complex))
        verdicts = set()
        for k in (1, 2):
            for idx in itertools.combinations(range(len(census)), k):
                states = [census[i] for i in idx]
                if separates_points(wg._stacked_tables(states, spec)):
                    continue
                for U in gates:
                    brute = {_key(w) for w in brute_force_witnesses(U, spec, states, maps)}
                    g = wg.fit_covariance(U, spec, states)
                    assert (g is None) == (not brute)
                    assert g is None or _key(g) in brute
                    verdicts.add(g is None)
        assert verdicts == {True, False}

    def test_full_qubit_n3_failures_are_decided(self):
        cov = stt.is_spekkens_subtheory(stt.full_qubit_stabilizer_subtheory(3))["covariance"]
        assert cov["failures"] == [
            {"gate": f"{name}({w})", "mode": "exhaustive"} for w in range(3) for name in ("H", "S")
        ]

    def test_guard_reads_the_candidate_product(self, monkeypatch):
        # {|0>} at n=1: 2 candidates for each of the 3 basis points under S
        spec, states = wg.delfosse_rebit_spec(1), [do.basis_state([0])]
        S = do.gate("S", (0,), 1)
        assert candidate_product(S, spec, states) == 8
        tried = []
        affine_map = wg._affine_map

        def counted(codes, d, n):
            tried.append(codes)
            return affine_map(codes, d, n)

        monkeypatch.setattr(wg, "_affine_map", counted)
        monkeypatch.setattr(pa, "AFFINE_ENUM_GUARD", 8)
        assert wg.fit_covariance(S, spec, states) is not None
        assert tried
        tried.clear()
        monkeypatch.setattr(pa, "AFFINE_ENUM_GUARD", 7)
        with pytest.raises(GuardExceeded, match="needs 8 candidates; guard is 7"):
            wg.fit_covariance(S, spec, states)
        assert tried == []

    def test_search_builds_maps_for_complete_choices_only(self, monkeypatch):
        # (|01> + i|10>)/sqrt2 under S(0): 32,768 candidate choices, and no
        # choice of columns keeps the symplectic form, so the search builds
        # no map and certifies that no witness exists
        spec, states = wg.factorisable_rebit_spec(2), [stt.all_stabilizer_states(2, 2)[43]]
        assert np.allclose(states[0], np.array([0, 1, 1j, 0]) / np.sqrt(2), rtol=0, atol=1e-12)
        S = do.gate("S", (0,), 2)
        assert candidate_product(S, spec, states) == 32768
        built = []
        affine_map = wg._affine_map

        def counted(codes, d, n):
            built.append(codes)
            return affine_map(codes, d, n)

        monkeypatch.setattr(wg, "_affine_map", counted)
        assert wg.fit_covariance(S, spec, states) is None and built == []
        assert ref_fit_covariance(S, spec, states) is None

    def test_empty_state_set_raises(self):
        with pytest.raises(DimensionMismatch, match="nonempty"):
            wg.fit_covariance(X, wg.delfosse_rebit_spec(1), [])


def transport_cases(d, n):
    """Every gate of the named pool, plus T on each wire and CCZ(0, 1, 2)
    on qubits: the non-Clifford gates, whose transport must not close."""
    cases = [(gen.label(), gen.matrix) for gen in stt.named_gate_pool(d, n)]
    if d == 2:
        cases += [(f"T({w})", do.gate("T", (w,), n)) for w in range(n)]
        if n == 3:
            cases.append(("CCZ(0,1,2)", do.gate("CCZ", (0, 1, 2), n)))
    return cases


class TestTransport:
    @pytest.mark.parametrize(
        "spec,n", CENSUS_SPECS, ids=[f"{s.name}-n{n}" for s, n in CENSUS_SPECS]
    )
    def test_matches_the_all_pairs_search(self, spec, n):
        found = 0
        for label, U in transport_cases(spec.d, n):
            g = wg.phase_space_action(U, spec)
            assert _key(g) == _key(ref_phase_space_action(U, spec)), label
            found += g is not None
        assert found > 0

    def test_searches_the_stack_for_the_basis_points_only(self, monkeypatch):
        # for a stack of three gates: the 2n + 1 basis images of each
        # compared entry by entry with their one near stack row each, then
        # the one stacked check of every transported operator of the block
        spec = wg.delfosse_rebit_spec(3)
        gates = [do.gate(name, wires, 3) for name, wires in
                 (("CNOT", (0, 2)), ("X", (1,)), ("CNOT", (1, 0)))]
        searched = []
        real_abs = np.abs

        def counted_abs(x, *args, **kwargs):
            searched.append(np.shape(x))
            return real_abs(x, *args, **kwargs)

        monkeypatch.setattr(wg.np, "abs", counted_abs)
        found, _ = wg._phase_space_actions(np.stack(gates), spec)
        monkeypatch.undo()
        assert [_key(g) for g in found] == [_key(ref_phase_space_action(U, spec)) for U in gates]
        assert searched == [(3 * (2 * 3 + 1), 64), (3, 64, 8, 8)]

    def test_four_rebit_host_transports_every_generator(self):
        # n=4, where the all-pairs search took about 0.1 s per gate
        host = eqv.host_model.__wrapped__("minimal-rebit", 4)  # fresh gate cache
        for gen in host.sub.gate_generators:
            g = host.gate_action(gen.name, gen.wires)
            assert g.inverse().key() == ref_phase_space_action(gen.matrix, host.sub.spec).key()
        rep = eqv.check_random_equivalence(host, 5, seed=16)
        assert rep["max_deviation"] <= 1e-9, rep


def random_unitary(rng, dim):
    """A Haar-random unitary: not a Clifford, so its transport never closes."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def assert_stack_matches_reference(gates, spec):
    """Each entry of the stacked transport against the per-gate all-pairs
    search, and each witness's codes against _image_codes."""
    found, codes = wg._phase_space_actions(np.stack(gates), spec)
    assert [_key(g) for g in found] == [_key(ref_phase_space_action(U, spec)) for U in gates]
    for g, row in zip(found, codes):
        if g is not None:
            assert np.array_equal(row, wg._image_codes(g.S, g.a, spec.d))
    return found


POOL_SPECS = [make(n) for make in (wg.delfosse_rebit_spec, wg.factorisable_rebit_spec)
              for n in (1, 2)] + [wg.gross_spec(3, n) for n in (1, 2)]


class TestStackedTransport:
    @pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
    def test_every_certificate_generator(self, case):
        sub = CERTIFICATE_CASES[case]()
        found = assert_stack_matches_reference([g.matrix for g in sub.gate_generators], sub.spec)
        # the stack is the one-entry transport, entry by entry
        for gen, g in zip(sub.gate_generators, found):
            assert _key(wg.phase_space_action(gen.matrix, sub.spec)) == _key(g)

    @pytest.mark.parametrize("spec", POOL_SPECS, ids=lambda s: f"{s.name}-n{s.n}")
    def test_named_gate_pool_with_a_random_unitary_inside(self, spec):
        pool = [gen.matrix for gen in stt.named_gate_pool(spec.d, spec.n)]
        rng = np.random.default_rng([spec.d, spec.n, len(pool)])
        mid = len(pool) // 2
        gates = pool[:mid] + [random_unitary(rng, spec.d**spec.n)] + pool[mid:]
        found = assert_stack_matches_reference(gates, spec)
        assert found[mid] is None and any(g is not None for g in found)

    def test_guard_exceeded_is_a_mode(self, monkeypatch):
        # {|0>} under S: 8 candidates past a guard of 7, decided per gate
        spec, states = wg.delfosse_rebit_spec(1), [do.basis_state([0])]
        monkeypatch.setattr(pa, "AFFINE_ENUM_GUARD", 7)
        S, X = do.gate("S", (0,), 1), do.gate("X", (0,), 1)
        assert wg.covariance_witness(S, spec, states) == (None, "guard-exceeded")
        before = wg._stacked_tables(states, spec)
        after = np.stack([wg._stacked_tables(states, spec, U) for U in (S, X)])
        (g_s, mode_s), (g_x, mode_x) = wg._covariance_witness(np.stack([S, X]), spec, before, after)
        assert (g_s, mode_s) == (None, "guard-exceeded")
        assert mode_x == "transport" and _key(g_x) == _key(ref_phase_space_action(X, spec))

    def test_failing_s_beside_passing_generators(self):
        spec = wg.delfosse_rebit_spec(1)
        gates = [do.gate(name, (0,), 1) for name in ("X", "S", "Z")]
        found = assert_stack_matches_reference(gates, spec)
        assert [g is None for g in found] == [False, True, False]


class TestTransitionMatrices:
    def test_identity_is_identity_permutation(self):
        spec = wg.factorisable_rebit_spec(1)
        states = [do.parse_state_spec(s) for s in ("0", "1", "+", "-")]
        tm = wg.transition_matrix(np.eye(2, dtype=complex), spec, states)
        assert np.allclose(tm.matrix, np.eye(4))

    def test_x_gate_translation(self):
        spec = wg.factorisable_rebit_spec(1)
        states = [do.parse_state_spec(s) for s in ("0", "1", "+", "-")]
        tm = wg.transition_matrix(do.gate("X", (0,), 1), spec, states)
        assert tm.is_permutation()
        assert not np.allclose(tm.matrix, np.eye(4))

    def test_cnot_16x16_permutation(self):
        spec = wg.delfosse_rebit_spec(2)
        css = stt.minimal_rebit_subtheory(2).states
        tm = wg.transition_matrix(do.gate("CNOT", (0, 1), 2), spec, css)
        assert tm.matrix.shape == (16, 16)
        assert tm.is_permutation()

    def test_found_witness_is_checked_once(self, monkeypatch):
        spec = wg.delfosse_rebit_spec(2)
        css = stt.minimal_rebit_subtheory(2).states
        assert len(css) == 20
        rows = []
        tables = wg._tables

        def counted(psi, spec):
            rows.append(len(psi))
            return tables(psi, spec)

        monkeypatch.setattr(wg, "_tables", counted)
        wg.transition_matrix(do.gate("CNOT", (0, 1), 2), spec, css)
        # one before- and one after-row per state, all inside covariance_witness
        assert sum(rows) == 40

    def test_wrong_supplied_witness_raises(self):
        spec = wg.delfosse_rebit_spec(2)
        css = stt.minimal_rebit_subtheory(2).states
        identity = pa.AffineSymplectic.identity(2, 2)
        with pytest.raises(AssertionError):
            wg.transition_matrix(do.gate("CNOT", (0, 1), 2), spec, css, identity)

    def test_no_witness_raises(self):
        spec = wg.delfosse_rebit_spec(1)
        states = [do.parse_state_spec(s) for s in ("0", "1", "+", "-")]
        with pytest.raises(DimensionMismatch):
            wg.transition_matrix(do.gate("S", (0,), 1), spec, states)


class TestHermitianPartEquivalence:
    def test_hermitian_input_unchanged(self):
        assert np.allclose(wg.hermitian_part(X), X)

    def test_single_site_example(self):
        Af = wg.phase_point((0, 0), wg.factorisable_rebit_spec(1))
        assert np.allclose(2 * wg.hermitian_part(Af), I2 + X + Z, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equivalence_report(self, n):
        rep = wg.verify_hermitian_equivalence(n)
        assert rep["operator_identity"]
        assert rep["table_agreement"]
        assert rep["hermitian_criterion"]
        assert rep["counterexamples"] == []

    def test_css_state_count_n2(self):
        assert wg.verify_hermitian_equivalence(2)["css_state_count"] == 20

    def test_hermiticity_criterion_instance(self):
        # Z on wire 0 times X on wire 1: q.p = 0, Hermitian
        T = wg.weyl((0, 1, 1, 0), wg.factorisable_rebit_spec(2))
        assert np.allclose(T, T.conj().T, atol=1e-12)


class TestGrossStabilizerTables:
    @pytest.mark.parametrize("n", [1, 2])
    def test_all_tables_are_sharp_cosets(self, n):
        spec = wg.gross_spec(3, n)
        for psi in stt.all_stabilizer_states(3, n):
            t = wg.wigner_of_state(psi, spec)
            assert wg.is_nonnegative(t)[0]
            assert wg.is_coset_indicator(t)
            assert len(t.support()) == 3**n

    def test_random_gate_compositions_stay_covariant(self):
        spec = wg.gross_spec(3, 1)
        states = stt.all_stabilizer_states(3, 1)
        rng = np.random.default_rng(9)
        names = ["F", "P", "X", "Z"]
        for _ in range(10):
            U = np.eye(3, dtype=complex)
            for _ in range(5):
                U = do.gate(names[rng.integers(0, 4)], (0,), 1, 3) @ U
            assert wg.fit_covariance(U, spec, states) is not None


class TestLargerPrime:
    """d=5 smoke: the odd-d construction is not hard-wired to d=3."""

    def test_single_site_tables_and_covariance(self):
        spec = wg.gross_spec(5, 1)
        states = stt.all_stabilizer_states(5, 1)
        assert len(states) == 30
        for psi in states:
            t = wg.wigner_of_state(psi, spec)
            assert wg.is_nonnegative(t)[0]
            assert wg.is_coset_indicator(t)
            assert len(t.support()) == 5
        for name in ("F", "P", "X", "Z"):
            assert wg.fit_covariance(do.gate(name, (0,), 1, 5), spec, states) is not None


class TestDualRouteCssEnumeration:
    """The exact X/Z-split filter on the census and the observable-recipe
    route must enumerate the same states, each CSS by the dense test."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_same_state_sets(self, n):
        via_recipe = stt.allowed_states(wg.delfosse_rebit_spec(n))
        via_split = stt.css_states(n)
        assert len(via_recipe) == len(via_split)
        for psi in via_split:
            assert stt.is_css(psi, n)
            assert any(do.states_equal(psi, s) for s in via_recipe)

    def test_counts(self):
        assert len(stt.css_states(1)) == 4
        assert len(stt.css_states(2)) == 20
        assert len(stt.css_states(3)) == 128
