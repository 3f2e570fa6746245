import math

import numpy as np
import pytest

from spektoy import dense_oracle as do
from spektoy import witness as wit
from spektoy.errors import DimensionMismatch


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
        ctrl = wit.control_square_all_plus()
        assert ctrl["satisfying"] > 0
        assert ctrl["example"] is not None
        # the all-plus-one assignment works
        assert all(v == 1 for v in {w: 1 for w in ctrl["example"]}.values())

    def test_control_example_is_all_plus_one(self):
        ctrl = wit.control_square_all_plus()
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


class TestSVariantSquare:
    def test_reconstruction(self):
        rep = wit.peres_mermin_s_variant()
        assert rep["found"]
        words = {w for row in rep["grid"] for w in row}
        assert len(words) == 9
        assert (rep["row_signs"] + rep["col_signs"]).count(-1) % 2 == 1

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

    def test_direct_cz_variant_matches(self):
        rep = wit.peres_mermin_circuit(do.plus_state(2), "row3", use_injected_cz=False)
        assert rep["product_matches_sign"]
        # direct CZ still audits clean because it is marked as injected
        assert rep["audit"]["clean"]
        assert rep["audit"]["tier2_gates"].get("CZ", 0) == 3


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
