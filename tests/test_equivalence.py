import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spektoy import dense_oracle as do
from spektoy import equivalence as eqv
from spektoy import phase_algebra as pa
from spektoy import subtheory as stt
from spektoy import toy_model as toy
from spektoy import wigner as wg
from spektoy.circuits import branch_tree, parse_circuit
from spektoy.errors import AuditError, DimensionMismatch, InvalidGenerators
from test_dense_oracle import ref_label_projectors
from test_toy_model import ref_statistics


class TestDictionary:
    def test_functional_label_round_trip(self):
        for d in (2, 3):
            for lam in pa.all_points(d, 1):
                sigma = eqv.functional_for_label(lam, d)
                assert eqv.label_for_functional(sigma, d) == lam

    def test_z_measurement_learns_position(self):
        # quantum Z has label (0, 1); its functional is the position (1, 0)
        assert eqv.functional_for_label((0, 1), 2) == (1, 0)

    def test_x_measurement_learns_momentum(self):
        assert eqv.functional_for_label((1, 0), 2) == (0, 1)

    def test_state_round_trip_rebit(self):
        spec = wg.delfosse_rebit_spec(2)
        V = pa.Subspace.from_generators([(1, 0, 1, 0), (0, 1, 0, 1)], 2, 2)
        epi = toy.make_epistemic(V, (0,) * 4)
        psi = eqv.quantum_state_for(epi)
        bell = do.parse_state_spec("+XX,+ZZ")
        assert do.states_equal(psi, bell)
        back = eqv.epistemic_state_for(psi, spec)
        assert back == epi

    def test_state_round_trip_gross(self):
        spec = wg.gross_spec(3, 2)
        for V in pa.maximal_isotropic_subspaces(3, 2)[:5]:
            epi = toy.make_epistemic(V, (1, 0, 2, 1))
            psi = eqv.quantum_state_for(epi)
            assert eqv.epistemic_state_for(psi, spec) == epi

    def test_outcome_labeling_ground_state(self):
        # measuring Z on |0> gives residue 0 on both sides
        spec = wg.delfosse_rebit_spec(1)
        ground = do.basis_state([0])
        assert abs(np.vdot(ground, do.label_projectors((0, 1), 2)[0] @ ground) - 1) < 1e-12
        epi = eqv.epistemic_state_for(do.basis_state([0]), spec)
        meas = toy.SharpMeasurement((eqv.functional_for_label((0, 1), 2),), 2, 1)
        assert toy.outcome_distribution(epi, meas) == {(0,): Fraction(1)}

    @pytest.mark.parametrize(
        "spec",
        [
            wg.delfosse_rebit_spec(1),
            wg.delfosse_rebit_spec(2),
            wg.factorisable_rebit_spec(1),
            wg.factorisable_rebit_spec(2),
            wg.gross_spec(3, 1),
        ],
        ids=lambda spec: f"{spec.name}-{spec.n}",
    )
    def test_coset_reader_matches_the_old_code(self, spec):
        rng = np.random.default_rng(spec.n)
        dim = spec.d**spec.n
        noise = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(3)]
        states = list(stt.all_stabilizer_states(spec.d, spec.n)) + noise
        verdicts = []
        for psi in states:
            psi = psi / np.linalg.norm(psi)
            table = wg.wigner_of_state(psi, spec)
            verdict = wg.is_coset_indicator(table)
            assert verdict == ref_is_coset_indicator(table)
            verdicts.append(verdict)
            if verdict:
                assert eqv.epistemic_state_for(psi, spec) == ref_epistemic_state_for(psi, spec)
            else:
                for read in (eqv.epistemic_state_for, ref_epistemic_state_for):
                    with pytest.raises(DimensionMismatch, match="coset indicator"):
                        read(psi, spec)
        assert any(verdicts) and not all(verdicts)


def ref_is_coset_indicator(table, tol=1e-9):
    """is_coset_indicator as it was before the shared coset reader."""
    supp = [p for p in pa.all_points(table.spec.d, table.spec.n) if abs(table.value(p)) > tol]
    if not supp:
        return False
    vals = [table.value(p) for p in supp]
    if max(vals) - min(vals) > tol or abs(sum(vals) - 1) > tol:
        return False
    d, n = table.spec.d, table.spec.n
    diffs = np.array(supp, dtype=np.int64) - np.array(supp[0], dtype=np.int64)
    U = pa.Subspace.from_generators(diffs, d, n)
    if d**U.dim != len(supp):
        return False
    return set(pa.coset_members(U, supp[0])) == set(supp)


def ref_epistemic_state_for(psi, spec):
    """epistemic_state_for as it was before the shared coset reader."""
    table = wg.wigner_of_state(psi, spec)
    if not ref_is_coset_indicator(table):
        raise DimensionMismatch("state table is not a coset indicator")
    supp = table.support()
    base = np.array(supp[0], dtype=np.int64)
    diffs = (np.array(supp, dtype=np.int64) - base) % spec.d
    U = pa.Subspace.from_generators(diffs, spec.d, spec.n)
    return toy.make_epistemic(pa.perp(U), tuple(int(x) for x in base))


COSET_SPECS = [make(n) for make in (wg.delfosse_rebit_spec, wg.factorisable_rebit_spec)
               for n in (1, 2, 3)] + [wg.gross_spec(3, n) for n in (1, 2)]


def _uniform_row(spec, codes, value):
    row = np.zeros(spec.d ** (2 * spec.n))
    row[list(codes)] = value
    return row


def planted_rows(spec):
    """(row, verdict) pairs: the indicator of a stabilizer state's coset,
    which the coset rule accepts, then rows it must reject: uniform on a
    non-affine set, summing to 2, uneven on the coset, and all zero."""
    d, size = spec.d, spec.d**spec.n
    pts, weights = wg._lex(d, spec.n)
    coset = wg.wigner_of_state(stt.all_stabilizer_states(d, spec.n)[0], spec).support()
    codes = [int(np.dot(p, weights)) for p in coset]
    # points holding 0 and two unit points but not their sum, so not
    # affine: d^n of them, or 3 where d^n = 2 (any two points are a line)
    unit = [int(w) for w in weights[:2]]
    other = [c for c in range(len(pts)) if c not in (0, *unit, sum(unit))]
    skew = [0, *unit, *other][:max(size, 3)]
    uneven = _uniform_row(spec, codes, 1 / size)
    uneven[codes[0]] += 0.25 / size
    uneven[codes[1]] -= 0.25 / size
    return [
        (_uniform_row(spec, codes, 1 / size), True),
        (_uniform_row(spec, skew, 1 / len(skew)), False),
        (_uniform_row(spec, codes, 2 / size), False),
        (uneven, False),
        (np.zeros(len(pts)), False),
    ]


class TestCosetRows:
    @pytest.mark.parametrize("spec", COSET_SPECS, ids=lambda s: f"{s.name}-n{s.n}")
    def test_census_tables_match_the_reference(self, spec):
        values, _ = wg._tables(np.stack(stt.all_stabilizer_states(spec.d, spec.n)), spec)
        got = wg._coset_rows(values, spec.d, spec.n).tolist()
        assert got == [ref_is_coset_indicator(wg.WignerTable(spec, row)) for row in values]
        # the one-row read-off decides the same rule
        assert got == [wg._indicator_coset(row, spec.d, spec.n) is not None for row in values]

    @pytest.mark.parametrize("spec", COSET_SPECS, ids=lambda s: f"{s.name}-n{s.n}")
    def test_planted_rows(self, spec, monkeypatch):
        rows, want = zip(*planted_rows(spec))
        # one stack, support sizes mixed; then blocks of one row each
        for bound in (wg._TABLE_BLOCK, 1):
            monkeypatch.setattr(wg, "_TABLE_BLOCK", bound)
            assert wg._coset_rows(np.stack(rows), spec.d, spec.n).tolist() == list(want)
        assert [ref_is_coset_indicator(wg.WignerTable(spec, row)) for row in rows] == list(want)
        assert [wg._indicator_coset(row, spec.d, spec.n) is not None for row in rows] == list(want)

    @pytest.mark.parametrize("spec", [wg.delfosse_rebit_spec(3), wg.gross_spec(3, 2)],
                             ids=lambda s: f"{s.name}-n{s.n}")
    def test_epistemic_states_match_the_reference(self, spec):
        for psi in stt.all_stabilizer_states(spec.d, spec.n)[::7]:
            try:
                ref = ref_epistemic_state_for(psi, spec)
            except DimensionMismatch:
                with pytest.raises(DimensionMismatch, match="coset indicator"):
                    eqv.epistemic_state_for(psi, spec)
                continue
            assert eqv.epistemic_state_for(psi, spec) == ref


class TestRandomEquivalence:
    @pytest.mark.parametrize(
        "host,n,d,seed",
        [
            ("minimal-rebit", 1, 2, 0),
            ("minimal-rebit", 2, 2, 1),
            ("minimal-rebit", 3, 2, 2),
            ("css-rebit", 2, 2, 5),
            ("qudit-stabilizer", 1, 3, 3),
            ("qudit-stabilizer", 2, 3, 4),
            ("qudit-stabilizer", 1, 5, 6),
        ],
    )
    def test_smoke(self, host, n, d, seed):
        model = eqv.host_model(host, n, d)
        rep = eqv.check_random_equivalence(model, 25, seed=seed)
        assert rep["max_deviation"] <= 1e-9, rep


class TestDenseStatistics:
    def test_values_are_floats_without_measurements(self):
        psi = do.plus_state(1)
        for steps in ([], [("gate", do.gate("H", (0,), 1))]):
            stats = eqv.dense_statistics(psi, steps)
            assert list(stats) == [()]
            assert type(stats[()]) is float

    def test_outcomes_are_one_tuples(self):
        steps = [("measure", do.label_projectors((0, 1), 2))]
        stats = eqv.dense_statistics(do.plus_state(1), steps)
        assert list(stats) == [((0,),), ((1,),)]
        assert all(abs(p - 0.5) < 1e-12 for p in stats.values())


#: hosts at d = 2, 3 and 5 for the trailing-gate checks
TRAILING_HOSTS = [("minimal-rebit", 2, 2), ("minimal-rebit", 3, 2),
                  ("qudit-stabilizer", 2, 3), ("qudit-stabilizer", 1, 5)]


class TestStatisticsStopAtLastMeasurement:
    # a leaf's probability is a product of measurement factors, so gates
    # after the last measurement change no statistic on either side

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(TRAILING_HOSTS), st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_trailing_gates_leave_both_sides_equal(self, host_args, seed, extra):
        host = eqv.host_model(*host_args)
        rng = np.random.default_rng(seed)
        pc = eqv.random_paired_circuit(host, rng)
        gens = host.sub.gate_generators
        picks = [gens[int(rng.integers(0, len(gens)))] for _ in range(extra)]
        toy_steps = pc.toy_steps + [("gate", host.gate_action(g.name, g.wires)) for g in picks]
        dense_steps = pc.dense_steps + [("gate", g.matrix) for g in picks]
        toy_dist = toy.statistics(pc.epistemic, toy_steps)
        assert toy_dist == toy.statistics(pc.epistemic, pc.toy_steps)
        assert toy_dist == ref_statistics(pc.epistemic, toy_steps)
        # the same floats as the walk through every step
        full = branch_tree(pc.dense_state[None], [
            do.gate_step(op) if kind == "gate" else do.measure_step(op) for kind, op in dense_steps])
        dense_dist = eqv.dense_statistics(pc.dense_state, dense_steps)
        assert dense_dist == eqv.dense_statistics(pc.dense_state, pc.dense_steps)
        assert dense_dist == {tuple((k,) for k in o): float(p) for o, p, _ in full}
        gates = [i for i, (kind, _) in enumerate(toy_steps) if kind == "gate"]
        assert toy.statistics(pc.epistemic, [toy_steps[i] for i in gates]) == {(): Fraction(1)}
        assert eqv.dense_statistics(pc.dense_state, [dense_steps[i] for i in gates]) == {(): 1.0}

    def test_malformed_trailing_dense_step_raises(self):
        psi = do.plus_state(2)
        head = [("measure", do.label_projectors((0, 1, 0, 0), 2))]
        for tail in ([("gate", np.eye(8))], [("gate", np.eye(4)[None])],
                     [("gate", np.eye(4)), ("measure", do.label_projectors((0, 1), 2))]):
            with pytest.raises(DimensionMismatch, match="on a 4-dim state"):
                eqv.dense_statistics(psi, head + tail)

    def test_unknown_step_kind_raises_on_both_sides(self):
        with pytest.raises(DimensionMismatch, match="unknown step kind 'reset'"):
            eqv.dense_statistics(do.plus_state(1), [("reset", do.label_projectors((0, 1), 2))])
        host = eqv.host_model("minimal-rebit", 2)
        pc = eqv.random_paired_circuit(host, np.random.default_rng(0))
        reset = host.measurement_step((0, 1, 0, 0))
        for at in (0, len(pc.toy_steps)):
            with pytest.raises(DimensionMismatch, match="unknown step kind 'reset'"):
                toy.statistics(pc.epistemic, pc.toy_steps[:at] + [("reset", reset)] + pc.toy_steps[at:])
            # the kind is checked before any operator's shape
            dense = pc.dense_steps[:at] + [("reset", np.eye(8))] + pc.dense_steps[at:]
            with pytest.raises(DimensionMismatch, match="unknown step kind 'reset'"):
                eqv.dense_statistics(pc.dense_state, dense)


class TestTextCircuits:
    def test_bell_parity_measurement(self):
        host = eqv.host_model("minimal-rebit", 2)
        circ = parse_circuit("INIT +XX,+ZZ\nMEAS ZZ 0 1 -> v\n")
        toy_dist, dense_dist, dev = eqv.circuit_statistics_both_ways(circ, host)
        assert dev <= 1e-9
        assert toy_dist == {((0,),): Fraction(1)}

    def test_cnot_entangler_pipeline(self):
        host = eqv.host_model("minimal-rebit", 2)
        circ = parse_circuit("INIT +0\nGATE CNOT 0 1\nMEAS ZZ 0 1 -> v\n")
        toy_dist, _, dev = eqv.circuit_statistics_both_ways(circ, host)
        assert dev <= 1e-9
        assert toy_dist == {((0,),): Fraction(1)}

    def test_empty_circuit_trivially_identical(self):
        host = eqv.host_model("minimal-rebit", 2)
        circ = parse_circuit("INIT 00\n", n_wires=2)
        toy_dist, dense_dist, dev = eqv.circuit_statistics_both_ways(circ, host)
        assert dev == 0.0
        assert toy_dist == {(): Fraction(1)}

    def test_off_host_gate_is_audited(self):
        host = eqv.host_model("minimal-rebit", 2)
        with pytest.raises(AuditError, match="S"):
            eqv.circuit_statistics_both_ways(
                parse_circuit("GATE S 0\nMEAS Z 0 -> v\n", n_wires=2), host
            )

    def test_off_host_observable_is_audited(self):
        host = eqv.host_model("minimal-rebit", 2)
        with pytest.raises(AuditError, match="observable"):
            eqv.circuit_statistics_both_ways(
                parse_circuit("MEAS XZ 0 1 -> v\n"), host
            )

    def test_off_host_initial_state_is_audited(self):
        host = eqv.host_model("minimal-rebit", 2)
        with pytest.raises(AuditError, match="allowed state"):
            eqv.circuit_statistics_both_ways(
                parse_circuit("INIT CZ|++>\nMEAS Z 0 -> v\n", n_wires=2), host
            )

    @pytest.mark.parametrize("text", ["MEAS Z 2 -> m\n", "GATE X 2\n"], ids=["meas", "gate"])
    def test_wire_count_is_checked_before_the_audit(self, text):
        # a measurement off the register once reached basis_label inside the
        # audit and raised IndexError; both kinds now name the wire counts
        host = eqv.host_model("minimal-rebit", 2)
        with pytest.raises(DimensionMismatch, match="circuit needs 3 wires, host has 2"):
            eqv.circuit_statistics_both_ways(parse_circuit(text), host)

    def test_mixed_separable_measurement_sequence(self):
        host = eqv.host_model("minimal-rebit", 2)
        circ = parse_circuit(
            "INIT ++\nMEAS X 0 -> a\nMEAS Z 1 -> b\nMEAS X 0 -> c\n"
        )
        toy_dist, dense_dist, dev = eqv.circuit_statistics_both_ways(circ, host)
        assert dev <= 1e-9
        # X on the |+> wire is deterministic and repeats; Z on |+> is uniform
        assert toy_dist == {
            ((0,), (0,), (0,)): Fraction(1, 2),
            ((0,), (1,), (0,)): Fraction(1, 2),
        }

    def test_bell_yy_reads_the_hermitian_outcome(self):
        # the Bell state +XX,+ZZ has YY = -1: outcome 1 under the circuit
        # format's d=2 rule, on both sides of the equivalence
        host = eqv.host_model("full-qubit-stabilizer", 2)
        circ = parse_circuit("INIT +XX,+ZZ\nMEAS YY 0 1 -> m\n")
        toy_dist, _, dev = eqv.circuit_statistics_both_ways(circ, host)
        assert toy_dist == {((1,),): Fraction(1)}
        assert dev <= 1e-9
        assert [b.outcomes for b in do.run_circuit(circ)] == [{"m": 1}]

    @pytest.mark.parametrize("text", [
        *(pytest.param(f"INIT +XX,+ZZ\nMEAS {word} 0 1 -> m\n", id=f"bell-{word}")
          for word in map("".join, itertools.product("IXYZ", repeat=2))
          if word.count("Y") % 2 == 0),
        pytest.param("INIT +XX,-ZZ\nMEAS YY 0 1 -> a\nMEAS XX 0 1 -> b\n", id="bell-YY-XX"),
        pytest.param("INIT +0\nGATE CNOT 0 1\nMEAS YY 0 1 -> m\n", id="cnot-YY"),
        pytest.param("INIT +XX,+ZZ\nGATE Z 1\n"
                     "MEAS YY 0 1 -> a\nMEAS ZX 0 1 -> b\nMEAS YY 0 1 -> c\n", id="z-YY-ZX-YY"),
    ])
    def test_outcomes_match_run_circuit(self, text):
        # every two-qubit word of the host (an even number of Y letters) on
        # the Bell state, and Y-word sequences: outcome for outcome, both
        # sides give run_circuit's distribution
        host = eqv.host_model("full-qubit-stabilizer", 2)
        circ = parse_circuit(text)
        toy_dist, _, dev = eqv.circuit_statistics_both_ways(circ, host)
        assert dev <= 1e-9
        reference: dict[tuple, float] = {}
        for b in do.run_circuit(circ):
            key = tuple((b.outcomes[v],) for v in circ.measured_vars())
            reference[key] = reference.get(key, 0.0) + b.prob
        reference = {k: p for k, p in reference.items() if p > 1e-12}
        assert set(toy_dist) == set(reference)
        assert eqv.compare_statistics(toy_dist, reference) <= 1e-9

    def test_init_spec_is_parsed_once(self, monkeypatch):
        host = eqv.host_model("minimal-rebit", 2)
        calls = []
        parse = do.parse_state_spec

        def counting(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)

        monkeypatch.setattr(do, "parse_state_spec", counting)
        circ = parse_circuit("INIT +XX,+ZZ\nMEAS ZZ 0 1 -> v\n")
        _, _, dev = eqv.circuit_statistics_both_ways(circ, host)
        assert dev <= 1e-9
        assert len(calls) == 1


def ref_measurement_projectors(mu, spec):
    """The outcome projectors of the construction's Weyl operator at mu,
    indexed by the exponent k of its eigenvalue chi(k): the convention the
    toy functional's values follow."""
    return do.weyl_char_projectors(wg.weyl(mu, spec), spec.d)


class TestOutcomeOffset:
    @pytest.mark.parametrize("name,n,d,labels,offset", [
        ("minimal-rebit", 2, 2, 6, 0),
        ("minimal-rebit", 3, 2, 14, 0),
        ("css-rebit", 2, 2, 6, 0),
        ("full-qubit-stabilizer", 2, 2, 9, 1),
        ("qudit-stabilizer", 2, 3, 80, 48),
        ("qudit-stabilizer", 1, 5, 24, 16),
    ])
    def test_offset_maps_the_weyl_convention(self, name, n, d, labels, offset):
        # Weyl-operator outcome k is outcome k - c(mu) of label_projectors,
        # 430 projector pairs over the six hosts
        sub = stt.subtheory_by_name(name, n, d)
        nonzero = [mu for mu in sub.observables if any(mu)]
        assert len(nonzero) == labels
        offsets = [eqv.outcome_offset(mu, d) for mu in nonzero]
        assert sum(c != 0 for c in offsets) == offset
        for mu, c in zip(nonzero, offsets):
            weyl, label = ref_measurement_projectors(mu, sub.spec), do.label_projectors(mu, d)
            for k in range(d):
                assert np.allclose(weyl[k], label[(k - c) % d], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("gens", [[(1, 1)], [(1, 1, 0, 0), (0, 0, 1, 1)]])
    def test_odd_qp_label_is_refused(self, gens):
        # J sigma = (1, 1) per site: Z(p)X(q) = ZX = iY squares to -I
        n = len(gens[0]) // 2
        epi = toy.make_epistemic(pa.Subspace.from_generators(gens, 2, n), (0,) * (2 * n))
        with pytest.raises(InvalidGenerators):
            eqv.quantum_state_for(epi)

    @pytest.mark.parametrize("n,d", [(2, 3), (1, 5)])
    def test_offset_labels_agree_on_random_states(self, n, d):
        host = eqv.host_model("qudit-stabilizer", n, d)
        shifted = [mu for mu in host.sub.observables if eqv.outcome_offset(mu, d)]
        isos = pa.maximal_isotropic_subspaces(d, n)
        rng = np.random.default_rng(d)
        for mu in shifted:
            for _ in range(3):
                V = isos[int(rng.integers(0, len(isos)))]
                epi = toy.make_epistemic(V, tuple(int(x) for x in rng.integers(0, d, size=2 * n)))
                nu = shifted[int(rng.integers(0, len(shifted)))]
                toy_dist = toy.statistics(epi, [("measure", host.measurement_step(lam)) for lam in (mu, nu)])
                dense_dist = eqv.dense_statistics(
                    eqv.quantum_state_for(epi), [("measure", do.label_projectors(lam, d)) for lam in (mu, nu)])
                assert set(toy_dist) == {k for k, p in dense_dist.items() if p > 1e-12}
                assert eqv.compare_statistics(toy_dist, dense_dist) <= 1e-9


def ref_gate_action(host, U):
    """The gate action as the covariance witness over the host's state
    census, inverted; None where the census admits no witness."""
    witness, _ = wg.covariance_witness(U, host.sub.spec, host.sub.states)
    return None if witness is None else witness.inverse()


def ref_random_paired_circuit(host, rng, depth=5):
    """random_paired_circuit with projectors built per call, gate actions
    read off the state census and each toy measurement built afresh."""
    d, n = host.sub.d, host.sub.n
    if d == 2:
        V = eqv._random_css_knowledge(n, rng)
    else:
        isos = pa.maximal_isotropic_subspaces(d, n)
        V = isos[int(rng.integers(0, len(isos)))]
    w = tuple(int(x) for x in rng.integers(0, d, size=2 * n))
    epistemic = toy.make_epistemic(V, w)
    dense_state = eqv.quantum_state_for(epistemic)
    toy_steps, dense_steps, description = [], [], []
    gens = host.sub.gate_generators
    nontrivial = [lam for lam in host.sub.observables if any(lam)]
    n_meas = 0
    for _ in range(depth):
        if rng.random() < 0.55 or n_meas >= 3:
            g = gens[int(rng.integers(0, len(gens)))]
            toy_steps.append(("gate", ref_gate_action(host, g.matrix)))
            dense_steps.append(("gate", g.matrix))
            description.append(g.label())
        else:
            lam = nontrivial[int(rng.integers(0, len(nontrivial)))]
            sigma = eqv.functional_for_label(lam, d)
            c = (eqv.outcome_offset(lam, d),)
            toy_steps.append(("measure", toy.SharpMeasurement((sigma,), d, n, c)))
            dense_steps.append(("measure", ref_label_projectors(lam, d)))
            description.append(f"M[{do.label_name(lam, d)}]")
            n_meas += 1
    return eqv.PairedCircuit(epistemic, dense_state, toy_steps, dense_steps, description)


HOSTS = [("minimal-rebit", 2, 2), ("minimal-rebit", 3, 2), ("qudit-stabilizer", 2, 3)]


class TestHostProjectorCache:
    @pytest.mark.parametrize("name,n,d", HOSTS)
    def test_one_read_only_list_per_label(self, name, n, d):
        host = eqv.host_model(name, n, d)
        rng = np.random.default_rng(17)
        by_label: dict[str, list] = {}
        for _ in range(30):
            pc = eqv.random_paired_circuit(host, rng)
            for (kind, op), (_, toy_op), desc in zip(pc.dense_steps, pc.toy_steps, pc.description):
                if kind == "measure":
                    by_label.setdefault(desc, []).append((op, toy_op))
        assert max(len(ops) for ops in by_label.values()) > 1
        for ops in by_label.values():
            # one projector tuple and one toy step object per label, so the
            # toy plans a step keeps are shared by every circuit
            assert all(op is ops[0][0] and toy_op is ops[0][1] for op, toy_op in ops)
            with pytest.raises(ValueError):
                ops[0][0][0][0, 0] = 0
        assert len({id(ops[0][1]) for ops in by_label.values()}) == len(by_label)
        for lam in host.sub.observables:
            projs = do.label_projectors(lam, d)
            assert do.label_projectors(lam, d) is projs
            want = ref_label_projectors(lam, d)
            assert len(projs) == len(want)
            assert all(np.array_equal(P, Q) for P, Q in zip(projs, want))

    @pytest.mark.parametrize("name,n,d", HOSTS)
    def test_same_circuits_as_the_per_call_path(self, name, n, d):
        host = eqv.host_model(name, n, d)
        cached, per_call = np.random.default_rng(23), np.random.default_rng(23)
        for _ in range(20):
            pc = eqv.random_paired_circuit(host, cached)
            ref = ref_random_paired_circuit(host, per_call)
            assert pc.description == ref.description
            assert pc.epistemic == ref.epistemic
            assert np.array_equal(pc.dense_state, ref.dense_state)
            for (kind, op), (ref_kind, ref_op) in zip(pc.dense_steps, ref.dense_steps):
                assert kind == ref_kind
                assert all(np.array_equal(a, b) for a, b in zip(op, ref_op))
            for (kind, op), (_, ref_op) in zip(pc.toy_steps, ref.toy_steps):
                if kind == "gate":
                    assert op.key() == ref_op.key()
            assert toy.statistics(pc.epistemic, pc.toy_steps) == toy.statistics(
                ref.epistemic, ref.toy_steps
            )
            assert eqv.dense_statistics(pc.dense_state, pc.dense_steps) == eqv.dense_statistics(
                ref.dense_state, ref.dense_steps
            )


class CensusRead(AssertionError):
    pass


@pytest.fixture
def no_census(monkeypatch):
    """Subtheories built afresh, whose state census raises CensusRead when
    anything reads it."""
    for builder in (
        "minimal_rebit_subtheory",
        "css_rebit_subtheory",
        "qudit_stabilizer_subtheory",
        "full_qubit_stabilizer_subtheory",
        "all_stabilizer_states",
    ):
        monkeypatch.setattr(stt, builder, getattr(stt, builder).__wrapped__)

    def census(*args, **kwargs):
        raise CensusRead("stabilizer census built")

    monkeypatch.setattr(stt, "_census", census)


@pytest.mark.parametrize("name,n,d", [("minimal-rebit", 3, 2), ("qudit-stabilizer", 2, 3)])
def test_gate_actions_build_no_per_state_table(name, n, d, monkeypatch, no_census):
    """Gate actions come from phase-point transport: no census is built and
    no state table is taken on the gate-action path."""
    host = eqv.host_model.__wrapped__(name, n, d)  # fresh gate cache

    def per_state(*args, **kwargs):
        raise AssertionError("Wigner table on the gate-action path")

    monkeypatch.setattr(wg, "wigner_of_state", per_state)
    monkeypatch.setattr(wg, "_tables", per_state)
    for gen in host.sub.gate_generators:
        host.gate_action(gen.name, gen.wires)
    for gate in host.sub.allowed_gate_names:
        for wires in itertools.permutations(range(n), do.gate_arity(gate, d)):
            host.gate_action(gate, wires)
    assert len(host._gate_cache) > len(host.sub.gate_generators)


#: the hosts of perfbench's EQUIVALENCE_MIX, as (name, d, n)
EQUIVALENCE_MIX_HOSTS = [
    ("minimal-rebit", 2, 1),
    ("minimal-rebit", 2, 2),
    ("minimal-rebit", 2, 3),
    ("qudit-stabilizer", 3, 1),
    ("qudit-stabilizer", 3, 2),
]


def ref_dense_statistics(state, steps):
    """dense_statistics on well-formed steps, each key built one 1-tuple
    (k,) at a time."""
    cut = max((j + 1 for j, (kind, _) in enumerate(steps) if kind != "gate"), default=0)
    walker = [do.gate_step(op) if kind == "gate" else do.measure_step(op) for kind, op in steps[:cut]]
    return {tuple((k,) for k in outcomes): float(prob)
            for outcomes, prob, _ in branch_tree(state[None], walker)}


def ref_compare_statistics(toy_dist, dense_dist):
    """compare_statistics over the key union, each toy probability
    converted on its own."""
    dev = 0.0
    for k in set(toy_dist) | set(dense_dist):
        dev = max(dev, abs(float(toy_dist.get(k, 0)) - dense_dist.get(k, 0.0)))
    return dev


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EQUIVALENCE_MIX_HOSTS), st.integers(0, 2**32 - 1))
def test_leaf_paths_match_the_references(host, seed):
    # the keys of dense_statistics and the deviation of compare_statistics
    # bit for bit, also with keys missing on either side and with toy
    # probabilities that are distinct objects or differ
    name, d, n = host
    pc = eqv.random_paired_circuit(eqv.host_model(name, n, d), np.random.default_rng(seed))
    toy_dist = toy.statistics(pc.epistemic, pc.toy_steps)
    dense_dist = eqv.dense_statistics(pc.dense_state, pc.dense_steps)
    assert list(dense_dist.items()) == list(ref_dense_statistics(pc.dense_state, pc.dense_steps).items())
    first, last = next(iter(toy_dist)), next(reversed(toy_dist))
    variants = [
        (toy_dist, dense_dist),
        ({k: p for k, p in toy_dist.items() if k != last}, dense_dist),
        (toy_dist, {k: p for k, p in dense_dist.items() if k != first}),
        ({k: Fraction(p.numerator, p.denominator) for k, p in toy_dist.items()}, dense_dist),
        ({**toy_dist, last: Fraction(1, 7)}, dense_dist),
        ({**toy_dist, ((d,),): Fraction(1, 3)}, {**dense_dist, ((d + 1,),): 0.25}),
    ]
    for t, q in variants:
        assert eqv.compare_statistics(t, q) == ref_compare_statistics(t, q)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EQUIVALENCE_MIX_HOSTS), st.integers(0, 2**32 - 1))
def test_toy_states_are_the_checked_stabilizer_states(host, seed):
    # a random maximal-knowledge state e, drawn as random_paired_circuit
    # draws it: quantum_state_for(e) is the checked do.stabilizer_state on
    # the same (label, outcome) pairs bit for bit, and its Wigner table
    # reads e back
    name, d, n = host
    rng = np.random.default_rng(seed)
    if d == 2:
        V = eqv._random_css_knowledge(n, rng)
    else:
        isos = pa.maximal_isotropic_subspaces(d, n)
        V = isos[int(rng.integers(0, len(isos)))]
    e = toy.make_epistemic(V, tuple(int(x) for x in rng.integers(0, d, size=2 * n)))
    labels = [eqv.label_for_functional(sigma, d) for sigma in V.gens]
    ks = [pa.evaluate(sigma, e.w, d) - eqv.outcome_offset(mu, d) for sigma, mu in zip(V.gens, labels)]
    psi = eqv.quantum_state_for(e)
    assert np.array_equal(psi, do.stabilizer_state(list(zip(labels, ks)), d=d, n=n))
    assert eqv.epistemic_state_for(psi, eqv.host_model(name, n, d).sub.spec) == e


def _one_gate_per_arity(d, n):
    text = "GATE X 0\n"
    if n > 1:
        text += f"GATE {'CNOT' if d == 2 else 'SUM'} 0 1\n"
    return text + "MEAS Z 0 -> a\n"


@pytest.mark.parametrize("name,d,n", EQUIVALENCE_MIX_HOSTS)
def test_equivalence_mix_runs_without_the_census(name, d, n, no_census):
    host = eqv.host_model.__wrapped__(name, n, d)
    rng = np.random.default_rng(n)
    for _ in range(20):
        pc = eqv.random_paired_circuit(host, rng)
        toy_dist = toy.statistics(pc.epistemic, pc.toy_steps)
        dense_dist = eqv.dense_statistics(pc.dense_state, pc.dense_steps)
        assert eqv.compare_statistics(toy_dist, dense_dist) <= 1e-9
    for gate in host.sub.allowed_gate_names:
        for wires in itertools.permutations(range(n), do.gate_arity(gate, d)):
            host.gate_action(gate, wires)
    circuit = parse_circuit(_one_gate_per_arity(d, n), n_wires=n)
    _, _, dev = eqv.circuit_statistics_both_ways(circuit, host)
    assert dev <= 1e-9
    # the INIT membership test is the one reader of the census
    with pytest.raises(CensusRead):
        eqv.circuit_statistics_both_ways(
            parse_circuit("INIT " + "0" * n + "\n" + _one_gate_per_arity(d, n), n_wires=n),
            host,
        )


def test_four_rebits_run_without_the_census(no_census):
    host = eqv.host_model.__wrapped__("minimal-rebit", 4)
    rep = eqv.check_random_equivalence(host, 10, seed=4)
    assert rep["max_deviation"] <= 1e-9, rep


@pytest.mark.parametrize("name,d,n", EQUIVALENCE_MIX_HOSTS)
def test_toy_statistics_match_the_per_branch_reference(name, d, n):
    # the toy side of the benchmark mix against the array steps run on every
    # branch's state on its own: the same outcome sequences, probabilities
    # and order
    host = eqv.host_model(name, n, d)
    rng = np.random.default_rng([19, d, n])
    for _ in range(40):
        pc = eqv.random_paired_circuit(host, rng)
        want = list(ref_statistics(pc.epistemic, pc.toy_steps).items())
        for _ in range(2):  # plans built or read, then read from the host's steps
            assert list(toy.statistics(pc.epistemic, pc.toy_steps).items()) == want


@pytest.mark.parametrize("n", [2, 3])
def test_css_rebit_compound_hadamard_in_a_text_circuit(n):
    # H* is a host generator on all wires, not a do.gate name: both sides
    # take the host's matrix for it
    host = eqv.host_model("css-rebit", n)
    every = " ".join(map(str, range(n)))
    text = (f"GATE H* {every}\nGATE CNOT 0 1\nMEAS Z 0 -> a\n"
            f"GATE H* {every}\nMEAS X 1 -> b\nGATE CNOT 1 0\nMEAS {'Z' * n} {every} -> c\n")
    toy_dist, dense_dist, dev = eqv.circuit_statistics_both_ways(parse_circuit(text, n_wires=n), host)
    assert dev <= 1e-9 and len(toy_dist) > 1 and set(toy_dist) == set(dense_dist)
    assert np.array_equal(host.gate_matrix("H*", tuple(range(n))), host.sub.gate_generators[-1].matrix)
    # on any other wire tuple H* names nothing
    other = "1 0" if n == 2 else "0 1"
    with pytest.raises(AuditError, match="does not act on wires"):
        eqv.circuit_statistics_both_ways(parse_circuit(f"GATE H* {other}\n", n_wires=n), host)
