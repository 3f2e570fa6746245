"""Acceptance suite: one test per exit criterion, each printed as a
pass/fail line with its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 3 is implemented exactly as stated and is expected to
fail; see notes/decisions.md at the repository root of the review bundle
for the blocking analysis (the complex, Y-containing stabilizer states
have coarse-grained non-negative tables, so negativity cannot single out
the X/Z-split subset among all 60 states; the dichotomy does hold on the
24 real-amplitude states and in the sharpness-refined form, both verified
in tests/test_wigner.py).
"""

import contextlib
import io
import time

import numpy as np

from spektoy import dense_oracle as do
from spektoy import equivalence as eqv
from spektoy import injection as inj
from spektoy import subtheory as stt
from spektoy import wigner as wg
from spektoy import witness as wit
from spektoy.cli import main as cli_main

TOL = 1e-9


def _report(num, label, passed, detail=""):
    marker = "PASS" if passed else "FAIL"
    print(f"[{marker}] criterion {num}: {label} {detail}".rstrip())
    assert passed, f"criterion {num}: {label} {detail}"


def test_criterion_01_operational_equivalence():
    """500 random circuits per family, toy vs dense, max deviation 1e-9."""
    t0 = time.time()
    worst = 0.0
    plans = [
        ("minimal-rebit", 1, 2, 170, 11),
        ("minimal-rebit", 2, 2, 170, 12),
        ("minimal-rebit", 3, 2, 160, 13),
        ("qudit-stabilizer", 1, 3, 250, 14),
        ("qudit-stabilizer", 2, 3, 250, 15),
    ]
    total = 0
    for host_name, n, d, count, seed in plans:
        host = eqv.host_model(host_name, n, d)
        rep = eqv.check_random_equivalence(host, count, seed=seed)
        worst = max(worst, rep["max_deviation"])
        total += count
    elapsed = time.time() - t0
    _report(
        1,
        "operational equivalence",
        worst <= TOL and elapsed < 120,
        f"({total} circuits, max dev {worst:.2e}, {elapsed:.0f}s)",
    )


def test_criterion_02_gross_nonnegativity_and_covariance():
    """All odd-d stabilizer states at n<=2: sharp non-negative coset
    tables; every Clifford generator passes the exhaustive search."""
    t0 = time.time()
    ok = True
    for n in (1, 2):
        spec = wg.gross_spec(3, n)
        states = stt.all_stabilizer_states(3, n)
        assert len(states) == {1: 12, 2: 360}[n]
        for psi in states:
            t = wg.wigner_of_state(psi, spec)
            ok = ok and wg.is_nonnegative(t, TOL)[0] and wg.is_coset_indicator(t)
        gens = [("F", (0,)), ("P", (0,)), ("X", (0,)), ("Z", (0,))]
        if n == 2:
            gens += [("F", (1,)), ("P", (1,)), ("X", (1,)), ("Z", (1,)),
                     ("SUM", (0, 1)), ("SUM", (1, 0))]
        for name, wires in gens:
            witness = wg.fit_covariance(do.gate(name, wires, n, 3), spec, states)
            ok = ok and witness is not None
    elapsed = time.time() - t0
    _report(2, "odd-d non-negativity and covariance", ok and elapsed < 300,
            f"({elapsed:.0f}s)")


def test_criterion_03_hudson_dichotomy_all_sixty():
    """As stated: over all 60 two-qubit stabilizer states, non-negativity
    holds exactly for the X/Z-split subset.  Expected to fail; the
    Y-containing complex states have non-negative mixture tables."""
    spec = wg.delfosse_rebit_spec(2)
    states = stt.all_stabilizer_states(2, 2)
    assert len(states) == 60
    mismatches = []
    for i, psi in enumerate(states):
        nonneg = wg.is_nonnegative(wg.wigner_of_state(psi, spec), TOL)[0]
        if nonneg != stt.is_css(psi, 2):
            mismatches.append(i)
    _report(
        3,
        "negativity dichotomy over all 60 stabilizer states",
        not mismatches,
        f"({len(mismatches)} non-split states with non-negative tables; "
        "see decisions ledger; the real-state and sharpness-refined "
        "dichotomies pass in tests/test_wigner.py)",
    )


def test_criterion_04_hermitian_part_identity():
    """Restricted phase points equal the Hermitian part of the
    factorisable ones, entrywise at n in {1,2,3}, tables agree on all
    X/Z-split states within 1e-9."""
    t0 = time.time()
    ok = True
    for n in (1, 2, 3):
        rep = wg.verify_hermitian_equivalence(n)
        ok = ok and rep["operator_identity"] and rep["table_agreement"]
        ok = ok and rep["hermitian_criterion"]
    elapsed = time.time() - t0
    _report(4, "Hermitian-part identity n=1..3", ok and elapsed < 120,
            f"({elapsed:.0f}s)")


def test_criterion_05_transition_matrices():
    """Every covariant (gate, construction) pair from criteria 2-3 yields
    a permutation transition matrix reproducing all tables within 1e-9."""
    ok = True
    checked = 0
    spec2 = wg.delfosse_rebit_spec(2)
    css = stt.minimal_rebit_subtheory(2).states
    hh = do.gate("H", (0,), 2) @ do.gate("H", (1,), 2)
    rebit_gates = [do.gate("X", (0,), 2), do.gate("X", (1,), 2),
                   do.gate("Z", (0,), 2), do.gate("Z", (1,), 2),
                   do.gate("CNOT", (0, 1), 2), do.gate("CNOT", (1, 0), 2),
                   do.gate("SWAP", (0, 1), 2), hh]
    for U in rebit_gates:
        tm = wg.transition_matrix(U, spec2, css)
        ok = ok and tm.is_permutation()
        checked += 1
    for n in (1, 2):
        spec = wg.gross_spec(3, n)
        states = stt.all_stabilizer_states(3, n)
        gens = [("F", (0,)), ("P", (0,)), ("X", (0,)), ("Z", (0,))]
        if n == 2:
            gens += [("SUM", (0, 1)), ("F", (1,)), ("P", (1,)), ("Z", (1,))]
        for name, wires in gens:
            tm = wg.transition_matrix(do.gate(name, wires, n, 3), spec, states)
            ok = ok and tm.is_permutation()
            checked += 1
    _report(5, "transition matrices are table-transporting permutations",
            ok, f"({checked} gate/construction pairs)")


def test_criterion_06_subtheory_recipe():
    """Allowed observables equal the non-mixing set exactly at n<=3 with
    Y-type labels excluded; the minimal rebit subtheory certifies."""
    ok = True
    for n in (1, 2, 3):
        got = set(stt.allowed_observables(wg.delfosse_rebit_spec(n)))
        ok = ok and got == set(stt.nonmixing_labels(2, n))
    ok = ok and (1, 1) not in set(stt.allowed_observables(wg.delfosse_rebit_spec(1)))
    for n in (1, 2, 3):
        rep = stt.is_spekkens_subtheory(stt.minimal_rebit_subtheory(n))
        ok = ok and rep["passed"]
    _report(6, "observable recipe and subtheory certificates", ok)


def test_criterion_07_injection_correctness():
    """S, CZ, CCZ on 50 random inputs each: every branch reaches the gate
    within 1e-9, caption correction instances match, audits stay inside
    the host plus resources."""
    t0 = time.time()
    rng = np.random.default_rng(20)
    ok = True
    for name in ("S", "CZ", "CCZ"):
        scheme = inj.scheme_for(name)
        dim = 2**scheme.n
        injected = frozenset({"CZ"}) if name == "CCZ" else frozenset()
        for _ in range(50):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            audit = inj.AuditTrail()
            recs = inj.run_injection(scheme, psi, injected=injected, audit=audit)
            ok = ok and len(recs) == dim
            ok = ok and all(r.fidelity >= 1 - TOL for r in recs)
            ok = ok and audit.report()["clean"]
    cz_scheme = inj.scheme_for("CZ")
    # outcomes x=1, y=-1 are bits (0, 1): correction is CZ (IX) CZ = Z x X
    corr = cz_scheme.corrections[(0, 1)]
    cz = do.gate("CZ", (0, 1), 2)
    ok = ok and np.allclose(
        corr.operator, cz @ do.gate("X", (1,), 2) @ cz, atol=1e-12
    )
    ok = ok and corr.name == "ZX"
    # outcomes (-1, 1, 1) are bits (1, 0, 0): correction is X tensor CZ(1,2)
    ccz_corr = inj.scheme_for("CCZ").corrections[(1, 0, 0)]
    ok = ok and ccz_corr.name == "XII*CZ(1,2)"
    elapsed = time.time() - t0
    _report(7, "injection correctness", ok and elapsed < 120, f"({elapsed:.0f}s)")


def test_criterion_08_completion_chain():
    """The CZ -> H -> S chain certifies with per-step audits, and the
    three conjugation identities unlock the remaining square row."""
    rep = inj.clifford_completion_demo()
    ok = rep["passed"]
    ok = ok and rep["chain"] == ["CZ", "H", "S"]
    ok = ok and all(v["verified"] for v in rep["unlocked_observables"].values())
    ok = ok and all(s["audit"]["clean"] for s in rep["steps"])
    _report(8, "injection chain and unlocked observables", ok)


def test_criterion_09_square_witness():
    """Dense operator identities, the exhaustive 512-assignment sweep, and
    the context circuit on 20 random inputs per context."""
    t0 = time.time()
    rep = wit.peres_mermin_report()
    ok = rep["operator_identities"]["(XZ)(ZX)=YY"]
    ok = ok and rep["operator_identities"]["(XX)(ZZ)=-YY"]
    ok = ok and rep["sweep"]["assignments_checked"] == 512
    ok = ok and rep["sweep"]["satisfying"] == 0
    rng = np.random.default_rng(21)
    for context in sorted(wit.CONTEXT_SELECTORS):
        for _ in range(20):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            run = wit.peres_mermin_circuit(psi, context)
            ok = ok and run["product_matches_sign"] and run["audit"]["clean"]
    elapsed = time.time() - t0
    _report(9, "square witness and context circuit", ok, f"({elapsed:.0f}s)")


def test_criterion_10_ghz():
    """Eigenvalue tuple (+1,-1,-1,-1) within 1e-9 and a zero-satisfying
    64-assignment sweep."""
    rep = wit.ghz_report()
    ok = rep["eigenvalues_match"]
    ok = ok and rep["assignments_checked"] == 64 and rep["satisfying"] == 0
    _report(10, "three-qubit parity paradox", ok)


def test_criterion_11_chsh():
    """Correlators (1,1,1,-1)/sqrt2 within 1e-9; win probability
    1/2 + 1/(2 sqrt 2); deterministic classical maximum exactly 3/4."""
    import math

    rep = wit.chsh_report()
    sq = 1 / math.sqrt(2)
    ok = all(
        abs(rep["correlators"][k] - v) < TOL
        for k, v in (("A0B0", sq), ("A0B1", sq), ("A1B0", sq), ("A1B1", -sq))
    )
    ok = ok and abs(rep["win_probability"] - (0.5 + 0.5 / math.sqrt(2))) < TOL
    ok = ok and rep["classical_max"] == 0.75
    _report(11, "XOR-game optimum", ok)


def test_criterion_12_determinism():
    """Identical run configuration implies byte-identical JSON reports."""
    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(list(argv))
        return code, buf.getvalue()

    ok = True
    for argv in (
        ["witness", "chsh"],
        ["witness", "ghz"],
        ["wigner", "--state", "+XX,+ZZ", "--spec", "delfosse-rebit"],
        ["inject", "--gate", "CCZ", "--input", "+++", "--seed", "0"],
        ["subtheory", "verify", "minimal-rebit", "--n", "2"],
    ):
        ok = ok and capture(argv) == capture(argv)
    _report(12, "byte-identical reports", ok)
