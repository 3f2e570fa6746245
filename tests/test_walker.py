"""The level walker against the per-branch walker it replaced.

`ref_branch_tree` and the `ref_*` steps below are the per-branch forms: a
step maps one branch's (outcomes, state) to its children
[(outcome or None, probability, state)].  The walker now maps a whole level
per step; both must give the same leaves in the same order.  The audits no
golden covers are pinned in tests/pinned/walker_audits.json.
"""

import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spektoy import dense_oracle as do
from spektoy import equivalence as eqv
from spektoy import injection as inj
from spektoy import toy_model as toy
from spektoy import witness as wit
from spektoy.circuits import ATOL_CONSTRUCT, ATOL_END2END, branch_tree, compile_expr, eval_tree
from spektoy.errors import DimensionMismatch
from test_dense_oracle import ref_readout_kraus
from test_equivalence import EQUIVALENCE_MIX_HOSTS

PINNED = pathlib.Path(__file__).parent / "pinned" / "walker_audits.json"


# ---------------------------------------------------------------------------
# the per-branch walker and its dense steps


def ref_branch_tree(root, steps):
    branches = [((), 1, root)]
    for step in steps:
        branches = [
            (outcomes if k is None else outcomes + (k,), prob * pk, child)
            for outcomes, prob, state in branches
            for k, pk, child in step(outcomes, state)
            if isinstance(pk, int) or pk > ATOL_CONSTRUCT
        ]
    probs = [prob for _, prob, _ in branches]
    if all(isinstance(m, int) for m in probs):
        L = math.lcm(*probs)
        total = sum(L // m for m in probs)
        assert total == L, f"branch probabilities sum to {total}/{L}"
    else:
        total = sum(probs)
        assert abs(total - 1.0) < ATOL_END2END, f"branch probabilities sum to {total}"
    return branches


def ref_renormalized(collapsed):
    prob = float(np.vdot(collapsed, collapsed).real)
    if prob > ATOL_CONSTRUCT:
        collapsed = collapsed / math.sqrt(prob)
    return prob, collapsed


def ref_gate_step(U):
    return lambda outcomes, state: [(None, 1, U @ state)]


def ref_measure_step(projectors):
    return lambda outcomes, state: [
        (k, *ref_renormalized(P @ state)) for k, P in enumerate(projectors)
    ]


_SQ2 = 1 / math.sqrt(2)


def ref_readout_step(site, basis):
    def step(outcomes, state):
        if state.shape[0] < 2 << site:
            raise DimensionMismatch(
                f"readout site {site} outside a {do.num_sites(state.shape[0], 2)}-qubit register"
            )
        tensor = state.reshape(2**site, 2, -1)
        t0, t1 = tensor[:, 0, :].reshape(-1), tensor[:, 1, :].reshape(-1)
        if basis == "X":
            t0, t1 = (t0 + t1) * _SQ2, (t0 - t1) * _SQ2
        return [(0, *ref_renormalized(t0)), (1, *ref_renormalized(t1))]

    return step


def ref_level_step(ref_step):
    """A per-branch reference step that records one outcome per child, run
    over a whole level branch by branch, its children parent-major."""
    def step(outcomes, level):
        ks, pks, children = zip(*(
            child for o, state in zip(outcomes, level) for child in ref_step(o, state)))
        return [(k,) for k in ks], list(pks), np.stack(children)

    return step


def ref_correct_step(U, expr, names, d):
    def step(outcomes, state):
        for _ in range(eval_tree(compile_expr(expr), dict(zip(names, outcomes)), d)):
            state = U @ state
        return [(None, 1, state)]

    return step


def ref_toy_statistics(state, steps):
    """toy_model.statistics on the per-branch walker, the plans built afresh."""
    V, walker = state.V, []
    for kind, op in steps:
        if kind == "gate":
            plan = toy._transport(V, op)
            walker.append(lambda o, values, plan=plan: [(None, 1, toy._shifted(plan, values))])
            V = plan.V_new
        else:
            plan = toy._MeasurementPlan(V, op)
            walker.append(
                lambda o, values, plan=plan: [(k, plan.size, v) for k, v in plan.children(values)]
            )
            V = plan.V_new
    leaves = ref_branch_tree(state.values, walker)
    return dict.fromkeys(sorted(o for o, _, _ in leaves), Fraction(1, leaves[0][1]))


def run_both(root, steps, ref_steps):
    """Both walkers' leaves, or the AssertionError each raised."""
    out = []
    for walk, start, chain in ((branch_tree, root[None], steps), (ref_branch_tree, root, ref_steps)):
        try:
            out.append(walk(start, chain))
        except AssertionError as e:
            out.append(e)
    return out


def assert_same_leaves(got, want):
    assert [o for o, _, _ in got] == [o for o, _, _ in want]
    for (_, p, state), (_, p_ref, state_ref) in zip(got, want):
        assert type(p) is type(p_ref)
        assert abs(p - p_ref) <= 1e-12
        assert state.shape == state_ref.shape
        assert np.allclose(state, state_ref, rtol=0, atol=1e-12)


def _unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(z)[0]


# ---------------------------------------------------------------------------
# the dense steps, level by level and branch by branch


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(["gate", "measure", "readout", "correct", "leak"]), max_size=7),
)
def test_level_walker_matches_the_per_branch_walker(dn, seed, kinds):
    d, n = dn
    rng = np.random.default_rng(seed)
    root = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    root /= np.linalg.norm(root)
    letters = "IXYZ" if d == 2 else "IXZ"
    steps, ref_steps, recorded = [], [], 0
    names = [f"v{i}" for i in range(len(kinds))]
    for kind in kinds:
        if kind == "gate":
            U = _unitary(rng, d**n)
            steps.append(do.gate_step(U))
            ref_steps.append(ref_gate_step(U))
        elif kind in ("measure", "leak"):
            basis = "".join(rng.choice(list(letters), size=n))
            projs = do.label_projectors(do.basis_label(basis, range(n), n, d), d)
            if kind == "leak":  # one outcome's projector left out
                projs = projs[:-1]
            steps.append(do.measure_step(projs))
            ref_steps.append(ref_measure_step(projs))
            recorded += 1
        elif kind == "readout" and d == 2 and n > 1:
            site, basis = int(rng.integers(0, n)), "ZX"[rng.integers(0, 2)]
            steps.append(do.measure_step(ref_readout_kraus(site, basis, n)))
            ref_steps.append(ref_readout_step(site, basis))
            recorded += 1
            n -= 1
        elif kind == "correct":
            U = _unitary(rng, d**n)
            terms = [f"{int(rng.integers(1, d))}*{v}" for v in names[:recorded] if rng.random() < 0.7]
            expr = " + ".join(terms + [str(int(rng.integers(0, d)))])
            steps.append(do._correct_step(U, expr, names, d))
            ref_steps.append(ref_correct_step(U, expr, names, d))
    got, want = run_both(root, steps, ref_steps)
    if isinstance(want, AssertionError):
        assert isinstance(got, AssertionError)
        assert str(want).startswith("branch probabilities sum to")
        assert str(got).startswith("branch probabilities sum to")
        return
    assert not isinstance(got, AssertionError), got
    assert_same_leaves(got, want)


def _flat(outcomes):
    """An outcome tuple with each child's tuple of outcomes spliced in."""
    return tuple(x for o in outcomes for x in o)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)), min_size=1, max_size=5),
)
def test_rows_of_outcomes_match_the_per_branch_walker(seed, exact, shapes):
    # a step of c children per branch records a tuple of r = 0, 1 or more
    # outcomes per child, with probability 1/c as an int, or a float
    # vector with some children below the prune; the per-branch walker
    # keeps each child's tuple as one entry
    rng = np.random.default_rng(seed)
    steps, ref_steps = [], []
    for c, r in shapes:
        table = [tuple(row) for row in rng.integers(0, 3, size=(c, r)).tolist()]
        mats = rng.normal(size=(c, 3, 3))
        if exact:
            pks = c
        else:
            weights = rng.random(c) * (rng.random(c) < 0.8)
            weights[rng.integers(0, c)] += 1.0
            pks = (weights / weights.sum()).tolist()
            pks = [0.5 * ATOL_CONSTRUCT if p < 0.05 else p for p in pks]
            pks = [p / math.fsum(pks) for p in pks]

        def step(outcomes, level, table=table, mats=mats, pks=pks):
            b, c = len(level), len(table)
            children = np.einsum("bj,kij->bki", level, mats).reshape(b * c, 3)
            return table * b, (pks if isinstance(pks, int) else pks * b), children

        def ref_step(outcomes, state, table=table, mats=mats, pks=pks):
            return [
                (row, pks if isinstance(pks, int) else pks[k], mats[k] @ state)
                for k, row in enumerate(table)
            ]

        steps.append(step)
        ref_steps.append(ref_step)
    root = rng.normal(size=3)
    got, want = run_both(root, steps, ref_steps)
    assert not isinstance(want, AssertionError), want
    assert not isinstance(got, AssertionError), got
    assert [o for o, _, _ in got] == [_flat(o) for o, _, _ in want]
    for (_, p, state), (_, p_ref, state_ref) in zip(got, want):
        assert type(p) is type(p_ref)
        assert p == p_ref if exact else abs(p - p_ref) <= 1e-12
        assert np.allclose(state, state_ref, rtol=0, atol=1e-12)


def test_a_row_below_the_prune_is_dropped_with_its_state():
    rows = [(0, 1), (1, 0), (1, 1)]
    pks = [0.5, 0.5 * ATOL_CONSTRUCT, 0.5 - 0.5 * ATOL_CONSTRUCT]
    states = np.eye(3)

    def step(outcomes, level):
        return rows * len(level), pks * len(level), np.tile(states, (len(level), 1))

    leaves = branch_tree(np.ones((1, 3)), [step, do.measure_step(np.eye(3)[:, None] * np.eye(3))])
    assert [o for o, _, _ in leaves] == [(0, 1, 0), (1, 1, 2)]
    assert [s.tolist() for _, _, s in leaves] == [[1, 0, 0], [0, 0, 1]]


def test_a_walk_without_measurements_keeps_the_int_probability():
    U = do.gate("H", (0,), 1)
    [(outcomes, prob, state)] = branch_tree(do.plus_state(1)[None], [do.gate_step(U)] * 3)
    assert outcomes == () and prob == 1 and type(prob) is int
    assert np.allclose(state, do.gate("H", (0,), 1) @ do.plus_state(1), rtol=0, atol=1e-12)


def test_leaking_measurement_raises_on_both_walkers():
    p0 = do.label_projectors((0, 1), 2)[0]
    got, want = run_both(do.plus_state(1), [do.measure_step([p0])], [ref_measure_step([p0])])
    assert isinstance(got, AssertionError) and isinstance(want, AssertionError)
    # every branch pruned: the later steps run on an empty level
    p1 = do.label_projectors((0, 1), 2)[1]
    steps = [do.measure_step([p1]), do.gate_step(do.gate("X", (0,), 1)), do.measure_step([p0, p1])]
    with pytest.raises(AssertionError, match="sum to 0"):
        branch_tree(do.basis_state([0]).astype(complex)[None], steps)


# ---------------------------------------------------------------------------
# both sides of the equivalence, on the benchmark mix


@pytest.mark.parametrize("name,d,n", EQUIVALENCE_MIX_HOSTS)
def test_paired_circuits_match_the_per_branch_walker(name, d, n):
    host = eqv.host_model(name, n, d)
    rng = np.random.default_rng([29, d, n])
    for _ in range(30):
        pc = eqv.random_paired_circuit(host, rng)
        want = list(ref_toy_statistics(pc.epistemic, pc.toy_steps).items())
        assert list(toy.statistics(pc.epistemic, pc.toy_steps).items()) == want
        assert all(type(p) is Fraction for _, p in want)
        ref_steps = [
            ref_gate_step(op) if kind == "gate" else ref_measure_step(op)
            for kind, op in pc.dense_steps
        ]
        got = eqv.dense_statistics(pc.dense_state, pc.dense_steps)
        ref = ref_branch_tree(pc.dense_state, ref_steps)
        assert list(got) == [tuple((k,) for k in o) for o, _, _ in ref]
        for p, (_, p_ref, _) in zip(got.values(), ref):
            assert abs(p - p_ref) <= 1e-12


def kept_tables(plan):
    """The tables of a kept plan's finish that the walker has made."""
    if isinstance(plan, toy._GatePlan):
        return [plan.table]
    return [vars(plan)[name] for name in ("_child_table", "_outcome_table") if name in vars(plan)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(EQUIVALENCE_MIX_HOSTS), st.integers(0, 2**32 - 1))
def test_tabulated_walk_matches_the_per_branch_walker(host, seed):
    # a batch of paired circuits walked on value codes, the steps' plans
    # and tables dropped first: the first pass fills the tables (later
    # circuits read what earlier ones filled), the second reads them; both
    # against the per-branch walker on plans built afresh
    name, d, n = host
    host, rng = eqv.host_model(name, n, d), np.random.default_rng(seed)
    circuits = [eqv.random_paired_circuit(host, rng) for _ in range(8)]
    wants = [list(ref_toy_statistics(pc.epistemic, pc.toy_steps).items()) for pc in circuits]
    for pc in circuits:
        for _, op in pc.toy_steps:
            vars(op).pop("_plans", None)
    for _ in range(2):
        for pc, want in zip(circuits, wants):
            assert list(toy.statistics(pc.epistemic, pc.toy_steps).items()) == want


@pytest.mark.parametrize("name,d,n", EQUIVALENCE_MIX_HOSTS)
def test_a_table_holds_at_most_one_entry_per_value_tuple(name, d, n):
    # a table is keyed by the code of V's values, d^(dim V) of them, and a
    # gate's entries are codes of V_new's values
    host, rng = eqv.host_model(name, n, d), np.random.default_rng([37, d, n])
    steps = {}
    for _ in range(80):
        pc = eqv.random_paired_circuit(host, rng)
        toy.statistics(pc.epistemic, pc.toy_steps)
        steps.update((id(op), op) for _, op in pc.toy_steps)
    sizes = []
    for op in steps.values():
        for plan in toy._plans(op).values():
            codes = range(d ** plan.V.dim)
            for table in kept_tables(plan):
                assert set(table) <= set(codes)
                sizes.append((len(table), len(codes)))
            if isinstance(plan, toy._GatePlan):
                assert set(plan.table.values()) <= set(range(d ** plan.V_new.dim))
    assert sizes and max(size for size, _ in sizes) > 1
    assert any(size == bound > 1 for size, bound in sizes)  # the bound is met


@pytest.mark.parametrize("name,d,n", [("minimal-rebit", 2, 3), ("qudit-stabilizer", 3, 2)])
def test_kept_plans_hold_one_object_per_subspace(name, d, n):
    # a fresh host's steps, walked with the intern cache emptied: every
    # subspace a kept plan holds or is keyed on is one object per value
    host, rng = eqv.host_model.__wrapped__(name, n, d), np.random.default_rng([41, d, n])
    toy._interned.cache_clear()
    steps = {}
    for _ in range(80):
        pc = eqv.random_paired_circuit(host, rng)
        toy.statistics(pc.epistemic, pc.toy_steps)
        steps.update((id(op), op) for _, op in pc.toy_steps)
    held = [V for op in steps.values() for key, plan in toy._plans(op).items()
            for V in (key, plan.V, plan.V_new)]
    assert len({id(V) for V in held}) == len(set(held)) > 1


# ---------------------------------------------------------------------------
# the audits no golden covers


def _record(r):
    return {
        "outcomes": list(r.outcomes),
        "probability": round(r.probability, 12),
        "correction": r.correction,
        "fidelity": round(r.fidelity, 12),
        "final_state": [
            [round(z.real, 12) + 0.0, round(z.imag, 12) + 0.0] for z in r.final_state.tolist()
        ],
    }


def walker_audits() -> dict:
    """Per-branch correction counts and records of the injection and
    witness circuits, as pinned in tests/pinned/walker_audits.json."""
    out = {"peres_mermin": {}, "hadamard_via_cz": {}, "run_injection": {}}
    for ctx in sorted(wit.CONTEXT_SELECTORS):
        rep = wit.peres_mermin_circuit(do.plus_state(2), ctx)
        out["peres_mermin"][ctx] = {
            "audit": rep["audit"],
            "branches": rep["branches"],
            "total_probability": round(rep["total_probability"], 12),
        }
    psi = np.array([0.6, 0.8j])
    recs, audit = inj.hadamard_via_cz(psi)
    out["hadamard_via_cz"]["injected"] = {
        "audit": audit.report(),
        "records": [_record(r) for r in recs],
    }
    inputs = {"S": do.plus_state(1), "CZ": do.plus_state(2), "CCZ": do.plus_state(3)}
    for name, state in inputs.items():
        audit = inj.AuditTrail()
        recs = inj.run_injection(
            inj.scheme_for(name), state, injected=frozenset({"CZ"}), audit=audit
        )
        out["run_injection"][name] = {
            "audit": audit.report(),
            "records": [_record(r) for r in recs],
        }
    out["minimality_probe"] = inj.minimality_probe()
    return out


def test_audits_and_records_match_the_pinned_ones():
    # a JSON round trip turns tuples into lists, as in the pinned file
    assert json.loads(json.dumps(walker_audits())) == json.loads(PINNED.read_text())
