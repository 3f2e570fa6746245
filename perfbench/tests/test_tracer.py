"""The tracer must leave every module and class attribute as it found it,
and its self times must add up to the traced wall time."""

import sys

import counters
import tracer as tr


def _snapshot():
    import spektoy  # noqa: F401
    from spektoy import cli  # noqa: F401

    state = {}
    for key, mod in sorted(sys.modules.items()):
        if key == "spektoy" or key.startswith("spektoy."):
            for attr, value in vars(mod).items():
                state[(key, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        state[(key, attr, cattr)] = cvalue
    return state


def _same(a, b):
    assert a.keys() == b.keys()
    changed = [k for k in a if a[k] is not b[k]]
    assert not changed, changed[:5]


def test_uninstall_restores_every_attribute():
    before = _snapshot()
    t = tr.Tracer()
    counters.LayerCounters().attach(t)
    t.install()
    during = _snapshot()
    assert sum(1 for k in before if before[k] is not during[k]) > 100
    t.uninstall()
    _same(before, _snapshot())


def test_uninstall_restores_after_a_failing_operation():
    from spektoy import toy_model as toy

    before = _snapshot()
    t = tr.Tracer()
    t.install()
    try:
        t.op(0, lambda: toy.make_epistemic(None, ()))
    except Exception:
        pass
    finally:
        t.uninstall()
    _same(before, _snapshot())
    assert not t._stack


def test_self_times_cover_the_traced_wall_time():
    from spektoy import equivalence as eqv
    from spektoy import toy_model as toy
    import numpy as np

    host = eqv.host_model("minimal-rebit", 2, 2)
    pc = eqv.random_paired_circuit(host, np.random.default_rng(0), 5)
    t = tr.Tracer()
    c = counters.LayerCounters()
    c.attach(t)
    t.install()
    try:
        dev = t.op(0, lambda: eqv.compare_statistics(
            toy.statistics(pc.epistemic, pc.toy_steps),
            eqv.dense_statistics(pc.dense_state, pc.dense_steps)))
    finally:
        t.uninstall()
    metrics = counters.per_layer_metrics(t, c)
    assert dev <= 1e-9 and metrics["equivalence.max_deviation"] == dev
    total = sum(t.self_s.values())
    assert abs(total + t.hook_s - t.traced_wall_s) < 1e-6
    assert t.fn_calls["toy_model.statistics"] == 1
    assert metrics["modmath.rref.calls"] > 0
    assert 0 < metrics["modmath.rref.distinct_ratio"] <= 1
